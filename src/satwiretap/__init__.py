"""Keyless physical-layer secrecy toolkit for satellite BPSK links.

Layers: geometry maps link parameters to Eve's amplitude degradation gamma_g;
channel and capacity quantify the binary-input Gaussian wiretap pair and its
secrecy capacity; leakage evaluates finite-length information-leakage bounds;
code implements the modified-Toeplitz coset encoder; sim provides Monte-Carlo
reliability runs and exact tiny-instance leakage oracles; cli exposes all of
it as CSV-producing subcommands.

The namespace is lazy (PEP 562): ``import satwiretap`` loads no submodule.
The first access to a public name, or to a submodule such as
``satwiretap.sim``, imports its home module and caches the name here, so
every CLI process pays only for the modules its subcommand uses.
"""

import importlib as _importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "capacity": (
        "CapacityResult", "c_separation_condition", "capacity_bob", "capacity_curves",
        "capacity_eve", "cs_gamma_sweep", "mi_biawgn", "positivity_condition",
        "secrecy_capacity",
    ),
    "channel": (
        "WiretapChannelParams", "density_bob", "density_eve", "mixture_density_bob",
        "mixture_density_eve",
    ),
    "code": (
        "DecodeFailure", "EccScheme", "Hamming74Code", "IdentityCode", "Repetition3Code",
        "bits_to_bpsk", "bits_to_hex", "decode", "encode", "hard_decision", "hash_bits",
        "hex_to_bits", "make_ecc", "toeplitz_apply_batch",
    ),
    "geometry": ("GeometryConfig", "alpha", "beta", "eve_stronger", "gamma_g", "protected_region_map"),
    "leakage": (
        "CodeParams", "LeakageBound", "e0", "e0_max_s1_limit", "leakage_bound",
        "min_leakage_bound", "psi",
    ),
    "sim": (
        "EveQuantizer", "LeakageOracleReport", "ReliabilityReport", "exact_leakage",
        "run_reliability",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "figures", "quadrature"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")  # binds it here too
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
