"""The package namespace: the same public names, resolved lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satwiretap

PUBLIC_NAMES = [
    "CapacityResult", "CodeParams", "DecodeFailure", "EccScheme", "EveQuantizer",
    "GeometryConfig", "Hamming74Code", "IdentityCode", "LeakageBound", "LeakageOracleReport",
    "ReliabilityReport", "Repetition3Code", "WiretapChannelParams", "alpha", "beta",
    "bits_to_bpsk", "bits_to_hex", "c_separation_condition", "capacity_bob", "capacity_curves",
    "capacity_eve", "cs_gamma_sweep", "decode", "density_bob", "density_eve", "e0",
    "e0_max_s1_limit", "encode", "eve_stronger", "exact_leakage", "gamma_g",
    "hard_decision", "hash_bits", "hex_to_bits", "leakage_bound", "make_ecc",
    "mi_biawgn", "min_leakage_bound", "mixture_density_bob", "mixture_density_eve",
    "positivity_condition", "protected_region_map", "psi", "run_reliability",
    "secrecy_capacity", "toeplitz_apply_batch",
]
SUBMODULES = (
    "capacity", "channel", "cli", "code", "figures", "geometry", "leakage", "quadrature", "sim",
)


def test_public_names_unchanged():
    assert len(PUBLIC_NAMES) == 46
    assert satwiretap.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(satwiretap._EXPORTS))
def test_module_all_matches_the_package_table(module):
    home = importlib.import_module(f"satwiretap.{module}")
    assert set(home.__all__) == set(satwiretap._EXPORTS[module])


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_home_module_object(name):
    value = getattr(satwiretap, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("satwiretap.")
    assert getattr(home, name) is value
    assert vars(satwiretap)[name] is value  # cached after the first access


def test_dir_lists_every_name_and_submodule():
    listed = dir(satwiretap)
    assert set(PUBLIC_NAMES) <= set(listed) and set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        satwiretap.no_such_name
    assert not hasattr(satwiretap, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from satwiretap import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(satwiretap, name)


def test_import_loads_no_submodule_until_one_is_used():
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import json, sys, satwiretap; "
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('satwiretap.')); "
        "before = loaded(); "
        "sim = satwiretap.sim; "
        "print(json.dumps([before, loaded(), sim is sys.modules['satwiretap.sim'], "
        "satwiretap.e0 is sys.modules['satwiretap.leakage'].e0]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    )
    before, after, sim_bound, e0_bound = json.loads(result.stdout)
    assert before == []
    assert "satwiretap.sim" in after and "satwiretap.figures" not in after
    assert sim_bound and e0_bound


def test_leakage_loads_without_the_code_module():
    # bound and reproduce never encode a frame; the count check lives in channel
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import json, sys, satwiretap.leakage; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('satwiretap.'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(result.stdout) == [
        "satwiretap.channel", "satwiretap.leakage", "satwiretap.quadrature",
    ]
    from satwiretap import channel, code

    assert code._check_count is channel._check_count
