"""Command-line front end: every computation and figure dataset as CSV.

``_SUBCOMMANDS`` holds each subcommand's help line, flags and handler. A flag is
``(flag, convert, default, help)``; ``convert`` reads VALUE in ``--flag VALUE`` or
``--flag=VALUE`` and raises ValueError on a bad one. A unique prefix of a flag
works; a VALUE may start with '-' only when a digit or '.' follows, as in a
negative number. Flags beat KEY=VALUE pairs from --config (keys are flag names
with underscores, gamma_g=0.3, read by the same converters), which beat the
defaults. Each handler returns its rows, dicts whose keys in order are the CSV
header, and ``main`` writes them once, header first, to stdout or --out.
Exit codes: 0 success or -h/--help, 1 domain error (message on stderr),
2 usage (usage line and error on stderr).
Each handler imports the package modules it uses when it is dispatched, so a
process loads only what its subcommand needs (``bound`` never imports ``sim``).
"""

from __future__ import annotations

import csv
import math
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np


def _linspace_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected LO:HI:COUNT")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"LO and HI must be finite, got {text!r}")
    if count < 1:
        raise ValueError("COUNT must be >= 1")
    return np.linspace(lo, hi, count)


def _choice(*names):
    """A converter that accepts only `names`, read as their type; its __name__ lists them."""

    def convert(text: str):
        value = type(names[0])(text)
        if value not in names:
            raise ValueError(text)
        return value

    convert.__name__ = "|".join(map(str, names))
    return convert


def _switch(text: str) -> bool:
    """The converter of a flag that takes no value; in a config file, 1/true/yes/on set it."""
    return text.lower() in ("1", "true", "yes", "on")


def _channel(gamma_g: float, gamma_n: float) -> tuple:
    return (
        ("--gamma-g", float, gamma_g, "Eve's amplitude factor"),
        ("--gamma-n", float, gamma_n, "Eve's noise-variance factor"),
        ("--n0", float, 1.0, "Bob's noise variance"),
        ("--e0", float, 1.0, "BPSK amplitude"),
    )


_ECC = ("--ecc", _choice("identity", "rep3", "hamming74"), "identity", "inner code")
_COMMON = (
    ("--config", str, None, "KEY=VALUE config file; flags still win"),
    ("--out", str, None, "write CSV here instead of stdout"),
)


def _load_config(path: str) -> Dict[str, str]:
    pairs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


class _Usage(Exception):
    """A usage error: main prints the usage line and this message, then exits 2."""


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _label(flag: str, convert) -> str:
    return flag if convert is _switch else f"{flag} {convert.__name__}"


def _usage(name: str, flags: Sequence[tuple]) -> str:
    return f"usage: satwiretap {name} " + " ".join(f"[{_label(f, c)}]" for f, c, _, _ in flags)


def _convert(where: str, convert, text: str, error=_Usage):
    try:
        return convert(text)
    except ValueError:
        raise error(f"{where} is not a valid {convert.__name__}") from None


def _parse(flags: Sequence[tuple], argv: Sequence[str]) -> dict:
    """The values argv sets, by dest."""
    by_flag = {spec[0]: spec for spec in flags}
    given, tokens = {}, iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        found = [f for f in by_flag if len(flag) > 2 and f.startswith(flag)]
        found = [flag] if flag in found else found  # an exact flag wins: --k beside --k-prime
        if len(found) != 1:
            what = f"ambiguous option: {flag} could match {', '.join(found)}"
            raise _Usage(what if found else f"unrecognized arguments: {token}")
        flag, convert = by_flag[found[0]][:2]
        if convert is _switch:
            if eq:
                raise _Usage(f"argument {flag}: ignored explicit argument {text!r}")
            text = "on"
        elif not eq:
            text = next(tokens, None)
            if text is None or text[:1] == "-" and not (text[1:2].isdigit() or text[1:2] == "."):
                raise _Usage(f"argument {flag}: expected one argument")
        given[_dest(flag)] = _convert(f"argument {flag}: {text!r}", convert, text)
    return given


def _emit(fields: List[str], rows: List[dict], out: Optional[str]) -> None:
    stream = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([row[f] for f in fields] for row in rows)
    finally:
        if out:
            stream.close()


def _params_from(args):
    from .channel import WiretapChannelParams

    return WiretapChannelParams(
        gamma_g=args.gamma_g, gamma_n=args.gamma_n, n0=args.n0, e0=args.e0
    )


def _cmd_geometry(args) -> List[dict]:
    from .geometry import GeometryConfig, alpha, beta, eve_stronger, gamma_g, protected_region_map

    if args.grid:
        theta_spec, _, ratio_spec = args.grid.partition(",")
        if not ratio_spec:
            raise ValueError("--grid needs THETA_LO:HI:N,RATIO_LO:HI:N")
        return protected_region_map(
            _linspace_spec(theta_spec),
            _linspace_spec(ratio_spec),
            r=args.r,
            a=args.a,
            mu=args.mu,
            rho_b_km=args.rho_b,
        )
    config = GeometryConfig(
        rho_b_km=args.rho_b,
        rho_e_km=args.rho_e,
        theta_e_deg=args.theta_e,
        r=args.r,
        a=args.a,
        mu=args.mu,
    )
    return [{
        **vars(config),
        "beta": beta(args.r, args.rho_b, args.rho_e),
        "alpha": alpha(args.theta_e, args.a),
        "gamma_g": gamma_g(config),
        "eve_stronger": int(eve_stronger(config)),
    }]


def _cmd_capacity(args) -> List[dict]:
    from .capacity import _db_sweep, c_separation_condition, positivity_condition, secrecy_capacity

    params = _params_from(args)
    if args.snr_sweep:
        return _db_sweep(_linspace_spec(args.snr_sweep), params)
    return [{
        **vars(params),
        **vars(secrecy_capacity(params)),
        "positive_condition": int(positivity_condition(params)),
        "c_separation": int(c_separation_condition(params)),
    }]


def _cmd_densities(args) -> List[dict]:
    from .figures import density_rows

    if args.points < 2:
        raise ValueError("--points must be >= 2")
    return density_rows(args.side, _params_from(args), args.points)


def _cmd_bound(args) -> List[dict]:
    from .leakage import CodeParams, min_leakage_bound

    if args.k_prime is not None and args.rho_sec is not None:
        raise ValueError("give --k-prime or --rho-sec, not both")
    if args.rho_sec is not None and not 0.0 <= args.rho_sec <= 1.0:
        raise ValueError(f"--rho-sec must be a finite rate in [0, 1], got {args.rho_sec}")
    if args.k_prime is not None:
        k_prime = args.k_prime
    else:
        rho = 0.1 if args.rho_sec is None else args.rho_sec
        k_prime = int(round(rho * args.n))
    code = CodeParams(n=args.n, k=args.n - k_prime, k_prime=k_prime)
    result = min_leakage_bound(code, _params_from(args), s_grid_resolution=args.s_grid)
    rows = [
        {"s": s, "log2_bound": value, "is_min": 0}
        for s, value in result.curve
    ]
    rows.append({"s": result.s_star, "log2_bound": result.log2_bound, "is_min": 1})
    return rows


def _require(args, names: Sequence[str]) -> None:
    missing = [name for name in names if getattr(args, name.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"--op {args.op} requires --" + ", --".join(missing))


def _hex_flag(flag: str, text: str, length: int):
    """hex_to_bits on a flag's value, with the flag named in its error."""
    from .code import hex_to_bits

    try:
        return hex_to_bits(text, length)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_code(args) -> List[dict]:
    from .code import _check_count, bits_to_hex, encode, hash_bits, make_ecc

    if args.op is None:
        raise ValueError("--op is required (encode, decode, or hash)")
    _require(args, ["k", "k-prime", "seed"])
    k, kp = _check_count("--k", args.k, 1), _check_count("--k-prime", args.k_prime, 0)
    ecc = make_ecc(args.ecc, k + kp)
    seed = _hex_flag("--seed", args.seed, k + kp - 1)
    if args.op == "encode":
        _require(args, ["message", "sacrifice"])
        m = _hex_flag("--message", args.message, k)
        l = _hex_flag("--sacrifice", args.sacrifice, kp)
        cw = encode(m, l, seed, ecc)
        row = {"op": "encode", "n": ecc.block_length, "codeword": bits_to_hex(cw)}
    elif args.op == "decode":
        _require(args, ["word"])
        received = _hex_flag("--word", args.word, ecc.block_length)
        m_hat = hash_bits(ecc.decode_bits(received), seed, k, kp)
        row = {"op": "decode", "n": ecc.block_length, "message": bits_to_hex(m_hat)}
    else:
        _require(args, ["word"])
        v = _hex_flag("--word", args.word, k + kp)
        row = {"op": "hash", "n": ecc.block_length, "digest": bits_to_hex(hash_bits(v, seed, k, kp))}
    return [row]


def _frame(args):
    """(CodeParams, ECC) for the frame that --n, --k, --k-prime and --ecc describe."""
    from .code import make_ecc
    from .leakage import CodeParams

    code = CodeParams(n=args.n, k=args.k, k_prime=args.k_prime)
    return code, make_ecc(args.ecc, args.k + args.k_prime)


def _cmd_simulate(args) -> List[dict]:
    from .sim import run_reliability

    code, ecc = _frame(args)
    hash_seed = None
    if args.hash_seed is not None:
        hash_seed = _hex_flag("--hash-seed", args.hash_seed, args.k + args.k_prime - 1)
    report = run_reliability(
        code,
        ecc,
        _params_from(args),
        trials=args.trials,
        master_seed=args.master_seed,
        workers=args.threads,
        block_size=args.block_size,
        hash_seed=hash_seed,
    )
    return [{"master_seed": args.master_seed, **vars(report)}]


def _cmd_oracle(args) -> List[dict]:
    from .sim import EveQuantizer, exact_leakage

    report = exact_leakage(*_frame(args), EveQuantizer(args.levels), _params_from(args))
    if args.per_seed:
        return [{"seed_hex": h, "leak_bits": leak} for h, leak in report.per_seed]
    row = dict(vars(report))
    del row["per_seed"]
    row["bound_holds"] = int(report.exact_leak_bits <= report.bound_bits or report.bound_bits > report.k)
    return [row]


def _cmd_reproduce(args) -> List[dict]:
    from .figures import figure_data

    if args.figure is None:
        raise ValueError("--figure is required (1..11)")
    return figure_data(args.figure)


# name -> (help, flags, handler), in the order help lists them
_SUBCOMMANDS = {
    "geometry": ("gamma_g from link geometry, or a region map", (
        ("--rho-b", float, 1000.0, "Alice-Bob distance, km"),
        ("--rho-e", float, 1000.0, "Alice-Eve distance, km"),
        ("--theta-e", float, 2.0, "Eve off-axis angle, degrees"),
        ("--r", float, 2.0, "Eve path-loss exponent"),
        ("--a", float, 2.0, "antenna decay exponent"),
        ("--mu", float, 1.0, "relative antenna gain in [0,1]"),
        ("--grid", str, None, "region map: THETA_LO:HI:N,RATIO_LO:HI:N"),
    ), _cmd_geometry),
    "capacity": ("secrecy capacity point or SNR sweep", (
        *_channel(0.3, 1.0),
        ("--snr-sweep", str, None, "SNR sweep in dB: LO:HI:N"),
    ), _cmd_capacity),
    "densities": ("mixture pdf samples at Bob or Eve", (
        ("--side", _choice("bob", "eve"), "bob", "whose channel output"),
        *_channel(0.5, 1.0),
        ("--points", int, 401, "samples"),
    ), _cmd_densities),
    "bound": ("leakage bound curve over s and its minimum", (
        ("--n", int, 32400, "block length"),
        ("--k-prime", int, None, "sacrifice bits"),
        ("--rho-sec", float, None, "wiretap rate k'/n (0.1 without --k-prime)"),
        *_channel(0.3, 2.0),
        ("--s-grid", int, 400, "s samples in (0,1)"),
    ), _cmd_bound),
    "code": ("encode/decode/hash with hex bit words", (
        ("--op", _choice("encode", "decode", "hash"), None, "operation"),
        ("--k", int, None, "secret bits"),
        ("--k-prime", int, None, "sacrifice bits"),
        _ECC,
        ("--seed", str, None, "hash seed, hex, k+k'-1 bits"),
        ("--message", str, None, "encode: k bits, hex"),
        ("--sacrifice", str, None, "encode: k' bits, hex"),
        ("--word", str, None, "decode: n received bits / hash: k+k' bits"),
    ), _cmd_code),
    "simulate": ("Monte-Carlo reliability run on Bob's channel", (
        ("--n", int, 1, "block length"),
        ("--k", int, 1, "secret bits"),
        ("--k-prime", int, 0, "sacrifice bits"),
        _ECC,
        *_channel(0.5, 1.0),
        ("--trials", int, 100000, "frames"),
        ("--master-seed", int, 1, "seed of every block's random stream"),
        ("--hash-seed", str, None, "fix the hash seed, hex"),
        ("--block-size", int, 8192, "frames per block"),
        ("--threads", int, 1, "worker cap"),
    ), _cmd_simulate),
    "oracle": ("exact quantized leakage on a tiny instance", (
        ("--n", int, 4, "block length"),
        ("--k", int, 1, "secret bits"),
        ("--k-prime", int, 3, "sacrifice bits"),
        _ECC,
        ("--levels", int, 8, "Eve quantizer levels"),
        *_channel(0.3, 2.0),
        ("--per-seed", _switch, False, "emit one row per hash seed"),
    ), _cmd_oracle),
    "reproduce": ("write the dataset behind one figure", (
        ("--figure", _choice(*range(1, 12)), None, "figure number"),
    ), _cmd_reproduce),
}
_TOP_USAGE = "usage: satwiretap SUBCOMMAND [--FLAG VALUE ...]"
_TOP_HELP = f"{_TOP_USAGE}\n\nsubcommands (SUBCOMMAND --help lists its flags):\n" + "\n".join(
    f"  {name:<10} {spec[0]}" for name, spec in _SUBCOMMANDS.items()
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(_TOP_HELP, file=sys.stderr)
        return 2
    name, *rest = argv
    if name in ("-h", "--help"):
        print(_TOP_HELP)
        raise SystemExit(0)
    if name not in _SUBCOMMANDS:
        names = ", ".join(map(repr, _SUBCOMMANDS))
        print(f"{_TOP_USAGE}\nsatwiretap: error: argument SUBCOMMAND: "
              f"invalid choice: {name!r} (choose from {names})", file=sys.stderr)
        raise SystemExit(2)
    help_line, flags, handler = _SUBCOMMANDS[name]
    flags += _COMMON
    if "-h" in rest or "--help" in rest:
        print(f"{_usage(name, flags)}\n\n{help_line}\n")
        print("flags (-h shows this; a unique prefix works):")
        for flag, convert, default, text in flags:
            note = "" if default is None else f" (default {default})"
            print(f"  {_label(flag, convert):<30} {text}{note}")
        raise SystemExit(0)
    try:
        given = _parse(flags, rest)
        values = {_dest(flag): default for flag, _, default, _ in flags}
        if given.get("config"):
            try:
                pairs = _load_config(given["config"])
            except OSError as exc:
                raise ValueError(f"cannot read config: {exc}") from None
            converters = {_dest(flag): convert for flag, convert, _, _ in flags}
            for key, value in pairs.items():
                if key not in converters:
                    raise _Usage(f"unknown config key {key!r}")
                where = f"config value {key}={value!r}"
                values[key] = _convert(where, converters[key], value, ValueError)
        values.update(given)
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # not a nan cell
            rows = handler(SimpleNamespace(**values))
        _emit(list(rows[0]), rows, values["out"])
    except _Usage as exc:
        print(f"{_usage(name, flags)}\nsatwiretap {name}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except BrokenPipeError:
        return 0
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:  # MemoryError: numpy refused a size
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
