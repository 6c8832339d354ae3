"""Command-line front end: every computation and figure dataset as CSV.

Configuration precedence, highest first: explicit flags, then KEY=VALUE pairs
from --config, then built-in defaults. Config keys are the flag names with
underscores (gamma_g=0.3); values go through the same parsing as the flag.
Output is CSV with a header row, comma separator, '.' decimals, to stdout or
--out. Exit codes: 0 success, 1 domain error (message on stderr), 2 usage.
Each handler imports the package modules it uses when it is dispatched, so a
process loads only what its subcommand needs (``bound`` never imports ``sim``).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
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


def _channel_flags(sub: argparse.ArgumentParser, gamma_g_default: float, gamma_n_default: float):
    sub.add_argument("--gamma-g", type=float, default=gamma_g_default)
    sub.add_argument("--gamma-n", type=float, default=gamma_n_default)
    sub.add_argument("--n0", type=float, default=1.0)
    sub.add_argument("--e0", type=float, default=1.0)


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="KEY=VALUE config file; flags still win")
    sub.add_argument("--out", help="write CSV here instead of stdout")


def _geometry_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--rho-b", type=float, default=1000.0, help="Alice-Bob distance, km")
    sub.add_argument("--rho-e", type=float, default=1000.0, help="Alice-Eve distance, km")
    sub.add_argument("--theta-e", type=float, default=2.0, help="Eve off-axis angle, degrees")
    sub.add_argument("--r", type=float, default=2.0, help="Eve path-loss exponent")
    sub.add_argument("--a", type=float, default=2.0, help="antenna decay exponent")
    sub.add_argument("--mu", type=float, default=1.0, help="relative antenna gain in [0,1]")
    sub.add_argument("--grid", help="region map: THETA_LO:HI:N,RATIO_LO:HI:N")


def _capacity_flags(sub: argparse.ArgumentParser):
    _channel_flags(sub, 0.3, 1.0)
    sub.add_argument("--snr-sweep", help="SNR sweep in dB: LO:HI:N")


def _densities_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--side", choices=("bob", "eve"), default="bob")
    _channel_flags(sub, 0.5, 1.0)
    sub.add_argument("--points", type=int, default=401)


def _bound_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, default=32400, help="block length")
    sub.add_argument("--k-prime", type=int, default=None, help="sacrifice bits")
    sub.add_argument("--rho-sec", type=float, default=None, help="wiretap rate k'/n")
    _channel_flags(sub, 0.3, 2.0)
    sub.add_argument("--s-grid", type=int, default=400, help="s samples in (0,1)")


def _code_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--op", choices=("encode", "decode", "hash"), default=None)
    sub.add_argument("--k", type=int, default=None, help="secret bits")
    sub.add_argument("--k-prime", type=int, default=None, help="sacrifice bits")
    sub.add_argument("--ecc", choices=("identity", "rep3", "hamming74"), default="identity")
    sub.add_argument("--seed", default=None, help="hash seed, hex, k+k'-1 bits")
    sub.add_argument("--message", default=None, help="encode: k bits, hex")
    sub.add_argument("--sacrifice", default=None, help="encode: k' bits, hex")
    sub.add_argument("--word", default=None, help="decode: n received bits / hash: k+k' bits")


def _simulate_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--k-prime", type=int, default=0)
    sub.add_argument("--ecc", choices=("identity", "rep3", "hamming74"), default="identity")
    _channel_flags(sub, 0.5, 1.0)
    sub.add_argument("--trials", type=int, default=100000)
    sub.add_argument("--master-seed", type=int, default=1)
    sub.add_argument("--hash-seed", default=None, help="fix the hash seed, hex")
    sub.add_argument("--block-size", type=int, default=8192)
    sub.add_argument("--threads", type=int, default=1, help="worker cap")


def _oracle_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, default=4)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--k-prime", type=int, default=3)
    sub.add_argument("--ecc", choices=("identity", "rep3", "hamming74"), default="identity")
    sub.add_argument("--levels", type=int, default=8, help="Eve quantizer levels")
    _channel_flags(sub, 0.3, 2.0)
    sub.add_argument("--per-seed", action="store_true", help="emit one row per hash seed")


def _reproduce_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--figure", type=int, choices=range(1, 12), default=None, metavar="1..11")


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


def _apply_config(sub: argparse.ArgumentParser, pairs: Dict[str, str]):
    actions = {a.dest: a for a in sub._actions}
    converted = {}
    for key, value in pairs.items():
        action = actions.get(key)
        if action is None:
            sub.error(f"unknown config key {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            converted[key] = value.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                converted[key] = action.type(value)
            except ValueError:
                kind = action.type.__name__
                raise ValueError(f"config value {key}={value!r} is not a valid {kind}") from None
        else:
            converted[key] = value
    sub.set_defaults(**converted)


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


def _cmd_geometry(args) -> None:
    from .geometry import GeometryConfig, alpha, beta, eve_stronger, gamma_g, protected_region_map

    if args.grid:
        theta_spec, _, ratio_spec = args.grid.partition(",")
        if not ratio_spec:
            raise ValueError("--grid needs THETA_LO:HI:N,RATIO_LO:HI:N")
        rows = protected_region_map(
            _linspace_spec(theta_spec),
            _linspace_spec(ratio_spec),
            r=args.r,
            a=args.a,
            mu=args.mu,
            rho_b_km=args.rho_b,
        )
        _emit(["theta_deg", "rho_ratio", "gamma_g", "protected"], rows, args.out)
        return
    config = GeometryConfig(
        rho_b_km=args.rho_b,
        rho_e_km=args.rho_e,
        theta_e_deg=args.theta_e,
        r=args.r,
        a=args.a,
        mu=args.mu,
    )
    row = {
        "rho_b_km": args.rho_b,
        "rho_e_km": args.rho_e,
        "theta_e_deg": args.theta_e,
        "r": args.r,
        "a": args.a,
        "mu": args.mu,
        "beta": beta(args.r, args.rho_b, args.rho_e),
        "alpha": alpha(args.theta_e, args.a),
        "gamma_g": gamma_g(config),
        "eve_stronger": int(eve_stronger(config)),
    }
    _emit(list(row), [row], args.out)


def _cmd_capacity(args) -> None:
    from .capacity import (
        c_separation_condition,
        capacity_curves,
        positivity_condition,
        secrecy_capacity,
    )

    params = _params_from(args)
    if args.snr_sweep:
        snr_db = _linspace_spec(args.snr_sweep)
        rows = capacity_curves(10.0 ** (snr_db / 10.0), params)
        _emit(["snr_db", "c_bob", "c_eve", "c_s", "gauss_ref", "bsc_ref"], rows, args.out)
        return
    res = secrecy_capacity(params)
    row = {
        "gamma_g": args.gamma_g,
        "gamma_n": args.gamma_n,
        "n0": args.n0,
        "e0": args.e0,
        "c_bob": res.c_bob,
        "c_eve": res.c_eve,
        "c_s": res.c_s,
        "positive_condition": int(positivity_condition(params)),
        "c_separation": int(c_separation_condition(params)),
    }
    _emit(list(row), [row], args.out)


def _cmd_densities(args) -> None:
    from .figures import density_rows

    if args.points < 2:
        raise ValueError("--points must be >= 2")
    fields, rows = density_rows(args.side, _params_from(args), args.points)
    _emit(fields, rows, args.out)


def _cmd_bound(args) -> None:
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
    _emit(["s", "log2_bound", "is_min"], rows, args.out)


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


def _cmd_code(args) -> None:
    from .code import bits_to_bpsk, bits_to_hex, decode, encode, hash_bits, make_ecc

    if args.op is None:
        raise ValueError("--op is required (encode, decode, or hash)")
    _require(args, ["k", "k-prime", "seed"])
    k, kp = args.k, args.k_prime
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
        m_hat = decode(bits_to_bpsk(received), seed, ecc, k)
        row = {"op": "decode", "n": ecc.block_length, "message": bits_to_hex(m_hat)}
    else:
        _require(args, ["word"])
        v = _hex_flag("--word", args.word, k + kp)
        row = {"op": "hash", "n": ecc.block_length, "digest": bits_to_hex(hash_bits(v, seed, k, kp))}
    _emit(list(row), [row], args.out)


def _cmd_simulate(args) -> None:
    from .code import make_ecc
    from .leakage import CodeParams
    from .sim import run_reliability

    code = CodeParams(n=args.n, k=args.k, k_prime=args.k_prime)
    ecc = make_ecc(args.ecc, args.k + args.k_prime)
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
    row = {"master_seed": args.master_seed, **report.as_dict()}
    _emit(list(row), [row], args.out)


def _cmd_oracle(args) -> None:
    from .code import make_ecc
    from .leakage import CodeParams
    from .sim import exact_leakage, make_eve_quantizer

    code = CodeParams(n=args.n, k=args.k, k_prime=args.k_prime)
    ecc = make_ecc(args.ecc, args.k + args.k_prime)
    params = _params_from(args)
    quantizer = make_eve_quantizer(params, levels=args.levels)
    report = exact_leakage(code, ecc, quantizer, params)
    if args.per_seed:
        rows = [{"seed_hex": h, "leak_bits": leak} for h, leak in report.per_seed]
        _emit(["seed_hex", "leak_bits"], rows, args.out)
        return
    row = {
        "n": report.n,
        "k": report.k,
        "k_prime": report.k_prime,
        "levels": report.levels,
        "exact_leak_bits": report.exact_leak_bits,
        "bound_log2": report.bound_log2,
        "bound_bits": report.bound_bits,
        "bound_holds": int(report.exact_leak_bits <= report.bound_bits or report.bound_bits > report.k),
    }
    _emit(list(row), [row], args.out)


def _cmd_reproduce(args) -> None:
    from .figures import figure_data

    if args.figure is None:
        raise ValueError("--figure is required (1..11)")
    fields, rows = figure_data(args.figure)
    _emit(fields, rows, args.out)


# name -> (help, flag builder, handler), in the order help lists them
_SUBCOMMANDS = {
    "geometry": ("gamma_g from link geometry, or a region map", _geometry_flags, _cmd_geometry),
    "capacity": ("secrecy capacity point or SNR sweep", _capacity_flags, _cmd_capacity),
    "densities": ("mixture pdf samples at Bob or Eve", _densities_flags, _cmd_densities),
    "bound": ("leakage bound curve over s and its minimum", _bound_flags, _cmd_bound),
    "code": ("encode/decode/hash with hex bit words", _code_flags, _cmd_code),
    "simulate": ("Monte-Carlo reliability run on Bob's channel", _simulate_flags, _cmd_simulate),
    "oracle": ("exact quantized leakage on a tiny instance", _oracle_flags, _cmd_oracle),
    "reproduce": ("write the dataset behind one figure", _reproduce_flags, _cmd_reproduce),
}


def build_parser(argv: Sequence[str] = ()):
    """The argparse tree and its name -> subparser map.

    When argv[0] names a subcommand only that subparser is built: argparse
    would route argv to it anyway, and the top level has no option but -h.
    Otherwise (help, no subcommand, an invalid one) all of them are built, so
    the top-level help and the invalid-choice error list every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="satwiretap",
        description="keyless physical-layer secrecy toolkit for satellite links",
    )
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    invoked = argv[0] if argv else None
    names = [invoked] if invoked in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_text, add_flags, _ = _SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        add_flags(sub)
        _common_flags(sub)
    return parser, subs.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser(argv)
    args, unknown = parser.parse_known_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    if args.config:
        try:
            _apply_config(subparsers[args.command], _load_config(args.config))
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        args = parser.parse_args(argv)
    elif unknown:
        parser.parse_args(argv)  # exits 2 naming the unrecognized arguments
    try:
        _SUBCOMMANDS[args.command][2](args)
    except (ValueError, MemoryError) as exc:  # MemoryError: numpy refused an array size
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
