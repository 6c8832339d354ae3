"""Write tests/data/exponent_table.csv: 30-digit E0, psi and C_eve values.

The table is the reference that tests/test_exponent_oracle.py holds the
exponent kernel to. Every value comes from the unfolded textbook integral
over Eve's observation z, evaluated by mpmath at 30 significant digits with
the integral split at the kink z = 0. Each integral is computed twice: split
at 0 and +-a only, and also at 1, 2, 4, ..., 128 times the width v(1-s)/(2a)
of the step that (W+^p + W-^p)^(1-s) takes at 0. The script stops if the two
disagree by more than 1e-25.

Run it from the repository root (mpmath is in the `oracle` extra):

    python tests/make_exponent_table.py
"""

from __future__ import annotations

import csv
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

OUT = Path(__file__).resolve().parent / "data" / "exponent_table.csv"

CHANNELS = (
    (0.05, 9.0),
    (0.3, 0.7),
    (0.3, 2.0),
    (0.5, 1.0),
    (0.6, 4.0),
    (0.9, 0.7),
    (1.2, 2.0),
    (1.5, 0.25),
    (2.0, 0.5),
)
S_VALUES = (1e-4, 0.2, 0.6, 1.0 - 1e-3, 1.0 - 1e-5)
# points where the doubling integrator's E0 was accepted with a wrong value,
# and the last point of the bound's 400-point s-grid
EXTRA = (
    (1.2, 2.0, 1.0 - 3.5e-4),
    (0.9, 0.7, 1.0 - 4.2e-4),
    (0.3, 0.7, 1.0 - 1.6e-4),
    (0.3, 2.0, 1.0 - 1e-2),
    (0.5, 1.0, 1.0 - 3e-3),
    (0.05, 9.0, 1.0 - 1e-6),
)


def _quad(f, breaks):
    value, err = mp.quad(f, breaks, error=True, maxdegree=10)
    if err > mp.mpf("1e-27") * max(1, abs(value)):
        raise RuntimeError(f"mpmath error estimate {err} on {breaks}")
    return value


def _checked(f, a, v, t):
    # beyond a + 12 sigma the Gaussian tail holds less than 2e-33
    edge = a + 12 * mp.sqrt(v)
    step = v * t / (2 * a)
    coarse = [-edge, -a, 0, a, edge]
    layers = {sign * k * step for sign in (-1, 1) for k in (1, 2, 4, 8, 16, 32, 64, 128)}
    fine = sorted({-edge, -a, 0, a, edge} | {z for z in layers if abs(z) < edge})
    one, two = _quad(f, coarse), _quad(f, fine)
    if abs(one - two) > mp.mpf("1e-25"):
        raise RuntimeError(f"split points disagree: {one} vs {two}")
    return two


def _log_densities(z, a, v):
    c = -mp.log(2 * mp.pi * v) / 2
    return c - (z - a) ** 2 / (2 * v), c - (z + a) ** 2 / (2 * v)


def e0(s, a, v):
    t = 1 - s
    p = 1 / t

    def f(z):
        # (W+^p/2 + W-^p/2)^t with the larger density taken out, so that t
        # never multiplies a logarithm of size p and loses digits
        lp, lm = _log_densities(z, a, v)
        hi, lo = max(lp, lm), min(lp, lm)
        return mp.exp(hi + t * mp.log((1 + mp.exp(p * (lo - hi))) / 2))

    return mp.log(_checked(f, a, v, t))


def psi(s, a, v):
    def f(z):
        lp, lm = _log_densities(z, a, v)
        lmix = mp.log((mp.exp(lp) + mp.exp(lm)) / 2)
        return (mp.exp(lp + s * (lp - lmix)) + mp.exp(lm + s * (lm - lmix))) / 2

    return mp.log(_checked(f, a, v, mp.mpf(1)))


def capacity(a, v):
    def f(z):
        lp, _ = _log_densities(z, a, v)
        return mp.exp(lp) * mp.log(1 + mp.exp(-2 * a * z / v)) / mp.log(2)

    return 1 - _checked(f, a, v, mp.mpf(1))


def main() -> None:
    points = [(gg, gn, s) for gg, gn in CHANNELS for s in S_VALUES] + list(EXTRA)
    OUT.parent.mkdir(exist_ok=True)
    with OUT.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["gamma_g", "gamma_n", "s", "e0_nats", "psi_nats", "c_eve_bits"])
        for gg, gn, s in points:
            a, v, ms = mp.mpf(gg), mp.mpf(gn), mp.mpf(s)
            row = [repr(gg), repr(gn), repr(s)]
            row += [mp.nstr(x, 25) for x in (e0(ms, a, v), psi(ms, a, v), capacity(a, v))]
            writer.writerow(row)
    print(f"wrote {len(points)} points to {OUT}")


if __name__ == "__main__":
    main()
