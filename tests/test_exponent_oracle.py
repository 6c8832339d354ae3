"""The exponent kernel against a committed 30-digit table, and its scale invariance.

tests/data/exponent_table.csv comes from tests/make_exponent_table.py
(mpmath, unfolded integrals split at the kink). It includes points with
1 - s between 1e-6 and 1e-2, where a panel-doubling integrator used to accept
E0 values off by up to 2e-8 nats.
"""

import csv
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap.capacity import capacity_eve
from satwiretap.channel import WiretapChannelParams
from satwiretap.leakage import e0, psi

TABLE = Path(__file__).resolve().parent / "data" / "exponent_table.csv"
ROWS = list(csv.DictReader(TABLE.open(encoding="utf-8")))


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r['gamma_g']}-{r['gamma_n']}-{r['s']}" for r in ROWS]
)
def test_kernel_matches_30_digit_table(row):
    params = WiretapChannelParams(gamma_g=float(row["gamma_g"]), gamma_n=float(row["gamma_n"]))
    s = float(row["s"])
    assert abs(e0(s, params) - float(row["e0_nats"])) <= 1e-13
    assert abs(psi(s, params) - float(row["psi_nats"])) <= 1e-13
    assert abs(capacity_eve(params) - float(row["c_eve_bits"])) <= 1e-13


def test_table_covers_the_approach_to_one():
    near_one = [r for r in ROWS if 1e-6 <= 1.0 - float(r["s"]) <= 1e-2]
    assert len(ROWS) >= 50 and len(near_one) >= 15


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    gamma_g=st.floats(min_value=0.01, max_value=3.0),
    gamma_n=st.floats(min_value=0.1, max_value=10.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_e0_depends_on_the_channel_only_through_a_over_sigma(s, gamma_g, gamma_n, scale):
    base = e0(s, WiretapChannelParams(gamma_g=gamma_g, gamma_n=gamma_n))
    scaled = e0(s, WiretapChannelParams(gamma_g=scale * gamma_g, gamma_n=scale**2 * gamma_n))
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)
