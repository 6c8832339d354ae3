import importlib.util
import math
import sys
from pathlib import Path

import pytest

from satwiretap.cli import main
from satwiretap.channel import WiretapChannelParams, density_bob, density_eve
from satwiretap.channel import mixture_density_bob, mixture_density_eve
from satwiretap.figures import FIGURES, density_rows, figure_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    # the benchmark's own CSV comparison and tolerance, so there is one checker
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

_CACHE = {}


def fig(i):
    if i not in _CACHE:
        _CACHE[i] = figure_data(i)
    return _CACHE[i]


def by(rows, **match):
    return [r for r in rows if all(r[k] == v for k, v in match.items())]


@pytest.mark.parametrize("i", sorted(FIGURES))
def test_schema(i):
    rows = fig(i)
    header = list(rows[0])
    assert header
    assert all(list(row) == header for row in rows)


@pytest.mark.parametrize("i", sorted(FIGURES))
def test_matches_golden_reference(i, tmp_path):
    out = tmp_path / f"figure_{i}.csv"
    assert main(["reproduce", "--figure", str(i), "--out", str(out)]) == 0
    want = (PERFBENCH / "ref" / f"figure_{i}.csv").read_text()
    assert workloads.compare_csv(out.read_text(), want, workloads.FIGURE_TOL) == []


@pytest.mark.parametrize("name", ["bound_scan", "oracle", "simulate"])
def test_benchmark_workload_passes_its_own_checks(name, capsys):
    # every argv the benchmark runs at seed 1, through the CLI, against its references
    refs = workloads.load_refs()
    for invocation in workloads.build(name, 1, refs):
        assert invocation.key in refs[name]
        assert main(invocation.argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert invocation.check(captured.out) == [], invocation.key


@pytest.mark.parametrize("i", [1, 2, 3, 6, 7])
def test_quadrature_free_figures_byte_identical(i, capsys):
    # these figures use no quadrature, so nothing excuses a changed digit
    assert main(["reproduce", "--figure", str(i)]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (PERFBENCH / "ref" / f"figure_{i}.csv").read_bytes()


@pytest.mark.parametrize(
    "side, one, mix",
    [("bob", density_bob, mixture_density_bob), ("eve", density_eve, mixture_density_eve)],
)
def test_density_rows_equal_scalar_calls(side, one, mix):
    params = WiretapChannelParams(gamma_g=0.7, gamma_n=1.9, n0=0.8, e0=1.1)
    rows = density_rows(side, params, points=57)
    assert len(rows) == 57
    for row in rows:
        y = row["y"]
        want = [y, float(one(y, +1, params)), float(one(y, -1, params)), float(mix(y, params))]
        assert list(row.values()) == want
        assert all(type(v) is float for v in row.values())


@pytest.mark.parametrize("side", ["alice", "Eve", ""])
def test_density_rows_reject_other_sides(side):
    with pytest.raises(ValueError, match=f"side must be 'bob' or 'eve', got {side!r}"):
        density_rows(side, WiretapChannelParams(gamma_g=0.5, gamma_n=1.0))


@pytest.mark.parametrize("i", [0, 12, -3])
def test_unknown_id(i):
    with pytest.raises(ValueError, match="valid ids"):
        figure_data(i)


def test_fig1_threshold_shrinks_with_distance():
    rows = fig(1)
    for orbit in ("leo", "meo", "geo"):
        for r in (2.0, 2.2):
            grp = by(rows, orbit=orbit, r=r)
            stars = [g["theta_star_deg"] for g in grp]
            assert all(b <= a + 1e-12 for a, b in zip(stars, stars[1:]))
            assert stars[-1] == 0.0  # co-located Eve at equal gain

    # free-space loss depends only on the distance ratio, so orbits coincide
    leo = [g["theta_star_deg"] for g in by(rows, orbit="leo", r=2.0)]
    geo = [g["theta_star_deg"] for g in by(rows, orbit="geo", r=2.0)]
    assert leo == pytest.approx(geo, rel=1e-12)
    leo_steep = [g["theta_star_deg"] for g in by(rows, orbit="leo", r=2.2)]
    geo_steep = [g["theta_star_deg"] for g in by(rows, orbit="geo", r=2.2)]
    assert max(abs(a - b) for a, b in zip(leo_steep, geo_steep)) > 0.1


def test_fig2_weak_antenna_expands_protection():
    rows = fig(2)
    strong = by(rows, mu=1.0)
    weak = by(rows, mu=0.1)
    assert len(strong) == len(weak) == 26 * 21
    for s, w in zip(strong, weak):
        assert w["gamma_g"] == pytest.approx(0.1 * s["gamma_g"], rel=1e-12)
        assert w["protected"] >= s["protected"]


def test_fig4_capacity_dies_past_the_boundary():
    rows = fig(4)
    for row in rows:
        if row["gamma_g"] >= math.sqrt(row["gamma_n"]):
            assert row["c_s"] == 0.0
        else:
            assert row["c_s"] > 0.0
    for gn in (1.0, 2.0, 4.0):
        cs = [r["c_s"] for r in by(rows, gamma_n=gn)]
        assert all(b <= a + 1e-12 for a, b in zip(cs, cs[1:]))


def test_fig5_reference_orderings():
    rows = fig(5)
    for row in rows:
        assert row["c_s"] == pytest.approx(row["c_bob"] - row["c_eve"], abs=1e-12)
        assert row["bsc_ref"] <= row["c_bob"] + 1e-12 <= row["gauss_ref"] + 2e-12
    assert rows[0]["snr_db"] == pytest.approx(-10.0)
    assert rows[-1]["snr_db"] == pytest.approx(10.0)


def test_fig6_fig7_densities_normalized_shape():
    for i in (6, 7):
        rows = fig(i)
        assert len(rows) == 401
        mid = rows[200]
        assert mid["y"] == pytest.approx(0.0, abs=1e-12)
        assert mid["pdf_plus"] == pytest.approx(mid["pdf_minus"], rel=1e-12)


def test_fig8_predicate_matches_measurement_everywhere():
    rows = fig(8)
    assert len(rows) == 9 * 30
    assert all(row["predicate"] == row["measured"] for row in rows)


def test_fig9_exponent_orderings():
    rows = fig(9)
    for gn in (1.0, 2.0, 4.0):
        strong = [r["e0_max_nats"] for r in by(rows, gamma_g=0.6, gamma_n=gn)]
        weak = [r["e0_max_nats"] for r in by(rows, gamma_g=0.3, gamma_n=gn)]
        assert all(a >= b - 1e-15 for a, b in zip(strong, weak))
        assert all(b >= a - 1e-15 for a, b in zip(strong, strong[1:]))


@pytest.mark.parametrize("i", [10, 11])
def test_bound_figures_monotone_in_rate(i):
    rows = fig(i)
    points = sorted({(r["gamma_g"], r["sqrt_gamma_n"]) for r in rows})
    assert len(points) == 2
    for gg, sgn in points:
        grp = by(rows, gamma_g=gg, sqrt_gamma_n=sgn)
        assert len(grp) == 60
        bounds = [g["log2_bound"] for g in grp]
        assert all(b <= a + 1e-9 for a, b in zip(bounds, bounds[1:]))
        assert all(0.0 < g["s_star"] <= 1.0 for g in grp)
