import math

import pytest

from replay_cli import EXTRA, ORACLE_K0, largest_cell_difference, report
from satwiretap.cli import main


def test_largest_numeric_cell_difference():
    old = "n,leak,seed\n4,0.004081555118874191,c0\n5,1.5,00\n"
    new = "n,leak,seed\n4,0.004081555118874192,c1\n5,1.25,00\n"
    assert largest_cell_difference(old, new) == 0.25
    assert largest_cell_difference(old, old) == 0.0


@pytest.mark.parametrize(
    "old, new",
    [
        ("a,b\n1,2\n", "a,c\n1,2\n"),  # other header
        ("a,b\n1,2\n", "a,b\n1,2\n3,4\n"),  # other row count
        ("a,b\n1,2\n", "a,b\n1,2,3\n"),  # other row width
        ("", "a\n1\n"),
        ("a\n1\n", ""),
    ],
)
def test_no_difference_across_shapes(old, new):
    assert largest_cell_difference(old, new) is None


def test_nan_against_a_number_is_infinitely_far():
    assert largest_cell_difference("x\nnan\n", "x\n1.0\n") == math.inf
    assert largest_cell_difference("x\nnan\n", "x\nnan\n") == 0.0


def test_report_prints_the_difference_for_stdout_only(capsys):
    argvs = [["oracle"], ["bound"], ["nope"]]
    before = [[0, "a\n1.0\n", ""], [0, "a\n2\n", ""], [1, "", "error: x\n"]]
    after = [[0, "a\n1.5\n", ""], [0, "a\n2\n", ""], [1, "", "error: y\n"]]
    assert report(argvs, before, after) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "oracle"
    assert lines[1].endswith("; largest numeric cell difference 0.5")
    assert lines[2:] == ["nope", "  stderr: 1 of 1 lines, first line 1: 'error: x' -> 'error: y'"]


def test_k_prime_zero_oracle_argv_succeed(capsys):
    # an error exit would drop the k' = 0 sweep and the paired-block step from the replay
    argvs = [argv for argv in EXTRA if argv[: len(ORACLE_K0)] == ORACLE_K0]
    assert len(argvs) == 2
    for argv in argvs:
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("seed_hex,leak_bits" if "--per-seed" in argv else
                          "n,k,k_prime,levels,exact_leak_bits,bound_log2,bound_bits,bound_holds")
