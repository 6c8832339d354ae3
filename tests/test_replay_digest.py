"""Every replay argv prints the bytes recorded in tests/data/replay_digest.json.

tests/replay_cli.py --write-digest makes that file: per argv of the replay, the
sha256 of its exit code, stdout and stderr, and the python version, numpy
version and CPU model it was made on. numpy's SIMD loops may round the last
bit differently on another CPU or numpy version, so the bytes are compared
only on the recorded platform; elsewhere the comparison skips and names both
platforms. A mismatch on the recorded platform fails and lists every argv
that differs. The argv list itself is checked on every platform.
"""

import json

import pytest

from replay_cli import DIGEST, EXTRA, perfbench_argv, platform_id, replay_digests

RECORDED = json.loads(DIGEST.read_text(encoding="utf-8"))
REGENERATE = "python3 tests/replay_cli.py --write-digest writes the file again"


def test_digest_covers_every_replay_argv():
    assert [args for args, _ in RECORDED["records"]] == perfbench_argv() + EXTRA, REGENERATE


def test_every_replay_argv_prints_the_recorded_bytes():
    here, there = platform_id(), RECORDED["platform"]
    if here != there:
        pytest.skip(f"digest made on {there}; this platform is {here}")
    got = replay_digests([args for args, _ in RECORDED["records"]])
    differ = [
        " ".join(args) or "(no arguments)"
        for (args, want), (_, sha) in zip(RECORDED["records"], got)
        if sha != want
    ]
    assert not differ, (
        f"{len(differ)} of {len(got)} argv differ from the digest made on {there}:\n"
        + "\n".join(differ) + f"\n{REGENERATE} if the change is meant"
    )
