"""Write the output references under ref/ from the code in this checkout.

    python3 perfbench/make_refs.py

The stored references were made once from the seed commit (the first commit
that carries this benchmark). Re-running this on a later commit replaces them
with that commit's outputs, which defeats the output checks; only do so when
a change alters outputs on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def _stdout(cli, argv) -> str:
    result = run.invoke(cli, argv)
    if result["rc"] != 0:
        raise SystemExit(f"satwiretap {' '.join(argv)} failed: {result['stderr']}")
    return result["stdout"]


def main() -> int:
    cli = run.load_package()["cli"]
    empty = {"figures": {}, "bound_scan": {}, "simulate": {}, "oracle": {}}
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    for fig in range(1, 12):
        path = os.path.join(workloads.REF_DIR, f"figure_{fig}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(_stdout(cli, ["reproduce", "--figure", str(fig)]))
    refs = {"bound_scan": {}, "simulate": {}, "oracle": {}}
    for inv in workloads.bound_scan(workloads.DEFAULT_SEED, empty):
        refs["bound_scan"][inv.key] = workloads.bound_summary(_stdout(cli, inv.argv))
    for inv in workloads.simulate(workloads.DEFAULT_SEED, empty):
        head, rows = workloads.parse_csv(_stdout(cli, inv.argv))
        refs["simulate"][inv.key] = dict(zip(head, rows[0]))
    for instance in workloads.ORACLE_INSTANCES:
        argv = workloads.oracle_argv(instance)
        head, rows = workloads.parse_csv(_stdout(cli, argv))
        refs["oracle"][" ".join(argv)] = dict(zip(head, rows[0]))
    sections = []
    for section, table in sorted(refs.items()):
        entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
        sections.append(f" {json.dumps(section)}: {{\n{entries}\n }}")
    with open(os.path.join(workloads.REF_DIR, "invocations.json"), "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
