#!/usr/bin/env python3
"""Validate BENCH_vacuity.json (experiment T13, bench/tab13_vacuity.cpp).

Checks the documented schema and the claim the benchmark exists to pin: the
product search takes the safety shape for the safety work (safety_prefix >=
1, no checks under the general SCC acceptance on the safety-heavy family).

Usage: validate_bench_vacuity.py PATH
"""

import json
import sys

STAT_KEYS = {
    "mutants_checked",
    "safety_prefix",
    "guarantee_dual",
    "scc",
    "constant",
    "unknown",
}
VERDICTS = {"violated", "VACUOUS", "non-vacuous", "unknown"}


def fail(msg: str) -> None:
    print(f"validate_bench_vacuity: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_stats(label: str, stats: object) -> dict:
    if not isinstance(stats, dict) or set(stats) != STAT_KEYS:
        fail(f"{label}: stats keys {sorted(stats) if isinstance(stats, dict) else stats}")
    for k, v in stats.items():
        if not isinstance(v, int) or v < 0:
            fail(f"{label}: stats.{k} = {v!r} is not a non-negative int")
    return stats


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: validate_bench_vacuity.py PATH")
    with open(sys.argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    if doc.get("experiment") != "tab13_vacuity":
        fail(f"experiment tag {doc.get('experiment')!r}")
    quick = doc.get("quick")
    if not isinstance(quick, bool):
        fail("quick must be a bool")
    models = doc.get("models")
    if not isinstance(models, list) or not models:
        fail("models must be a non-empty list")

    for m in models:
        name = m.get("model")
        if not name or not isinstance(name, str):
            fail("model entry without a name")
        verdicts = m.get("verdicts")
        if not isinstance(verdicts, list) or len(verdicts) != m.get("specs"):
            fail(f"{name}: verdicts length != specs")
        for v in verdicts:
            if v.get("verdict") not in VERDICTS:
                fail(f"{name}: unknown verdict {v.get('verdict')!r}")
            if not v.get("spec"):
                fail(f"{name}: verdict entry without spec text")
        run = m.get("vacuity")
        if not isinstance(run, dict):
            fail(f"{name}: missing vacuity run")
        if not isinstance(run.get("seconds"), (int, float)) or run["seconds"] < 0:
            fail(f"{name}: vacuity.seconds = {run.get('seconds')!r}")
        stats = check_stats(f"{name}.vacuity", run.get("stats"))
        if stats["safety_prefix"] < 1:
            fail(f"{name}: the search never took the safety shape")
        if stats["scc"]:
            fail(f"{name}: a check fell back to the general SCC acceptance")

    print(f"validate_bench_vacuity: OK ({len(models)} model(s), quick={quick})")


if __name__ == "__main__":
    main()
