#!/usr/bin/env python3
"""Schema + agreement + speedup validation for BENCH_absint.json
(bench/tab18_absint).

Usage: validate_bench_absint.py PATH

Checks the documented schema, then the substance of experiment T18
(docs/ABSINT.md):

- every model has exactly one row per path (static / explore);
- the static row reports engine "static", holds=true and zero states
  explored / zero product states — an exploration-free proof, not a cheap
  exploration;
- both paths agree on the verdict within each model;
- the battery summary is consistent with the rows, and the whole-battery
  speedup of the static path over plain exploration reaches the 5x floor.
  The floor applies to quick runs too: the fixpoint is microseconds while
  even dining-3 exploration is not, so a miss means the static path
  regressed into exploring.

Exits 0 iff the file parses and every check passes; prints the first
problem and exits 1 otherwise.
"""
import json
import sys

SPEEDUP_FLOOR = 5.0
PATHS = ("static", "explore")


def fail(msg):
    print(f"absint bench validation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_absint.py PATH")
    with open(sys.argv[1]) as handle:
        data = json.load(handle)

    require(data.get("experiment") == "tab18_absint", "not a tab18_absint report")
    require(isinstance(data.get("quick"), bool), "'quick' is not a bool")
    require(isinstance(data.get("repeats"), int) and data["repeats"] >= 1,
            "'repeats' missing or < 1")
    require(isinstance(data.get("spec"), str) and data["spec"], "'spec' missing")
    rows = data.get("rows")
    require(isinstance(rows, list) and rows, "'rows' missing or empty")

    models = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        require(isinstance(row, dict), f"{where}: not an object")
        for key in ("model", "path", "engine"):
            require(isinstance(row.get(key), str) and row[key], f"{where}: missing '{key}'")
        require(row["path"] in PATHS, f"{where}: unknown path '{row['path']}'")
        require(isinstance(row.get("holds"), bool), f"{where}: 'holds' is not a bool")
        for key in ("states_explored", "product_states"):
            require(isinstance(row.get(key), int) and row[key] >= 0,
                    f"{where}: '{key}' missing or negative")
        require(isinstance(row.get("seconds"), (int, float)) and row["seconds"] >= 0,
                f"{where}: 'seconds' missing or negative")
        group = models.setdefault(row["model"], {})
        require(row["path"] not in group,
                f"{where}: duplicate path '{row['path']}' for model '{row['model']}'")
        group[row["path"]] = row

    for model, group in models.items():
        for path in PATHS:
            require(path in group, f"model '{model}': missing '{path}' row")
        static = group["static"]
        require(static["engine"] == "static",
                f"model '{model}': static row reports engine '{static['engine']}'")
        require(static["states_explored"] == 0 and static["product_states"] == 0,
                f"model '{model}': static row explored states")
        require(static["holds"], f"model '{model}': static row does not hold")
        verdicts = {group[path]["holds"] for path in PATHS}
        require(len(verdicts) == 1, f"model '{model}': paths disagree on the verdict")

    battery = data.get("battery")
    require(isinstance(battery, dict), "'battery' missing")
    require(isinstance(battery.get("models"), int) and battery["models"] == len(models),
            "'battery.models' does not match the row groups")
    for key in ("static_seconds", "explore_seconds", "speedup"):
        require(isinstance(battery.get(key), (int, float)) and battery[key] >= 0,
                f"'battery.{key}' missing or negative")
    static_total = sum(g["static"]["seconds"] for g in models.values())
    explore_total = sum(g["explore"]["seconds"] for g in models.values())
    require(abs(battery["static_seconds"] - static_total) <= 1e-9 + 0.01 * static_total,
            "'battery.static_seconds' does not match the rows")
    require(abs(battery["explore_seconds"] - explore_total) <= 1e-9 + 0.01 * explore_total,
            "'battery.explore_seconds' does not match the rows")
    require(battery["speedup"] >= SPEEDUP_FLOOR,
            f"battery speedup {battery['speedup']:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor")

    print(f"absint bench report OK: {len(models)} model(s), battery speedup "
          f"{battery['speedup']:.1f}x")


if __name__ == "__main__":
    main()
