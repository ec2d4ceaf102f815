"""Runs the benchmark the way its acceptance check does and summarizes it.

    python3 perfbench/record.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--out perfbench/trajectory/NAME.json]

Run from the repository root. For each workload: one run per seed at the
run_seconds of BENCHMARK.json (untraced), then one traced run. Prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
next to the metric's bound. With --out the summary is written as a point of
the benchmark's trajectory; a run shorter than run_seconds is never written.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({r.returncode}):\n{r.stderr}")
    header, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answer\n{r.stderr}")
    return header, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.out and args.seconds < bench["run_seconds"]:
        raise SystemExit("refusing to record a run shorter than run_seconds")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results, failed, attempted = [], 0, 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            header, result = run_once(workload, seed, args.seconds, 0)
            point["provenance"] = header["provenance"]
            results.append(result["metrics"])
            failed += result["failed"]
            attempted += result["attempted"]
        end_to_end = {}
        print(f"== {workload}: {args.seeds} runs, {failed}/{attempted} operations failed")
        for name, bound in bounds.items():
            s = summarize([r[name]["value"] for r in results])
            end_to_end[name] = dict(s, unit=results[0][name]["unit"], bound=bound)
            ok = s["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:16s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:6.3f}  bound {bound}"
                  f"{'' if ok else '  <-- above bound/3'}\n"
                  f"    values {[float(f'{v:.5g}') for v in s['values']]}")
        _, traced = run_once(workload, args.first_seed, args.seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": end_to_end,
            "failed_share": failed / attempted,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
