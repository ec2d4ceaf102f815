"""The repository's benchmark: one workload, one run (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds mph-lint, mph-serve and the traced
runner from the checkout (Release, into $CARGO_TARGET_DIR or .bench_build),
runs the workload's passes for about S seconds, checks every answer against
the known-answer tables, and prints one JSON result as its last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""
import argparse
import json
import math
import os
import statistics
import sys
import time

import answers
import harness
import workloads

WORKLOADS = ("ladder-holds", "ladder-violated", "spec-battery", "serve-mix")
SERVE_SETUPS_PER_PASS = 8
SMALL_ITEM_S = 0.1
SMALL_REPEATS = 5


class WrongAnswer(Exception):
    """A tool answered differently from the known-answer table."""


def nearest_rank(samples, q):
    s = sorted(samples)
    return s[max(1, math.ceil(q * len(s))) - 1]


class Tally:
    """Everything one run measures, over all its passes.

    A lint workload records each tool invocation under its item (model,
    family); its wall time is the sum over items of each item's mean, and
    its latency samples are those per-item means. The serve workload
    records one wall time per pass, its wall time being their mean, and one
    latency per request. The host alternates between a fast and a slow
    state for seconds at a time; a mean moves in proportion to the share of
    the run spent slow, where a median of few samples jumps from one
    state's figure to the other's (README.md, Steadiness).
    `ops_per_pass` is the number of operations in one pass over the inputs.

    Each operation is counted once per run, under its key, however many
    passes run it: `attempted` and `failed` depend on the seed's inputs
    only, not on how many passes fit in the run. An operation that fails in
    any pass counts as failed.
    """

    def __init__(self, ops_per_pass=0):
        self.setup_s, self.pass_wall_s, self.latency_ms = [], [], []
        self.item_wall_s = {}
        self.ops = {}
        self.rss_kb = 0
        self.passes = 0
        self.ops_per_pass = ops_per_pass

    def op(self, key, attempted=1, failed=0):
        """Records `attempted` operations under `key`, `failed` of them failed."""
        a, f = self.ops.get(key, (0, 0))
        self.ops[key] = (max(a, attempted), max(f, failed))

    @property
    def attempted(self):
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self):
        return sum(f for _, f in self.ops.values())

    def tool(self, run):
        self.rss_kb = max(self.rss_kb, run.rss_kb)
        return run

    def item(self, key, wall_s):
        self.item_wall_s.setdefault(key, []).append(wall_s)

    def wall(self):
        if self.item_wall_s:
            return sum(statistics.fmean(v) for v in self.item_wall_s.values())
        return statistics.fmean(self.pass_wall_s)

    def latencies_ms(self):
        if self.item_wall_s:
            return [statistics.fmean(v) * 1e3 for v in self.item_wall_s.values()]
        return self.latency_ms

    def end_to_end(self):
        wall, latency = self.wall(), self.latencies_ms()
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (self.rss_kb / 1024.0, "MB"),
            "latency_p50_ms": (nearest_rank(latency, 0.50), "ms"),
            "latency_p99_ms": (nearest_rank(latency, 0.99), "ms"),
            "ops_per_s": (self.ops_per_pass * (1 - self.failed / self.attempted) / wall,
                          "1/s"),
        }


def repeat(seconds, one_pass):
    """Runs one_pass() until the next pass would end after `seconds`
    (judged by the slowest pass so far); at least one pass."""
    start, slowest = time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        one_pass()
        slowest = max(slowest, time.perf_counter() - t0)
        if time.perf_counter() - start + slowest > seconds:
            return


# ------------------------------------------------------------- mph-lint ----


def lint_setup(bins, tally):
    """One set-up: spawn → exit of mph-lint --list-models."""
    run = tally.tool(harness.run_tool([bins["mph-lint"], "--list-models"]))
    if run.rc != 0:
        raise harness.BenchError("mph-lint --list-models failed: " + run.err)
    tally.setup_s.append(run.wall_s)


def lint(bins, tally, key, args):
    """One timed mph-lint --json process, recorded under item `key`; returns
    its document, or None if the tool failed (bad exit code or output)."""
    run = tally.tool(harness.run_tool([bins["mph-lint"], "--quiet", "--json", *args]))
    tally.item(key, run.wall_s)
    try:
        return json.loads(run.out) if run.rc in (0, 1) else None
    except ValueError:
        return None


def lint_verdicts(doc, specs):
    """Verdict per spec from the check diagnostics: MPH-V004 unknown, MPH-V003
    violated, otherwise holds once the spec was reported (MPH-V001/V002)."""
    codes = {}
    for d in doc["diagnostics"]:
        codes.setdefault(d["subject"], set()).add(d["code"])
    out = {}
    for spec in specs:
        seen = codes.get(f"check '{spec}'", set())
        if "MPH-V004" in seen or not seen:
            out[spec] = "unknown"
        else:
            out[spec] = answers.VIOLATED if "MPH-V003" in seen else answers.HOLDS
    return out


def expect_verdict(model, spec, got, tally, replayed=True):
    tally.op(("verdict", model, spec), failed=int(got == "unknown"))
    if got == "unknown":
        return
    want = answers.verdict(model, spec)
    if got != want:
        raise WrongAnswer(f"{model}: '{spec}' came back {got}, expected {want}")
    if got == answers.VIOLATED and not replayed:
        raise WrongAnswer(f"{model}: counterexample of '{spec}' does not replay")


def lint_pass(bins, calls, tally):
    """One pass over a lint workload's calls, [(key, args, check)], where
    check(doc, tally) checks one invocation's answers. Every call runs once;
    a small one (median so far under SMALL_ITEM_S) runs SMALL_REPEATS times,
    which steadies its mean at little cost. A set-up is taken before every
    call, so the set-ups are spread over the whole run."""
    tally.passes += 1
    for key, args, check in calls:
        lint_setup(bins, tally)
        prior = tally.item_wall_s.get(key)
        small = prior and statistics.median(prior) < SMALL_ITEM_S
        for _ in range(SMALL_REPEATS if small else 1):
            check(lint(bins, tally, key, args), tally)


def ladder_calls(items):
    def call(model, specs):
        def check(doc, tally):
            verdicts = lint_verdicts(doc, specs) if doc else {s: "unknown" for s in specs}
            for spec in specs:
                expect_verdict(model, spec, verdicts[spec], tally)
        return model, ["--model", model, *(a for s in specs for a in ("--check", s))], check
    return [call(model, specs) for model, specs in items]


def battery_calls(invocations, subsume):
    def classify(family, formulas):
        def check(doc, tally):
            # Rows come back in argument order, texts in canonical spelling.
            rows = doc["classify"]["requirements"] if doc else []
            if doc and len(rows) != len(formulas):
                raise WrongAnswer(f"{len(rows)} classify rows for {len(formulas)} formulas")
            got = [r["exact"] for r in rows] or [None] * len(formulas)
            for (formula, want), exact in zip(formulas, got):
                expect_class(formula, exact, want, tally)
        return family, ["--no-checklist", "--classify", *(f for f, _ in formulas)], check

    def check_subsume(doc, tally):
        if doc is None:
            directions = len(subsume) * (len(subsume) - 1)
            tally.op("subsume", directions, directions)
            return
        s = doc["subsume"]
        tally.op("subsume", s["checked"], s["unknown"])
        expect_inclusions(subsume, s["pairs"], s["unknown"])

    return [classify(family, formulas) for family, formulas in invocations] + [
        ("subsume", ["--no-checklist", "--subsume", *subsume], check_subsume)]


def expect_class(formula, got, want, tally):
    tally.op(("class", formula), failed=int(got is None))
    if got is not None and got != want:
        raise WrongAnswer(f"'{formula}' classified {got}, expected {want}")


def expect_inclusions(formulas, pairs, unknown):
    """Reported implications must all be true. A true inclusion that is not
    reported may only be one of the directions known to stay undecided
    (answers.MAY_STAY_UNDECIDED), and no more of them than the tool counted
    as undecided. mph-lint names no undecided direction, so one of those
    few coming back NotImplies instead would pass here; the traced run
    checks every direction on its own."""
    reported = set()
    for p in pairs:
        reported.add((p["stronger"], p["weaker"]))
        if p["equivalent"]:
            reported.add((p["weaker"], p["stronger"]))
    wrong = reported - answers.INCLUDED
    if wrong:
        raise WrongAnswer(f"reported inclusions that do not hold: {sorted(wrong)}")
    missed = {(a, b) for a in formulas for b in formulas if (a, b) in answers.INCLUDED}
    missed -= reported
    if missed - answers.MAY_STAY_UNDECIDED or len(missed) > unknown:
        raise WrongAnswer(f"true inclusions denied: {sorted(missed)}")


# ------------------------------------------------------------ mph-serve ----


def check_serve_response(line, request, expected, tally):
    """Checks one response against the stream's expected answer."""
    resp = json.loads(line)
    req = json.loads(request)
    op = req["op"]
    key = ("request", req["id"])
    if not resp.get("ok") or resp.get("id") != req["id"]:
        tally.op(key, failed=1)
        return
    if op == "check":
        verdicts = [r["verdict"] for r in resp["results"]]
        if len(verdicts) != len(req["specs"]):
            raise WrongAnswer(f"request {req['id']}: {len(verdicts)} results for "
                              f"{len(req['specs'])} specs")
        tally.op(key, failed=int("unknown" in verdicts))
        if "unknown" not in verdicts and verdicts != expected:
            raise WrongAnswer(f"request {req['id']}: verdicts {verdicts}, expected {expected}")
    elif op == "classify":
        tally.op(key, failed=int(resp["exact"] is None))
        if resp["exact"] is not None and resp["exact"] != expected:
            raise WrongAnswer(f"request {req['id']}: class {resp['exact']}, expected {expected}")
    else:
        tally.op(key)
        if op == "parse" and sorted(resp["atoms"]) != expected:
            raise WrongAnswer(f"request {req['id']}: atoms {resp['atoms']}, expected {expected}")


def serve_setup(bins, tally):
    """One set-up: spawn → first `stats` response of mph-serve."""
    with harness.Daemon(bins["mph-serve"]) as d:
        tally.setup_s.append(d.setup_s)
        tally.rss_kb = max(tally.rss_kb, d.close()[1])


def serve_pass(bins, stream, tally):
    """SERVE_SETUPS_PER_PASS set-ups, then one cold daemon and the whole
    stream in a closed loop; the replies are checked after the timed part.
    Returns the per-request client latencies in microseconds."""
    tally.passes += 1
    for _ in range(SERVE_SETUPS_PER_PASS):
        serve_setup(bins, tally)
    client_us, replies = [], []
    with harness.Daemon(bins["mph-serve"]) as d:
        tally.setup_s.append(d.setup_s)
        start = time.perf_counter()
        for line, _ in stream:
            t0 = time.perf_counter()
            replies.append(d.request(line))
            client_us.append((time.perf_counter() - t0) * 1e6)
        tally.pass_wall_s.append(time.perf_counter() - start)
        rc, rss = d.close()
    if rc != 0:
        raise harness.BenchError(f"mph-serve exited with {rc}")
    for reply, (line, expected) in zip(replies, stream):
        check_serve_response(reply, line, expected, tally)
    tally.rss_kb = max(tally.rss_kb, rss)
    tally.latency_ms += [us / 1e3 for us in client_us]
    return client_us


# ----------------------------------------------------------- workloads ----


class Workload:
    """Inputs, one untraced pass and the traced plan of one workload."""

    def __init__(self, name, seed):
        self.name = name
        if name.startswith("ladder"):
            items = workloads.ladder(name, seed)
            self.calls = ladder_calls(items)
            self.ops_per_pass = sum(len(specs) for _, specs in items)
            self.plan = {"workload": name,
                         "items": [{"model": m, "specs": s} for m, s in items]}
        elif name == "spec-battery":
            self.invocations, self.subsume = workloads.battery(seed)
            self.calls = battery_calls(self.invocations, self.subsume)
            self.ops_per_pass = (sum(len(inv) for _, inv in self.invocations)
                                 + len(self.subsume) * (len(self.subsume) - 1))
            self.plan = {"workload": name, "subsume": self.subsume,
                         "classify": [[f for f, _ in inv] for _, inv in self.invocations]}
        else:
            self.stream = workloads.serve_stream(seed)
            self.ops_per_pass = len(self.stream)
            self.plan = {"workload": name, "requests": [line for line, _ in self.stream]}

    def one_pass(self, bins, tally):
        if self.name == "serve-mix":
            return serve_pass(bins, self.stream, tally)
        return lint_pass(bins, self.calls, tally)

    def check_traced(self, got, tally):
        """The traced run must reach the same answers as the untraced ones."""
        if self.name.startswith("ladder"):
            for a in got:
                expect_verdict(a["model"], a["spec"], a["verdict"], tally, a["replayed"])
        elif self.name == "spec-battery":
            want = {f: c for _, inv in self.invocations for f, c in inv}
            for c in got["classes"]:
                expect_class(c["formula"], None if c["class"] == "unknown" else c["class"],
                             want[c["formula"]], tally)
            for d in got["directions"]:
                tally.op(("direction", d["stronger"], d["weaker"]),
                         failed=int(d["verdict"] == "unknown"))
                truth = (d["stronger"], d["weaker"]) in answers.INCLUDED
                if d["verdict"] != "unknown" and (d["verdict"] == "included") != truth:
                    raise WrongAnswer(f"inclusion {d['stronger']} <= {d['weaker']}: "
                                      f"{d['verdict']}")
            expect_inclusions(self.subsume, got["pairs"], got["unknown"])
        else:
            for reply, (line, expected) in zip(got["responses"], self.stream):
                check_serve_response(reply, line, expected, tally)


def measure(work, bins, seconds):
    tally = Tally(work.ops_per_pass)
    repeat(seconds, lambda: work.one_pass(bins, tally))
    metrics = tally.end_to_end()
    info = {"passes": tally.passes, "latency_samples": len(tally.latencies_ms()),
            "setup_samples": len(tally.setup_s),
            "item_samples": {k: len(v) for k, v in tally.item_wall_s.items()}}
    return tally, metrics, info


def measure_traced(work, bins, seconds, spans_path):
    """Alternates an untraced pass (tool processes) with a traced one (the
    in-process runner) until time is up; per-layer metrics are medians over
    the traced passes. The overhead is the difference of the mean walls,
    after taking off the traced runner's extra work (its `extra_s`: steps
    the tools do not take, done only to read a layer's figures)."""
    tally, untraced = Tally(), Tally(work.ops_per_pass)
    runs, traced_wall, transport = [], [], []

    def pair():
        client_us = work.one_pass(bins, untraced)
        run = harness.run_tool([bins["mph-perftrace"], "--spans", spans_path],
                               json.dumps(work.plan).encode())
        if run.rc != 0:
            raise harness.BenchError("mph-perftrace failed: " + run.err)
        doc = json.loads(run.out)
        work.check_traced(doc["answers"], tally)
        runs.append(doc["metrics"])
        traced_wall.append(run.wall_s - doc["extra_s"])
        if client_us:
            inproc = doc["answers"]["handle_line_us"]
            transport.append(statistics.median(c - h for c, h in zip(client_us, inproc)))

    repeat(seconds, pair)
    metrics = {name: (statistics.median(r[name] for r in runs), unit_of(name))
               for name in runs[0]}
    metrics["serve.transport_us"] = (statistics.median(transport) if transport else 0.0, "us")
    untraced_wall = untraced.wall()
    metrics["trace.overhead_s"] = (statistics.fmean(traced_wall) - untraced_wall, "s")
    metrics["failed_share"] = (tally.failed / tally.attempted, "ratio")
    info = {"traced_runs": len(runs), "untraced_wall_s": untraced_wall,
            "traced_wall_s": statistics.fmean(traced_wall), "spans": spans_path}
    return tally, metrics, info


def unit_of(name):
    """Units of the traced runner's metrics, read off their names."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".handle_us." in name or name.endswith("_per_product_state"):
        return "us"
    if name.endswith("bytes_per_node"):
        return "B"
    if name.endswith(("_share", "_rate", "_fill", "per_valuation", "per_touched")):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        bins = harness.build(build_dir)
        prov = harness.provenance(build_dir)
        prov["pinned_cpu"] = harness.pin_to_one_cpu()
    except harness.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = Workload(args.workload, args.seed)
    try:
        if args.trace:
            os.makedirs(os.path.join(build_dir, "spans"), exist_ok=True)
            spans = os.path.join(build_dir, "spans", f"{args.workload}-{args.seed}.jsonl")
            tally, metrics, info = measure_traced(work, bins, args.seconds, spans)
        else:
            tally, metrics, info = measure(work, bins, args.seconds)
        correct = True
    except WrongAnswer as e:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)
        tally, metrics, info, correct = Tally(), {}, {}, False
    except harness.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": prov, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
