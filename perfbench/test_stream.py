"""The benchmark's own test: seeded inputs are reproducible.

    python3 perfbench/test_stream.py

One seed must give a byte-identical serve-mix stream (inline models and
expected answers included) and the same ladder and battery order; another
seed must give another stream of the same composition.
"""
import collections
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import workloads  # noqa: E402


def stream_bytes(seed):
    return json.dumps(workloads.serve_stream(seed)).encode()


def canonical(specs):
    """A check's distinct specs, respellings folded."""
    return tuple(dict.fromkeys(s.replace(" ", "") for s in specs))


def builtin_checks(stream):
    """(request, cold) for every check on a built-in model: cold for the
    requests of a cache lifetime's opening sweep, which miss."""
    position = {}
    for req in stream:
        model = req.get("model")
        if req["op"] == "invalidate":
            position[model] = 0
        if req["op"] != "check" or not isinstance(model, str):
            continue
        pos = position.get(model, 0)
        position[model] = pos + 1
        pool = answers.VERDICTS[answers.family_of(model)]
        yield req, pos < (len(pool) + 1) // 2


class StreamTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for seed in (0, 1, 12345):
            self.assertEqual(stream_bytes(seed), stream_bytes(seed))
            self.assertEqual(workloads.ladder("ladder-holds", seed),
                             workloads.ladder("ladder-holds", seed))
            self.assertEqual(workloads.battery(seed), workloads.battery(seed))

    def test_other_seed_other_stream_same_mix(self):
        a, b = workloads.serve_stream(1), workloads.serve_stream(2)
        self.assertNotEqual(a, b)

        def mix(stream):
            ops = collections.Counter()
            for line, _ in stream:
                req = json.loads(line)
                inline = isinstance(req.get("model"), dict)
                ops["check-inline" if inline else req["op"]] += 1
            return ops

        builtins = len(workloads.SERVE_BUILTINS)
        want = collections.Counter(workloads.OTHER_MIX)
        want["check"] = builtins * workloads.SEGMENTS * workloads.CHECKS_PER_SEGMENT
        want["invalidate"] = builtins * (workloads.SEGMENTS - 1)
        self.assertEqual(mix(a), want)
        self.assertEqual(mix(a), mix(b))

    def test_stream_properties(self):
        """The properties workloads.py gives as the reasons for its counts."""
        for seed in (1, 2, 3):
            stream = [json.loads(line) for line, _ in workloads.serve_stream(seed)]
            sweeps = collections.Counter(req["model"] for req, cold in builtin_checks(stream)
                                         if cold)
            warm = sum(not cold for _, cold in builtin_checks(stream))
            cheap = warm + sum(r["op"] in ("parse", "classify", "invalidate") for r in stream)
            dedups = sum(len(r["specs"]) > len(canonical(r["specs"]))
                         for r in stream if r["op"] == "check")
            slowest = -(-len(stream) // 100)  # the requests above p99
            self.assertGreaterEqual(sweeps["dining-7"] + sweeps["dining-8"], 2 * slowest)
            self.assertGreater(cheap / len(stream), 0.6)
            self.assertGreater(dedups, 0)

    def test_sweeps_do_not_depend_on_the_seed(self):
        def sweeps(seed):
            stream = [json.loads(line) for line, _ in workloads.serve_stream(seed)]
            return sorted((r["model"], canonical(r["specs"]))
                          for r, cold in builtin_checks(stream) if cold)
        self.assertEqual(sweeps(1), sweeps(2))

    def test_every_check_has_a_known_answer(self):
        for line, expected in workloads.serve_stream(3):
            req = json.loads(line)
            if req["op"] == "check":
                self.assertEqual(len(expected), len(req["specs"]))
                self.assertTrue(set(expected) <= {answers.HOLDS, answers.VIOLATED})

    def test_ladders_cover_their_tables(self):
        for name in ("ladder-holds", "ladder-violated"):
            want = answers.HOLDS if name == "ladder-holds" else answers.VIOLATED
            for model, specs in workloads.ladder(name, 0):
                for spec in specs:
                    self.assertEqual(answers.verdict(model, spec), want)


if __name__ == "__main__":
    unittest.main()
