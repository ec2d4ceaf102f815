"""Workload inputs. Everything a tool sees is generated here from the seed.

The ladders and the spec battery are fixed item lists; the seed only fixes
the order in which a pass runs them. The serve-mix request stream, its
inline models and its expected answers all come from random.Random(seed),
so one seed gives a byte-identical stream (test_stream.py).
"""
import json
import random
import re

import answers

# ---------------------------------------------------------------- ladders --

_DINING_HOLDS = ["G !(eat1 & eat2)", "G(eat1 -> F !eat1)"]
_NBA_FALLBACK = "G(eat1 -> (eat1 U !eat1))"
_RING_HOLDS = ["F elected", "G(elected -> maxleader)"]
_MUTEX_HOLDS = ["G !(c1 & c2)", "G(t1 -> F c1)"]

# (model, specs): one mph-lint process per entry. The NBA-fallback spec is
# left out on dining-11: its product overruns the default 200k-state budget
# there (a known gap, README.md), and a workload item must not fail.
LADDER_HOLDS = [
    ("dining-9", _DINING_HOLDS + [_NBA_FALLBACK]),
    ("dining-10", _DINING_HOLDS + [_NBA_FALLBACK]),
    ("dining-11", _DINING_HOLDS),
    ("ring-8", _RING_HOLDS),
    ("ring-9", _RING_HOLDS),
    ("ring-10", _RING_HOLDS),
    ("semaphore-strong", _MUTEX_HOLDS),
    ("peterson", _MUTEX_HOLDS),
]

LADDER_VIOLATED = [
    ("dining-9", ["G !deadlock", "G(hungry1 -> F eat1)"]),
    ("dining-10", ["G !deadlock", "G(hungry1 -> F eat1)"]),
    ("dining-11", ["G !deadlock", "G(hungry1 -> F eat1)"]),
    ("ring-8", ["G !elected"]),
    ("ring-9", ["G !elected"]),
    ("ring-10", ["G !elected"]),
    ("semaphore-weak", ["G(t1 -> F c1)"]),
    ("trivial-mutex", ["G(t1 -> F c1)"]),
]


def ladder(name, seed):
    """The ladder's items in the seed's order."""
    items = list(LADDER_HOLDS if name == "ladder-holds" else LADDER_VIOLATED)
    random.Random(seed).shuffle(items)
    return items


# ------------------------------------------------------------ spec battery --


def family_formula(family, k):
    """The k-th member of a parametric classify family, over p1..pk, q1..qk."""
    idx = range(1, k + 1)
    if family == "obligation":
        return " & ".join(f"(G p{i} | F q{i})" for i in idx)
    if family == "recurrence":
        return " & ".join(f"G(p{i} -> F q{i})" for i in idx)
    weak_until = " & ".join(f"((p{i} U q{i}) | G p{i})" for i in idx)
    if family == "safety-otherwise":
        return weak_until
    if family == "g-safety-otherwise":
        return f"G({weak_until})"
    if family == "reactivity":
        return " | ".join(f"(G F p{i} & F G q{i})" for i in idx)
    raise ValueError(family)


# k = 5 is left out on purpose: the safety conjunction alone takes about a
# minute to classify (README.md, known gaps).
BATTERY_K = (1, 2, 3, 4)


def battery(seed):
    """(classify invocations, subsume formulas) in the seed's order. One
    mph-lint --classify process per family, k = 1..4 each: an invocation is
    (family, [(formula, class)])."""
    rng = random.Random(seed)
    families = list(answers.CLASSES)
    rng.shuffle(families)
    invocations = []
    for fam in families:
        formulas = [(family_formula(fam, k), answers.CLASSES[fam]) for k in BATTERY_K]
        rng.shuffle(formulas)
        invocations.append((fam, formulas))
    subsume = list(answers.SUBSUME_BATTERY)
    rng.shuffle(subsume)
    return invocations, subsume


# --------------------------------------------------------------- serve-mix --

# The serve-mix stream is synthetic: no record of real traffic exists to
# copy a mix from. Each count below is there to secure one property of the
# stream, named next to it; test_stream.py checks each property.
#
# Every built-in family, at sizes where a miss costs from about 0.1 ms
# (trivial-mutex) to about 40 ms (dining-8): the engines set the tail.
SERVE_BUILTINS = ["dining-5", "dining-6", "dining-7", "dining-8", "ring-5", "ring-6",
                  "ring-7", "ring-8", "peterson", "semaphore-weak", "semaphore-strong",
                  "trivial-mutex"]
SERVE_CLASSIFY_K = (1, 2, 3)

# Per built-in model: SEGMENTS cache lifetimes separated by an `invalidate`
# (the writes), each CHECKS_PER_SEGMENT checks long. A segment opens with a
# cold sweep (every spec of the model once, two per request in a fixed
# order, so each request misses and costs the same in every stream) and
# fills up with warm checks, which hit.
# * SEGMENTS: the sweeps of dining-7 and dining-8 (88 requests, 6 % of the
#   stream) outnumber the slowest 1 % twice over, so p99 lies inside engine
#   misses of the largest models whatever the seed draws. The number of
#   model explorations per stream is fixed by construction. Eleven lifetimes
#   make a pass of 1.5 to 4 s on a 4-core x86 host, so a 30 s run has 6
#   to 17 passes to take medians over.
# * CHECKS_PER_SEGMENT: the longest sweep (4 requests) fits, and each
#   lifetime has warm checks after it. With the other kinds below, requests
#   that run no engine are over 60 % of the stream, and a verdict-cache hit
#   is the most common request, so p50 lies on the serve layer's own path.
SEGMENTS = 11
CHECKS_PER_SEGMENT = 7
# The other request kinds: the seed draws their content. Each gets as many
# requests as there are invalidates (120), so its per-kind median in the
# traced run rests on over 100 samples. Inline checks are model deltas
# (81 parameter choices) whose verdicts are known by construction.
OTHER_MIX = {"check-inline": 120, "classify": 120, "parse": 120}
# A check repeats one of its specs in another spelling this often, so the
# stream has in-batch dedups.
RESPELL_SHARE = 0.1

_FAIRNESS = ("weak", "strong", "none")


def counter_model(a, b, fx, fy):
    """Inline FtsSpec: counters x in [0, a-1] and y in [0, b-1], each bumped
    (with wrap) by its own always-enabled transition of the given fairness."""
    return {
        "vars": [{"name": "x", "lo": 0, "hi": a - 1, "init": 0},
                 {"name": "y", "lo": 0, "hi": b - 1, "init": 0}],
        "transitions": [
            {"name": "incx", "fairness": fx, "effects": [{"var": 0, "src": 0, "add": 1}]},
            {"name": "incy", "fairness": fy, "effects": [{"var": 1, "src": 1, "add": 1}]},
        ],
    }


def _respell(spec):
    """The same formula spelled differently (canonical form unchanged)."""
    return spec.replace(" ", "  ", 1)


def _atoms(formula):
    # Atoms are the lower-case identifiers; every operator is upper case.
    return sorted(set(re.findall(r"[a-z][a-z0-9]*", formula)))


def _model_requests(model, rng):
    """One built-in model's requests, in order: segments of checks, each
    segment after the first opened by an invalidate."""
    pool = sorted(answers.VERDICTS[answers.family_of(model)])
    out = []
    for segment in range(SEGMENTS):
        if segment:
            out.append(({"op": "invalidate", "model": model}, None))
        batches = [pool[i:i + 2] for i in range(0, len(pool), 2)]  # the sweep
        while len(batches) < CHECKS_PER_SEGMENT:
            batches.append(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        for specs in batches:
            expected = [answers.verdict(model, s) for s in specs]
            if rng.random() < RESPELL_SHARE:
                dup = rng.randrange(len(specs))
                specs = specs + [_respell(specs[dup])]
                expected.append(expected[dup])
            out.append(({"op": "check", "model": model, "specs": specs}, expected))
    return out


def _other_request(kind, rng, classify_pool, parse_pool):
    if kind == "check-inline":
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        fx, fy = rng.choice(_FAIRNESS), rng.choice(_FAIRNESS)
        table = answers.counter_verdicts(fx, fy)
        specs = rng.sample(sorted(table), rng.randint(1, 3))
        return ({"op": "check", "model": counter_model(a, b, fx, fy), "specs": specs},
                [table[s] for s in specs])
    if kind == "classify":
        formula, cls = rng.choice(classify_pool)
        return {"op": "classify", "formula": formula}, cls
    formula = rng.choice(parse_pool)
    return {"op": "parse", "formula": formula}, _atoms(formula)


def serve_stream(seed):
    """The request stream: [(line, expected)], where `expected` is what the
    response must say (see check_serve_response in run.py). Each model's
    requests keep their order; the seed interleaves them with the rest."""
    rng = random.Random(seed)
    classify_pool = [(family_formula(f, k), answers.CLASSES[f])
                     for f in answers.CLASSES for k in SERVE_CLASSIFY_K]
    parse_pool = [f for f, _ in classify_pool] + sorted(
        {s for fam in answers.VERDICTS.values() for s in fam})
    queues = {m: _model_requests(m, rng) for m in SERVE_BUILTINS}
    queues.update({k: [_other_request(k, rng, classify_pool, parse_pool) for _ in range(n)]
                   for k, n in OTHER_MIX.items()})
    order = [k for k, q in queues.items() for _ in q]
    rng.shuffle(order)
    cursor = dict.fromkeys(queues, 0)
    stream = []
    for rid, k in enumerate(order):
        req, expected = queues[k][cursor[k]]
        cursor[k] += 1
        line = json.dumps({"op": req["op"], "id": rid,
                           **{f: v for f, v in req.items() if f != "op"}},
                          separators=(",", ":"))
        stream.append((line, expected))
    return stream
