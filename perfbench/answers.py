"""Known-answer tables for every workload item.

Every entry is written by hand. The source of each answer is named next to
it: the paper (Manna & Pnueli, "A Hierarchy of Temporal Properties"), the
doc comment of the model in src/fts/programs.hpp, or a construction whose
answer follows from one of those. None of them is produced by the program
under test. A run whose answer differs from this table is aborted.
"""

HOLDS, VIOLATED = "holds", "violated"

# Verdicts per model family, as (verdict, source).
VERDICTS = {
    "dining": {
        # Neighbours 1 and 2 share a fork; whoever eats holds both forks.
        "G !(eat1 & eat2)": (HOLDS, "programs.hpp: dining_philosophers, shared forks"),
        # Eating is weakly fair: an eating philosopher puts the forks down.
        "G(eat1 -> F !eat1)": (HOLDS, "programs.hpp: eating transitions weakly fair"),
        # Same response property, outside the deterministic fragment, so the
        # checker takes the NBA-tableau fallback for its negation.
        "G(eat1 -> (eat1 U !eat1))": (HOLDS, "equivalent to G(eat1 -> F !eat1)"),
        "G !deadlock": (VIOLATED, "programs.hpp: the naive protocol can deadlock"),
        "G(hungry1 -> F eat1)": (VIOLATED, "programs.hpp: a deadlock starves philosopher 1"),
        # Implied by a spec that holds, so it holds.
        "G F !(eat1 & eat2)": (HOLDS, "implied by G !(eat1 & eat2)"),
        # Implies a violated spec, so it is violated.
        "G(!deadlock & !eat1)": (VIOLATED, "implies G !deadlock"),
    },
    "ring": {
        "F elected": (HOLDS, "programs.hpp: ring_leader, F elected holds"),
        "G(elected -> maxleader)": (HOLDS, "programs.hpp: ring_leader, only node n wins"),
        "G !elected": (VIOLATED, "negation of the F elected the doc comment proves"),
        "G((elected & quiet) -> maxleader)": (HOLDS, "implied by G(elected -> maxleader)"),
        "G(!elected & !quiet)": (VIOLATED, "implies G !elected"),
    },
    "peterson": {
        "G !(c1 & c2)": (HOLDS, "programs.hpp: peterson, mutual exclusion"),
        "G(t1 -> F c1)": (HOLDS, "programs.hpp: peterson, accessibility"),
        "G(t1 -> F (c1 | c2))": (HOLDS, "implied by G(t1 -> F c1)"),
        "G F !(c1 & c2)": (HOLDS, "implied by G !(c1 & c2)"),
    },
    "semaphore-strong": {
        "G !(c1 & c2)": (HOLDS, "programs.hpp: semaphore_mutex, mutual exclusion"),
        "G(t1 -> F c1)": (HOLDS, "programs.hpp: with Strong, accessibility holds"),
        "G(t1 -> F (c1 | c2))": (HOLDS, "implied by G(t1 -> F c1)"),
        "G F !(c1 & c2)": (HOLDS, "implied by G !(c1 & c2)"),
    },
    "semaphore-weak": {
        "G !(c1 & c2)": (HOLDS, "programs.hpp: semaphore_mutex, mutual exclusion"),
        "G(t1 -> F c1)": (VIOLATED, "programs.hpp: with Weak the semaphore may starve"),
        "G(t1 -> F c1) & G(t2 -> F c2)": (VIOLATED, "implies G(t1 -> F c1)"),
        "G F !(c1 & c2)": (HOLDS, "implied by G !(c1 & c2)"),
    },
    "trivial-mutex": {
        "G !(c1 & c2)": (HOLDS, "programs.hpp: trivial_mutex, mutual exclusion"),
        "G(t1 -> F c1)": (VIOLATED, "programs.hpp: trivial_mutex violates accessibility"),
    },
}


def family_of(model):
    """The VERDICTS key of a built-in model name (dining-9 -> dining)."""
    for prefix in ("dining-", "ring-"):
        if model.startswith(prefix):
            return prefix[:-1]
    return model


def verdict(model, spec):
    return VERDICTS[family_of(model)][spec][0]


def counter_verdicts(fx, fy):
    """Verdicts on the inline two-counter model (workloads.counter_model).

    incx and incy are always enabled and wrap their counter. Under weak or
    strong fairness a transition is taken infinitely often, so its counter
    keeps reaching its top value; without fairness a computation may take
    only the other transition forever. Both counters can sit at their top
    value at once on some computation, which then continues fairly.
    """
    fair = ("weak", "strong")
    return {
        "G F xhi": HOLDS if fx in fair else VIOLATED,
        "F yhi": HOLDS if fy in fair else VIOLATED,
        "G !(xhi & yhi)": VIOLATED,
    }


# Exact (lowest) hierarchy class per classify family, by the paper's
# characterizations: p W q = (p U q) | G p is a safety formula and stays one
# under G and conjunction; G p | F q is an obligation (Boolean combination
# of safety and guarantee); the response formula G(p -> F q) is recurrence;
# G F p & F G q, and disjunctions of such, are reactivity (neither recurrence
# nor persistence).
CLASSES = {
    "obligation": "obligation",
    "recurrence": "recurrence",
    "safety-otherwise": "safety",
    "g-safety-otherwise": "safety",
    "reactivity": "reactivity",
}

# Two-atom entailment battery (mph-lint --subsume). INCLUDED lists every
# direction (stronger, weaker) with L(stronger) ⊆ L(weaker), worked out by
# hand; every other ordered pair is not an inclusion.
SUBSUME_BATTERY = [
    "G p",
    "G (p & q)",
    "F q",
    "p U q",
    "G F p",
    "F p",
    "G (p | q)",
    "(p U q) | G p",
    "F G p",
]
_PWQ = "(p U q) | G p"
INCLUDED = {
    # G(p & q) makes p and q true everywhere: it implies every other entry.
    *(("G (p & q)", w) for w in SUBSUME_BATTERY if w != "G (p & q)"),
    ("G p", "G F p"), ("G p", "F p"), ("G p", "G (p | q)"), ("G p", _PWQ),
    ("G p", "F G p"),
    ("p U q", "F q"), ("p U q", _PWQ),
    ("G F p", "F p"),
    # At the first position without p, G(p | q) gives q: p W q.
    ("G (p | q)", _PWQ),
    ("F G p", "G F p"), ("F G p", "F p"),
}

# The directions mph-lint --subsume leaves undecided at the seed commit: every
# inclusion into p W q (README.md, known gaps). Four of them are true
# inclusions. An undecided direction counts as a failed operation; a true
# inclusion left unreported outside this set is a wrong answer.
MAY_STAY_UNDECIDED = {(f, _PWQ) for f in SUBSUME_BATTERY if f != _PWQ}
