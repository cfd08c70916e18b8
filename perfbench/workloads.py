"""The benchmark's three workloads and their effsim-free references.

A workload is a list of items run one after another; one run of the list is
a pass.  Each item names the pipelines whose time it counts towards, runs
effsim through its public functions, and checks its output against a
reference computed here without effsim.  Why each workload exists, and what
it costs where, is recorded in README.md beside this file.

Items look effsim functions up through their module at call time
(``H.h_local``, not a name imported once), so that the traced run's
wrappers, which replace the module attributes, see every call the benchmark
makes.
"""

import functools
import itertools
import random

# The default seed reproduces the seeds of tests/test_acceptance.py: theorem
# suites at 41..50, laws, lemmas and mutations at 42, oracle programs 0..999.
DEFAULT_SEED = 42

PIPELINES = ("naive", "local", "global", "sim", "fusedF",
             "localM", "globalM", "globalT", "simT", "fusedTF")

QUEENS_N = 8
SHORT = 500      # short-tier chain length and choose width
LONG = 10_000    # long-tier chain length and choose width
LEFT_SEQ = 1000  # puts in the left-nested seq


class Item:
    """One timed unit of work.

    ``run`` takes no arguments and returns the output; ``check(output)`` says
    whether the output matches the reference.  ``pipelines`` lists the
    pipelines whose ``pipeline_s`` this item's time counts towards.
    """

    __slots__ = ("label", "pipelines", "run", "check")

    def __init__(self, label, pipelines, run, check):
        self.label = label
        self.pipelines = tuple(pipelines)
        self.run = run
        self.check = check


def equals(expected):
    return lambda output: output == expected


# ---------------------------------------------------------------------------
# queens: the paper's running example through all ten pipelines.
# ---------------------------------------------------------------------------

@functools.cache
def queens_reference(n):
    """Every n-queens solution as rows in column order, in lexicographic
    order, from a plain permutation filter."""
    return [list(p) for p in itertools.permutations(range(1, n + 1))
            if all(abs(p[i] - p[j]) != j - i
                   for i in range(n) for j in range(i + 1, n))]


def build_queens(seed):
    from effsim import queens as Q
    order = list(PIPELINES)
    random.Random(seed).shuffle(order)
    # The reference is computed at the first check, outside set-up.
    check = lambda output: output == queens_reference(QUEENS_N)
    return [Item(p, (p,), lambda p=p: Q.PIPELINES[p](QUEENS_N), check)
            for p in order]


# ---------------------------------------------------------------------------
# fuzz: the acceptance-size differential corpus.
# ---------------------------------------------------------------------------

# The pipelines each theorem suite runs on one side or the other; a fuzz
# item's time counts towards each of them.  T-nondetstate and T-statesstate
# check single translations that no pipeline runs alone, so they count only
# towards wall_s.
THEOREM_PIPELINES = {
    "T-localglobal": ("local", "global"),
    "T-nondetstateS": ("naive",),
    "T-nondetstate": (),
    "T-statesstate": (),
    "T-simulate": ("local", "sim"),
    "T-fusedF": ("sim", "fusedF"),
    "T-modify": ("localM", "globalM"),
    "T-trail": ("localM", "globalT"),
    "T-simulateT": ("localM", "simT"),
    "T-fusedTF": ("simT", "fusedTF"),
}

THEOREM_TRIALS = 1000
LAW_TRIALS = 500
LEMMA_TRIALS = 400
ORACLE_PROGRAMS = 1000
MUTATION_TRIALS = 1000
FUZZ_DEPTH = 6


def no_failures(report):
    return not report["failures"]


def put_or_found(report):
    return not report["failures"] and report["counterexample"] is not None


def detected(report):
    return report["detected"]


def oracle_anchor(seed):
    """h_local/h_global against the handler-free oracle on generated
    programs; returns the number of mismatches."""
    from effsim import difftest as D, handlers as H
    base = (seed - DEFAULT_SEED) * ORACLE_PROGRAMS
    mismatches = 0
    for ps in range(base, base + ORACLE_PROGRAMS):
        ast = D.gen_program(ps, FUZZ_DEPTH, ("state", "nondet"))
        t = D.lower(ast, D.SN)
        for mode, handler in (("local", H.h_local), ("global", H.h_global)):
            expected = D.oracle_eval(ast, 0, mode)["answers"]
            if H.h_nil(handler(t, 0)) != expected:
                mismatches += 1
    return mismatches


def build_fuzz(seed):
    from effsim import difftest as D
    items = []
    for j, ident in enumerate(D.THEOREM_IDS):
        items.append(Item(
            "theorem:" + ident, THEOREM_PIPELINES[ident],
            lambda ident=ident, s=seed - 1 + j:
                D.check_theorem(ident, THEOREM_TRIALS, s, FUZZ_DEPTH),
            no_failures))
    for suite in D.LAW_SUITES:
        items.append(Item(
            "laws:" + suite, (),
            lambda suite=suite: D.check_laws(suite, LAW_TRIALS, seed),
            put_or_found if suite == "globalstate" else no_failures))
    for ident in D.LEMMA_IDS:
        items.append(Item(
            "lemma:" + ident, (),
            lambda ident=ident: D.check_lemma(ident, LEMMA_TRIALS, seed),
            no_failures))
    items.append(Item("oracle-anchor", ("local", "global"),
                      lambda: oracle_anchor(seed), equals(0)))
    for name in D.MUTATIONS:
        items.append(Item(
            "mutation:" + name, (),
            lambda name=name: D.check_mutation(name, MUTATION_TRIALS, seed,
                                               FUZZ_DEPTH),
            detected))
    return items


# ---------------------------------------------------------------------------
# chains: long and wide programs, where the quadratic paths live.
# ---------------------------------------------------------------------------

def pipeline_runners():
    """Each pipeline as a function of (tree, initial state), written as
    effsim.queens writes its runners; [NondetF] trees go to naive."""
    from effsim import handlers as H, translations as T, machines as M
    return {
        "naive": lambda t, s: H.h_nd(t),
        "local": lambda t, s: H.h_nil(H.h_local(t, s)),
        "global": lambda t, s: H.h_nil(H.h_global(T.local2global(t), s)),
        "sim": lambda t, s: H.h_nil(T.simulate(t, s)),
        "fusedF": lambda t, s: H.h_nil(M.simulate_f(t, s)),
        "localM": lambda t, s: H.h_nil(H.h_local_m(t, s)),
        "globalM": lambda t, s: H.h_nil(
            H.h_global_m(T.local2global_m(t), s)),
        "globalT": lambda t, s: H.h_nil(H.h_global_t(t, s)),
        "simT": lambda t, s: H.h_nil(T.simulate_t(t, s)),
        "fusedTF": lambda t, s: H.h_nil(M.simulate_tf(t, s)),
    }


def put_chain(values):
    """put v1; ...; put vn; get >>= return, nested to the right."""
    from effsim import core as C
    t = C.get(C.Leaf)
    for v in reversed(values):
        t = C.seq(C.put(v), t)
    return t


def update_chain(deltas):
    """update d1; ...; update dn; mget >>= return, nested to the right."""
    from effsim import core as C
    t = C.mget(C.Leaf)
    for d in reversed(deltas):
        t = C.seq(C.update(d), t)
    return t


def left_seq(values):
    """((put v1 >> put v2) >> ...) >> put vn: every seq re-folds the left
    tree, so this costs quadratic time in the current bind."""
    from effsim import core as C
    t = C.put(values[0])
    for v in values[1:]:
        t = C.seq(t, C.put(v))
    return t


STATE_PIPELINES = ("local", "global", "sim", "fusedF")
MODIFY_PIPELINES = ("localM", "globalM", "globalT", "simT", "fusedTF")
LONG_STATE = ("local", "sim", "fusedF")
LONG_MODIFY = ("localM", "simT", "fusedTF")
LEFT_SEQ_PIPELINES = ("local", "fusedF")


def build_chains(seed):
    from effsim import core as C
    rng = random.Random(seed)
    run = pipeline_runners()
    items = []

    def add(label, p, tree, s0, expected):
        items.append(Item(label, (p,), lambda: run[p](tree, s0),
                          equals(expected)))

    for tier, n, state_ps, modify_ps in (
            ("short", SHORT, STATE_PIPELINES, MODIFY_PIPELINES),
            ("long", LONG, LONG_STATE, LONG_MODIFY)):
        values = [rng.randint(-10**6, 10**6) for _ in range(n)]
        s0 = rng.randint(-10**6, 10**6)
        tree = put_chain(values)
        for p in state_ps:
            add("%s.put.%s" % (tier, p), p, tree, s0, [values[-1]])

        deltas = [rng.randint(-1000, 1000) for _ in range(n)]
        s0 = rng.randint(-10**6, 10**6)
        tree = update_chain(deltas)
        for p in modify_ps:
            add("%s.update.%s" % (tier, p), p, tree, s0, [s0 + sum(deltas)])

        values = [rng.randint(-10**6, 10**6) for _ in range(n)]
        s0 = rng.randint(-10**6, 10**6)
        add("%s.choose.naive" % tier, "naive", C.choose(values, at=0), s0,
            values)
        tree = C.choose(values)
        for p in state_ps + modify_ps:
            add("%s.choose.%s" % (tier, p), p, tree, s0, values)

    values = [rng.randint(-10**6, 10**6) for _ in range(LEFT_SEQ)]
    s0 = rng.randint(-10**6, 10**6)
    for p in LEFT_SEQ_PIPELINES:
        # Built inside the item, so that a lazier bind cannot move the
        # cost of building it out of the timing.
        items.append(Item("leftseq.%s" % p, (p,),
                          lambda p=p, v=values, s0=s0: run[p](left_seq(v), s0),
                          equals([()])))
    return items


WORKLOADS = {
    "queens": build_queens,
    "fuzz": build_fuzz,
    "chains": build_chains,
}
