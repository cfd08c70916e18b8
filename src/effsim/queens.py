"""The n-queens running example and runners for every pipeline.

State is (column, placed) where `placed` lists rows most recent first.
Solutions are reported in column order (row of column 1 first), which makes
the backtracking enumeration coincide, order included, with the naive
generate-and-test enumeration over lexicographically ordered permutations.
(The accumulated list is the reverse of the column order; reporting it
reversed is what pins all pipelines to the same normative order.)
"""

import itertools

from .core import (
    Leaf, Node, Or, bind, seq, get, put, fail, mget, update, choose, guard,
)
from .handlers import (
    Undo, h_nd, h_nil, h_local, h_global, h_local_m, h_global_m, h_global_t,
)
from .translations import (
    local2global, local2global_m, simulate, simulate_t,
)
from .machines import simulate_f, simulate_tf


def safe(q, n, qs):
    """True iff row q is on a different row and diagonals than every row in
    qs, where n is the column distance to the head of qs."""
    for q1 in qs:
        if q == q1 or q == q1 + n or q == q1 - n:
            return False
        n += 1
    return True


def valid(qs):
    """True iff every queen is safe with respect to the ones after it,
    checked from the last queen back."""
    for i in reversed(range(len(qs))):
        if not safe(qs[i], 1, qs[i + 1:]):
            return False
    return True


def q_plus(s, r):
    """(c, sol) + r = (c + 1, r : sol): place a queen on row r."""
    c, sol = s
    return (c + 1, [r] + sol)


def q_minus(s, r):
    """Left inverse of q_plus; a defect below column 1 (unreachable via the
    translations, which only restore what they placed)."""
    c, sol = s
    if c <= 0 or not sol:
        raise RuntimeError("q_minus: no queen to remove from %r" % (s,))
    return (c - 1, sol[1:])


# Like RUNNERS below, these look q_plus and q_minus up when called, so that
# a module attribute rebound later sees every call.
QUEENS_UNDO = Undo(lambda s, r: q_plus(s, r), lambda s, r: q_minus(s, r))

INITIAL = (0, [])


def queens_naive(n):
    """choose (permutations [1..n]) >>= filtr valid, built directly as the
    or-chain of filtr leaves (the structural result of that bind).

    Lexicographic permutation order reproduces the normative result order.
    The permutations of [n..1] come in the reverse of that order, so the
    chain is built from its tail as they stream, with no list of all n! of
    them.  Every rejected permutation is the one shared fail node, and only
    an accepted one is copied to a list.
    """
    t = no = fail(at=0)
    for p in itertools.permutations(range(n, 0, -1)):
        t = Node(0, Or(Leaf(list(p)) if valid(p) else no, t))
    return t


def queens(n):
    """Backtracking queens over [StateF((Int,[Int])), NondetF]."""
    def loop():
        def k(s):
            c, sol = s
            if c >= n:
                return Leaf(list(reversed(sol)))
            return bind(choose(range(1, n + 1)), lambda r:
                        seq(guard(safe(r, 1, sol)),
                            get(lambda s2: seq(put(q_plus(s2, r)), loop()))))
        return get(k)
    return loop()


def queens_m(n):
    """Backtracking queens over [ModifyF((Int,[Int]), Int), NondetF]."""
    def loop():
        def k(s):
            c, sol = s
            if c >= n:
                return Leaf(list(reversed(sol)))
            return bind(choose(range(1, n + 1)), lambda r:
                        seq(guard(safe(r, 1, sol)),
                            seq(update(r), loop())))
        return mget(k)
    return loop()


# Each pipeline once, as a function of (tree, initial state, Undo instance).
# The entries name their handlers when called, not when defined, so that a
# module attribute rebound later (a tracing wrapper, say) sees every call.
RUNNERS = {
    "naive": lambda t, s, undo: h_nd(t),
    "local": lambda t, s, undo: h_nil(h_local(t, s)),
    "global": lambda t, s, undo: h_nil(h_global(local2global(t), s)),
    "sim": lambda t, s, undo: h_nil(simulate(t, s)),
    "fusedF": lambda t, s, undo: h_nil(simulate_f(t, s)),
    "localM": lambda t, s, undo: h_nil(h_local_m(t, s, undo)),
    "globalM": lambda t, s, undo: h_nil(
        h_global_m(local2global_m(t), s, undo)),
    "globalT": lambda t, s, undo: h_nil(h_global_t(t, s, undo)),
    "simT": lambda t, s, undo: h_nil(simulate_t(t, s, undo)),
    "fusedTF": lambda t, s, undo: h_nil(simulate_tf(t, s, undo)),
}


def _pipeline(name, program):
    """Board size -> solutions: RUNNERS[name] on the queens program named
    `program` (also looked up when called), from INITIAL."""
    return lambda n: RUNNERS[name](globals()[program](n), INITIAL, QUEENS_UNDO)


PIPELINES = {name: _pipeline(name, program) for name, program in (
    ("naive", "queens_naive"), ("local", "queens"), ("global", "queens"),
    ("sim", "queens"), ("fusedF", "queens"), ("localM", "queens_m"),
    ("globalM", "queens_m"), ("globalT", "queens_m"), ("simT", "queens_m"),
    ("fusedTF", "queens_m"))}


def run_pipeline(name, n):
    """Solve n-queens with the named pipeline from the initial state (0, [])."""
    if name not in PIPELINES:
        raise ValueError("unknown pipeline %r; choose from %s"
                         % (name, ", ".join(sorted(PIPELINES))))
    if n < 1:
        raise ValueError("board size must be >= 1")
    return PIPELINES[name](n)
