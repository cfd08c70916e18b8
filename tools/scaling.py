"""Time program shapes through their rungs at n and 4n, and flag the cells
whose time grows faster than linearly.

    python3 tools/scaling.py

For each shape of SHAPES and each rung that runs it, builds the shape's
tree at size N and at 4N, and times the rung on it as the best of K
`time.process_time` runs, each on a tree built anew outside the timing.  It
prints one line per (shape, rung): the two times, their ratio, and `!` when
the ratio is above 8.  Linear work reads about 4, quadratic about 16.  Like
tools/pairs.py it only reports; it asserts no timing.

The shapes are the put and update chains; left-nested seqs of puts and of
updates; a left-nested or; put-then-or and update-then-or chains; or chains
whose arms are a put or an update; balanced or trees over puts and over
updates; choose xs >>= put and >>= update; a plain choose xs; an or spine
whose arms alternate fail and ret v, the shape of queens' failed guards;
a chain of n puts of a third family, forwarded by every rung, reached
under n pending choicepoints and closed by h_state after the rung; the same
chain with no pending choicepoint, a linear control for it; and or spines
of n fail arms and of n ret arms, each closed by a get or an mget.  A state
shape runs through the state rungs, a modify shape through the modify
rungs, and a shape with neither through both, each rung as
effsim.queens.RUNGS defines it.  Each shape also states its answer as a
closed form of n, which tests/test_long_inputs.py reads at its own sizes.
"""

import os
import sys
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from effsim.core import (  # noqa: E402
    Leaf, bind, seq, ret, get, put, fail, or_, mget, update, choose,
)
from effsim.handlers import INT_UNDO, h_state, h_nil  # noqa: E402
from effsim.queens import (  # noqa: E402
    RUNGS, STATE_RUNGS as STATE, MODIFY_RUNGS as MODIFY,
)

N, K = 2000, 3  # the smaller size, and the runs of which the best is kept


def chain(n, op, end):
    """op(1, op(2, ... op(n, end)))."""
    t = end
    for v in range(n, 0, -1):
        t = op(v, t)
    return t


def _left_seq(n, op, end):
    """((op 1 >> op 2) >> ... >> op n) >> end."""
    t = op(1)
    for v in range(2, n + 1):
        t = seq(t, op(v))
    return seq(t, end)


def _left_or(n):
    """((ret 0 | ret 1) | ret 2) | ... | ret n."""
    t = ret(0)
    for v in range(1, n + 1):
        t = or_(t, ret(v))
    return t


def _balanced(n, leaf):
    """A balanced or tree over the leaves leaf(1), ..., leaf(n)."""
    level = [leaf(v) for v in range(1, n + 1)]
    while len(level) > 1:
        pairs = [or_(a, b) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(level) - len(level) % 2:]
    return level[0]


def _forwarded(n):
    """n puts at index 2, left-nested under n or_s: n pending choicepoints
    when the chain is reached."""
    t = chain(n, lambda v, k: put(v, at=2, k=k), ret(0))
    for v in range(1, n + 1):
        t = or_(t, ret(v))
    return t


BOTH = STATE + MODIFY


def _spine(n, arm, end):
    """arm(1) | (arm(2) | ... | (arm(n) | end))."""
    return chain(n, lambda v, k: or_(arm(v), k), end)


def _upto(n):
    """[1 .. n]."""
    return list(range(1, n + 1))


def tri(n):
    """1 + 2 + ... + n, the state after updates 1 .. n from 0."""
    return n * (n + 1) // 2


# The tree builder of n, the rungs, whether h_state closes a third family
# after the rung, and the answer of run_cell at n from state 0.
Shape = namedtuple("Shape", "build rungs forwarded answer")

SHAPES = {
    "put-chain": Shape(lambda n: chain(n, lambda v, k: put(v, k=k),
                                        get(Leaf)), STATE, False,
                       lambda n: [n]),
    "update-chain": Shape(lambda n: chain(n, lambda v, k: update(v, k=k),
                                           mget(Leaf)), MODIFY, False,
                          lambda n: [tri(n)]),
    "left-seq-put": Shape(lambda n: _left_seq(n, put, get(Leaf)), STATE,
                          False, lambda n: [n]),
    "left-seq-update": Shape(lambda n: _left_seq(n, update, mget(Leaf)),
                             MODIFY, False, lambda n: [tri(n)]),
    "left-or": Shape(_left_or, BOTH, False, lambda n: list(range(n + 1))),
    "put-then-or": Shape(lambda n: chain(
        n, lambda v, k: put(v, k=or_(ret(v), k)), get(Leaf)), STATE, False,
        lambda n: _upto(n) + [n]),
    "update-then-or": Shape(lambda n: chain(
        n, lambda v, k: update(v, k=or_(ret(v), k)), mget(Leaf)), MODIFY,
        False, lambda n: _upto(n) + [tri(n)]),
    "or-put-arms": Shape(lambda n: _spine(
        n, lambda v: put(v, k=get(Leaf)), fail()), STATE, False, _upto),
    "or-update-arms": Shape(lambda n: _spine(
        n, lambda v: update(v, k=mget(Leaf)), fail()), MODIFY, False, _upto),
    "balanced-put": Shape(lambda n: _balanced(
        n, lambda v: put(v, k=get(Leaf))), STATE, False, _upto),
    "balanced-update": Shape(lambda n: _balanced(
        n, lambda v: update(v, k=mget(Leaf))), MODIFY, False, _upto),
    "choose-bind-put": Shape(lambda n: seq(bind(choose(range(1, n + 1)), put),
                                           get(Leaf)), STATE, False, _upto),
    "choose-bind-update": Shape(lambda n: seq(bind(choose(range(1, n + 1)),
                                                   update), mget(Leaf)),
                                MODIFY, False, _upto),
    "choose": Shape(lambda n: choose(range(1, n + 1)), BOTH, False, _upto),
    "fail-ret-spine": Shape(lambda n: _spine(
        n, lambda v: ret(v) if v % 2 == 0 else fail(), fail()), BOTH, False,
        lambda n: list(range(2, n + 1, 2))),
    "forwarded": Shape(_forwarded, BOTH, True,
                       lambda n: (list(range(n + 1)), n)),
    "forwarded-chain": Shape(lambda n: chain(
        n, lambda v, k: put(v, at=2, k=k), get(Leaf, at=2)), BOTH, True,
        lambda n: ([n], n)),
    "fail-spine-get": Shape(lambda n: _spine(n, lambda v: fail(), get(Leaf)),
                            STATE, False, lambda n: [0]),
    "fail-spine-mget": Shape(lambda n: _spine(
        n, lambda v: fail(), mget(Leaf)), MODIFY, False, lambda n: [0]),
    "ret-spine-get": Shape(lambda n: _spine(n, ret, get(Leaf)), STATE, False,
                           lambda n: _upto(n) + [0]),
    "ret-spine-mget": Shape(lambda n: _spine(n, ret, mget(Leaf)), MODIFY,
                            False, lambda n: _upto(n) + [0]),
}


def run_cell(shape, rung, t):
    """The answer of rung on t, a tree of shape, from state 0."""
    out = RUNGS[rung](t, 0, INT_UNDO)
    return h_nil(h_state(out, 0) if SHAPES[shape].forwarded else out)


def best_time(shape, rung, n, k):
    """The best of k process times of rung on shape's tree at size n, each
    tree built before its timer starts."""
    best = None
    for _ in range(k):
        t = SHAPES[shape].build(n)
        start = time.process_time()
        run_cell(shape, rung, t)
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return best


def sweep(n, k):
    """One row (shape, rung, time at n, time at 4n, ratio) per cell."""
    rows = []
    for shape in SHAPES:
        for rung in SHAPES[shape].rungs:
            small, large = best_time(shape, rung, n, k), \
                best_time(shape, rung, 4 * n, k)
            rows.append((shape, rung, small, large,
                         large / small if small else float("nan")))
    return rows


def report(rows, n):
    """The printed lines of sweep's rows, a flag on each ratio above 8."""
    lines = ["%-20s %-8s %10s %10s %7s" % ("shape", "rung", "n=%d" % n,
                                           "4n=%d" % (4 * n), "ratio")]
    for shape, rung, small, large, ratio in rows:
        lines.append("%-20s %-8s %10.4f %10.4f %7.2f%s" % (
            shape, rung, small, large, ratio, " !" if ratio > 8 else ""))
    flagged = [r for r in rows if r[4] > 8]
    lines.append("above 8: %s" % (", ".join(
        "%s/%s" % r[:2] for r in flagged) or "none"))
    return lines


def main():
    for line in report(sweep(N, K), N):
        print(line)


if __name__ == "__main__":
    main()
