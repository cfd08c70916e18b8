"""Every long-input check as one row of one table: a tree builder of n, a
runner, a size, and the answer as a closed form of n.

Every handler, translation and machine works one node at a time, so no
input size makes one recurse.  The whole table runs in one child
interpreter under the default recursion limit (tests/child.py), which
prints one line per row: its name and a digest of its answer, never a long
value.  Each row is then its own test, named shape/runner/size.

The rung rows take their trees and answers from tools/scaling.py's SHAPES
and run through its run_cell.  The other rows name their own runner.
"""

import zlib

import pytest

from effsim.core import Leaf, choose, fail, get, mget, or_, put, update
from effsim.handlers import (
    from_cells, h_modify, h_nd, h_nil, h_state, run_stack,
)
from effsim.translations import (
    run_nd, run_ndf, simulate_t_tree, simulate_tree, states2state,
)
from child import load_tool, run_child

scaling = load_tool("scaling")
SHAPES, STATE, MODIFY, BOTH = (scaling.SHAPES, scaling.STATE, scaling.MODIFY,
                               scaling.BOTH)
LONG = 40_000  # the size of most rows

# (shape, rungs, sizes): run_cell of each rung on the shape's tree at each
# size.
CELLS = (
    ("put-chain", STATE, (LONG,)),
    ("put-chain", ("global",), (2000,)),
    ("put-chain", ("sim", "fusedF"), (10_000,)),
    ("put-chain", ("fusedF",), (200_000,)),
    ("update-chain", MODIFY, (LONG,)),
    ("update-chain", ("globalT", "simT", "fusedTF"), (10_000,)),
    ("update-chain", ("fusedTF",), (200_000,)),
    ("left-seq-put", STATE, (LONG,)),
    ("left-seq-update", MODIFY, (LONG,)),
    ("choose-bind-put", ("local", "fusedF"), (LONG,)),
    ("choose-bind-update", ("localM", "fusedTF"), (LONG,)),
    ("choose", BOTH, (LONG,)),
    ("choose", ("globalT",), (4000, 10_000)),
    ("choose", ("fusedF",), (5000,)),
    ("choose", ("sim", "simT"), (10_000,)),
    ("choose", ("fusedF", "fusedTF"), (200_000,)),
    ("forwarded-chain", BOTH, (LONG,)),
    ("fail-spine-get", STATE, (LONG,)),
    ("fail-spine-mget", MODIFY, (LONG,)),
    ("ret-spine-get", STATE, (LONG,)),
    ("ret-spine-mget", MODIFY, (LONG,)),
)


def _pop(family, fused):
    """A runner that reads a fused translation's states: the local answers
    as (answer, state) pairs from state 5, then the fused run's answers,
    choicepoint stack, answer and user state."""
    def run(t):
        local = h_nil(run_stack(t, ((family, 0), ("nondet", 1)), (5,)))
        a, ((xs, stack), other) = h_nil(fused(t))
        return (local, from_cells(xs), stack, a,
                from_cells(other) if family == "modify" else other)
    return run


SIM = _pop("state", lambda t: h_state(simulate_tree(t), ((None, None), 5)))
SIMT = _pop("modify", lambda t: h_state(h_modify(simulate_t_tree(t), 5),
                                        ((None, None), None)))


def _then_7(n, op, read, reads):
    """op 1 .. op n, each followed by a read when reads, then a read; or op
    7 and a read.  The pop at the first branch's leaf crosses n restore
    entries (sim) or trail deltas (simT)."""
    step = (lambda v, k: op(v, k=read(lambda _s: k))) if reads else \
        (lambda v, k: op(v, k=k))
    return or_(scaling.chain(n, step, read(Leaf)), op(7, k=read(Leaf)))


def _mixed(n, op, read):
    """An n-way or chain of fail, ret i and read arms, by i % 3; a read arm
    writes i and reads again."""
    return scaling.chain(n, lambda i, k: or_((fail(), Leaf(i), read(
        lambda s: op(i, k=read(lambda s2: Leaf((i, s, s2))))))[i % 3], k),
        fail())


def _popped(local, a, other):
    """A pop runner's answer, the fused answers being the local ones."""
    return (local, [x for x, _s in local], None, a, other)


def _sim_ran(n):
    """SIM's answer on _then_7: the last pop undoes put 7, back to 5."""
    return _popped([(n, n), (7, 7)], (), 5)


def _simt_ran(n):
    """SIMT's answer on _then_7: nothing pops the right branch's delta, so
    the trail ends with it."""
    return _popped([(5 + scaling.tri(n),) * 2, (12, 12)], ((), 12), [7])


def _mixed_local(n, w):
    """The local answers of _mixed from 5, a read arm leaving state w(i)."""
    return [(i, 5) if i % 3 == 1 else ((i, 5, w(i)), w(i))
            for i in range(1, n + 1) if i % 3]


def _last(n, odd):
    """The last v of 1 .. n with v % 2 == odd."""
    return n if n % 2 == odd else n - 1


def _naturals(n):
    """[0 .. n - 1]."""
    return list(range(n))


def _choose0(n):
    return choose(range(n), at=0)


def _cell(shape, rung):
    return lambda t: scaling.run_cell(shape, rung, t)


# (shape, runner, size, tree builder of n, runner, answer of n)
ROWS = [(shape, rung, n, SHAPES[shape].build, _cell(shape, rung),
         SHAPES[shape].answer)
        for shape, rungs, sizes in CELLS for rung in rungs for n in sizes]
ROWS += [
    ("choose-at-0", "h_nd", 50_000, _choose0, h_nd, _naturals),
    ("choose-at-0", "run_nd", LONG, _choose0, run_nd, _naturals),
    ("choose-at-0", "run_ndf", LONG, _choose0, lambda t: h_nil(run_ndf(t)),
     _naturals),
    ("put-chain", "h_state", 50_000, SHAPES["put-chain"].build,
     lambda t: h_nil(h_state(t, 0)), lambda n: (n, n)),
    # The first h_state forwards the chain at index 1, the second runs it.
    ("put-chain-at-1", "h_state", LONG,
     lambda n: scaling.chain(n, lambda v, k: put(v, at=1, k=k),
                             get(Leaf, at=1)),
     lambda t: h_nil(h_state(h_state(t, "a"), 0)), lambda n: ((n, "a"), n)),
    # put v at index v % 2, then a read of index 1.
    ("two-families", "states2state", LONG,
     lambda n: scaling.chain(n, lambda v, k: put(v, at=v % 2, k=k),
                             get(Leaf, at=1)),
     lambda t: h_nil(h_state(states2state(t), (0, 0))),
     lambda n: (_last(n, 1), (_last(n, 0), _last(n, 1)))),
    ("run-then-7", "simulate_tree", LONG,
     lambda n: _then_7(n, put, get, False), SIM, _sim_ran),
    ("read-run-then-7", "simulate_tree", LONG,
     lambda n: _then_7(n, put, get, True), SIM, _sim_ran),
    ("mixed-arms", "simulate_tree", LONG, lambda n: _mixed(n, put, get), SIM,
     lambda n: _popped(_mixed_local(n, lambda i: i), (), 5)),
    ("run-then-7", "simulate_t_tree", LONG,
     lambda n: _then_7(n, update, mget, False), SIMT, _simt_ran),
    ("read-run-then-7", "simulate_t_tree", LONG,
     lambda n: _then_7(n, update, mget, True), SIMT, _simt_ran),
    ("mixed-arms", "simulate_t_tree", LONG, lambda n: _mixed(n, update, mget),
     SIMT, lambda n: _popped(_mixed_local(n, lambda i: 5 + i), ((), 5), [])),
]
BY_NAME = {"%s/%s/%d" % row[:3]: row[2:] for row in ROWS}


def digest(answer):
    """answer as a short text: each list as its length, its first and last
    items and a CRC-32 of its text, through tuples."""
    if isinstance(answer, tuple):
        return "(%s)" % ", ".join(map(digest, answer))
    if isinstance(answer, list):
        return "[%d %r %r %08x]" % (len(answer), answer[:1], answer[-1:],
                                    zlib.crc32(repr(answer).encode()))
    return repr(answer)


def main():
    """Print each row's name and the digest of its answer, or the error it
    raised, so that one failing row leaves the others to run."""
    for name, (n, build, run, _answer) in BY_NAME.items():
        try:
            line = digest(run(build(n)))
        except Exception as e:
            line = "raised %s: %.200s" % (type(e).__name__, e)
        print(name, line, flush=True)


@pytest.fixture(scope="module")
def printed():
    out = run_child("from test_long_inputs import main\nmain()\n")
    return dict(line.split(" ", 1) for line in out.splitlines())


@pytest.mark.parametrize("name", list(BY_NAME))
def test_long_input(printed, name):
    n, _build, _run, answer = BY_NAME[name]
    assert printed.get(name) == digest(answer(n))
