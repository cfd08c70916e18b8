"""n-queens: safety predicate, undo instance, and pipeline agreement."""

import ast
import hashlib
import inspect
import itertools

import pytest

from effsim import core
from effsim.core import Leaf, Or, fail
from effsim.queens import (
    safe, valid, q_plus, q_minus, QUEENS_UNDO, INITIAL,
    PIPELINES, run_pipeline, queens, queens_m, queens_naive,
)

N4_SOLUTIONS = [[2, 4, 1, 3], [3, 1, 4, 2]]


def test_safe_basic():
    # Same column, and both diagonals, starting one step left of the queen.
    assert not safe(3, 1, [3])
    assert not safe(3, 1, [2])
    assert not safe(3, 1, [4])
    assert safe(3, 1, [1])


def test_safe_distance():
    # Queen two columns away: diagonal offsets of 2 attack, 1 does not.
    assert not safe(3, 1, [9, 5])
    assert not safe(3, 1, [9, 1])
    assert safe(3, 1, [9, 2])


def test_valid_against_bruteforce():
    def brute(sol):
        cols = list(range(len(sol), 0, -1))  # sol is most-recent-first
        return all(
            sol[i] != sol[j]
            and abs(sol[i] - sol[j]) != abs(cols[i] - cols[j])
            for i in range(len(sol)) for j in range(i + 1, len(sol)))
    for p in itertools.permutations(range(1, 6)):
        assert valid(list(p)) == brute(list(p))


def test_q_plus_q_minus_inverse():
    st = q_plus(INITIAL, 3)
    assert st == (1, [3])
    st2 = q_plus(st, 1)
    assert st2 == (2, [1, 3])
    assert q_minus(st2, 1) == st
    assert q_minus(st, 3) == INITIAL


def test_q_minus_bottoms_out():
    with pytest.raises(RuntimeError):
        q_minus(INITIAL, 5)


def test_pipelines_registry():
    assert list(PIPELINES) == [
        "naive", "local", "global", "sim", "fusedF",
        "localM", "globalM", "globalT", "simT", "fusedTF",
    ]


@pytest.mark.parametrize("name", list(PIPELINES))
def test_pipeline_n4(name):
    assert run_pipeline(name, 4) == N4_SOLUTIONS


@pytest.mark.parametrize("name", list(PIPELINES))
def test_pipeline_small_counts(name):
    # [DERIVED] counts for n = 1..5: 1, 0, 0, 2, 10.
    assert [len(run_pipeline(name, n)) for n in range(1, 6)] == \
        [1, 0, 0, 2, 10]


def test_pipeline_solutions_are_column_ordered_placements():
    for sol in run_pipeline("local", 6):
        assert sorted(sol) == list(range(1, 7))
        assert valid(list(reversed(sol)))


def test_run_pipeline_rejects_bad_input():
    with pytest.raises(ValueError):
        run_pipeline("bogus", 4)
    with pytest.raises(ValueError):
        run_pipeline("local", 0)


# The running example stays as written: a faster build must come from core,
# not from a rewrite of the bind-shaped programs.  ast.dump leaves out line
# numbers and comments, so only a change to the code or a docstring moves
# these.
PROGRAM_DIGESTS = {
    "queens":
        "d2367ef704ed627ff3bd3709b69a34f377a6fcdb3cd25461570dd10465fed355",
    "queens_m":
        "f48038d1d66cca5323708ca65ef466bf72eca9fc75d300269ae54cf3da7c3576",
}


@pytest.mark.parametrize("program", [queens, queens_m])
def test_queens_programs_stay_as_written(program):
    text = ast.dump(ast.parse(inspect.getsource(program)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PROGRAM_DIGESTS[program.__name__]


@pytest.mark.parametrize("n", range(1, 7))
def test_queens_naive_is_the_lexicographic_or_chain(n):
    t, no = queens_naive(n), fail(at=0)
    for p in itertools.permutations(range(1, n + 1)):
        assert t.idx == 0 and t.op.__class__ is Or
        leaf = t.op.l
        if valid(p):
            assert leaf.__class__ is Leaf and leaf.value == list(p)
        else:
            assert leaf is no
        t = t.op.r
    assert t is no  # n! Or nodes on the right spine, then the shared fail


@pytest.mark.parametrize("name", ["local", "sim", "fusedF", "localM",
                                  "fusedTF"])
def test_queens_builds_no_deferred_node(name, monkeypatch):
    # Counts, not time: bind walks each choose's or spine when the tree is
    # built, so these pipelines defer no node (894 at n=6 when bind built
    # only the top Or of each choose).
    made = [0]
    init = core._Deferred.__init__

    def counted(self, idx, op, f):
        made[0] += 1
        init(self, idx, op, f)

    monkeypatch.setattr(core._Deferred, "__init__", counted)
    assert len(run_pipeline(name, 6)) == 4
    assert made[0] == 0
