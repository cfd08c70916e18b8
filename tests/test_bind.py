"""Deferred bind: linear cost, deep inputs, and the monad laws on effect trees
with state and nondeterminism."""

import random

import pytest

from effsim import core
from effsim.core import (
    Leaf, Node, Put, bind, seq, ret, get, put, fail, or_, choose,
    update, restore, show_tree,
)
from effsim.handlers import h_nd, h_nil, h_local, h_global
from effsim.machines import simulate_f
from child import run_child
from paper_forms import eager_fold


OPS = (core.Get, core.Put, core.Fail, core.Or, core.MGet, core.MUpdate,
       core.MRestore)


def eager_bind(t, f):
    """The free monad's bind as one fold over the whole of t: the reference."""
    return eager_fold(f, Node, t)


def counted_map_children(monkeypatch):
    """Count every map_children call of every operation class."""
    calls = [0]
    for cls in OPS:
        def counted(self, f, orig=cls.map_children):
            calls[0] += 1
            return orig(self, f)
        monkeypatch.setattr(cls, "map_children", counted)
    return calls


def left_seq(n):
    """(((put 1 >> put 2) >> put 3) >> ... >> put n) >> get."""
    t = put(1)
    for v in range(2, n + 1):
        t = seq(t, put(v))
    return seq(t, get(Leaf))


def test_left_nested_seq_is_linear(monkeypatch):
    # Counts, not time.  An eager bind re-folds its left tree at every seq,
    # n * n / 2 map_children calls in all, 4x per doubling.
    calls = counted_map_children(monkeypatch)
    counts = []
    for n in (500, 1000, 2000, 4000):
        calls[0] = 0
        assert h_nil(h_local(left_seq(n), 0)) == [n]
        counts.append(calls[0])
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts


def test_deep_left_nested_seq_without_raised_limit():
    # 40 000-long left-nested seqs, and bind over a 40 000-wide choose,
    # under the interpreter's default recursion limit, through the pipelines
    # whose handlers and machines are loops.
    # The pipelines that translate first take them too, since every
    # translation works one node at a time (test_translations covers them).
    code = (
        "from effsim.core import Leaf, bind, choose, seq, put, get, update, "
        "mget\n"
        "from effsim.queens import RUNNERS\n"
        "from effsim.handlers import INT_UNDO\n"
        "def chain(op, close):\n"
        "    t = op(1)\n"
        "    for v in range(2, 40001):\n"
        "        t = seq(t, op(v))\n"
        "    return seq(t, close(Leaf))\n"
        "def wide(op, close):\n"
        "    return seq(bind(choose(range(1, 40001)), op), close(Leaf))\n"
        "for name, op, close in (('local', put, get), ('fusedF', put, get),\n"
        "                        ('localM', update, mget),\n"
        "                        ('fusedTF', update, mget)):\n"
        "    print(name, RUNNERS[name](chain(op, close), 0, INT_UNDO))\n"
        "    xs = RUNNERS[name](wide(op, close), 0, INT_UNDO)\n"
        "    print(name, len(xs), xs[0], xs[-1], sum(xs))\n")
    wide = " 40000 1 40000 800020000\n"
    assert run_child(code) == ("local [40000]\nlocal" + wide +
                           "fusedF [40000]\nfusedF" + wide +
                           "localM [800020000]\nlocalM" + wide +
                           "fusedTF [800020000]\nfusedTF" + wide)


# Random state/nondet programs (state at index 0, nondet at 1) as tagged
# tuples, built into trees from a base value so that Get children can be
# functions of the state.  "seq" builds with bind, so the trees themselves
# hold deferred nodes.

def random_spec(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return ("ret", rng.randint(-3, 3)) if rng.random() < 0.8 else ("fail",)
    kind = rng.choice(("or", "seq", "put", "get"))
    if kind in ("or", "seq"):
        return (kind, random_spec(rng, depth - 1), random_spec(rng, depth - 1))
    if kind == "put":
        return ("put", rng.randint(-3, 3), random_spec(rng, depth - 1))
    return ("get", random_spec(rng, depth - 1))


def build(spec, base):
    kind = spec[0]
    if kind == "ret":
        return ret(base + spec[1])
    if kind == "fail":
        return fail()
    if kind == "or":
        return or_(build(spec[1], base), build(spec[2], base))
    if kind == "seq":
        return bind(build(spec[1], base),
                    lambda x: build(spec[2], base + x))
    if kind == "put":
        return put(base + spec[1], k=build(spec[2], base))
    return get(lambda s: build(spec[1], base + s))


def runs(t):
    """t's answers under local and global state from several initial
    states: the comparison trees with function children allow."""
    return [(h_nil(h_local(t, s0)), h_nil(h_global(t, s0)))
            for s0 in (-2, 0, 3)]


def test_monad_laws_on_state_nondet_trees():
    rng = random.Random(11)
    for _ in range(150):
        sp, sf, sg = (random_spec(rng, 4) for _ in range(3))
        t = lambda: build(sp, 0)
        f = lambda x: build(sf, x)
        g = lambda x: build(sg, x)
        x = rng.randint(-3, 3)
        assert runs(bind(ret(x), f)) == runs(f(x))
        assert runs(bind(t(), ret)) == runs(t())
        assert runs(bind(bind(t(), f), g)) == \
            runs(bind(t(), lambda v: bind(f(v), g)))
        assert runs(bind(bind(t(), f), g)) == \
            runs(eager_bind(eager_bind(t(), f), g))
        # t >>= f as the child of a put, not yet read: bind adds to its queue.
        d = lambda: bind(put(9, k=t()), f).op.k
        h = lambda x: or_(ret(2 * x), put(x, k=ret(x - 1)))
        assert runs(bind(bind(d(), g), h)) == \
            runs(eager_bind(eager_bind(eager_bind(t(), f), g), h))


def test_left_nested_binds_keep_dfs_order():
    t = choose([1, 2], at=0)
    for d in (1, 2, 3):
        t = bind(t, lambda x, d=d: choose([10 * x + d, 10 * x - d], at=0))
    expected = [((10 * a + b1) * 10 + b2) * 10 + b3
                for a in (1, 2) for b1 in (1, -1) for b2 in (2, -2)
                for b3 in (3, -3)]
    assert h_nd(t) == expected
    assert h_nil(h_local(seq(put(0), bind(
        choose([1, 2]), lambda x: choose([x, -x]))), 0)) == [1, -1, 2, -2]


def test_deferred_tree_runs_twice_with_one_call_per_leaf():
    calls = []

    def f(x):
        calls.append(("f", x))
        return or_(put(x, k=ret(x)), ret(-x))

    def g(x):
        calls.append(("g", x))
        return put(10 * x, k=get(lambda s: ret((x, s))))

    t = bind(bind(seq(put(0), choose([1, 2])), f), g)
    assert calls == []
    expected = [(1, 10), (-1, -10), (2, 20), (-2, -20)]
    assert h_nil(h_local(t, 0)) == expected
    assert h_nil(simulate_f(t, 0)) == expected
    assert sorted(calls) == sorted([("f", 1), ("f", 2), ("g", 1), ("g", -1),
                                    ("g", 2), ("g", -2)])


def test_get_under_deferred_bind_resumes_repeatedly():
    # A Get child deferred under two binds; resuming its continuation must
    # not disturb a later resumption.
    calls = []

    def f(x):
        calls.append(x)
        return choose([x, 10 * x], at=0)

    t = bind(bind(put(5, k=get(lambda s: choose([s, -s], at=0))), f),
             lambda y: ret(y + 1))
    assert calls == []
    k = t.op.k.op.k
    assert [h_nd(k(s)) for s in (1, 2, 1)] == \
        [[2, 11, 0, -9], [3, 21, -1, -19], [2, 11, 0, -9]]
    assert calls == [1, -1, 2, -2, 1, -1]


# seq applies three bind equations before it builds a continuation; each
# must give the tree that bind builds.

def unread_deferred():
    """put 2 as the child of a bound put, its op not yet read: a deferred
    node whose queue seq appends to."""
    d = bind(put(1, k=put(2)), lambda _x: ret(5)).op.k
    assert d.__class__ is core._Deferred and d._f is not None
    return d


SEQ_SHAPES = {
    "leaf": lambda: ret(3),
    "fail@0": lambda: fail(at=0),
    "fail@1": lambda: fail(at=1),
    "put@0": lambda: put(4),
    "put@2": lambda: put(4, at=2),
    "update@0": lambda: update(5),
    "update@2": lambda: update(5, at=2),
    "restore@0": lambda: restore(6),
    "restore@2": lambda: restore(6, at=2),
    "put-non-leaf": lambda: put(4, k=or_(ret(1), put(7))),
    "get": lambda: get(Leaf),
    "or": lambda: or_(ret(1), put(8)),
    "deferred": unread_deferred,
}


@pytest.mark.parametrize("shape", list(SEQ_SHAPES))
def test_seq_builds_the_tree_bind_builds(shape):
    b = or_(put(9, k=ret("b")), fail())
    assert show_tree(seq(SEQ_SHAPES[shape](), b)) == \
        show_tree(eager_bind(SEQ_SHAPES[shape](), lambda _x: b))


def test_seq_returns_b_after_ret_and_fail_before_b():
    b = put(9)
    assert seq(ret(1), b) is b
    for at in (0, 1, 2):
        f = fail(at=at)
        assert f is fail(at=at)  # one shared fail node per index
        assert seq(f, b) is f


def test_seq_does_not_force_an_unread_deferred_node():
    d = unread_deferred()
    t = seq(d, put(9))
    assert d._f is not None  # d's op was not read
    assert t.__class__ is core._Deferred
    assert t._f.args[0].__class__ is tuple  # put 9 joined d's queue
    assert show_tree(t) == "put@0 2; put@0 9; ret ()"


def test_seq_on_a_node_subclass():
    # The tracer counts nodes with a Node subclass; seq must treat its nodes
    # as concrete nodes, since it tests classes against Leaf and _Deferred.
    class Counted(Node):
        __slots__ = ()

    b = or_(ret(1), ret(2))
    for a in (Counted(0, Put(4, ret(0))), Counted(1, core.Fail()),
              Counted(0, Put(4, put(5)))):
        assert show_tree(seq(a, b)) == show_tree(eager_bind(a, lambda _x: b))


# bind walks an or spine (concrete Or nodes at one index, each with a leaf
# left arm: what choose builds) when the tree is built.  Each end of the
# spine must give the tree that the eager bind builds.

class Counted(Node):
    """A Node subclass, as the tracer's counted Node is."""

    __slots__ = ()


def unread_deferred_or():
    """ret 2 | ret 3 at index 1 as the child of a bound put, its op not yet
    read: read, it would continue the spine above it."""
    d = bind(put(1, k=or_(ret(2), ret(3))), ret).op.k
    assert d.__class__ is core._Deferred and d._f is not None
    return d


SPINE_ENDS = {
    "shared-fail": lambda: choose([1, 2, 3]),
    "leaf": lambda: or_(ret(1), or_(ret(2), ret(3))),
    "or-non-leaf-left": lambda: or_(ret(1), or_(ret(2), or_(put(5, k=ret(7)),
                                                             ret(3)))),
    "or-other-index": lambda: or_(ret(1), or_(ret(2), or_(ret(3), ret(4),
                                                          at=2))),
    "deferred": lambda: or_(ret(1), or_(ret(2), unread_deferred_or())),
    "subclass": lambda: Counted(1, core.Or(ret(1), Counted(
        1, core.Or(ret(2), Counted(1, core.Or(ret(3), fail())))))),
}


SPINE_CALLS = {"shared-fail": [1, 2, 3], "leaf": [1, 2, 3],
               "or-non-leaf-left": [1, 2], "or-other-index": [1, 2],
               "deferred": [1, 2], "subclass": [1, 2, 3]}


def spine_f(calls):
    def f(x):
        calls.append(x)
        return or_(put(x, k=ret(x)), ret(-x))
    return f


@pytest.mark.parametrize("end", list(SPINE_ENDS))
def test_bind_on_an_or_spine_builds_the_eager_tree(end):
    # f runs when the tree is built, once on each of the spine's leaf arms,
    # left to right, and on the spine's end if that is a leaf.
    calls = []
    t = bind(SPINE_ENDS[end](), spine_f(calls))
    assert calls == SPINE_CALLS[end]
    assert show_tree(t) == show_tree(eager_bind(SPINE_ENDS[end](),
                                                spine_f([])))


def test_bind_on_an_or_spine_reads_no_deferred_node():
    d = unread_deferred_or()
    t = bind(or_(ret(1), or_(ret(2), d)), ret)
    assert d._f is not None
    end = t.op.r.op.r
    assert end.__class__ is core._Deferred and end._f is not None
    assert show_tree(t) == "or@1 (ret 1) (or@1 (ret 2) (or@1 (ret 2) (ret 3)))"


def test_bind_on_an_or_spine_keeps_the_fail_end():
    f = fail()
    t = bind(choose([1, 2]), lambda x: ret(10 * x))
    assert t.op.r.op.r is f
    assert t.__class__ is Node and t.op.r.__class__ is Node
    assert show_tree(t) == "or@1 (ret 10) (or@1 (ret 20) (fail@1))"
