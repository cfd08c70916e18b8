"""choose as a lazy node: bind on an unread choose calls f on each value and
builds no chain, and the first read of its op builds the chain choose has
always built.  Counts, not time."""

import pytest

from effsim import core
from effsim.core import (
    Leaf, Node, Or, bind, seq, ret, put, get, fail, or_, choose, show_tree,
)
from effsim.handlers import h_nd, h_nil, h_local
from effsim.queens import PIPELINES, run_pipeline
from paper_forms import eager_fold


def eager_choose(xs, at=1):
    """choose = foldr ((|) . eta) fail, built as concrete nodes."""
    t = fail(at=at)
    for x in reversed(xs):
        t = Node(at, Or(Leaf(x), t))
    return t


def eager_bind(t, f):
    return eager_fold(f, Node, t)


def arm(calls):
    def f(x):
        calls.append(x)
        return or_(put(x, k=ret(x)), ret(-x))
    return f


def counted_inits(monkeypatch, *classes):
    """Count the objects of each class built from now on."""
    made = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counted(self, *args, orig=cls.__init__, name=cls.__name__):
            made[name] += 1
            orig(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return made


def counted_choice_reads(monkeypatch):
    """Count every read of an unread choose node's op."""
    reads = [0]
    prop = core._Choice.op

    def op(self):
        reads[0] += self._xs is not None
        return prop.fget(self)
    monkeypatch.setattr(core._Choice, "op", property(op))
    return reads


@pytest.mark.parametrize("name", ["local", "fusedF"])
def test_queens_builds_only_binds_or_nodes(name, monkeypatch):
    # At n=6 bind builds 894 Or nodes over its arms.  Before choose was
    # lazy, each choose also built its own chain: 1788 Or and 899-900 Leaf
    # nodes in all.  The leaves left are the four solutions.
    made = counted_inits(monkeypatch, Or, Leaf)
    assert len(run_pipeline(name, 6)) == 4
    assert made["Or"] == 894
    assert made["Leaf"] <= 6


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_no_queens_pipeline_reads_a_choose_node(name, monkeypatch):
    reads = counted_choice_reads(monkeypatch)
    assert run_pipeline(name, 5) == run_pipeline("naive", 5)
    assert reads[0] == 0


@pytest.mark.parametrize("xs", [[1], [1, 2, 3], list(range(10))])
def test_bind_on_choose_calls_f_left_to_right(xs, monkeypatch):
    reads = counted_choice_reads(monkeypatch)
    calls = []
    t = bind(choose(xs), arm(calls))
    assert calls == xs
    assert reads[0] == 0
    assert show_tree(t) == show_tree(eager_bind(eager_choose(xs), arm([])))
    assert t.__class__ is Node  # the Or nodes bind builds are plain nodes


def test_bind_on_choose_at_another_index_ends_in_its_fail():
    t = bind(choose([1, 2], at=0), lambda x: ret(10 * x))
    assert t.op.r.op.r is fail(at=0)
    assert h_nd(t) == [10, 20]


def test_bind_on_a_read_choose_walks_its_spine():
    c = choose([1, 2, 3])
    assert show_tree(c) == show_tree(eager_choose([1, 2, 3]))  # a read
    assert c._xs is None
    calls = []
    t = bind(c, arm(calls))
    assert calls == [1, 2, 3]
    assert show_tree(t) == show_tree(eager_bind(eager_choose([1, 2, 3]),
                                                arm([])))


@pytest.mark.parametrize("b", [
    put(9, k=ret("b")), get(Leaf), fail(), or_(ret(1), put(8))])
def test_seq_on_choose_gives_the_tree_bind_gives(b, monkeypatch):
    reads = counted_choice_reads(monkeypatch)
    t = seq(choose([1, 2, 3]), b)
    assert reads[0] == 0
    assert show_tree(t) == show_tree(eager_bind(eager_choose([1, 2, 3]),
                                                lambda _x: b))


def test_first_read_builds_the_eager_chain_once():
    c = choose(x for x in (4, 5, 6))  # any iterable, read once
    assert c.op is c.op
    assert show_tree(c) == show_tree(eager_choose([4, 5, 6]))
    chain, n = c, 0
    while chain is not fail():
        assert chain.op.l.__class__ is Leaf
        chain, n = chain.op.r, n + 1
    assert n == 3


def test_choose_copies_its_list():
    xs = [1, 2, 3]
    c, d = choose(xs), choose(xs)
    show_tree(d)  # d read at once, c not read yet
    xs[0] = 7
    xs.append(4)
    assert show_tree(c) == show_tree(d) == show_tree(eager_choose([1, 2, 3]))
    assert h_nil(h_local(seq(put(0), bind(choose(xs), ret)), 0)) == \
        [7, 2, 3, 4]


@pytest.mark.parametrize("at", [0, 1, 2])
def test_choose_of_nothing_is_fail(at):
    assert choose([], at=at) is fail(at=at)
    assert choose(iter(()), at=at) is fail(at=at)
