"""Effect-tree core: fold, bind, monad laws, constructors, show_tree."""

import ast
import os
import random
import sys

import pytest
from hypothesis import given, strategies as st

from effsim.core import (
    Leaf, Node, Or, Fail, fold, bind, tree_map, seq,
    get, put, fail, or_, choose, guard, side, ret, show_tree,
    mget, update, restore,
)
import effsim
from effsim.handlers import h_nd
from child import run_child
from paper_forms import eager_fold, swap


def tree_equal(a, b):
    """Structural equality for trees without function-valued continuations."""
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return a.value == b.value
    if isinstance(a, Node) and isinstance(b, Node):
        if a.idx != b.idx or type(a.op) is not type(b.op):
            return False
        op, oq = a.op, b.op
        if isinstance(op, Or):
            return tree_equal(op.l, oq.l) and tree_equal(op.r, oq.r)
        if isinstance(op, Fail):
            return True
        if hasattr(op, "k") and not callable(op.k):
            same_payload = all(
                getattr(op, f) == getattr(oq, f)
                for f in op.__slots__ if f != "k")
            return same_payload and tree_equal(op.k, oq.k)
        return False
    return False


def random_nondet_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.randint(0, 9)) if rng.random() < 0.7 else fail(at=0)
    return or_(random_nondet_tree(rng, depth - 1),
               random_nondet_tree(rng, depth - 1), at=0)


def answers(t):
    """t's answers by core.fold, one node at a time: the algebra folds each
    child by name, as the translations do."""
    return fold(lambda x: [x], _answers, t)


def _answers(idx, op):
    return [] if isinstance(op, Fail) else answers(op.l) + answers(op.r)


def eager_answers(t):
    """t's answers by the paper's fold, every child folded first."""
    return eager_fold(lambda x: [x], lambda idx, op: (
        [] if isinstance(op, Fail) else op.l + op.r), t)


def test_fold_leaf():
    assert fold(lambda x: x, None, Leaf(7)) == 7


def test_fold_hnd_example():
    t = or_(ret(1), ret(2), at=0)
    assert answers(t) == eager_answers(t) == [1, 2]


def test_fold_matches_reference_evaluator():
    def reference(t):
        if isinstance(t, Leaf):
            return [t.value]
        if isinstance(t.op, Fail):
            return []
        return reference(t.op.l) + reference(t.op.r)
    rng = random.Random(0)
    for _ in range(200):
        t = random_nondet_tree(rng, 4)
        assert answers(t) == eager_answers(t) == reference(t)


def test_fold_visits_one_node():
    # core.fold is one step: on a 40 000-long chain of puts it calls alg
    # once, with the top Put as it is, its child not folded.  The paper's
    # fold, which folds every child first, recurses 40 000 deep here.
    t = Leaf("end")
    for v in range(40000, 0, -1):
        t = put(v, k=t)
    seen = []
    def alg(idx, op):
        seen.append((idx, op))
        return "top"
    def gen(x):
        raise AssertionError("a leaf was folded")
    assert fold(gen, alg, t) == "top"
    assert len(seen) == 1 and seen[0][0] == 0 and seen[0][1] is t.op
    # A rec that is given is mapped over the top node's children, and no
    # deeper: once over a Put's child, once over each arm of an Or, left
    # first.
    mapped = []
    def rec(c):
        mapped.append(c)
        return Leaf(len(mapped))
    op = fold(gen, lambda idx, op: op, t, rec)
    assert len(mapped) == 1 and mapped[0] is t.op.k
    assert op.s == 1 and op.k.value == 1
    mapped.clear()
    u = or_(t, t.op.k, at=0)
    op = fold(gen, lambda idx, op: op, u, rec)
    assert len(mapped) == 2 and mapped[0] is t and mapped[1] is t.op.k
    assert (op.l.value, op.r.value) == (1, 2)


def test_bind_leaf():
    assert tree_equal(bind(Leaf(3), lambda x: Leaf(x + 1)), Leaf(4))


def test_bind_maps_over_or():
    t = bind(or_(ret(1), ret(2), at=0), lambda x: ret(x * 10))
    assert tree_equal(t, or_(ret(10), ret(20), at=0))


@given(st.integers(min_value=0, max_value=10_000))
def test_monad_left_unit(x):
    f = lambda v: or_(ret(v), ret(v + 1), at=0)
    assert tree_equal(bind(ret(x), f), f(x))


def test_monad_right_unit_and_assoc():
    rng = random.Random(1)
    f = lambda v: or_(ret(v), fail(at=0), at=0)
    g = lambda v: ret(v * 2)
    for _ in range(500):
        t = random_nondet_tree(rng, 4)
        assert tree_equal(bind(t, ret), t)
        assert tree_equal(bind(bind(t, f), g),
                          bind(t, lambda x: bind(f(x), g)))


def test_fold_unique_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        t = random_nondet_tree(rng, 4)
        assert answers(bind(t, ret)) == answers(t) == \
            eager_answers(bind(t, ret))


def test_constructors():
    assert tree_equal(choose([1, 2, 3]),
                      or_(ret(1), or_(ret(2), or_(ret(3), fail()))))
    assert tree_equal(guard(True), ret(()))
    assert tree_equal(guard(False), fail())
    assert h_nd(swap(side(ret(5)))) == []


def test_show_tree_stable():
    assert show_tree(or_(ret(1), fail(), at=1)) == "or@1 (ret 1) (fail@1)"
    assert show_tree(put(3, at=0)) == "put@0 3; ret ()"
    assert show_tree(get(Leaf, at=0)) == "get@0 <fun>"
    assert show_tree(mget(Leaf, at=0)) == "mget@0 <fun>"


def test_repr_is_show_tree():
    t = or_(ret(1), seq(put(3), fail()))
    assert repr(t) == "or@1 (ret 1) (put@0 3; fail@1)"


def test_repr_of_leaf():
    assert repr(Leaf(5)) == "ret 5"


def test_show_tree_rejects_an_unknown_operation():
    class Unknown:
        pass
    with pytest.raises(TypeError, match="unknown operation Unknown at "
                                        "index 3"):
        show_tree(Node(3, Unknown()))


def deep_tree_as_text():
    """Turn a 20 000-deep or chain into text twice, by repr and in the error
    h_nd raises on it, and print both, then the recursion limit they ran
    under.  Run in a child: a text that recursed through C-level formatting
    would overflow the C stack."""
    t = choose(range(20000), at=1)
    print(repr(t) == show_tree(t), len(repr(t)))
    try:
        h_nd(choose(range(20000), at=1))
    except ValueError as e:
        print(e)
    print(sys.getrecursionlimit(), len(repr(t)))


@pytest.fixture(scope="module")
def deep_text():
    return run_child("from test_core import deep_tree_as_text\n"
                     "deep_tree_as_text()\n").splitlines()


def test_repr_of_deep_tree_does_not_crash(deep_text):
    # repr prints the tree as show_tree does, which is a loop.
    assert deep_text[0] == "True 368896"


def test_repr_of_deep_tree_under_default_recursion_limit(deep_text):
    # show_tree is a loop, so the full text needs no raised recursion limit.
    assert deep_text[2] == "1000 368896"


def test_h_nd_rejects_deep_residual_without_crashing(deep_text):
    # The error names the operation instead of printing the tree.
    assert deep_text[1] == "h_nd: unexpected residual operation Or at index 1"


def test_only_core_maps_children():
    # Every map over an operation's children is core's: fold's and the
    # deferred node's, which bind, tree_map and every forwarding site use.
    pkg = os.path.dirname(effsim.__file__)
    sites = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                tree = ast.parse(f.read())
            sites += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "map_children"]
    assert sites and {name for name, _line in sites} == {"core.py"}, sites


def test_no_module_sets_the_recursion_limit():
    # The package changes no interpreter setting: every fold, handler and
    # machine works one node at a time, under any recursion limit.
    pkg = os.path.dirname(effsim.__file__)
    sites = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                tree = ast.parse(f.read())
            sites += [(name, node.lineno) for node in ast.walk(tree)
                      if "setrecursionlimit" in (
                          getattr(node, "attr", None),
                          getattr(node, "id", None),
                          getattr(node, "name", None))]
    assert sites == []


def test_import_leaves_the_recursion_limit():
    code = ("import effsim, effsim.cli\n"
            "print(sys.getrecursionlimit())\n")
    assert run_child(code, limit=1234) == "1234\n"
