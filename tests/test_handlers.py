"""Handlers: DFS lists, state threading, local vs global semantics."""

import ast
import os
import random

import pytest
from hypothesis import given, strategies as st

import effsim
from effsim.core import (
    Leaf, ret, get, put, fail, or_, guard, side, seq, bind,
    mget, update, restore,
)
from effsim.handlers import (
    Undo, INT_UNDO, h_nd, h_state, h_modify, h_ndf, h_nil,
    h_local, h_global, h_local_m, h_global_m, h_global_t,
)


def test_h_nd_dfs_order():
    t = or_(or_(ret(1), fail(at=0), at=0), or_(ret(2), ret(3), at=0), at=0)
    assert h_nd(t) == [1, 2, 3]


def test_h_nd_fail():
    assert h_nd(fail(at=0)) == []


def test_h_nd_rejects_foreign_ops():
    with pytest.raises(ValueError):
        h_nd(put(1, at=0))


def test_h_state_threads_state():
    t = seq(put(5), get(lambda s: ret(s + 1)))
    assert h_nil(h_state(t, 0)) == (6, 5)


def test_h_state_get_get():
    t = get(lambda s1: get(lambda s2: ret((s1, s2))))
    assert h_nil(h_state(t, 7)) == ((7, 7), 7)


def test_h_state_forwards_residual_with_current_state():
    # put 3; (ret () | put 9); get — each branch sees the state at the fork.
    t = seq(put(3), seq(or_(ret(()), put(9)), get(ret)))
    r = h_state(t, 0)
    assert h_nd(r) == [(3, 3), (9, 9)]


def test_h_modify_update_restore():
    t = seq(update(4), seq(restore(1), mget(ret)))
    assert h_nil(h_modify(t, 10)) == (13, 13)


def test_h_modify_custom_undo():
    u = Undo(lambda s, r: s + [r], lambda s, r: s[:-1])
    t = seq(update("a"), seq(update("b"), seq(restore("b"), mget(ret))))
    assert h_nil(h_modify(t, [], u)) == (["a"], ["a"])


def test_h_ndf_pure():
    t = or_(ret(1), or_(ret(2), fail(at=0), at=0), at=0)
    assert h_nil(h_ndf(t)) == [1, 2]


def test_h_ndf_forwards_state():
    # (get | get) with nondet leading: residual state ops remain.
    t = or_(get(ret, at=1), seq(put(8, at=1), get(ret, at=1)), at=0)
    assert h_nil(h_state(h_ndf(t), 2)) == ([2, 8], 8)


def test_h_ndf_residual_resumes_repeatedly():
    # A forwarded continuation captures the machine's results and pending
    # branches; resuming it must not disturb a later resumption.
    r = h_ndf(or_(get(ret, at=1), ret("b"), at=0))
    assert r.idx == 0
    assert [h_nil(r.op.k(s)) for s in (1, 2, 1)] == \
        [[1, "b"], [2, "b"], [1, "b"]]


def test_h_nil_rejects_ops():
    with pytest.raises(ValueError):
        h_nil(fail(at=0))


def prog_fork_put():
    """put 1; ((put 2; get) | get) — the local/global litmus program."""
    return seq(put(1), or_(seq(put(2), get(ret)), get(ret)))


def test_h_local_backtracks_state():
    assert h_nil(h_local(prog_fork_put(), 0)) == [2, 1]


def test_h_global_leaks_state():
    assert h_nil(h_global(prog_fork_put(), 0)) == [2, 2]


def test_h_local_m_and_h_global_m():
    t = seq(update(1, at=0), or_(seq(update(2, at=0), mget(ret)), mget(ret)))
    assert h_nil(h_local_m(t, 0)) == [3, 1]
    assert h_nil(h_global_m(t, 0)) == [3, 3]


def test_h_global_t_restores_like_local():
    t = seq(update(1, at=0), or_(seq(update(2, at=0), mget(ret)), mget(ret)))
    assert h_nil(h_global_t(t, 0)) == [3, 1]


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_put_put_law_under_local(s0, a, b):
    lhs = seq(put(a), seq(put(b), get(ret)))
    rhs = seq(put(b), get(ret))
    assert h_nil(h_local(lhs, s0)) == h_nil(h_local(rhs, s0))


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_or_fail_identity_under_local(s0, a):
    p = seq(put(a), get(ret))
    lhs = or_(fail(), p)
    rhs = or_(p, fail())
    assert h_nil(h_local(lhs, s0)) == h_nil(h_local(rhs, s0)) \
        == h_nil(h_local(p, s0))


def test_side_has_effects_but_no_answers():
    t = or_(side(put(9)), get(ret))
    assert h_nil(h_global(t, 0)) == [9]
    assert h_nil(h_local(t, 0)) == [0]


_HANDLER_NAMES = {"h_state", "h_modify", "h_ndf", "h_nd", "h_local",
                  "h_global", "h_local_m", "h_global_m", "h_global_t"}


def _called(node):
    """The name a call node calls (a plain or an attribute name), else None."""
    f = getattr(node, "func", None)
    return getattr(f, "id", None) or getattr(f, "attr", None)


def test_library_stacks_handlers_only_with_run_stack():
    # A stack of handlers is one run_stack row, which builds no residual
    # tree between its handlers, never one handler run on another's result.
    src = os.path.dirname(effsim.__file__)
    nested = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read(), name)
            nested += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and _called(node) in _HANDLER_NAMES and node.args
                       and _called(node.args[0]) in _HANDLER_NAMES]
    assert nested == []
