"""run_stack's nondet frame at an Or: a ret left arm is recorded and a fail
left arm at the frame's own index skipped, with no choicepoint; any other
left arm is pushed as before.  Each row is a hand-built or spine through one
handler stack, with its answer written out."""

import pytest

from effsim.core import (
    Leaf, bind, ret, get, put, fail, or_, mget, update, show_tree,
)
from effsim.handlers import (
    run_stack, h_ndf, h_state, h_nil,
    h_local, h_global, h_local_m, h_global_m, h_global_t,
)
from effsim.translations import local2global, local2global_m


def deferred_fail():
    """fail at index 1 as bind's deferred child of a put, its op not read."""
    return bind(put(1, k=fail()), ret).op.k


def local(t, s=0):
    return h_nil(h_local(t, s))


def global_(t, s=0):
    return h_nil(h_global(t, s))


def spine(*arms, at=1):
    """arms[0] | (arms[1] | ... arms[-1]), a right-nested or spine."""
    t = arms[-1]
    for a in reversed(arms[:-1]):
        t = or_(a, t, at=at)
    return t


# The state and modify stacks' rows; s0 = 0 for state, 1 for modify.
STATE = (("state", 0), ("nondet", 1))
MODIFY = (("modify", 0), ("nondet", 1))
RECORDS = (("state", 0), ("state", 1), ("nondet", 2))

ROWS = {
    # ret and fail arms at the frame's index, in any order.
    "local-rets": (lambda: local(spine(ret(1), ret(2), ret(3))), [1, 2, 3]),
    "local-fails": (lambda: local(spine(fail(), ret(1), fail(), fail(),
                                        ret(2))), [1, 2]),
    "local-all-fail": (lambda: local(spine(fail(), fail(), fail())), []),
    "global-rets-fails": (lambda: global_(spine(ret(1), fail(), ret(2),
                                                get(Leaf))), [1, 2, 0]),
    # A ret arm is paired with the states before the frame, as a leaf is.
    "stack-state-pairs": (
        lambda: run_stack(put(5, k=spine(ret("a"), put(6, k=spine(
            ret("b"), get(Leaf))))), STATE, (0,)).value,
        [("a", 5), ("b", 6), (6, 6)]),
    "stack-two-state-pairs": (
        lambda: run_stack(spine(ret("x"), put(4, at=1, k=ret("y")), at=2),
                          RECORDS, (7, 8)).value,
        [(("x", 7), 8), (("y", 7), 4)]),
    "stack-modify-pairs": (
        lambda: run_stack(update(2, k=spine(ret("a"), update(3, k=spine(
            ret("b"), fail())), mget(Leaf))), MODIFY, (1,)).value,
        [("a", 3), ("b", 6), (3, 3)]),
    "stack-global-unpaired": (
        lambda: run_stack(spine(ret("a"), put(2, k=ret("b"))),
                          (("nondet", 1), ("state", 0)), (0,)).value,
        (["a", "b"], 2)),
    # A put arm is pushed: local restores the state for the right branch,
    # global does not.
    "local-put-arm": (lambda: local(spine(put(3, k=ret("x")), ret("y"),
                                          get(Leaf))), ["x", "y", 0]),
    "global-put-arm": (lambda: global_(spine(put(3, k=ret("x")), ret("y"),
                                             get(Leaf))), ["x", "y", 3]),
    # A deferred fail, bind's or a translation's, is skipped as a fail.
    "local-deferred-fail": (lambda: local(spine(deferred_fail(), ret(2))),
                            [2]),
    "global-translated": (lambda: global_(local2global(spine(
        fail(), put(4, k=spine(fail(), get(Leaf))), ret(8), get(Leaf)))),
        [4, 8, 0]),
    "local-m": (lambda: h_nil(h_local_m(spine(
        update(2, k=mget(Leaf)), ret(9), fail(), mget(Leaf)), 1)),
        [3, 9, 1]),
    "global-m-untranslated": (lambda: h_nil(h_global_m(spine(
        update(2, k=mget(Leaf)), ret(9), fail(), mget(Leaf)), 1)),
        [3, 9, 3]),
    "global-m": (lambda: h_nil(h_global_m(local2global_m(spine(
        update(2, k=mget(Leaf)), ret(9), fail(), mget(Leaf))), 1)),
        [3, 9, 1]),
    "global-t": (lambda: h_nil(h_global_t(spine(
        update(2, k=spine(fail(), ret(5), mget(Leaf))), ret(9), fail(),
        mget(Leaf)), 1)), [5, 3, 9, 1]),
    "ndf-rets-fails": (lambda: h_nil(h_ndf(spine(
        ret(1), fail(at=0), ret(2), at=0))), [1, 2]),
    "ndf-at-1": (lambda: h_nil(h_ndf(spine(fail(), ret(1), ret(2)), 1)),
                 [1, 2]),
    # A left arm at a forwarded index is pushed and forwarded: a forwarded
    # fail ends the run, a forwarded put resumes it.
    "local-forwarded-fail": (lambda: show_tree(h_local(spine(
        fail(at=2), ret(1)), 0)), "fail@0"),
    "ndf-forwarded-fail": (lambda: show_tree(h_ndf(spine(
        fail(at=1), ret(1), at=0))), "fail@0"),
    "local-forwarded-put": (lambda: h_nil(h_state(h_local(spine(
        put(9, at=2), ret(1)), 0), 5)), ([(), 1], 9)),
    "ndf-forwarded-put": (lambda: h_nil(h_state(h_ndf(spine(
        put(3, at=1, k=ret(1)), ret(2), at=0)), 0)), ([1, 2], 3)),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_or_arm_rows(row):
    run, expected = ROWS[row]
    assert run() == expected


# A left arm that is neither a ret nor a fail at the frame's index runs as
# the next step, so a stray operation in it raises the message it raised
# when every arm was pushed, and the right arm is never reached.
STRAYS = {
    "local-fail@0": (lambda: local(spine(fail(at=0), ret(1))),
                     "h_state: non-state operation Fail at index 0"),
    "local-put@1": (lambda: local(spine(ret(1), put(1, at=1), ret(2))),
                    "h_ndf: non-nondet operation Put at index 0"),
    "global-fail@0": (lambda: global_(spine(fail(at=0), ret(1))),
                      "h_state: non-state operation Fail at index 0"),
    "local-m-fail@0": (lambda: h_nil(h_local_m(spine(fail(at=0), ret(1)),
                                               1)),
                       "h_modify: non-modify operation Fail at index 0"),
    "global-m-get@0": (lambda: h_nil(h_global_m(spine(ret(1), get(Leaf),
                                                      ret(2)), 1)),
                       "h_modify: non-modify operation Get at index 0"),
    "global-t-get@0": (lambda: h_nil(h_global_t(spine(ret(1), get(Leaf),
                                                      ret(2)), 1)),
                       "h_modify: non-modify operation Get at index 0"),
    "ndf-put@0": (lambda: h_nil(h_ndf(spine(put(1, at=0), ret(2), at=0))),
                  "h_ndf: non-nondet operation Put at index 0"),
    "ndf-mget-behind-ret": (lambda: h_nil(h_ndf(spine(
        ret(1), mget(Leaf, at=0), at=0))),
        "h_ndf: non-nondet operation MGet at index 0"),
}


@pytest.mark.parametrize("row", list(STRAYS))
def test_stray_left_arm_messages(row):
    run, message = STRAYS[row]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == message
