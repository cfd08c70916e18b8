"""Fused machines: agreement with the composed pipelines, traces, deep runs."""

import random

import pytest

from effsim.core import (
    Leaf, ret, get, put, fail, or_, choose, seq, mget, update, restore,
)
from effsim.handlers import Undo, h_nil, h_local, h_local_m, h_global_t
from effsim.machines import simulate_f, simulate_tf
from effsim.translations import simulate, simulate_t
from tests.test_translations import random_local_program, \
    _random_modify_program


def test_simulate_f_litmus():
    t = seq(put(1), or_(seq(put(2), get(ret)), get(ret)))
    assert h_nil(simulate_f(t, 0)) == [2, 1]


def test_simulate_f_equals_simulate():
    rng = random.Random(20)
    for _ in range(300):
        t = random_local_program(rng, 5)
        s0 = rng.randint(0, 9)
        assert h_nil(simulate_f(t, s0)) == h_nil(simulate(t, s0)) \
            == h_nil(h_local(t, s0))


def test_simulate_f_deep_chain():
    # 10k sequential puts then a get: no Python recursion involved.
    t = get(ret)
    for i in range(10_000):
        t = seq(put(i), t)
    assert h_nil(simulate_f(t, -1)) == [0]


def test_simulate_f_wide_or():
    t = choose(range(5_000))
    assert h_nil(simulate_f(t, 0)) == list(range(5_000))


# Size-scaling checks: results only, never time.  Each result is bound to a
# name first, so that a failing assert does not print a 200 000-deep tree.

def test_simulate_f_scales():
    out = h_nil(simulate_f(choose(range(200_000)), 0))
    assert out == list(range(200_000))
    t = get(ret)
    for i in range(200_000):
        t = seq(put(i), t)
    out = h_nil(simulate_f(t, -1))
    assert out == [0]


def test_simulate_tf_scales():
    out = h_nil(simulate_tf(choose(range(200_000)), 0))
    assert out == list(range(200_000))
    t = mget(ret)
    for _ in range(200_000):
        t = seq(update(1, at=0), t)
    out = h_nil(simulate_tf(t, 0))
    assert out == [200_000]


def test_simulate_f_trace():
    trace = []
    t = or_(seq(put(5), ret("a")), ret("b"))
    assert h_nil(simulate_f(t, 0, trace=trace)) == ["a", "b"]
    assert [rec[0] for rec in trace] == ["or", "put", "ret", "ret"]
    # Counters: (op, |results|, |cpStack|).
    assert trace[0] == ("or", 0, 1)
    assert trace[-1] == ("ret", 2, 0)


def test_simulate_f_forwards_residual():
    from effsim.handlers import h_state
    # A residual state family at index 2, handled after the machine.
    t = or_(get(ret, at=2), seq(put(7, at=2), get(ret, at=2)))
    out = h_nil(h_state(simulate_f(t, 0), 3))
    assert out == ([3, 7], 7)


def test_simulate_f_residual_resumes_repeatedly():
    # Each resumption starts from the stacks as they were when the residual
    # operation was forwarded, however often it is resumed.
    r = simulate_f(or_(get(ret, at=2), ret("b")), 0)
    assert r.idx == 0
    assert [h_nil(r.op.k(s)) for s in (1, 2, 1)] == \
        [[1, "b"], [2, "b"], [1, "b"]]


def test_simulate_tf_litmus():
    t = seq(update(1, at=0), or_(seq(update(2, at=0), mget(ret)), mget(ret)))
    assert h_nil(simulate_tf(t, 0)) == [3, 1]


def test_simulate_tf_equals_simulate_t():
    rng = random.Random(21)
    for _ in range(300):
        t = _random_modify_program(rng, 5)
        s0 = rng.randint(0, 9)
        assert h_nil(simulate_tf(t, s0)) == h_nil(simulate_t(t, s0)) \
            == h_nil(h_local_m(t, s0))


def test_simulate_tf_residual_resumes_repeatedly():
    # The trail entry and marker pushed before the fork must be there for
    # every resumption, so that the right branch sees the state restored.
    r = simulate_tf(or_(seq(update(5, at=0), get(ret, at=2)),
                        mget(ret, at=0)), 0)
    assert r.idx == 0
    assert [h_nil(r.op.k(s)) for s in (1, 2, 1)] == [[1, 0], [2, 0], [1, 0]]


def test_simulate_tf_custom_undo():
    u = Undo(lambda s, r: s + [r], lambda s, r: s[:-1])
    t = seq(update("a", at=0),
            or_(seq(update("b", at=0), mget(ret)), mget(ret)))
    assert h_nil(simulate_tf(t, [], undo=u)) == [["a", "b"], ["a"]]


def test_simulate_tf_trace_untrail():
    trace = []
    t = or_(seq(update(4, at=0), mget(ret)), mget(ret))
    assert h_nil(simulate_tf(t, 10, trace=trace)) == [14, 10]
    ops = [rec[0] for rec in trace]
    assert ops == ["or", "update", "mget", "ret", "untrail", "mget", "ret"]


def test_simulate_tf_deep_chain():
    t = mget(ret)
    for _ in range(10_000):
        t = seq(update(1, at=0), t)
    assert h_nil(simulate_tf(t, 0)) == [10_000]


def test_simulate_tf_restore():
    t = seq(update(5), seq(restore(2), mget(ret)))
    steps = []
    assert h_nil(simulate_tf(t, 0, trace=steps)) == [3]
    assert steps == [("update", 0, 0, 1), ("restore", 0, 0, 1),
                     ("mget", 0, 0, 1), ("ret", 1, 0, 1)]
    assert h_nil(simulate_t(t, 0)) == h_nil(h_local_m(t, 0)) == [3]


def test_restore_breaks_the_trail_theorems():
    # The theorems assume a program without restore: a restore is not
    # trailed, so the right branch starts from 5 - 2 - 5 instead of 0.
    t = or_(seq(update(5), seq(restore(2), mget(ret))), mget(ret))
    for run in (simulate_tf, simulate_t, h_global_t):
        assert h_nil(run(t, 0)) == [3, -2], run.__name__
    assert h_nil(h_local_m(t, 0)) == [3, 0]


# Full step records, pinned: every record's op and each stack depth in it.

def test_simulate_tf_trace_untrail_records():
    trace = []
    t = or_(seq(update(4, at=0), mget(ret)), mget(ret))
    assert h_nil(simulate_tf(t, 10, trace=trace)) == [14, 10]
    assert trace == [("or", 0, 1, 1), ("update", 0, 1, 2), ("mget", 0, 1, 2),
                     ("ret", 1, 1, 2), ("untrail", 1, 0, 1),
                     ("mget", 1, 0, 0), ("ret", 2, 0, 0)]


def _forwarding_program(put0, get0):
    """(put0 5; get0 x; get2 y; ret (x, y)) | get0 ret, with get2 forwarded."""
    return or_(seq(put0(5), get0(lambda x: get(lambda y: ret((x, y)), at=2))),
               get0(ret))


FORWARD_RECORDS = {
    "simulate_f": (
        [("or", 0, 1), ("put", 0, 2), ("get", 0, 2)],
        [("ret", 1, 2), ("get", 1, 0), ("ret", 2, 0)]),
    "simulate_tf": (
        [("or", 0, 1, 1), ("update", 0, 1, 2), ("mget", 0, 1, 2)],
        [("ret", 1, 1, 2), ("untrail", 1, 0, 1), ("mget", 1, 0, 0),
         ("ret", 2, 0, 0)]),
}


@pytest.mark.parametrize("machine, put0, get0", [
    (simulate_f, put, get), (simulate_tf, update, mget)],
    ids=["simulate_f", "simulate_tf"])
def test_trace_records_of_forwarded_resumptions(machine, put0, get0):
    trace = []
    r = machine(_forwarding_program(put0, get0), 0, trace=trace)
    before, resumed = FORWARD_RECORDS[machine.__name__]
    assert r.idx == 0 and trace == before
    for n, s in enumerate((1, 2, 1), 1):
        assert h_nil(r.op.k(s)) == [(5, s), 0]
        assert trace == before + resumed * n


STRAY_RECORDS = {
    "simulate_f": [("put", 0, 1), ("or", 0, 2), ("get", 0, 2),
                   ("ret", 1, 2), ("put", 1, 2)],
    "simulate_tf": [("update", 0, 0, 1), ("or", 0, 1, 2), ("mget", 0, 1, 2),
                    ("ret", 1, 1, 2), ("update", 1, 0, 2)],
}


@pytest.mark.parametrize("machine, put0, get0, stray, at, message", [
    (simulate_f, put, get, update, 0,
     "simulate_f: non-state operation MUpdate at index 0"),
    (simulate_f, put, get, update, 1,
     "simulate_f: non-nondet operation MUpdate at index 1"),
    (simulate_tf, update, mget, put, 0,
     "simulate_tf: non-modify operation Put at index 0"),
    (simulate_tf, update, mget, put, 1,
     "simulate_tf: non-nondet operation Put at index 1"),
], ids=["simulate_f@0", "simulate_f@1", "simulate_tf@0", "simulate_tf@1"])
def test_trace_records_before_a_stray_operation(machine, put0, get0, stray,
                                                at, message):
    t = seq(put0(3), or_(get0(ret), seq(put0(2), stray(1, at=at))))
    trace = []
    with pytest.raises(ValueError) as info:
        machine(t, 0, trace=trace)
    assert str(info.value) == message
    assert trace == STRAY_RECORDS[machine.__name__]
