"""Malformed and open trees: the message of every stray-operation error, and
forwarding of a third family through every state and modify pipeline."""

import pytest

from effsim.core import Leaf, get, put, or_, seq, mget, update
from effsim.handlers import (
    h_nd, h_state, h_modify, h_ndf, h_nil,
    h_local, h_global, h_local_m, h_global_m, h_global_t,
)
from effsim.machines import simulate_f, simulate_tf
from effsim.translations import (
    nondet2state, states2state, local2global, local2global_m,
    simulate, simulate_t,
)


@pytest.mark.parametrize("run, message", [
    (lambda: h_nd(put(1, at=0)), "h_nd: non-nondet operation Put at index 0"),
    (lambda: h_state(mget(Leaf), 0),
     "h_state: non-state operation MGet at index 0"),
    (lambda: h_modify(get(Leaf), 0),
     "h_modify: non-modify operation Get at index 0"),
    (lambda: h_ndf(put(1, at=0)),
     "h_ndf: non-nondet operation Put at index 0"),
    (lambda: simulate_f(mget(Leaf), 0),
     "simulate_f: non-state operation MGet at index 0"),
    (lambda: simulate_f(put(1, at=1), 0),
     "simulate_f: non-nondet operation Put at index 1"),
    (lambda: simulate_tf(get(Leaf), 0),
     "simulate_tf: non-modify operation Get at index 0"),
    (lambda: simulate_tf(put(1, at=1), 0),
     "simulate_tf: non-nondet operation Put at index 1"),
    (lambda: nondet2state(put(1, at=0)),
     "nondet2state: non-nondet operation Put at index 0"),
    (lambda: states2state(mget(Leaf, at=0)),
     "states2state: non-state operation MGet at index 0"),
    (lambda: states2state(update(1, at=1)),
     "states2state: non-state operation MUpdate at index 1"),
    (lambda: nondet2state(put(1, at=1), at=1),
     "nondet2state: non-nondet operation Put at index 1"),
    (lambda: states2state(mget(Leaf, at=1), at=1),
     "states2state: non-state operation MGet at index 1"),
    (lambda: states2state(update(1, at=2), at=1),
     "states2state: non-state operation MUpdate at index 2"),
    (lambda: h_ndf(put(1, at=1), 1),
     "h_ndf: non-nondet operation Put at index 1"),
    (lambda: h_nil(put(1, at=0)),
     "h_nil applied to an operation node (idx=0, op=Put): residual "
     "signature was expected to be empty"),
    (lambda: h_nd(put(1, at=2)),
     "h_nd: unexpected residual operation Put at index 2"),
    # The simulations name the translation whose family the stray operation
    # sits in, whether it is met at once or behind a continuation.
    pytest.param(lambda: simulate(mget(Leaf), 0),
                 "states2state: non-state operation MGet at index 0",
                 id="simulate-MGet@0"),
    pytest.param(lambda: simulate(put(1, at=1), 0),
                 "nondet2state: non-nondet operation Put at index 1",
                 id="simulate-Put@1"),
    pytest.param(lambda: h_nil(simulate(get(lambda s: put(1, at=1)), 0)),
                 "nondet2state: non-nondet operation Put at index 1",
                 id="simulate-get-Put@1"),
    pytest.param(lambda: h_nil(simulate_t(get(Leaf), 0)),
                 "h_modify: non-modify operation Get at index 0",
                 id="simulate_t-Get@0"),
    pytest.param(lambda: simulate_t(put(1, at=1), 0),
                 "nondet2state: non-nondet operation Put at index 1",
                 id="simulate_t-Put@1"),
    pytest.param(lambda: h_nil(simulate_t(mget(lambda s: put(1, at=1)), 0)),
                 "nondet2state: non-nondet operation Put at index 1",
                 id="simulate_t-mget-Put@1"),
    # With several stray operations, the one the run reaches first is
    # reported: the one behind the left branch's continuation, not the one
    # under the right branch's first operation.
    pytest.param(lambda: h_nil(simulate(or_(get(lambda s: put(1, at=1)),
                                            put(5, k=mget(Leaf))), 0)),
                 "nondet2state: non-nondet operation Put at index 1",
                 id="simulate-run-order"),
    pytest.param(lambda: h_nil(simulate_t(or_(mget(lambda s: get(Leaf)),
                                              update(5, k=put(2, at=1))), 0)),
                 "h_modify: non-modify operation Get at index 0",
                 id="simulate_t-run-order"),
])
def test_stray_operation_messages(run, message):
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == message


def _third_family_program(put0, get0):
    """put0 1; (get0 x; get2 y; ret (x, y) | put0 5; get0 x; put2 (x * 10);
    get2 y; ret (x, y)), with the index-2 operations a third family."""
    return seq(put0(1), or_(
        get0(lambda x: get(lambda y: Leaf((x, y)), at=2)),
        seq(put0(5), get0(lambda x: seq(put(x * 10, at=2),
                                        get(lambda y: Leaf((x, y)), at=2))))))


STATE_PIPELINES = {
    "local": h_local,
    "global": lambda t, s: h_global(local2global(t), s),
    "sim": simulate,
    "fusedF": simulate_f,
}

MODIFY_PIPELINES = {
    "localM": h_local_m,
    "globalM": lambda t, s: h_global_m(local2global_m(t), s),
    "globalT": h_global_t,
    "simT": simulate_t,
    "fusedTF": simulate_tf,
}


@pytest.mark.parametrize("name", list(STATE_PIPELINES))
def test_state_pipelines_forward_a_third_family(name):
    t = _third_family_program(put, get)
    out = h_nil(h_state(STATE_PIPELINES[name](t, 0), 100))
    assert out == ([(1, 100), (5, 50)], 50)


@pytest.mark.parametrize("name", list(MODIFY_PIPELINES))
def test_modify_pipelines_forward_a_third_family(name):
    t = _third_family_program(update, mget)
    out = h_nil(h_state(MODIFY_PIPELINES[name](t, 0), 100))
    assert out == ([(1, 100), (6, 60)], 60)
