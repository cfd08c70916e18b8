"""Malformed and open trees: the message of every stray-operation error, and
forwarding of a third family through every state and modify pipeline, on
chains of any length, on random programs, and through core's deferred node,
which runs a forwarded operation's resumption when its op is first read."""

import pytest

from effsim.core import Leaf, bind, get, put, or_, seq, mget, update
from effsim.difftest import gen_program, lower
from effsim.handlers import (
    h_nd, h_state, h_modify, h_ndf, h_nil,
    h_local, h_global, h_local_m, h_global_m, h_global_t,
)
from effsim.machines import simulate_f, simulate_tf
from effsim.translations import (
    nondet2state, states2state, local2global, local2global_m,
    simulate, simulate_t, simulate_tree, simulate_t_tree,
)
from child import run_child


def _behind_two_forwarded():
    return put(1, at=2, k=put(2, at=2, k=mget(Leaf)))


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
    # A stray operation behind two forwarded ones is met when the closing
    # h_state reads them, or when a pipeline's tree_map does.
    pytest.param(lambda: h_nil(h_state(h_local(_behind_two_forwarded(), 0),
                                       9)),
                 "h_state: non-state operation MGet at index 0",
                 id="local-forwarded-MGet@0"),
    pytest.param(lambda: h_nil(h_state(simulate(_behind_two_forwarded(), 0),
                                       9)),
                 "states2state: non-state operation MGet at index 0",
                 id="simulate-forwarded-MGet@0"),
    pytest.param(lambda: h_nil(h_state(
                     simulate_f(_behind_two_forwarded(), 0), 9)),
                 "simulate_f: non-state operation MGet at index 0",
                 id="simulate_f-forwarded-MGet@0"),
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


# Every forwarding site returns the deferred node of effsim.core, which runs
# the resumption over an operation's children on the first read of its op.
# So a chain of forwarded operations nests no call of the loop that
# forwarded it, and 40 000-long chains run under the interpreter's default
# recursion limit, set in a child process.  The staged translations keep a
# forwarded operation as that node too, so global, globalM and globalT
# forward such chains as well.
_DEEP_FORWARD = {
    "local": (2, "h_local(t, 0)", "([40000], 40000)"),
    "global": (2, "h_global(local2global(t), 0)", "([40000], 40000)"),
    "localM": (2, "h_local_m(t, 0)", "([40000], 40000)"),
    "globalM": (2, "h_global_m(local2global_m(t), 0)", "([40000], 40000)"),
    "globalT": (2, "h_global_t(t, 0)", "([40000], 40000)"),
    "sim": (2, "simulate(t, 0)", "([40000], 40000)"),
    "simT": (2, "simulate_t(t, 0)", "([40000], 40000)"),
    "fusedF": (2, "simulate_f(t, 0)", "([40000], 40000)"),
    "fusedTF": (2, "simulate_tf(t, 0)", "([40000], 40000)"),
    "h_state": (1, "h_state(t, 'a')", "((40000, 'a'), 40000)"),
}


@pytest.mark.parametrize("name", list(_DEEP_FORWARD))
def test_deep_forwarding_without_raised_limit(name):
    at, run, expected = _DEEP_FORWARD[name]
    code = (
        "from effsim.core import Leaf, get, put\n"
        "from effsim.handlers import h_state, h_nil, h_local, h_local_m\n"
        "from effsim.handlers import h_global, h_global_m, h_global_t\n"
        "from effsim.translations import simulate, simulate_t\n"
        "from effsim.translations import local2global, local2global_m\n"
        "from effsim.machines import simulate_f, simulate_tf\n"
        "t = get(Leaf, at=%d)\n"
        "for v in range(40000, 0, -1):\n"
        "    t = put(v, at=%d, k=t)\n"
        "print(h_nil(h_state(%s, 0)))\n" % (at, at, run))
    assert run_child(code) == expected + "\n"


# Differential check of forwarding: random programs over state, nondet and
# modify, with one of the state families lowered as a third family at index
# 2, which every pipeline forwards.  Closed with h_state, each pipeline must
# give the answers of local (state pipelines) or localM (modify pipelines).
_FORWARD_LAYOUTS = (
    (STATE_PIPELINES, "local", {"state": 0, "nondet": 1,
                                "modify_as_state": 2}),
    (MODIFY_PIPELINES, "localM", {"modify": 0, "nondet": 1, "state": 2}),
)


def test_forwarding_pipelines_agree_on_random_programs():
    disagreements = []
    for seed in range(300):
        ast = gen_program(seed, 5, ("state", "nondet", "modify"))
        s0, a0 = seed % 3, seed % 5 - 2
        for pipelines, ref, layout in _FORWARD_LAYOUTS:
            t = lower(ast, layout)
            want = h_nil(h_state(pipelines[ref](t, s0), a0))
            for name, run in pipelines.items():
                got = h_nil(h_state(run(t, s0), a0))
                if got != want:
                    disagreements.append((seed, name, got, want))
    assert disagreements == []


# The deferred node's contract at a forwarding site.

def test_forwarded_op_is_built_once_on_first_read():
    calls = []

    def k(s):
        calls.append(s)
        return Leaf(s)
    residual = h_state(or_(get(k), get(k)), 7)
    assert calls == []  # nothing of the children runs before the read
    op = residual.op
    assert calls == [7, 7]  # the resumption ran once per concrete child
    assert residual.op is op
    assert calls == [7, 7]
    assert h_nil(h_ndf(residual)) == [(7, 7), (7, 7)]


def test_forwarded_machine_trace_grows_when_read():
    trace = []
    residual = simulate_f(put(1, k=put(2, at=2, k=get(Leaf))), 0, trace)
    assert trace == [("put", 0, 1)]
    residual.op
    residual.op
    assert trace == [("put", 0, 1), ("get", 0, 1), ("ret", 1, 1)]


def test_bind_over_unread_forwarded_residual_binds_a_tree():
    residual = h_state(put(1, at=1, k=Leaf("x")), 0)
    t = bind(residual, lambda v: Leaf(("bound", v)))
    assert h_nil(h_state(t, 9)) == (("bound", ("x", 0)), 1)
    t = bind(h_state(put(1, at=1, k=Leaf("x")), 0),
             lambda v: get(lambda s: Leaf((v, s))))
    assert h_nil(h_state(t, 9)) == ((("x", 0), 1), 1)


@pytest.mark.parametrize("run, t, message", [
    (lambda t: h_state(t, 0), put(1, at=1, k=mget(Leaf)),
     "h_state: non-state operation MGet at index 0"),
    (lambda t: simulate_f(t, 0), put(1, at=2, k=mget(Leaf)),
     "simulate_f: non-state operation MGet at index 0"),
    (lambda t: simulate_tf(t, 0), put(1, at=2, k=get(Leaf)),
     "simulate_tf: non-modify operation Get at index 0"),
    (simulate_tree, put(1, at=2, k=mget(Leaf)),
     "states2state: non-state operation MGet at index 0"),
    (simulate_t_tree, put(1, at=2, k=put(5, at=1)),
     "nondet2state: non-nondet operation Put at index 1"),
], ids=["h_state", "simulate_f", "simulate_tf", "simulate_tree",
        "simulate_t_tree"])
def test_stray_behind_forwarded_op_raises_when_read(run, t, message):
    # The forwarding site runs nothing of the forwarded put's child until
    # the outer run reads the residual's op, and then the stray operation
    # there raises its pinned message.
    residual = run(t)
    with pytest.raises(ValueError) as info:
        residual.op
    assert str(info.value) == message
