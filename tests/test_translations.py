"""Translations: putR, choicepoint-state machines, state merging, trails."""

import random

import pytest

from effsim.core import (
    Leaf, Node, ret, get, put, fail, or_, choose, seq, mget, update, side,
)
from effsim.handlers import (
    INT_UNDO, h_nd, h_state, h_ndf, h_nil, h_local, h_global, h_local_m,
    to_cells, from_cells,
)
from effsim.translations import (
    put_r, local2global, pop_s, push_s, append_s,
    run_nd, nondet2state, run_ndf, states2state, simulate,
    local2global_m, local2trail, MARKER, push_stack, untrail,
    simulate_t,
)
from effsim.difftest import alpha
from paper_forms import eager_fold, swap


def random_local_program(rng, depth):
    """A [StateF(int), NondetF] program with puts, gets, forks and failures."""
    if depth == 0 or rng.random() < 0.25:
        c = rng.random()
        if c < 0.5:
            return get(ret)
        if c < 0.8:
            return ret(rng.randint(0, 9))
        return fail()
    c = rng.random()
    if c < 0.4:
        return or_(random_local_program(rng, depth - 1),
                   random_local_program(rng, depth - 1))
    if c < 0.7:
        return seq(put(rng.randint(0, 9)),
                   random_local_program(rng, depth - 1))
    # Build the subtree eagerly: a lazy continuation would re-roll the RNG
    # on every handler traversal and yield a different tree each time.
    sub = random_local_program(rng, depth - 1)
    return get(lambda s: seq(put(s + 1), sub))


def test_put_r_restores_after_failure():
    # putR 5 | get: the side branch restores, so the right get sees s0.
    t = or_(seq(put_r(5), get(ret)), get(ret))
    assert h_nil(h_global(t, 0)) == [5, 0]


def test_local2global_litmus():
    t = seq(put(1), or_(seq(put(2), get(ret)), get(ret)))
    assert h_nil(h_global(local2global(t), 0)) == [2, 1]
    assert h_nil(h_global(local2global(t), 0)) == h_nil(h_local(t, 0))


def test_local2global_matches_local_on_random_programs():
    rng = random.Random(10)
    for _ in range(300):
        t = random_local_program(rng, 5)
        assert h_nil(h_global(local2global(t), 0)) == h_nil(h_local(t, 0))


def test_pop_s_empty_halts():
    res = h_nil(h_state(pop_s(), (None, None)))
    assert res[0] == ()


def test_push_append_pop_roundtrip():
    t = push_s(append_s("b", pop_s()), append_s("a", pop_s()))
    res = h_nil(h_state(t, (None, None)))
    assert from_cells(res[1][0]) == ["a", "b"]


def test_run_nd_example():
    t = or_(ret(1), or_(fail(at=0), ret(2), at=0), at=0)
    assert run_nd(t) == [1, 2]


def test_run_nd_equals_h_nd():
    rng = random.Random(11)
    for _ in range(300):
        t = swap(random_local_program(rng, 5))  # [NondetF, StateF]
        # Restrict to pure nondet programs for the closed machine.
        pure = choose([rng.randint(0, 9) for _ in range(rng.randint(0, 6))],
                      at=0)
        assert run_nd(pure) == h_nd(pure)


def test_run_ndf_equals_h_ndf():
    rng = random.Random(12)
    for _ in range(300):
        t = swap(random_local_program(rng, 5))  # [NondetF, StateF]
        lhs = h_nil(h_state(run_ndf(t), 0))
        rhs = h_nil(h_state(h_ndf(t), 0))
        assert lhs == rhs


def test_states2state_projections():
    t = seq(put(3, at=0), seq(put(4, at=1),
            get(lambda a: get(lambda b: ret((a, b)), at=1), at=0)))
    res = h_nil(h_state(states2state(t), (0, 0)))
    assert res == ((3, 4), (3, 4))


def test_alpha_isomorphism():
    v = (("a", 1), 2)
    assert alpha(v) == ("a", (1, 2))


def test_simulate_equals_h_local():
    rng = random.Random(13)
    for _ in range(300):
        t = random_local_program(rng, 5)
        s0 = rng.randint(0, 9)
        assert h_nil(simulate(t, s0)) == h_nil(h_local(t, s0))


def test_local2global_m_litmus():
    from effsim.handlers import h_global_m
    t = seq(update(1, at=0), or_(seq(update(2, at=0), mget(ret)), mget(ret)))
    assert h_nil(h_global_m(local2global_m(t), 0)) == h_nil(h_local_m(t, 0))


def test_stack_primitives():
    def front(t):
        # The stack family sits at its pipeline position 2; retag to 0 so a
        # bare h_state can interpret it.
        return eager_fold(Leaf, lambda i, op: Node(0 if i == 2 else i, op),
                          t)

    t = seq(push_stack("x"), push_stack("y", get(ret, at=2)))
    res = h_nil(h_state(front(t), None))
    assert res == (to_cells(["x", "y"]), to_cells(["x", "y"]))
    # untrail on an empty trail continues at once, leaving it empty.
    assert h_nil(h_state(front(untrail(ret("k"))), None)) == ("k", None)


def test_untrail_restores_through_marker():
    from effsim.handlers import h_modify
    trail = to_cells([9, MARKER, 3, 2])  # top last
    # untrail emits restores at 0 and trail-stack ops at 2; retag the stack
    # family to 1 so both handlers sit at the front in turn.
    t = eager_fold(Leaf, lambda i, op: Node(1 if i == 2 else i, op),
                   untrail())
    inner = h_modify(t, 10)  # restores handled; stack ops now at 0
    res = h_nil(h_state(inner, trail))
    assert res == (((), 5), to_cells([9]))


# The stacks are persistent cons cells: a push conses one cell onto the old
# stack, result list or trail object, and a pop leaves the old tail object,
# so that neither copies.  get(Leaf) returns the state it reads.

def test_choicepoint_stack_ops_share_the_old_cells():
    cs = (to_cells([1, 2]), to_cells([ret(4), ret(3)]))
    q = ret(5)
    new = h_nil(h_state(push_s(q, get(Leaf)), cs))[0]
    assert new[1][0] is q and new[1][1] is cs[1]
    assert new[0] is cs[0]
    new = h_nil(h_state(append_s(7, get(Leaf)), cs))[0]
    assert new[0] == (7, cs[0]) and new[0][1] is cs[0]
    assert new[1] is cs[1]
    cs = (cs[0], to_cells([ret(3), get(Leaf)]))
    new = h_nil(h_state(pop_s(), cs))[0]
    assert new[1] is cs[1][1] and new[0] is cs[0]


def test_trail_ops_share_the_old_cells():
    from effsim.handlers import h_modify

    def retag(t, at):
        # Move the trail family from its pipeline position 2 to index at.
        return eager_fold(Leaf, lambda i, op: Node(at if i == 2 else i, op),
                          t)

    trail = to_cells([5, MARKER, 2])  # top last
    new = h_nil(h_state(retag(push_stack(MARKER, get(Leaf, at=2)), 0),
                        trail))[0]
    assert new == (MARKER, trail) and new[1] is trail
    # untrail restores the delta 2 at index 0 and pops through the marker.
    t = retag(untrail(get(Leaf, at=2)), 1)
    (seen, s), final = h_nil(h_state(h_modify(t, 10), trail))
    assert s == 8 and final is trail[1][1] and seen is final


@pytest.mark.parametrize("pipeline", ["globalT", "simT", "fusedTF"])
def test_trail_tells_marker_by_identity(pipeline):
    # A delta equal to MARKER is still a delta: the trail pipelines undo it
    # on backtracking, as local state discards it.
    from effsim.handlers import Undo
    from effsim.queens import RUNNERS
    delta = tuple(["marker"])
    assert delta == MARKER and delta is not MARKER
    undo = Undo(lambda s, r: s + (r,), lambda s, r: s[:-1])
    t = or_(update(delta, k=fail()), mget(ret))
    expected = RUNNERS["localM"](t, (), undo)
    assert expected == [()]
    assert RUNNERS[pipeline](t, (), undo) == expected


def test_local2trail_matches_local():
    from effsim.handlers import h_global_t
    rng = random.Random(14)
    for _ in range(200):
        t = _random_modify_program(rng, 5)
        assert h_nil(h_global_t(t, 0)) == h_nil(h_local_m(t, 0))


def _random_modify_program(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        c = rng.random()
        if c < 0.6:
            return mget(ret)
        if c < 0.85:
            return ret(rng.randint(0, 9))
        return fail()
    c = rng.random()
    if c < 0.45:
        return or_(_random_modify_program(rng, depth - 1),
                   _random_modify_program(rng, depth - 1))
    return seq(update(rng.randint(-3, 3), at=0),
               _random_modify_program(rng, depth - 1))


def test_simulate_t_equals_h_local_m():
    rng = random.Random(15)
    for _ in range(300):
        t = _random_modify_program(rng, 5)
        s0 = rng.randint(0, 9)
        assert h_nil(simulate_t(t, s0)) == h_nil(h_local_m(t, s0))


# Every translation, staged or fused, translates each node when the run
# reaches it, so no pipeline recurses: test_long_inputs runs 40 000-long
# inputs through each of them under the default recursion limit.


# Each Get continuation a translation builds is a step function partially
# applied to what it captured; a handler may apply it more than once, and
# each application must build the tree its own state calls for.

def test_step_continuations_resume_with_each_state():
    from effsim.core import show_tree

    def both(t, s1, s2):
        return show_tree(t.op.k(s1)), show_tree(t.op.k(s2))

    assert both(put_r(5, ret("k")), 1, 2) == (
        "or@1 (put@0 5; ret 'k') (put@0 1; fail@1)",
        "or@1 (put@0 5; ret 'k') (put@0 2; fail@1)")
    for at in (0, 1):  # the four states2state cases
        assert both(states2state(get(ret, at=at)), (1, 2), (3, 4)) == (
            "ret %d" % (1 + at), "ret %d" % (3 + at))
        pair = ("(7, 2)", "(7, 4)") if at == 0 else ("(1, 7)", "(3, 7)")
        assert both(states2state(put(7, at=at)), (1, 2), (3, 4)) == (
            "put@0 %s; ret ()" % pair[0], "put@0 %s; ret ()" % pair[1])
    assert both(push_stack("x", ret(0)), None, ("y", None)) == (
        "put@2 ('x', None); ret 0", "put@2 ('x', ('y', None)); ret 0")
    assert both(untrail(ret(0)), to_cells([1, MARKER]),
                to_cells([MARKER, 3])) == (
        "put@2 (1, None); ret 0",
        "put@2 (('marker',), None); restore@0 3; get@2 <fun>")
    assert untrail(ret(0)).op.k(None).value == 0

    q1, q2 = ret("q1"), ret("q2")
    cs1 = (to_cells([1]), to_cells([q1]))
    cs2 = (to_cells([2, 3]), to_cells([q2, q1]))
    for cs in (cs1, cs2):
        new = push_s(q2, fail(), at=1).op.k(cs)
        assert new.idx == 1 and new.op.s[1] == (q2, cs[1])
        assert new.op.s[0] is cs[0]
        new = append_s(9, fail(), at=1).op.k(cs)
        assert new.op.s[0] == (9, cs[0])
        assert new.op.s[1] is cs[1]
        new = pop_s(1).op.k(cs)
        assert new.op.k is cs[1][0] and new.op.s[1] is cs[1][1]
        assert new.op.s[0] is cs[0]
    assert pop_s(1).op.k((None, None)).value == ()


def test_pop_s_tree_is_shared_per_index():
    assert pop_s(1) is pop_s(1) and pop_s() is pop_s(0)
    cs = (None, to_cells([ret("q")]))
    for i in (0, 1, 2):
        assert pop_s(i).idx == i and pop_s(i).op.k(cs).idx == i


def test_simulations_rerun_on_one_tree():
    rng = random.Random(16)
    for _ in range(50):
        t = random_local_program(rng, 5)
        assert h_nil(simulate(t, 1)) == h_nil(simulate(t, 1))
        t = _random_modify_program(rng, 5)
        assert h_nil(simulate_t(t, 1)) == h_nil(simulate_t(t, 1))
