"""The fused translations against the compositions they are derived from.

simulate and simulate_t run the paper's pipelines with the retagging folds
fused into the translations, and the translations build their output with
continuation-taking constructors instead of seq.  The paper's forms are kept
here as references, and each fused form must give the same answers and the
same final states on random programs.
"""

import random

import pytest

from effsim.core import (
    Leaf, Node, MUpdate, get, put, or_, seq, side, update, restore, fold,
    tree_map, swap, rotate, show_tree,
)
from effsim.difftest import gen_program, lower
from effsim.handlers import (
    h_state, h_modify, h_ndf, h_nil, to_cells, from_cells,
)
from effsim.translations import (
    ChoiceState, MARKER, left, put_r, local2global, local2global_m,
    nondet2state, states2state, local2trail, push_stack, untrail,
    simulate, simulate_t,
)

# Layouts for random programs: SN and MN, and each with a third state family
# at index 2 (modify_as_state lowers mget/update to plain get/put there).
SN = (("state", "nondet"), {"state": 0, "nondet": 1})
SN3 = (("state", "nondet", "modify"),
       {"state": 0, "nondet": 1, "modify_as_state": 2})
MN = (("modify", "nondet"), {"modify": 0, "nondet": 1})
MN3 = (("modify", "nondet", "state"), {"modify": 0, "nondet": 1, "state": 2})


def _programs(families, layout, seed, n=150, depth=5):
    rng = random.Random(seed)
    for i in range(n):
        yield (lower(gen_program(seed * 1000 + i, depth, families), layout),
               rng.randint(-3, 3))


def _close(v, third):
    """Close a handled tree: a third state family starts from 100."""
    return h_nil(h_state(v, 100)) if third else (h_nil(v), None)


# ---------------------------------------------------------------------------
# The paper's compositions, as references.
# ---------------------------------------------------------------------------

def simulate_paper_tree(t):
    """states2state . nondet2state . swap . local2global: one state family
    of (choicepoints, user state) pairs."""
    return states2state(nondet2state(swap(local2global(t))))


def simulate_paper(t, s):
    """simulate = extract . hState . states2state . nondet2state . swap
                . local2global."""
    u = h_state(simulate_paper_tree(t), (ChoiceState(None, None), s))
    return tree_map(u, lambda pair: from_cells(pair[1][0].results))


def simulate_t_paper_tree(t):
    """swap . states2state . rotate . swap . nondet2state . swap
    . local2trail: [ModifyF, StateF((choicepoints, trail)) | rest]."""
    u = local2trail(t)            # [M, N, Trail | rest]
    u = swap(u)                   # [N, M, Trail | rest]
    u = nondet2state(u)           # [SS, M, Trail | rest]
    u = swap(u)                   # [M, SS, Trail | rest]
    u = rotate(u)                 # [SS, Trail, M | rest]
    u = states2state(u)           # [(SS, Trail), M | rest]
    return swap(u)                # [M, (SS, Trail) | rest]


def simulate_t_paper(t, s):
    """simulateT = extractT . hState . fmap fst . flip runStateT s . hModify
                 . simulate_t_paper_tree."""
    w = tree_map(h_modify(simulate_t_paper_tree(t), s), lambda pair: pair[0])
    v = h_state(w, (ChoiceState(None, None), None))
    return tree_map(v, lambda pair: from_cells(pair[1][0].results))


# ---------------------------------------------------------------------------
# The fusion equations.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", [SN, SN3], ids=["SN", "SN3"])
def test_simulate_equals_paper_composition(layout):
    third = len(layout[0]) == 3
    for t, s0 in _programs(*layout, seed=1):
        fused = states2state(nondet2state(local2global(t), at=1))
        (a, (s, cs)), s3 = _close(
            h_state(fused, (s0, ChoiceState(None, None))), third)
        (pa, (pcs, ps)), ps3 = _close(
            h_state(simulate_paper_tree(t), (ChoiceState(None, None), s0)),
            third)
        assert (a, s, cs.results, cs.stack, s3) \
            == (pa, ps, pcs.results, pcs.stack, ps3)
        assert _close(simulate(t, s0), third) \
            == _close(simulate_paper(t, s0), third)


@pytest.mark.parametrize("layout", [MN, MN3], ids=["MN", "MN3"])
def test_simulate_t_equals_paper_composition(layout):
    third = len(layout[0]) == 3
    for t, s0 in _programs(*layout, seed=2):
        fused = states2state(nondet2state(local2trail(t), at=1), at=1)
        init = (ChoiceState(None, None), None)
        ((a, s), (cs, trail)), s3 = _close(
            h_state(h_modify(fused, s0), init), third)
        ((pa, ps), (pcs, ptrail)), ps3 = _close(
            h_state(h_modify(simulate_t_paper_tree(t), s0), init), third)
        assert (a, s, cs.results, cs.stack, trail, s3) \
            == (pa, ps, pcs.results, pcs.stack, ptrail, ps3)
        assert _close(simulate_t(t, s0), third) \
            == _close(simulate_t_paper(t, s0), third)


@pytest.mark.parametrize("layout, handler",
                         [(SN, h_state), (SN3, h_state),
                          (MN, h_modify), (MN3, h_modify)],
                         ids=["SN", "SN3", "MN", "MN3"])
def test_h_ndf_at_1_equals_swap_form(layout, handler):
    # h_ndf at index 1 is hND+f . swap in one pass.
    third = len(layout[0]) == 3
    for t, s0 in _programs(*layout, seed=7):
        assert _close(handler(h_ndf(t, 1), s0), third) \
            == _close(handler(h_ndf(swap(t)), s0), third)


# ---------------------------------------------------------------------------
# Continuation-taking constructors against their seq forms.
# ---------------------------------------------------------------------------

def test_op_constructors_equal_seq():
    rng = random.Random(3)
    for k, _s0 in _programs(*SN3, seed=3, n=100, depth=3):
        x, at = rng.randint(-9, 9), rng.randint(0, 3)
        for op in (put, update, restore):
            assert show_tree(op(x, at, k)) == show_tree(seq(op(x, at=at), k))


def _random_trail(rng):
    return [MARKER if rng.random() < 0.3 else left(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 5))]


def _trail_run(t, s, trail):
    """Run t over [ModifyF, NondetF, StateF(Trail)]: (results, s, trail),
    the trails as lists, the top last."""
    (xs, s), trail = h_nil(h_state(h_modify(h_ndf(swap(t)), s),
                                   to_cells(trail)))
    return xs, s, from_cells(trail)


def test_trail_constructors_equal_seq():
    rng = random.Random(4)
    for k, s0 in _programs(*MN, seed=4, n=100, depth=3):
        trail = _random_trail(rng)
        x = rng.choice([MARKER, left(rng.randint(-3, 3))])
        assert _trail_run(push_stack(x, k), s0, trail) \
            == _trail_run(seq(push_stack(x), k), s0, trail)
        assert _trail_run(untrail(k), s0, trail) \
            == _trail_run(seq(untrail(), k), s0, trail)


def test_put_r_equals_seq_side_form():
    for k, s0 in _programs(*SN, seed=5, n=100, depth=3):
        s = s0 + 5
        old = seq(get(lambda s1: or_(put(s), side(put(s1)))), k)
        assert h_nil(h_state(h_ndf(swap(put_r(s, k))), s0)) \
            == h_nil(h_state(h_ndf(swap(old)), s0))


def local2global_m_seq(t):
    """local2globalM as update r >> k becomes
    (update r | side (restore r)) >> k, built with seq and side."""
    def alg(idx, op):
        if idx == 0 and isinstance(op, MUpdate):
            return seq(or_(update(op.r), side(restore(op.r))), op.k)
        return Node(idx, op)
    return fold(Leaf, alg, t)


def test_local2global_m_equals_seq_side_form():
    for t, s0 in _programs(*MN, seed=6):
        assert h_nil(h_modify(h_ndf(swap(local2global_m(t))), s0)) \
            == h_nil(h_modify(h_ndf(swap(local2global_m_seq(t))), s0))
