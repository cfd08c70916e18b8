"""The fused translations and handler stacks against the compositions they
are derived from.

simulate and simulate_t run the paper's pipelines as one fold each,
simulate_tree and simulate_t_tree.  The staged translations, with the
retagging folds fused into them, stay as a second reference beside the
paper's trees; they build their output with continuation-taking
constructors instead of seq.  Every handler, single or
composite, is a row of handlers.run_stack.  The paper's forms (with the
swap and rotate retaggings of paper_forms) and the single handlers as
separate loops are kept here as references, and each fused form
must give the same answers, the same final states, the same resumptions of a
forwarded continuation and the same stray-operation errors.
"""

import random
from functools import partial

import pytest

from effsim import difftest, translations
from effsim.core import (
    Leaf, Node, Get, Put, Fail, Or, MGet, MUpdate, MRestore, get, put, fail,
    or_, seq, side, mget, update, restore, bind, choose, tree_map,
    show_tree,
)
from effsim.difftest import gen_program, lower
from effsim.handlers import (
    Undo, INT_UNDO, h_state, h_modify, h_ndf, h_nil, h_local, h_global,
    h_local_m, h_global_m, h_global_t, run_stack, to_cells, from_cells,
)
from effsim.translations import (
    MARKER, put_r, local2global, local2global_m,
    nondet2state, states2state, local2trail, push_stack, untrail,
    simulate, simulate_t, simulate_tree, simulate_t_tree,
)
from paper_forms import eager_fold, swap, rotate

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
    return h_nil(ref_state(v, 100)) if third else (h_nil(v), None)


# ---------------------------------------------------------------------------
# The single handlers as separate loops, each forwarding what it does not
# handle as a residual tree for the next handler, as references.
# ---------------------------------------------------------------------------

def ref_state(t, s):
    """hState1: handle the leading StateF family, threading state s."""
    while True:
        if isinstance(t, Leaf):
            return Leaf((t.value, s))
        if t.idx == 0:
            op = t.op
            if isinstance(op, Get):
                t = op.k(s)
            elif isinstance(op, Put):
                s = op.s
                t = op.k
            else:
                raise ValueError("h_state: non-state operation %s at "
                                 "index 0" % type(op).__name__)
        else:
            cur = s
            return Node(t.idx - 1,
                        t.op.map_children(lambda c, cur=cur: ref_state(c, cur)))


def ref_modify(t, s, undo=INT_UNDO):
    """hModify1: handle the leading ModifyF family with an Undo instance."""
    while True:
        if isinstance(t, Leaf):
            return Leaf((t.value, s))
        if t.idx == 0:
            op = t.op
            if isinstance(op, MGet):
                t = op.k(s)
            elif isinstance(op, MUpdate):
                s = undo.plus(s, op.r)
                t = op.k
            elif isinstance(op, MRestore):
                s = undo.minus(s, op.r)
                t = op.k
            else:
                raise ValueError("h_modify: non-modify operation %s at "
                                 "index 0" % type(op).__name__)
        else:
            cur = s
            return Node(t.idx - 1,
                        t.op.map_children(
                            lambda c, cur=cur: ref_modify(c, cur, undo)))


def ref_ndf(t, at=0):
    """hND+f as the runND+f machine over cons cells, at index at."""
    def run(t, xs, stack):
        while True:
            if isinstance(t, Leaf):
                xs = (t.value, xs)
            elif t.idx == at:
                op = t.op
                if isinstance(op, Or):
                    stack = (op.r, stack)
                    t = op.l
                    continue
                if not isinstance(op, Fail):
                    raise ValueError("h_ndf: non-nondet operation %s at "
                                     "index %d" % (type(op).__name__, at))
            else:
                idx = t.idx
                return Node(idx if idx < at else idx - 1,
                            t.op.map_children(
                                lambda c, xs=xs, stack=stack:
                                run(c, xs, stack)))
            if stack is None:
                return Leaf(from_cells(xs))
            t, stack = stack
    return run(t, None, None)


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
    u = h_state(simulate_paper_tree(t), ((None, None), s))
    return tree_map(u, lambda pair: from_cells(pair[1][0][0]))


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
    v = h_state(w, ((None, None), None))
    return tree_map(v, lambda pair: from_cells(pair[1][0][0]))


# ---------------------------------------------------------------------------
# The fusion equations.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", [SN, SN3], ids=["SN", "SN3"])
def test_simulate_equals_paper_composition(layout):
    third = len(layout[0]) == 3
    for t, s0 in _programs(*layout, seed=1):
        fused = states2state(nondet2state(local2global(t), at=1))
        (a, (s, cs)), s3 = _close(
            h_state(fused, (s0, (None, None))), third)
        (pa, (pcs, ps)), ps3 = _close(
            h_state(simulate_paper_tree(t), ((None, None), s0)),
            third)
        assert (a, s, cs, s3) == (pa, ps, pcs, ps3)
        # The third side, simulate's one fold, keeps the paper's pair order.
        (a, (cs, s)), s3 = _close(
            h_state(simulate_tree(t), ((None, None), s0)), third)
        assert (a, s, cs, s3) == (pa, ps, pcs, ps3)
        assert _close(simulate(t, s0), third) \
            == _close(simulate_paper(t, s0), third)


@pytest.mark.parametrize("layout", [MN, MN3], ids=["MN", "MN3"])
def test_simulate_t_equals_paper_composition(layout):
    third = len(layout[0]) == 3
    for t, s0 in _programs(*layout, seed=2):
        fused = states2state(nondet2state(local2trail(t), at=1), at=1)
        init = ((None, None), None)
        ((a, s), (cs, trail)), s3 = _close(
            h_state(h_modify(fused, s0), init), third)
        ((pa, ps), (pcs, ptrail)), ps3 = _close(
            h_state(h_modify(simulate_t_paper_tree(t), s0), init), third)
        assert (a, s, cs, trail, s3) == (pa, ps, pcs, ptrail, ps3)
        # The third side, simulate_t's one fold.
        ((a, s), (cs, trail)), s3 = _close(
            h_state(h_modify(simulate_t_tree(t), s0), init), third)
        assert (a, s, cs, trail, s3) == (pa, ps, pcs, ptrail, ps3)
        assert _close(simulate_t(t, s0), third) \
            == _close(simulate_t_paper(t, s0), third)


def _sim_put_saving_new(s, k, p):
    """simulate_tree's Put step with a seeded bug: the restoring branch
    saves the new state s instead of the old state p[1]."""
    T = translations
    restore_s = Node(0, Get(partial(T._put2, s, T._POP[0], 0)))
    return T._push(0, restore_s, T._sim(k), (p[0], s))


@pytest.mark.parametrize("seed", [7, 42])
def test_t_simulate_row_catches_a_fused_put_bug(monkeypatch, seed):
    row = difftest._agree(*difftest.THEOREMS["T-simulate"], 6)
    monkeypatch.setattr(translations, "_sim_put", _sim_put_saving_new)
    report = difftest._trials("T-simulate", row, 1000, seed, first=True)
    assert "firstFailingTrial" in report
    monkeypatch.undo()
    # Unbroken, the same trials agree.
    trials = report["firstFailingTrial"] + 1
    assert difftest._trials("T-simulate", row, trials, seed)["failures"] \
        == []


def _sim_pop_keeping_first(xs, stack, u):
    """simulate_tree's pop with a seeded bug: of a run of restore entries,
    it applies the first it passes, the newest, and skips the rest."""
    first = True
    while stack is not None:
        q, stack = stack
        if q.__class__ is not tuple:
            return Node(0, Put(((xs, stack), u), q))
        if first:
            first, u = False, q[0]
    return Node(0, Put(((xs, None), u), Leaf(())))


def _sim_t_pop_one_short(xs, stack, trail):
    """simulate_t_tree's pop with a seeded bug: it stops untrailing one
    delta early, so the oldest delta above the marker is never restored."""
    if stack is None:
        return Node(1, Put(((xs, None), trail), Leaf(())))
    q, stack = stack
    deltas = []
    x, trail = trail
    while x is not MARKER:
        deltas.append(x)
        x, trail = trail
    for x in reversed(deltas[:-1]):
        q = Node(0, MRestore(x, q))
    return Node(1, Put(((xs, stack), trail), q))


@pytest.mark.parametrize("suite, name, pop", [
    ("T-simulate", "_sim_pop", _sim_pop_keeping_first),
    ("T-simulateT", "_sim_t_pop", _sim_t_pop_one_short)],
    ids=["sim", "simT"])
@pytest.mark.parametrize("seed", [7, 42])
def test_theorem_row_catches_a_fused_pop_bug(monkeypatch, suite, name, pop,
                                             seed):
    row = difftest._agree(*difftest.THEOREMS[suite], 6)
    monkeypatch.setattr(translations, name, pop)
    report = difftest._trials(suite, row, 1000, seed, first=True)
    assert "firstFailingTrial" in report
    monkeypatch.undo()
    # Unbroken, the same trials agree.
    trials = report["firstFailingTrial"] + 1
    assert difftest._trials(suite, row, trials, seed)["failures"] == []


def _run_program(rng, layout, depth):
    """A tree whose every Or and leaf sits under a run of 1-300 puts (SN,
    SN3) or updates (MN, MN3), a third-family get or put at index 2
    interleaved in SN3 and MN3, so that a pop crosses as many restore
    entries or trail deltas as the run is long."""
    write, read = ((put, get) if layout[0][0] == "state"
                   else (update, mget))
    if depth == 0:
        t = read(Leaf) if rng.random() < 0.8 else fail()
    else:
        t = or_(_run_program(rng, layout, depth - 1),
                _run_program(rng, layout, depth - 1))
    for _ in range(rng.randint(1, 300)):
        if len(layout[0]) == 3 and rng.random() < 0.05:
            t = (put(rng.randint(-3, 3), 2, t) if rng.random() < 0.5
                 else get(lambda y, t=t: seq(put(y + 1, 2), t), 2))
        t = write(rng.randint(-3, 3), 0, t)
    return t


def _run_programs(layout, seed, n=12):
    rng = random.Random(seed)
    for _ in range(n):
        yield _run_program(rng, layout, rng.randint(0, 3)), rng.randint(-3, 3)


@pytest.mark.parametrize("layout", [SN, SN3], ids=["SN", "SN3"])
def test_simulate_after_runs_of_puts_equals_paper_composition(layout):
    # The final choicepoints and state of the one fold, the staged
    # composition and the paper's, each pop having crossed a long run of
    # restore entries.
    third = len(layout[0]) == 3
    for t, s0 in _run_programs(layout, seed=17):
        staged = states2state(nondet2state(local2global(t), at=1))
        (a, (s, cs)), s3 = _close(h_state(staged, (s0, (None, None))), third)
        paper = _close(h_state(simulate_paper_tree(t), ((None, None), s0)),
                       third)
        assert ((a, (cs, s)), s3) == paper
        assert _close(h_state(simulate_tree(t), ((None, None), s0)),
                      third) == paper


@pytest.mark.parametrize("layout", [MN, MN3], ids=["MN", "MN3"])
def test_simulate_t_after_runs_of_updates_equals_paper_composition(layout):
    # The final choicepoints, trail and state of the one fold, the staged
    # composition and the paper's, each pop having untrailed a long run of
    # deltas.  The trail, thousands of cons cells deep, is compared as a
    # list: == on the cells themselves recurses once per cell.
    third = len(layout[0]) == 3
    init = ((None, None), None)

    def run(tree, s0):
        (v, (cs, trail)), s3 = _close(h_state(h_modify(tree, s0), init), third)
        return v, cs, from_cells(trail), s3

    for t, s0 in _run_programs(layout, seed=18):
        staged = states2state(nondet2state(local2trail(t), at=1), at=1)
        paper = run(simulate_t_paper_tree(t), s0)
        assert run(staged, s0) == paper
        assert run(simulate_t_tree(t), s0) == paper


# ---------------------------------------------------------------------------
# The law rows of the fused folds: a run of puts or updates and an or chain
# of ret and fail arms, each taken in one step.
# ---------------------------------------------------------------------------

def _law_program(rng, layout, depth):
    """A tree of the shapes the law rows take in one step: or chains of ret,
    fail and other arms; choose(xs) >>= f, its arms deferred by bind, with f
    giving fail, ret or a read; and runs of 1-20 puts (SN, SN3) or updates
    (MN, MN3), a third-family get or put at index 2 interleaved in SN3 and
    MN3."""
    write, read = ((put, get) if layout[0][0] == "state"
                   else (update, mget))
    if depth == 0:
        return read(Leaf) if rng.random() < 0.8 else fail()
    shape = rng.randrange(3)
    if shape == 0:
        t = fail() if rng.random() < 0.7 else \
            _law_program(rng, layout, depth - 1)
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            t = or_(Leaf(rng.randint(-3, 3)) if kind == 0 else fail()
                    if kind == 1 else _law_program(rng, layout, depth - 1), t)
        return t
    k = _law_program(rng, layout, depth - 1)
    if shape == 1:
        kinds = [rng.randrange(3) for _ in range(rng.randint(1, 6))]
        return bind(choose(range(len(kinds))), lambda x: (
            fail(), Leaf(x),
            read(lambda s: bind(k, lambda y: Leaf((x, s, y)))))[kinds[x]])
    for _ in range(rng.randint(1, 20)):
        if len(layout[0]) == 3 and rng.random() < 0.2:
            k = (put(rng.randint(-3, 3), 2, k) if rng.random() < 0.5
                 else get(lambda y, k=k: seq(put(y + 1, 2), k), 2))
        k = write(rng.randint(-3, 3), 0, k)
    return k


def _law_programs(layout, seed, n=20):
    rng = random.Random(seed)
    for _ in range(n):
        yield _law_program(rng, layout, rng.randint(1, 3)), rng.randint(-3, 3)


def _fused_sim(t, s):
    return h_state(simulate_tree(t), ((None, None), s))


def _staged_sim(t, s):
    return h_state(states2state(nondet2state(local2global(t), at=1)),
                   (s, (None, None)))


def _fused_sim_t(t, s):
    return h_state(h_modify(simulate_t_tree(t), s), ((None, None), None))


def _staged_sim_t(t, s):
    staged = states2state(nondet2state(local2trail(t), at=1), at=1)
    return h_state(h_modify(staged, s), ((None, None), None))


@pytest.mark.parametrize("layout", [SN, SN3], ids=["SN", "SN3"])
def test_simulate_law_rows_equal_paper_composition(layout):
    # The final results, choicepoints and state of the one fold, the staged
    # composition and the paper's, on runs of puts and or chains.
    third = len(layout[0]) == 3
    for t, s0 in _law_programs(layout, seed=19):
        (a, (s, cs)), s3 = _close(_staged_sim(t, s0), third)
        paper = _close(h_state(simulate_paper_tree(t), ((None, None), s0)),
                       third)
        assert ((a, (cs, s)), s3) == paper
        assert _close(_fused_sim(t, s0), third) == paper


@pytest.mark.parametrize("layout", [MN, MN3], ids=["MN", "MN3"])
def test_simulate_t_law_rows_equal_paper_composition(layout):
    # The final results, choicepoints, trail and state of the one fold, the
    # staged composition and the paper's, on runs of updates and or chains.
    third = len(layout[0]) == 3
    for t, s0 in _law_programs(layout, seed=20):
        paper = _close(h_state(h_modify(simulate_t_paper_tree(t), s0),
                               ((None, None), None)), third)
        assert _close(_staged_sim_t(t, s0), third) == paper
        assert _close(_fused_sim_t(t, s0), third) == paper


_NONDET_STRAY = "nondet2state: non-nondet operation Put at index 1"


@pytest.mark.parametrize("fused, staged, t, message", [
    (_fused_sim, _staged_sim, put(1, 0, put(2, 0, or_(Leaf(1), Leaf(2), 0))),
     "states2state: non-state operation Or at index 0"),
    (_fused_sim, _staged_sim,
     or_(Leaf(1), or_(fail(), or_(Leaf(2), put(1, at=1)))), _NONDET_STRAY),
    (_fused_sim, _staged_sim,
     or_(fail(), or_(Leaf(1), or_(put(1, at=1), Leaf(2)))), _NONDET_STRAY),
    (_fused_sim_t, _staged_sim_t, update(1, 0, update(2, 0, get(Leaf))),
     "h_modify: non-modify operation Get at index 0"),
    (_fused_sim_t, _staged_sim_t,
     or_(Leaf(1), or_(fail(), or_(Leaf(2), put(1, at=1)))), _NONDET_STRAY),
    (_fused_sim_t, _staged_sim_t,
     or_(fail(), or_(Leaf(1), or_(put(1, at=1), Leaf(2)))), _NONDET_STRAY),
], ids=["sim-put-run", "sim-chain-end", "sim-chain-arm", "simT-update-run",
        "simT-chain-end", "simT-chain-arm"])
def test_stray_inside_a_run_or_chain_raises_staged_message(fused, staged, t,
                                                           message):
    assert _outcome(fused, t) == _outcome(staged, t) == ("error", message)


def _sim_put_saving_last(s, k, p):
    """simulate_tree's Put step with a seeded bug: a run of puts saves the
    state before its last put, not the state before the run."""
    T = translations
    u = p[1]
    while k.__class__ is not Leaf and k.idx == 0 and isinstance(k.op, Put):
        u, s, k = s, k.op.s, k.op.k
    return T._push(0, (u,), T._sim(k), (p[0], s))


def _or_dropping_ret_after_fail(at, r, l, p):
    """The Or walk of both folds with a seeded bug: a ret arm right after a
    fail arm is skipped, not recorded."""
    T = translations
    tr = T._sim_t if at else T._sim
    (xs, stack), other = p
    ys, after_fail = xs, False
    while True:
        if l.__class__ is Leaf:
            if not after_fail:
                ys = (l.value, ys)
            after_fail = False
        elif l.idx != 1 or not isinstance(l.op, Fail):
            l = tr(l)
            return T._push(at, tr(r), l,
                           ((ys, stack), (MARKER, other) if at else other))
        else:
            after_fail = True
        if r.__class__ is Leaf or r.idx != 1 or not isinstance(r.op, Or):
            break
        l, r = r.op.l, r.op.r
    r = tr(r)
    return r if ys is xs else Node(at, Put(((ys, stack), other), r))


def _sim_t_log_first_only(r, k, p):
    """simulate_t_tree's update step with a seeded bug: a run of updates
    logs only its first delta on the trail, so a pop across the run
    restores that one alone."""
    rs = [r]
    while k.__class__ is not Leaf and k.idx == 0 and \
            isinstance(k.op, MUpdate):
        rs.append(k.op.r)
        k = k.op.k
    k = translations._sim_t(k)
    for x in reversed(rs):
        k = Node(0, MUpdate(x, k))
    return Node(1, Put((p[0], (r, p[1])), k))


@pytest.mark.parametrize("suite, name, step", [
    ("T-simulate", "_sim_put", _sim_put_saving_last),
    ("T-simulate", "_or", _or_dropping_ret_after_fail),
    ("T-simulateT", "_or", _or_dropping_ret_after_fail),
    ("T-simulateT", "_sim_t_log", _sim_t_log_first_only)],
    ids=["sim-put-run", "sim-or-walk", "simT-or-walk", "simT-update-run"])
@pytest.mark.parametrize("seed", [7, 42])
def test_theorem_row_catches_a_fused_law_bug(monkeypatch, suite, name, step,
                                             seed):
    row = difftest._agree(*difftest.THEOREMS[suite], 6)
    monkeypatch.setattr(translations, name, step)
    report = difftest._trials(suite, row, 1000, seed, first=True)
    assert "firstFailingTrial" in report
    monkeypatch.undo()
    # Unbroken, the same trials agree.
    trials = report["firstFailingTrial"] + 1
    assert difftest._trials(suite, row, trials, seed)["failures"] == []


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
    return [MARKER if rng.random() < 0.3 else rng.randint(-3, 3)
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
        x = rng.choice([MARKER, rng.randint(-3, 3)])
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
    return eager_fold(Leaf, alg, t)


def test_local2global_m_equals_seq_side_form():
    for t, s0 in _programs(*MN, seed=6):
        assert h_nil(h_modify(h_ndf(swap(local2global_m(t))), s0)) \
            == h_nil(h_modify(h_ndf(swap(local2global_m_seq(t))), s0))


# ---------------------------------------------------------------------------
# Every row of run_stack against its nested single-handler references.
# ---------------------------------------------------------------------------

_SCALE_UNDO = Undo(lambda s, r: 3 * s + r, lambda s, r: (s - r) // 3)


def _firsts(prs):
    return [a for (a, _s) in prs]


def _simulate_t_ref(t, s):
    u = states2state(nondet2state(local2trail(t), at=1), at=1)
    v = ref_state(ref_modify(u, s), ((None, None), None))
    return tree_map(v, lambda pair: from_cells(pair[1][0][0]))


# name -> (layouts, row, nested reference), each side taking (t, s) and
# closing the handled families with the same reference handlers; the
# residual is over the third family, if the layout has one.
ROWS = {
    "h_state": ((SN, SN3), lambda t, s: ref_ndf(h_state(t, s)),
                lambda t, s: ref_ndf(ref_state(t, s))),
    "h_modify": ((MN, MN3), lambda t, s: ref_ndf(h_modify(t, s)),
                 lambda t, s: ref_ndf(ref_modify(t, s))),
    "h_modify-undo": ((MN, MN3),
                      lambda t, s: ref_ndf(h_modify(t, s, _SCALE_UNDO)),
                      lambda t, s: ref_ndf(ref_modify(t, s, _SCALE_UNDO))),
    "h_ndf-0": ((SN, SN3), lambda t, s: ref_state(h_ndf(swap(t)), s),
                lambda t, s: ref_state(ref_ndf(swap(t)), s)),
    "h_ndf-1": ((SN, SN3), lambda t, s: ref_state(h_ndf(t, 1), s),
                lambda t, s: ref_state(ref_ndf(t, 1), s)),
    "nondet-state": ((SN, SN3), lambda t, s: run_stack(
        swap(t), (("nondet", 0), ("state", 1)), (s,)),
        lambda t, s: ref_state(ref_ndf(swap(t)), s)),
    "local": ((SN, SN3), h_local,
              lambda t, s: tree_map(ref_ndf(ref_state(t, s)), _firsts)),
    "global": ((SN, SN3), h_global, lambda t, s: tree_map(
        ref_state(ref_ndf(t, 1), s), lambda pair: pair[0])),
    "localM": ((MN, MN3), h_local_m,
               lambda t, s: tree_map(ref_ndf(ref_modify(t, s)), _firsts)),
    "globalM": ((MN, MN3), h_global_m, lambda t, s: tree_map(
        ref_modify(ref_ndf(t, 1), s), lambda pair: pair[0])),
    "globalT": ((MN, MN3), h_global_t, lambda t, s: tree_map(
        ref_state(ref_modify(ref_ndf(local2trail(t), 1), s), None),
        lambda pair: pair[0][0])),
    "simT": ((MN, MN3), simulate_t, _simulate_t_ref),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_row_equals_nested_references(name):
    layouts, row, ref = ROWS[name]
    for layout in layouts:
        third = len(layout[0]) == 3
        for t, s0 in _programs(*layout, seed=8):
            assert _close(row(t, s0), third) == _close(ref(t, s0), third)


def _forwarding_program(state_family):
    """put 3; (get2 y; put (y * 10); get s; ret (y, s) | get s; ret ("r", s)),
    with get2 a third state family, which no row handles."""
    put_, get_ = (put, get) if state_family else (update, mget)
    return seq(put_(3), or_(
        get(lambda y: seq(put_(y * 10), get_(lambda s: Leaf((y, s)))), at=2),
        get_(lambda s: Leaf(("r", s)))))


@pytest.mark.parametrize("name", list(ROWS))
def test_forwarded_continuation_resumes_like_reference(name):
    # The residual get captures the frame states; each resumption must start
    # from them afresh, whatever the resumptions before it did.
    layouts, row, ref = ROWS[name]
    t = _forwarding_program(layouts[0] is SN)
    outs = []
    for run in (row, ref):
        r = run(t, 0)
        assert r.idx == 0 and isinstance(r.op, Get), name
        outs.append([_close(r.op.k(y), True) for y in (1, 2, 1)])
    assert outs[0] == outs[1]
    assert outs[0][0] == outs[0][2] != outs[0][1]


# Every operation, as a one-node tree at index at.
STRAYS = (lambda at: get(Leaf, at=at), lambda at: put(1, at=at),
          lambda at: mget(Leaf, at=at), lambda at: update(1, at=at),
          lambda at: restore(1, at=at), lambda at: fail(at=at),
          lambda at: or_(Leaf(0), Leaf(1), at=at))


def _outcome(run, t):
    try:
        return "ok", _close(run(t, 0), False)
    except ValueError as e:
        return "error", str(e)


@pytest.mark.parametrize("name", list(ROWS))
def test_stray_operation_raises_reference_message(name):
    _layouts, row, ref = ROWS[name]
    for at in (0, 1):
        errors = 0
        for stray in STRAYS:
            t = stray(at)
            outcome = _outcome(row, t)
            assert outcome == _outcome(ref, t), (name, at, show_tree(t))
            errors += outcome[0] == "error"
        assert errors >= 3, (name, at)


# Two state families, then nondeterminism: T-statesstate's stack, over
# difftest's SS2 layout, which fits none of ROWS' layouts.
SS2 = (("state", "modify", "nondet"),
       {"state": 0, "modify_as_state": 1, "nondet": 2})


def _states_row(t, s):
    return run_stack(t, (("state", 0), ("state", 1), ("nondet", 2)),
                     (s, s + 1))


def _states_ref(t, s):
    return ref_ndf(ref_state(ref_state(t, s), s + 1))


def test_two_state_row_equals_nested_references():
    t = seq(put(1, at=0), seq(put(2, at=1), Leaf("a")))
    assert h_nil(_states_row(t, 0)) == [(("a", 1), 2)]
    for t, s0 in _programs(*SS2, seed=9):
        assert h_nil(_states_row(t, s0)) == h_nil(_states_ref(t, s0))
    for at in (0, 1, 2):
        for stray in STRAYS:
            t = stray(at)
            assert _outcome(_states_row, t) == _outcome(_states_ref, t), \
                show_tree(t)
