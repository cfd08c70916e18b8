"""The high-to-low translations and their composed pipelines.

Five translations:

    local2global    Put -> state-restoring putR            [StateF,NondetF|r]
    nondet2state    nondeterminism -> choicepoint state    [NondetF|r]
    states2state    two state families -> one pair state
    local2globalM   Update -> update with restoring side   [ModifyF,NondetF|r]
    local2trail     Update/Or instrumented with a trail    [ModifyF,NondetF|r]

plus the closed and forwarding runs `run_nd` and `run_ndf` of
`nondet2state`, and the composed pipelines `simulate` (choicepoint-stack
simulation of local state) and `simulate_t` (choicepoint + trail stacks).

nondet2state's state, the paper's S, is the pair (results, stack): the
results found so far, the newest at the head, and the pending branches, the
top at the head, started as (None, None).  The trail holds each applied
delta as it is, and MARKER, which untrail recognises by identity, so a delta
equal to it is still a delta.  Results, stack and trail are persistent cons
cells ((head, tail), None for empty; see handlers.to_cells and from_cells),
so every push and pop is O(1) and never copies: a forwarded continuation may
resume the same state again.  Each Get continuation built here is a partial
application of a private step function, and the pop_s tree, which captures
nothing, is built once per index and shared.
"""

from functools import partial

from .core import (
    Leaf, Node, Get, Put, Fail, Or, MUpdate, MRestore,
    tree_map, or_, update, restore, fold,
)
from .handlers import h_state, h_nil, run_stack, from_cells, INT_UNDO

_FAIL = Node(1, Fail())  # the end of every restoring side branch
_POP_S = {}  # at -> the one pop_s tree at that index


# ---------------------------------------------------------------------------
# local2global: state-restoring put.
# ---------------------------------------------------------------------------

def put_r(s, k=Leaf(())):
    """putR s >> k, where putR s = get >>= \\s' -> put s | side (put s')."""
    return Node(0, Get(partial(_put_r, s, k)))


def _put_r(s, k, s0):
    return Node(1, Or(Node(0, Put(s, k)), Node(0, Put(s0, _FAIL))))


def local2global(t):
    """Replace every Put by its state-restoring expansion; keep the rest."""
    def alg(idx, op):
        if idx == 0 and isinstance(op, Put):
            return put_r(op.s, op.k)
        return Node(idx, op)
    return fold(Leaf, alg, t)


# ---------------------------------------------------------------------------
# Choicepoint state and the nondeterminism-as-state machine.
# ---------------------------------------------------------------------------

# pop_s, push_s and append_s act on the choicepoint state family at index at.

def pop_s(at=0):
    """Run the next pending branch, or halt with unit on an empty stack."""
    t = _POP_S.get(at)
    if t is None:
        t = _POP_S[at] = Node(at, Get(partial(_pop_s, at)))
    return t


def _pop_s(at, s):
    xs, stack = s
    if stack is None:
        return Leaf(())
    q, stack = stack
    return Node(at, Put((xs, stack), q))


def push_s(q, p, at=0):
    """Save branch q as a choicepoint, then continue with p."""
    return Node(at, Get(partial(_push_s, q, p, at)))


def _push_s(q, p, at, s):
    return Node(at, Put((s[0], (q, s[1])), p))


def append_s(x, p, at=0):
    """Record result x as the newest, then continue with p."""
    return Node(at, Get(partial(_append_s, x, p, at)))


def _append_s(x, p, at, s):
    return Node(at, Put(((x, s[0]), s[1]), p))


def nondet2state(t, at=0):
    """Forwarding simulation: the nondet family at index at becomes the
    machine-state family StateF((results, stack)) at the same index.

    Every other operation keeps its injection index, so nondet2state at
    index 1 equals swap . nondet2state . swap.
    """
    def alg(idx, op):
        if idx == at:
            if isinstance(op, Fail):
                return pop_s(at)
            if isinstance(op, Or):
                return push_s(op.r, op.l, at)
            raise ValueError("nondet2state: non-nondet operation %s at "
                             "index %d" % (type(op).__name__, at))
        return Node(idx, op)
    return fold(lambda x: append_s(x, pop_s(at), at), alg, t)


def run_nd(t):
    """runND: run_ndf closed by h_nil, on a [NondetF] tree, which has nothing
    to forward; equals h_nd."""
    return h_nil(run_ndf(t))


def run_ndf(t):
    """runND+f = extractSS . hState . nondet2state; equals h_ndf."""
    u = h_state(nondet2state(t), (None, None))
    return tree_map(u, lambda pair: from_cells(pair[1][0]))


# ---------------------------------------------------------------------------
# states2state: merging two state families into one pair-valued family.
# ---------------------------------------------------------------------------

def states2state(t, at=0):
    """Merge the state families at indices at and at + 1 into one pair-valued
    family at at: Get1/Put1 act on the first pair component, Get2/Put2 on
    the second.  Indices below at stay; indices above at + 1 drop by one.
    """
    def alg(idx, op):
        if idx > at + 1:
            return Node(idx - 1, op)
        if idx < at:
            return Node(idx, op)
        if isinstance(op, Get):
            return Node(at, Get(partial(_get, idx - at, op.k)))
        if isinstance(op, Put):
            return Node(at, Get(partial(_put1 if idx == at else _put2,
                                        op.s, op.k, at)))
        raise ValueError("states2state: non-state operation %s at index %d"
                         % (type(op).__name__, idx))
    return fold(Leaf, alg, t)


def _get(i, k, s12):
    return k(s12[i])


def _put1(s, k, at, s12):
    return Node(at, Put((s, s12[1]), k))


def _put2(s, k, at, s12):
    return Node(at, Put((s12[0], s), k))


# ---------------------------------------------------------------------------
# simulate: local state via one combined choicepoint-and-user state.
# ---------------------------------------------------------------------------

def simulate(t, s):
    """simulate = extract . hState . states2state . nondet2state . swap
                . local2global; equals h_local.

    Run fused as states2state . nondet2state_1 . local2global, where
    nondet2state_1 (nondet2state at index 1) is swap . nondet2state . swap:
    nondet2state keeps every other index, so the swap pair around it only
    moves its family to index 1 and back.  The pair state is then
    (user state, choicepoints) instead of (choicepoints, user state).
    """
    m = states2state(nondet2state(local2global(t), at=1))
    u = h_state(m, (s, (None, None)))
    return tree_map(u, lambda pair: from_cells(pair[1][1][0]))


# ---------------------------------------------------------------------------
# local2globalM: modify-based global state.
# ---------------------------------------------------------------------------

def local2global_m(t):
    """Replace update r by (update r | side (restore r)); keep the rest."""
    def alg(idx, op):
        if idx == 0 and isinstance(op, MUpdate):
            return or_(update(op.r, k=op.k), restore(op.r, k=_FAIL))
        return Node(idx, op)
    return fold(Leaf, alg, t)


# ---------------------------------------------------------------------------
# local2trail: trail-stack instrumentation.
# ---------------------------------------------------------------------------

MARKER = ("marker",)  # the one trail entry that is not a delta, told by `is`
_TRAIL = 2  # injection index of the trail-stack state family in the output


def push_stack(x, k=Leaf(())):
    """Push x on the trail, then continue with k."""
    return Node(_TRAIL, Get(partial(_push_stack, x, k)))


def _push_stack(x, k, st):
    return Node(_TRAIL, Put((x, st), k))


def untrail(k=Leaf(())):
    """Pop trail entries down to (and including) the first marker, restoring
    each recorded delta on the way, then continue with k; continue at once
    if the trail drains."""
    return Node(_TRAIL, Get(partial(_untrail, k)))


def _untrail(k, st):
    if st is None:
        return k
    x, st = st
    if x is MARKER:
        return Node(_TRAIL, Put(st, k))
    return Node(_TRAIL, Put(st, Node(0, MRestore(x, untrail(k)))))


def local2trail(t):
    """[ModifyF,NondetF|rest] -> [ModifyF,NondetF,StateF(Trail)|rest].

    Updates log their delta on the trail; the left branch of an Or pushes a
    marker and the right branch untrails back to it.
    """
    def alg(idx, op):
        if idx == 0:
            if isinstance(op, MUpdate):
                return push_stack(op.r, update(op.r, 0, op.k))
            return Node(0, op)
        if idx == 1:
            if isinstance(op, Or):
                return or_(push_stack(MARKER, op.l), untrail(op.r), at=1)
            return Node(1, op)
        return Node(idx + 1, op)
    return fold(Leaf, alg, t)


# ---------------------------------------------------------------------------
# simulate_t: everything at once (choicepoint + trail + user state merged).
# ---------------------------------------------------------------------------

def simulate_t(t, s, undo=INT_UNDO):
    """simulateT = extractT . hState . fmap fst . flip runStateT s . hModify
                 . swap . states2state . rotate . swap . nondet2state . swap
                 . local2trail; equals h_local_m.

    Run fused in three folds as states2state_1 . nondet2state_1 .
    local2trail, the _1 forms acting at index 1.  swap . nondet2state . swap
    is nondet2state_1, because nondet2state keeps every other index; and
    swap . states2state . rotate, which brings SS and Trail to the front,
    merges them and moves M back, is states2state_1 on [M, SS, Trail | rest].
    The fmap fst is dropped: extractT reads the choicepoints all the same.
    """
    u = local2trail(t)                   # [M, N, Trail | rest]
    u = nondet2state(u, at=1)            # [M, SS, Trail | rest]
    u = states2state(u, at=1)            # [M, (SS, Trail) | rest]
    v = run_stack(u, (("modify", 0), ("state", 1)),
                  (s, ((None, None), None)), undo)
    return tree_map(v, lambda pair: from_cells(pair[1][0][0]))
