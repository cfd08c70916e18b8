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
"""

from .core import (
    Leaf, Node, Get, Put, Fail, Or, MUpdate,
    bind, tree_map, seq, get, put, or_, update, restore, side,
    fold, swap, rotate,
)
from .handlers import h_state, h_modify, h_nil, INT_UNDO


# ---------------------------------------------------------------------------
# local2global: state-restoring put.
# ---------------------------------------------------------------------------

def put_r(s):
    """putR s = get >>= \\s' -> put s | side (put s')."""
    return get(lambda s0: or_(put(s), side(put(s0))))


def local2global(t):
    """Replace every Put by its state-restoring expansion; keep the rest."""
    def alg(idx, op):
        if idx == 0 and isinstance(op, Put):
            return seq(put_r(op.s), op.k)
        return Node(idx, op)
    return fold(Leaf, alg, t)


# ---------------------------------------------------------------------------
# Choicepoint state and the nondeterminism-as-state machine.
# ---------------------------------------------------------------------------

class ChoiceState:
    """Results found so far plus a stack of pending branch computations.

    The stack holds machine trees (front = top); results grow at the back.
    Used both for the closed machine (paper's S) and the forwarding machine
    (paper's SS).
    """

    __slots__ = ("results", "stack")

    def __init__(self, results, stack):
        self.results = results
        self.stack = stack


def pop_s():
    """Run the next pending branch, or halt with unit on an empty stack."""
    def k(cs):
        if not cs.stack:
            return Leaf(())
        q = cs.stack[0]
        return seq(put(ChoiceState(cs.results, cs.stack[1:])), q)
    return get(k)


def push_s(q, p):
    """Save branch q as a choicepoint, then continue with p."""
    return get(lambda cs:
               seq(put(ChoiceState(cs.results, [q] + cs.stack)), p))


def append_s(x, p):
    """Record result x at the back, then continue with p."""
    return get(lambda cs:
               seq(put(ChoiceState(cs.results + [x], cs.stack)), p))


def nondet2state(t):
    """Forwarding simulation: [NondetF|rest] into [StateF(ChoiceState)|rest].

    Residual operations keep their injection index: the nondet family at 0
    is replaced by the machine-state family at 0.
    """
    def alg(idx, op):
        if idx == 0:
            if isinstance(op, Fail):
                return pop_s()
            if isinstance(op, Or):
                return push_s(op.r, op.l)
            raise ValueError("nondet2state: non-nondet operation %s at "
                             "index 0" % type(op).__name__)
        return Node(idx, op)
    return fold(lambda x: append_s(x, pop_s()), alg, t)


def run_nd(t):
    """runND: run_ndf closed by h_nil, on a [NondetF] tree, which has nothing
    to forward; equals h_nd."""
    return h_nil(run_ndf(t))


def run_ndf(t):
    """runND+f = extractSS . hState . nondet2state; equals h_ndf."""
    u = h_state(nondet2state(t), ChoiceState([], []))
    return tree_map(u, lambda pair: pair[1].results)


# ---------------------------------------------------------------------------
# states2state: merging two state families into one pair-valued family.
# ---------------------------------------------------------------------------

def states2state(t):
    """Project Get1/Put1 to the first pair component, Get2/Put2 to the second."""
    def alg(idx, op):
        if idx > 1:
            return Node(idx - 1, op)
        if isinstance(op, Get):
            if idx == 0:
                return get(lambda s12: op.k(s12[0]))
            return get(lambda s12: op.k(s12[1]))
        if isinstance(op, Put):
            if idx == 0:
                return get(lambda s12: seq(put((op.s, s12[1])), op.k))
            return get(lambda s12: seq(put((s12[0], op.s)), op.k))
        raise ValueError("states2state: non-state operation %s at index %d"
                         % (type(op).__name__, idx))
    return fold(Leaf, alg, t)


def alpha(v):
    """((a, x), y) -> (a, (x, y)) — the carrier isomorphism."""
    (a, x), y = v
    return (a, (x, y))


# ---------------------------------------------------------------------------
# simulate: local state via one combined choicepoint-and-user state.
# ---------------------------------------------------------------------------

def simulate(t, s):
    """simulate = extract . hState . states2state . nondet2state . swap
                . local2global; equals h_local.
    """
    m = states2state(nondet2state(swap(local2global(t))))
    u = h_state(m, (ChoiceState([], []), s))
    return tree_map(u, lambda pair: pair[1][0].results)


# ---------------------------------------------------------------------------
# local2globalM: modify-based global state.
# ---------------------------------------------------------------------------

def local2global_m(t):
    """Replace update r by (update r | side (restore r)); keep the rest."""
    def alg(idx, op):
        if idx == 0 and isinstance(op, MUpdate):
            return seq(or_(update(op.r), side(restore(op.r))), op.k)
        return Node(idx, op)
    return fold(Leaf, alg, t)


# ---------------------------------------------------------------------------
# local2trail: trail-stack instrumentation.
# ---------------------------------------------------------------------------

MARKER = ("marker",)


def left(r):
    """A trail entry recording an applied delta."""
    return ("left", r)


_TRAIL = 2  # injection index of the trail-stack state family in the output


def push_stack(x):
    return get(lambda st: put([x] + st, at=_TRAIL), at=_TRAIL)


def pop_stack():
    def k(st):
        if not st:
            return Leaf(None)
        return seq(put(st[1:], at=_TRAIL), Leaf(st[0]))
    return get(k, at=_TRAIL)


def untrail():
    """Pop trail entries down to (and including) the first marker, restoring
    each recorded delta on the way; halt cleanly if the trail drains."""
    def k(top):
        if top is None or top == MARKER:
            return Leaf(())
        return seq(restore(top[1], at=0), untrail())
    return bind(pop_stack(), k)


def local2trail(t):
    """[ModifyF,NondetF|rest] -> [ModifyF,NondetF,StateF(Trail)|rest].

    Updates log their delta on the trail; the left branch of an Or pushes a
    marker and the right branch untrails back to it.
    """
    def alg(idx, op):
        if idx == 0:
            if isinstance(op, MUpdate):
                return seq(push_stack(left(op.r)),
                           seq(update(op.r, at=0), op.k))
            return Node(0, op)
        if idx == 1:
            if isinstance(op, Or):
                return or_(seq(push_stack(MARKER), op.l),
                           seq(untrail(), op.r), at=1)
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
    """
    u = local2trail(t)            # [M, N, Trail | rest]
    u = swap(u)                   # [N, M, Trail | rest]
    u = nondet2state(u)           # [SS, M, Trail | rest]
    u = swap(u)                   # [M, SS, Trail | rest]
    u = rotate(u)                 # [SS, Trail, M | rest]
    u = states2state(u)           # [(SS, Trail), M | rest]
    u = swap(u)                   # [M, (SS, Trail) | rest]
    w = tree_map(h_modify(u, s, undo), lambda pair: pair[0])
    v = h_state(w, (ChoiceState([], []), []))
    return tree_map(v, lambda pair: pair[1][0].results)
