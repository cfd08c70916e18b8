"""Handlers: interpreting one leading signature family at a time.

Handlers over a residual signature return a residual tree whose injection
indices are shifted down past the handled family.  The state-like handlers
(hState1, hModify1) are the fused single-fold versions, and h_ndf is the
paper's runND+f machine (a results list and a stack of pending branches),
which the paper proves equal to the liftM2 (++) definition of hND+f.  All
are iterative loops, so arbitrarily long operation chains and wide choices
do not consume Python stack; only the forwarding of a residual operation
recurses.

h_ndf takes the injection index of the family it handles, so the global
handlers run hND+f . swap as one pass, h_ndf at index 1.  Its persistent
cons cells ((head, tail), None for empty) are also the representation of the
choicepoint stacks, result lists and trails of the translations; to_cells
and from_cells convert them from and to lists.
"""

from .core import (
    Leaf, Node, Get, Put, Fail, Or, MGet, MUpdate, MRestore,
    tree_map,
)


class Undo:
    """An undoable state type: plus applies a delta, minus is its left inverse."""

    def __init__(self, plus, minus):
        self.plus = plus
        self.minus = minus


INT_UNDO = Undo(lambda s, r: s + r, lambda s, r: s - r)


def h_nd(t):
    """Nondeterminism into a DFS-ordered list (signature exactly [NondetF])."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            out.append(t.value)
            continue
        op = t.op
        if t.idx != 0:
            raise ValueError("h_nd: unexpected residual operation %s at "
                             "index %d" % (type(op).__name__, t.idx))
        if isinstance(op, Fail):
            continue
        if isinstance(op, Or):
            stack.append(op.r)
            stack.append(op.l)
            continue
        raise ValueError("h_nd: non-nondet operation %s at index 0"
                         % type(op).__name__)
    return out


def h_state(t, s):
    """hState1: handle the leading StateF family, threading state s.

    Returns a residual tree whose leaves are (answer, final_state) pairs;
    residual operations are forwarded with the current state captured.
    """
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
                        t.op.map_children(lambda c, cur=cur: h_state(c, cur)))


def h_modify(t, s, undo=INT_UNDO):
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
                            lambda c, cur=cur: h_modify(c, cur, undo)))


def to_cells(items):
    """Persistent cons cells holding items, the last one at the head."""
    xs = None
    for x in items:
        xs = (x, xs)
    return xs


def from_cells(xs):
    """The items of cons cells xs as a list, the head last: the inverse of
    to_cells, and the one O(n) reversal of a result stack."""
    out = []
    while xs is not None:
        x, xs = xs
        out.append(x)
    out.reverse()
    return out


def h_ndf(t, at=0):
    """hND+f as the runND+f machine: handle the NondetF family at index at,
    forwarding the rest.

    The machine keeps the results so far and the pending right branches as
    persistent cons cells ((head, tail), None for empty): a leaf conses its
    value onto the results, Or pushes its right branch and runs the left,
    and Fail or a finished leaf pops the next branch.  A residual operation
    is forwarded with the current cells captured; cells are never mutated,
    so its continuations can be resumed any number of times.  Indices below
    at stay and indices above at drop by one, so h_ndf at index 1 is
    hND+f . swap.

    Returns a residual tree whose leaves are DFS-ordered result lists.
    """
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


def h_nil(t):
    """Close an empty residual signature: a leaf yields its value.

    An operation node here means a handler was composed wrongly; fail loudly.
    """
    if isinstance(t, Leaf):
        return t.value
    raise ValueError(
        "h_nil applied to an operation node (idx=%d, op=%s): "
        "residual signature was expected to be empty"
        % (t.idx, type(t.op).__name__))


def h_local(t, s):
    """Local-state semantics: state handled before nondeterminism.

    hLocal = fmap (fmap (fmap fst) . hND+f) . runStateT . hState
    """
    u = h_ndf(h_state(t, s))
    return tree_map(u, lambda prs: [a for (a, _s) in prs])


def h_global(t, s):
    """Global-state semantics: nondeterminism handled before state.

    hGlobal = fmap (fmap fst) . flip runStateT s . hState . hND+f . swap

    Run fused with hND+f . swap as h_ndf at index 1.
    """
    w = h_state(h_ndf(t, 1), s)
    return tree_map(w, lambda pair: pair[0])


def h_local_m(t, s, undo=INT_UNDO):
    """hLocalM: local-state semantics via the modify handler."""
    u = h_ndf(h_modify(t, s, undo))
    return tree_map(u, lambda prs: [a for (a, _s) in prs])


def h_global_m(t, s, undo=INT_UNDO):
    """hGlobalM: global-state semantics via the modify handler.

    hGlobalM = fmap (fmap fst) . flip runStateT s . hModify . hND+f . swap,
    run with hND+f . swap as h_ndf at index 1.
    """
    w = h_modify(h_ndf(t, 1), s, undo)
    return tree_map(w, lambda pair: pair[0])


def h_global_t(t, s, undo=INT_UNDO):
    """hGlobalT: global-state semantics with trail-stack restoration.

    hGlobalT = fmap (fmap fst . flip runStateT (Stack []) . hState)
             . hGlobalM . local2trail

    Run with hGlobalM inlined as hModify . hND+f . swap, and hND+f . swap
    as h_ndf at index 1, so that the two fmap fst run once, as one
    projection of the closed result.
    """
    from .translations import local2trail
    u = h_modify(h_ndf(local2trail(t), 1), s, undo)  # [StateF(Stack)|rest]
    w = h_state(u, None)                             # trail starts empty
    return tree_map(w, lambda pair: pair[0][0])
