"""Handlers: running stacks of signature-family handlers over effect trees.

A handler stack is a tuple of frames, each a family ("state", "modify" or
"nondet") and the injection index it handles in the input tree, in the
order the handlers are applied.  run_stack runs a whole stack in one loop
and builds no residual tree between its handlers.  An operation at an index
no frame owns is forwarded as core's deferred node, with the frame states
captured and copied on each resumption, which runs over its children only
when the next handler reads the node: so a chain of forwarded operations
nests no call of the loop, and nothing here recurses.

A nondet frame's choicepoint saves the states of the frames listed before
it and no others: that one rule is the whole difference between local state
(h_local, state then nondet) and global state (h_global, nondet then
state).  h_state (hState1), h_modify (hModify1) and h_ndf (hND+f, as the
paper's runND+f machine) are the one-frame stacks.  The nondet cons cells
((head, tail), None for empty) also hold the translations' stacks, results
and trails; to_cells and from_cells convert lists to cells and back.

At an Or, a nondet frame pushes no choicepoint for a left arm that a
nondet law settles at once, as the fused folds of translations do:

    Or (ret x) r    x recorded, paired with the states before the frame
                    as a leaf is, then r (push r; ret x; pop = ret x; r)
    Or fail r       r, for a fail at the frame's own index (fail | r = r)

Any other left arm is run after r is pushed.  Neither row reads an op that
the next step would not read first, so the answers, and the message for a
stray operation, are those of one node at a time.
"""

import functools

from .core import (
    Leaf, Get, Put, Fail, Or, MGet, MUpdate, MRestore, _Deferred, tree_map,
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
        if t.__class__ is Leaf:
            out.append(t.value)
            continue
        op = t.op
        if t.idx != 0:
            raise ValueError("h_nd: unexpected residual operation %s at "
                             "index %d" % (type(op).__name__, t.idx))
        if op.__class__ is Fail:
            continue
        if op.__class__ is Or:
            stack.append(op.r)
            stack.append(op.l)
            continue
        raise ValueError("h_nd: non-nondet operation %s at index 0"
                         % type(op).__name__)
    return out


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


# family -> (single handler, the op class that reads and the one that writes)
_FAMILIES = {"state": ("h_state", Get, Put), "nondet": ("h_ndf", None, Or),
             "modify": ("h_modify", MGet, MUpdate)}


@functools.cache  # one plan per distinct frames tuple, a handful of rows
def _plan(frames):
    """A stack's set-up: owned index -> (_FAMILIES op classes, state slot,
    the single handler's stray message when nested); index -> how many owned
    indices lie below it; the nondet frame's position p (len(frames) if
    none); and whether there is one."""
    p = ([family for family, _at in frames] + ["nondet"]).index("nondet")
    own = {}
    for j, (family, at) in enumerate(frames):
        name, rd, wr = _FAMILIES[family]
        seen = at - sum(a < at for _f, a in frames[:j])
        own[at] = (rd, wr, j - (j > p), "%s: non-%s operation %%s at index "
                   "%d" % (name, family, seen))
    below = {i: sum(a < i for a in own) for i in range(max(own, default=0))}
    return own, below, p, p < len(frames)


def run_stack(t, frames, states, undo=INT_UNDO):
    """Run the handler stack frames over t in one pass, from states, the
    initial states of its state and modify frames.  Leaves pair the answer
    with each state before the nondet frame, which collects them into a
    DFS-ordered list paired with each state after it, as nested handlers do.
    In the residual tree, indices drop by the owned indices below them."""
    return _run(t, list(states), None, None, _plan(frames), undo)


def _run(t, st, xs, stack, plan, undo):
    """run_stack's loop from frame states st, results xs and branches stack."""
    own, below, p, nd = plan
    while True:
        if t.__class__ is Leaf:
            v = t.value
            if p:  # p == 0: no state to pair here, to save or to restore
                for s in st[:p]:
                    v = (v, s)
            if not nd:
                return Leaf(v)
            xs = (v, xs)
        else:
            frame = own.get(t.idx)
            if frame is None:
                return _Deferred(t.idx - below.get(t.idx, len(own)), t.op,
                                 lambda c, st=st, xs=xs, stack=stack:
                                 _run(c, st[:], xs, stack, plan, undo))
            rd, wr, i, stray = frame
            op = t.op
            c = op.__class__
            if c is rd:  # Get or MGet
                t = op.k(st[i])
                continue
            if c is wr and c is Or:
                l = op.l
                if l.__class__ is Leaf:  # ret x | r: record x, then r
                    v = l.value
                    if p:  # as for a leaf: p == 0 has no state to pair
                        for s in st[:p]:
                            v = (v, s)
                    xs, t = (v, xs), op.r
                elif l.idx == t.idx and l.op.__class__ is Fail:  # fail | r = r
                    t = op.r
                else:  # push the right branch
                    stack = (op.r, p and st[:p], stack)
                    t = l
                continue
            if c is wr or c is MRestore and wr is MUpdate:  # a write
                st[i] = (op.s if c is Put else undo.plus(st[i], op.r)
                         if c is MUpdate else undo.minus(st[i], op.r))
                t = op.k
                continue
            if c is not Fail or wr is not Or:  # Fail pops
                raise ValueError(stray % c.__name__)
        if stack is None:
            v = from_cells(xs)
            for s in st[p:]:
                v = (v, s)
            return Leaf(v)
        t, saved, stack = stack
        if p:
            st[:p] = saved


def h_state(t, s):
    """hState1: handle the leading StateF family, threading state s; leaves
    are (answer, final_state) pairs."""
    return run_stack(t, (("state", 0),), (s,))


def h_modify(t, s, undo=INT_UNDO):
    """hModify1: handle the leading ModifyF family with an Undo instance."""
    return run_stack(t, (("modify", 0),), (s,), undo)


def h_ndf(t, at=0):
    """hND+f, the runND+f machine, on the NondetF family at index at (at 1 it
    is hND+f . swap); leaves are DFS-ordered result lists.  The stray error
    of every nondet frame, in any stack, names this handler (_FAMILIES)."""
    return run_stack(t, (("nondet", at),), ())


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
    u = run_stack(t, (("state", 0), ("nondet", 1)), (s,))
    return tree_map(u, lambda prs: [a for (a, _s) in prs])


def h_global(t, s):
    """Global-state semantics: nondeterminism handled before state.

    hGlobal = fmap (fmap fst) . flip runStateT s . hState . hND+f . swap
    """
    w = run_stack(t, (("nondet", 1), ("state", 0)), (s,))
    return tree_map(w, lambda pair: pair[0])


def h_local_m(t, s, undo=INT_UNDO):
    """hLocalM: local-state semantics via the modify handler."""
    u = run_stack(t, (("modify", 0), ("nondet", 1)), (s,), undo)
    return tree_map(u, lambda prs: [a for (a, _s) in prs])


def h_global_m(t, s, undo=INT_UNDO):
    """hGlobalM: global-state semantics via the modify handler.

    hGlobalM = fmap (fmap fst) . flip runStateT s . hModify . hND+f . swap
    """
    w = run_stack(t, (("nondet", 1), ("modify", 0)), (s,), undo)
    return tree_map(w, lambda pair: pair[0])


def h_global_t(t, s, undo=INT_UNDO):
    """hGlobalT: global-state semantics with trail-stack restoration.

    hGlobalT = fmap (fmap fst . flip runStateT (Stack []) . hState)
             . hGlobalM . local2trail

    as one stack, so that the two fmap fst run once; the trail starts empty.
    """
    from .translations import local2trail
    w = run_stack(local2trail(t), (("nondet", 1), ("modify", 0),
                                   ("state", 2)), (s, None), undo)
    return tree_map(w, lambda pair: pair[0][0])
