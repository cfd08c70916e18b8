"""The high-to-low translations and their composed pipelines.

Five translations:

    local2global    Put -> state-restoring putR            [StateF,NondetF|r]
    nondet2state    nondeterminism -> choicepoint state    [NondetF|r]
    states2state    two state families -> one pair state
    local2globalM   Update -> update with restoring side   [ModifyF,NondetF|r]
    local2trail     Update/Or instrumented with a trail    [ModifyF,NondetF|r]

plus the closed and forwarding runs `run_nd` and `run_ndf` of
`nondet2state`, and the pipelines `simulate` (choicepoint-stack simulation
of local state) and `simulate_t` (choicepoint + trail stacks).  Each runs
its three translations as one fold, simulate_tree or simulate_t_tree, that
sends every operation straight to its composite image (fold fusion:
Meijer, Fokkinga & Paterson 1991; Wu & Schrijvers, Fusion for Free, 2015);
the staged compositions are test references.

Every translation here, staged or fused, is a one-node fold with a
module-level algebra, and is as lazy as the paper's Haskell folds: it
translates the top node only, and each child when the run reaches it.  A
node that a translation keeps, re-indexed or not, is core's deferred node,
whose children the translation maps on its first read; a fail it keeps is
core's shared fail node at its new index.  A node that it expands either
holds the update it keeps as such a node (the update arms of local2global_m
and local2trail), or is a get whose step function translates the children
it continues with: put_r's continuation, push_s's two branches, the two
arms of local2trail's Or and each states2state continuation.  So no
translation recurses on a deep input, the package needs no raised recursion
limit, and a tree with stray operations reports the first one the run
reaches.

nondet2state's state, the paper's S, is the pair (results, stack): the
results found so far, the newest at the head, and the pending branches, the
top at the head, started as (None, None).  The trail holds each applied
delta as it is, and MARKER, which untrail recognises by identity, so a delta
equal to it is still a delta.  Results, stack and trail are persistent cons
cells ((head, tail), None for empty; see handlers.to_cells and from_cells),
so every push and pop is O(1) and never copies: a forwarded continuation may
resume the same state again.  Each Get continuation built here is a partial
application of a private step function, and the pop trees, which capture
nothing, are built once per index and shared.

The two fused folds keep their undo work as data, as simulate_f does
(defunctionalisation: Danvy & Nielsen, Defunctionalization at Work, 2001).
simulate_tree pushes the restore entry (u,) for each put, where the staged
form pushes a restoring program, and one pop applies a whole run of them as
one write (the put-put law).  simulate_t_tree's pop untrails back to the
branch's MARKER in one step, where the staged untrail takes one per delta.

The folds also take each run of same-family work in one step, by the laws
that the laws:state and laws:nondet suites check (equational reasoning as
in Gibbons & Hinze, Just Do It, 2011): a run of puts is one restore entry
and one write (put-put), a run of updates logs all its deltas in one write,
and the Or step walks the right spine of its or chain, skipping each fail
arm (fail | r = r) and recording each ret arm without a push or a pop.  So
the state handler sees one get and one put per run, not one per node.
"""

from functools import cache, partial

from .core import (
    Leaf, Node, Get, Put, Fail, Or, MUpdate, MRestore,
    _Deferred, _UNIT, tree_map, fail, or_, restore, fold,
)
from .handlers import h_state, h_nil, run_stack, from_cells, INT_UNDO

_FAIL = fail()  # the end of every restoring side branch


# ---------------------------------------------------------------------------
# local2global: state-restoring put.
# ---------------------------------------------------------------------------

def put_r(s, k=_UNIT):
    """putR s >> k, where putR s = get >>= \\s' -> put s | side (put s')."""
    return Node(0, Get(partial(_put_r, s, k)))


def _put_r(s, k, s0):
    return Node(1, Or(Node(0, Put(s, k)), Node(0, Put(s0, _FAIL))))


def local2global(t):
    """Replace every Put by its state-restoring expansion; keep the rest."""
    return fold(Leaf, _local2global, t)


def _local2global(idx, op):
    if idx == 0 and op.__class__ is Put:
        return Node(0, Get(partial(_local2global_put, op.s, op.k)))
    return (fail(at=idx) if op.__class__ is Fail
            else _Deferred(idx, op, local2global))


def _local2global_put(s, k, s0):
    """putR s >> local2global k at the state s0 that the get read, k
    translated now.  put_r is called by name, so that a wrapper on it sees
    every put; the get of its tree reads s0 again, so its step is run at s0
    directly."""
    return put_r(s, local2global(k)).op.k(s0)


# ---------------------------------------------------------------------------
# Choicepoint state and the nondeterminism-as-state machine.
# ---------------------------------------------------------------------------

# pop_s, push_s and append_s act on the choicepoint state family at index at.

def pop_s(at=0):
    """Run the next pending branch, or halt with unit on an empty stack."""
    return _nondet2state_parts(at)[2]


def _pop_s(at, s):
    xs, stack = s
    if stack is None:
        return _UNIT
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
    gen, alg, _pop = _nondet2state_parts(at)
    return fold(gen, alg, t)


@cache
def _nondet2state_parts(at):
    """nondet2state's leaf and operation cases at index at, and the one
    pop_s tree there, each built once per index."""
    return ((lambda x: append_s(x, pop_s(at), at)),
            partial(_nondet2state, at), Node(at, Get(partial(_pop_s, at))))


def _nondet2state(at, idx, op):
    if op.__class__ is Fail:
        return pop_s(at) if idx == at else fail(at=idx)
    if idx != at:
        return _Deferred(idx, op, lambda c: nondet2state(c, at))
    if isinstance(op, Or):
        return Node(at, Get(partial(_nondet2state_or, op.r, op.l, at)))
    raise ValueError("nondet2state: non-nondet operation %s at index %d"
                     % (type(op).__name__, at))


def _nondet2state_or(r, l, at, s):
    """push_s of the two branches at the state s that the get read, both
    translated now; push_s is called by name, as put_r is above."""
    return push_s(nondet2state(r, at), nondet2state(l, at), at).op.k(s)


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
    return fold(Leaf, partial(_states2state, at), t)


def _states2state(at, idx, op):
    if not at <= idx <= at + 1:
        return _Deferred(idx - (idx > at), op, lambda c: states2state(c, at))
    if isinstance(op, (Get, Put)):
        return Node(at, Get(partial(_states2state_step, idx - at, op, at)))
    raise ValueError("states2state: non-state operation %s at index %d"
                     % (type(op).__name__, idx))


def _states2state_step(i, op, at, s12):
    """The Get or Put op of the pair's component i at the pair s12, the
    continuation translated now."""
    if op.__class__ is Get:
        return states2state(op.k(s12[i]), at)
    return (_put2 if i else _put1)(op.s, states2state(op.k, at), at, s12)


def _put1(s, k, at, s12):
    return Node(at, Put((s, s12[1]), k))


def _put2(s, k, at, s12):
    return Node(at, Put((s12[0], s), k))


# ---------------------------------------------------------------------------
# simulate and simulate_t: each pipeline's translations fused into one fold.
# ---------------------------------------------------------------------------

def simulate(t, s):
    """simulate = extract . hState . states2state . nondet2state . swap
                . local2global; equals h_local.  Runs simulate_tree."""
    u = h_state(simulate_tree(t), ((None, None), s))
    return tree_map(u, lambda pair: from_cells(pair[1][0][0]))


def simulate_tree(t):
    """states2state . nondet2state . swap . local2global as one fold, from
    [StateF, NondetF|rest] to [StateF(p)|rest], p = ((xs, stack), u).  By
    fold fusion each case goes to its composite image, with consecutive
    reads of p merged; the stack holds images, so no branch is translated
    twice, and the restoring side of each put as the data entry (u,), as
    simulate_f's ("restore", s) entries:

        Leaf x       get p; then as POP from ((x, xs), stack), with the
                     put made on an empty stack too
        Fail@1       POP = get p; ret () if the stack is empty, else
                     put ((xs, rest), u'); q.  q is the top branch, rest
                     the entries below it, and u' the state in the deepest
                     restore entry above q, or u if there is none; with no
                     branch left, q is ret () and rest is empty
        Or l r@1     get p; put ((xs, (r, stack)), u); l
        Get k@0      get p; k u
        Put s k@0    get p; put ((xs, ((u,), stack)), s); k
        op@i, i > 1  op@(i - 1)

    By the put-put law the staged run of restores, get p; put (p[0], u);
    POP for each entry, is that one put.  Three law rows take a run of
    nodes in the one step of its first node (_or is shared with
    simulate_t_tree):

        Put s1 (... Put sn k)@0   get p; put ((xs, ((u,), stack)), sn); k
                                  (put-put: one restore entry, one write)
        Or fail r@1               r, walked on (fail | r = r)
        Or (ret x) r@1            r, walked on with x recorded (push r;
                                  record x; pop = record x; r)

    The walk goes down the right spine of the or chain.  It stops at the
    first Or l' r' whose left arm is neither fail nor a ret, which it
    pushes as the Or row does: get p; put ((xs', (r', stack)), u); l', xs'
    being the results it recorded.  Or it stops at a right child r' that
    is not an Or@1: get p; put ((xs', stack), u); r', or r' alone if it
    recorded nothing, since the state is then unchanged.

    The fold translates the top node only; each child is translated when
    the run reaches the step that continues with it.  _sim_get translates
    k u, _or l' and then r' as it pushes it, _sim_put the k after its run,
    and a forwarded operation, core's deferred node, its children when the
    next handler reads it.  Each walk is a loop that reads the op only of a
    node the run reaches next, and stops at any other family or index, so
    forwarding and stray operations behave as one node at a time does.
    """
    return _sim(t)


def _sim(t):
    return fold(_LEAF[0], _sim_alg, t)


def _sim_alg(idx, op):
    if idx == 0:
        if isinstance(op, Get):
            return Node(0, Get(partial(_sim_get, op.k)))
        if isinstance(op, Put):
            return Node(0, Get(partial(_sim_put, op.s, op.k)))
        raise ValueError("states2state: non-state operation %s at index 0"
                         % type(op).__name__)
    if idx > 1:
        return _Deferred(idx - 1, op, _sim)
    if isinstance(op, Fail):
        return _POP[0]
    if isinstance(op, Or):
        return Node(0, Get(partial(_or, 0, op.r, op.l)))
    raise ValueError("nondet2state: non-nondet operation %s at index 1"
                     % type(op).__name__)


def _sim_get(k, p):
    return _sim(k(p[1]))


def _sim_put(s, k, p):
    """A run of puts: one restore entry, the state before the run, and the
    run's last value (put-put)."""
    while k.__class__ is not Leaf and k.idx == 0:
        op = k.op
        if op.__class__ is not Put:
            break
        s, k = op.s, op.k
    return _push(0, (p[1],), _sim(k), (p[0], s))


def _sim_pop(xs, stack, u):
    """simulate_tree's pop: apply each restore entry down to the first
    branch and go on with it, or with ret () once the stack is empty."""
    while stack is not None:
        q, stack = stack
        if q.__class__ is not tuple:
            return Node(0, Put(((xs, stack), u), q))
        u = q[0]
    return Node(0, Put(((xs, None), u), _UNIT))


def simulate_t(t, s, undo=INT_UNDO):
    """simulateT = extractT . hState . fmap fst . flip runStateT s . hModify
                 . swap . states2state . rotate . swap . nondet2state . swap
                 . local2trail; equals h_local_m.  Runs simulate_t_tree,
    without the fmap fst: extractT reads the choicepoints all the same."""
    v = run_stack(simulate_t_tree(t), (("modify", 0), ("state", 1)),
                  (s, ((None, None), None)), undo)
    return tree_map(v, lambda pair: from_cells(pair[1][0][0]))


def simulate_t_tree(t):
    """swap . states2state . rotate . swap . nondet2state . swap .
    local2trail as one fold, fused as simulate_tree is (the swaps and rotate
    only move families), from [ModifyF, NondetF|rest] to [ModifyF,
    StateF(p)|rest], p = ((xs, stack), trail):

        Leaf x          get p; then as POP from ((x, xs), stack), with
                        the put made on an empty stack too
        Fail@1          POP = get p; ret () if the stack is empty, else
                        put ((xs, rest), trail'); restore x1; ...;
                        restore xn; r, for the stack (r, rest) and the
                        trail (x1, ... (xn, (MARKER, trail')))
        Or l r@1        get p; put ((xs, (r, stack)), (MARKER, trail)); l
        MUpdate r k@0   get p; put ((xs, stack), (r, trail)); update r; k
        op@i            op@i, for every other operation

    and its law rows, the Or walk shared with simulate_tree (pushing
    (MARKER, trail) with l', and no MARKER for a ret or fail arm) and

        MUpdate r1 (... MUpdate rn k)@0
                        get p; put ((xs, stack), (rn, ... (r1, trail)));
                        update r1; ...; update rn; k

    The stack holds the translated right branch itself: its pop untrails
    back to the branch's MARKER in one step, where the staged untrail reads
    and writes the trail once per delta.  The trail never drains before the
    marker: r is pushed in the same put as its MARKER.

    As in simulate_tree, the fold translates the top node only.  _or
    translates l' and then r', _sim_t_logged each later update of a run
    and then the k after it, as the modify handler reaches them, and a
    forwarded operation, MGet included, its children as simulate_tree's do.
    Undo is generic, so the deltas of a run are never combined.
    """
    return _sim_t(t)


def _sim_t(t):
    return fold(_LEAF[1], _sim_t_alg, t)


def _sim_t_alg(idx, op):
    if idx == 1:
        if isinstance(op, Fail):
            return _POP[1]
        if isinstance(op, Or):
            return Node(1, Get(partial(_or, 1, op.r, op.l)))
        raise ValueError("nondet2state: non-nondet operation %s at index 1"
                         % type(op).__name__)
    if idx == 0 and isinstance(op, MUpdate):
        return Node(1, Get(partial(_sim_t_log, op.r, op.k)))
    return _Deferred(idx, op, _sim_t)


def _sim_t_log(r, k, p):
    """A run of updates: every delta logged in one put, the newest first,
    then the updates, each applied by the modify handler."""
    trail, t = (r, p[1]), k
    while t.__class__ is not Leaf and t.idx == 0:
        op = t.op
        if op.__class__ is not MUpdate:
            break
        trail, t = (op.r, trail), op.k
    return Node(1, Put((p[0], trail), Node(0, MUpdate(r, _sim_t_logged(k)))))


def _sim_t_logged(t):
    """The rest of a run whose deltas are logged: its updates as they are,
    each built when the modify handler reads it, then the node after it
    translated."""
    if t.__class__ is not Leaf and t.idx == 0 and t.op.__class__ is MUpdate:
        return _Deferred(0, t.op, _sim_t_logged)
    return _sim_t(t)


def _sim_t_pop(xs, stack, trail):
    """simulate_t_tree's pop: untrail back to the top branch's MARKER, then
    restore the deltas, the newest first, and go on with the branch; on an
    empty stack, go on with ret ()."""
    if stack is None:
        return Node(1, Put(((xs, None), trail), _UNIT))
    q, stack = stack
    deltas = []
    x, trail = trail
    while x is not MARKER:
        deltas.append(x)
        x, trail = trail
    for x in reversed(deltas):
        q = Node(0, MRestore(x, q))
    return Node(1, Put(((xs, stack), trail), q))


# The choicepoint steps of both folds, on p = ((xs, stack), other) at index
# at, other being the user state or the trail.  A leaf pops in the same
# step that records it.

def _leaf(at, x):
    return Node(at, Get(partial(_append, at, x)))


def _append(at, x, p):
    (xs, stack), other = p
    return (_sim_t_pop if at else _sim_pop)((x, xs), stack, other)


def _or(at, r, l, p):
    """Both folds' Or step: walk the right spine of the or chain from Or l
    r, skipping each fail arm (fail | r = r) and recording each ret x arm
    (push r; record x; pop = record x; r).  At the first other left arm,
    one put records the results and pushes the arm's right sibling, and the
    run goes on with the arm.  At a right child that is not an Or@1, one
    put records the results, none if there are no new ones, and the run
    goes on with the child."""
    tr = _sim_t if at else _sim
    (xs, stack), other = p
    ys = xs
    while True:
        if l.__class__ is Leaf:
            ys = (l.value, ys)
        elif l.idx != 1 or l.op.__class__ is not Fail:
            l = tr(l)
            return _push(at, tr(r), l,
                         ((ys, stack), (MARKER, other) if at else other))
        if r.__class__ is Leaf or r.idx != 1 or r.op.__class__ is not Or:
            break
        l, r = r.op.l, r.op.r
    r = tr(r)
    return r if ys is xs else Node(at, Put(((ys, stack), other), r))


def _push(at, r, l, p):
    (xs, stack), other = p
    return Node(at, Put(((xs, (r, stack)), other), l))


def _pop(at, p):
    (xs, stack), other = p
    if stack is None:
        return _UNIT
    return (_sim_t_pop if at else _sim_pop)(xs, stack, other)


_POP = (Node(0, Get(partial(_pop, 0))), Node(1, Get(partial(_pop, 1))))
_LEAF = (partial(_leaf, 0), partial(_leaf, 1))


# ---------------------------------------------------------------------------
# local2globalM: modify-based global state.
# ---------------------------------------------------------------------------

def local2global_m(t):
    """Replace update r by (update r | side (restore r)); keep the rest."""
    return fold(Leaf, _local2global_m, t)


def _local2global_m(idx, op):
    if idx == 0 and op.__class__ is MUpdate:
        return or_(_Deferred(0, op, local2global_m), restore(op.r, k=_FAIL))
    return (fail(at=idx) if op.__class__ is Fail
            else _Deferred(idx, op, local2global_m))


# ---------------------------------------------------------------------------
# local2trail: trail-stack instrumentation.
# ---------------------------------------------------------------------------

MARKER = ("marker",)  # the one trail entry that is not a delta, told by `is`
_TRAIL = 2  # injection index of the trail-stack state family in the output


def push_stack(x, k=_UNIT):
    """Push x on the trail, then continue with k."""
    return Node(_TRAIL, Get(partial(_push_stack, x, k)))


def _push_stack(x, k, st):
    return Node(_TRAIL, Put((x, st), k))


def untrail(k=_UNIT):
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
    return fold(Leaf, _local2trail, t)


def _local2trail(idx, op):
    if idx == 0 and op.__class__ is MUpdate:
        return push_stack(op.r, _Deferred(0, op, local2trail))
    if idx == 1 and op.__class__ is Or:
        return or_(Node(_TRAIL, Get(partial(_local2trail_l, op.l))),
                   Node(_TRAIL, Get(partial(_local2trail_r, op.r))), at=1)
    return (fail(at=idx + (idx > 1)) if op.__class__ is Fail
            else _Deferred(idx + (idx > 1), op, local2trail))


def _local2trail_l(l, st):
    """An Or's left arm: push a marker, then the left branch, translated
    now."""
    return _push_stack(MARKER, local2trail(l), st)


def _local2trail_r(r, st):
    """An Or's right arm: untrail back to the marker, then the right
    branch, translated now."""
    return _untrail(local2trail(r), st)

