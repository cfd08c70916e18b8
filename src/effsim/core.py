"""Effect trees: free-monad syntax over an ordered, closed coproduct of signatures.

A tree is either a Leaf carrying a return value or a Node carrying an
operation from one of the signature families, tagged with its injection
index in the ordered coproduct.  The families are:

    StateF(S):      Get(k: S -> tree), Put(s: S, k: tree)
    NondetF:        Fail, Or(l: tree, r: tree)
    ModifyF(S, R):  MGet(k: S -> tree), MUpdate(r: R, k: tree),
                    MRestore(r: R, k: tree)
    NilF:           (no operations)

Get/MGet continuations are function values (state -> subtree), which keeps
trees lazy in the state; all other children are concrete subtrees.

Two private Node subclasses build their children late, on the first read
of their op, which is then cached.  _Choice(at, xs), what choose returns
for a non-empty xs, builds choose's or chain of returns then; until then
bind reads xs instead, and builds no chain at all (see bind).
_Deferred(idx, op, f) is the node Node(idx, op.map_children(f)), with f
mapped on that first read.  Haskell evaluates the paper's folds lazily;
_Deferred does the same for bind, for tree_map, for every node that a
translation keeps, for the forwarding of an operation that a handler,
machine or fused translation does not own, and for the updates of a run
whose deltas translations.simulate_t_tree has logged, so none of them
recurses on a long chain of operations, and the package needs no raised
recursion limit.

bind builds one shape when the tree is built: an unread _Choice, choose's
or spine not yet built.  It applies f to each of its values, left to right,
so f runs at build time and must be pure, and builds the Or nodes over the
results once (choose is a foldr, and bind fuses with it: Gill, Launchbury &
Peyton Jones, A Short Cut to Deforestation, FPCA 1993).  A _Choice that is
a child of a bound node stays unread too: its deferred node holds it in
place of its op, and binds it so on its own first read.

Any other tree has only the top node of its result built.  Each child of
that node is deferred under f = partial(_defer, q), q a continuation queue
(a function, or a pair of queues, applied left to right).  Binding a deferred
node that was not read yet appends to its queue instead of nesting, so a
bind on any other tree is O(1) work and a left-nested seq of n operations
costs O(n) (Kiselyov & Ishii, Freer Monads, More Extensible Effects, 2015).
A leaf child is never deferred: the queue is applied to its value at once,
and _defer reads one node at a time.  Forwarding returns
_Deferred(shifted idx, op, resume), a translation keeps a node as
_Deferred(new idx, op, translation), and tree_map defers each child under
return . f.  So a deferred node is always an operation node with the
ordinary idx and op attributes, and every isinstance(t, Leaf) / t.idx /
t.op site in the handlers, translations and machines reads it as a plain
Node.

Programs built with seq, guard and choose allocate only the nodes their
trees hold.  seq applies the bind equations ret x >> b = b and fail >> b =
fail, and continues a concrete put, update or restore that ends in a leaf
with b directly; each builds the tree bind would.  guard True is one shared
unit leaf, and fail (so guard False and the end of every choose) is one
shared node per injection index: a tree is never mutated, so sharing a
childless node changes no tree.
"""

from functools import partial


class Leaf:
    """Return-value leaf (the free monad's Var)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return show_tree(self)


class Node:
    """Operation node (the free monad's Op): injection index + operation."""

    __slots__ = ("idx", "op")

    def __init__(self, idx, op):
        self.idx = idx
        self.op = op

    def __repr__(self):
        return show_tree(self)


# ---------------------------------------------------------------------------
# Operations.  Each knows how to map a function over its continuation
# children; function-valued continuations are mapped lazily (composition).
# ---------------------------------------------------------------------------

class Get:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def map_children(self, f):
        return Get(partial(_compose, f, self.k))


def _compose(f, k, s):
    """f after k: as partial(_compose, f, k), a mapped continuation is one
    object, where a closure would also allocate a cell per capture."""
    return f(k(s))


class Put:
    __slots__ = ("s", "k")

    def __init__(self, s, k):
        self.s = s
        self.k = k

    def map_children(self, f):
        return Put(self.s, f(self.k))


class Fail:
    __slots__ = ()

    def map_children(self, f):
        return self


class Or:
    __slots__ = ("l", "r")

    def __init__(self, l, r):
        self.l = l
        self.r = r

    def map_children(self, f):
        return Or(f(self.l), f(self.r))


class MGet:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def map_children(self, f):
        return MGet(partial(_compose, f, self.k))


class MUpdate:
    __slots__ = ("r", "k")

    def __init__(self, r, k):
        self.r = r
        self.k = k

    def map_children(self, f):
        return MUpdate(self.r, f(self.k))


class MRestore:
    __slots__ = ("r", "k")

    def __init__(self, r, k):
        self.r = r
        self.k = k

    def map_children(self, f):
        return MRestore(self.r, f(self.k))


# ---------------------------------------------------------------------------
# Fold and bind.
# ---------------------------------------------------------------------------

def fold(gen, alg, t, rec=None):
    """The free monad's fold, one node at a time.

    Leaf x gives gen(x) and a node gives alg(idx, op).  alg receives the
    operation as it is and folds each child by name when the run reaches it
    (every translation in translations.py), so a fold visits one node and
    never recurses.  A rec that is given is mapped over the children first,
    those behind Get/MGet continuations on demand; tree_map passes one.
    """
    if t.__class__ is Leaf:
        return gen(t.value)
    return alg(t.idx, t.op if rec is None else t.op.map_children(rec))


def bind(t, f):
    """Monadic bind: replace every leaf x by f(x); operation nodes preserved.

    On choose xs whose op was not read, f is called on each value left to
    right, and Or(f(x1), ... Or(f(xn), fail)) is built from the end up,
    with no node of choose's chain built.  So f runs when the tree is
    built, and must be pure.

    Any other t has only its top node built now, its children deferred
    under f (see the module docstring): one map_children call whatever the
    size of t.  A leaf child is not deferred, so f runs at once on the
    leaf arm of a concrete Or, and a read choose xs is bound one arm at a
    time as its spine is read.  A Fail node, which has no children, is
    returned as it is.  seq (a >> b) applies these equations, and one for
    a put, update or restore that ends in a leaf, before it builds a
    continuation.
    """
    c = t.__class__
    if c is Leaf:
        return f(t.value)
    if c is _Deferred and t._f.__class__ is partial:
        return _defer(f, t)
    if c is _Choice and t._xs is not None:  # choose xs >>= f: no chain built
        idx, arms, t = t.idx, list(map(f, t._xs)), _FAILS[t.idx]
        for a in reversed(arms):
            t = Node(idx, Or(a, t))
        return t
    op = t.op
    if op.__class__ is Fail:  # no children: fail >>= f = fail
        return t
    return Node(t.idx, op.map_children(partial(_defer, f)))


def _defer(q, c):
    """c >>= q for a continuation queue q, building no node of c now.

    Takes q first, so that partial(_defer, q) maps children with one call.
    """
    if c.__class__ is Leaf:
        if q.__class__ is not tuple:
            return q(c.value)
        return _run_queue(q, c.value)
    if c.__class__ is _Deferred and c._f.__class__ is partial:
        return _Deferred(c.idx, c._op, partial(_defer, (c._f.args[0], q)))
    # A choose node stands in for its own op, so that it stays unread.
    return _Deferred(c.idx, c if c.__class__ is _Choice else c.op,
                     partial(_defer, q))


def _run_queue(q, x):
    """Apply queue q to the value x: rotate its left-nested pairs until a
    function is at the front, apply it, and go on while the result is a leaf.
    A loop, so a long queue uses no Python stack."""
    while True:
        if q.__class__ is not tuple:
            return q(x)
        f, rest = q
        while f.__class__ is tuple:
            f, rest = f[0], (f[1], rest)
        t = f(x)
        if t.__class__ is not Leaf:
            return _defer(rest, t)
        x, q = t.value, rest


class _Deferred(Node):
    """The operation node Node(idx, op.map_children(f)), with f not yet
    mapped.

    op is a property: its first read maps f over the children, caches the
    result and drops f (_f is None from then on).  An unread node whose f
    is a partial is bind's (tree_map's too), f = partial(_defer, q): bind
    and _defer append to its queue q.  So every other f, a forwarding
    site's resumption or a translation, must be a lambda or a module
    function, never a partial.  _defer gives such a node an unread
    _Choice as its op, which maps f by binding itself (see
    _Choice.map_children).
    """

    __slots__ = ("_op", "_f")

    def __init__(self, idx, op, f):
        self.idx = idx
        self._op = op
        self._f = f

    @property
    def op(self):
        f = self._f
        if f is not None:
            self._op = self._op.map_children(f)
            self._f = None
        return self._op


def tree_map(t, f):
    """Functorial map over leaf values: the paper's fmap, one fold of the
    top node, each child deferred under return . f (fmap f c = c >>= return
    . f), so a chain of any length maps without recursion."""
    gen = lambda x: Leaf(f(x))
    return fold(gen, Node, t, partial(_defer, gen))


def seq(a, b):
    """a >> b: run a for its effects, discard its answer, continue with b.

    Three of the free monad's bind equations are applied here, before any
    continuation is built: ret x >> b = b, fail >> b = fail, and a concrete
    put, update or restore whose continuation is a leaf becomes the same
    operation continued by b, a new node.  Each is the tree bind would
    build; every other a goes through bind, a _Deferred or _Choice one
    without its op read here.
    """
    c = a.__class__
    if c is Leaf:
        return b
    if c is not _Deferred and c is not _Choice:
        op = a.op
        oc = op.__class__
        if oc is Fail:
            return a
        if oc is Put:
            if op.k.__class__ is Leaf:
                return Node(a.idx, Put(op.s, b))
        elif (oc is MUpdate or oc is MRestore) and op.k.__class__ is Leaf:
            return Node(a.idx, oc(op.r, b))
    return bind(a, lambda _x: b)


# ---------------------------------------------------------------------------
# Smart constructors.  The `at` argument is the family's injection index in
# the signature the program is written against.  `put`, `update` and
# `restore` take the continuation k directly: op(x, at, k) is the tree that
# seq(op(x, at=at), k) builds, without a fold.
# ---------------------------------------------------------------------------

def ret(x):
    return Leaf(x)


class _Fails(dict):
    """Injection index -> its one fail node, built on first use."""

    def __missing__(self, at):
        t = self[at] = Node(at, Fail())
        return t


_UNIT = Leaf(())  # the one ret (): trees are never mutated, so nodes share
_FAILS = _Fails()


def get(k, at=0):
    return Node(at, Get(k))


def put(s, at=0, k=_UNIT):
    return Node(at, Put(s, k))


def fail(at=1):
    """The fail node at index at: one shared node per index."""
    return _FAILS[at]


def or_(l, r, at=1):
    return Node(at, Or(l, r))


def mget(k, at=0):
    return Node(at, MGet(k))


def update(r, at=0, k=_UNIT):
    return Node(at, MUpdate(r, k))


def restore(r, at=0, k=_UNIT):
    return Node(at, MRestore(r, k))


def choose(xs, at=1):
    """choose = foldr ((|) . eta) fail — an or-chain of returns, ending in
    the shared fail node, which is also choose [].  Any other chain is a
    _Choice node, which holds a copy of xs and builds the chain on the first
    read of its op; bind on an unread one builds no chain at all."""
    xs = tuple(xs)
    return _Choice(at, xs) if xs else _FAILS[at]


class _Choice(Node):
    """choose xs at index idx, xs a non-empty tuple, its or chain not yet
    built.

    op is a property: its first read builds the chain from its tail, each
    Or node inline, caches its top Or and drops xs (_xs is None from then
    on).  Until then bind reads xs instead, and seq passes the node to bind
    unread.
    """

    __slots__ = ("_op", "_xs")

    def __init__(self, idx, xs):
        self.idx = idx
        self._xs = xs

    @property
    def op(self):
        xs = self._xs
        if xs is not None:
            t = _FAILS[self.idx]
            for x in reversed(xs):
                t = Node(self.idx, Or(Leaf(x), t))
            self._op, self._xs = t.op, None
        return self._op

    def map_children(self, f):
        """The op of choose xs >>= q, for f = partial(_defer, q): _defer
        keeps a choose node in place of its op, and bind builds the chain
        from xs if it is still unread."""
        return bind(self, lambda x: f(Leaf(x))).op


def guard(b, at=1):
    """guard True is the shared unit leaf, guard False the shared fail."""
    return _UNIT if b else _FAILS[at]


def side(m, at=1):
    """side m = m >> fail: run m for its effects only."""
    return seq(m, fail(at=at))


# ---------------------------------------------------------------------------
# Debug pretty-printer (stable text form; function children shown as <fun>).
# It is also the repr of Leaf and Node.
# ---------------------------------------------------------------------------

def show_tree(t):
    """t's text form.  A loop over a stack of the subtrees still to print
    and the text between them, so a tree of any depth prints."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
            continue
        if isinstance(t, Leaf):
            out.append("ret %r" % (t.value,))
            continue
        op = t.op
        tag = "%d" % t.idx
        if isinstance(op, Get):
            out.append("get@%s <fun>" % tag)
        elif isinstance(op, Put):
            out.append("put@%s %r; " % (tag, op.s))
            todo.append(op.k)
        elif isinstance(op, Fail):
            out.append("fail@%s" % tag)
        elif isinstance(op, Or):
            out.append("or@%s (" % tag)
            todo += (")", op.r, ") (", op.l)
        elif isinstance(op, MGet):
            out.append("mget@%s <fun>" % tag)
        elif isinstance(op, MUpdate):
            out.append("update@%s %r; " % (tag, op.r))
            todo.append(op.k)
        elif isinstance(op, MRestore):
            out.append("restore@%s %r; " % (tag, op.r))
            todo.append(op.k)
        else:
            raise TypeError("unknown operation %s at index %s"
                            % (type(op).__name__, tag))
    return "".join(out)
