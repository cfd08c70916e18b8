"""The paper's fold and its signature permutations swap and rotate, for the
tests only.

core.fold visits one node, and every translation folds each child by name
when the run reaches it.  eager_fold is the paper's fold as written, every
child folded before the algebra runs, and is the reference that the tests
hold core's folds, bind and the translations to.

The translations act at any injection index and the handler stacks name the
index each frame handles, so the paper's swap and rotate retaggings are only
needed to write its compositions as references (test_fusion) and to move a
program between layouts in the tests.
"""

from effsim.core import Leaf, Node


def eager_fold(gen, alg, t):
    """The free monad's fold: Leaf x -> gen(x); Node -> alg(idx, op) with
    every child of op folded first (a child behind a Get/MGet continuation
    when the continuation is applied).  It recurses, so it takes only
    shallow trees."""
    if isinstance(t, Leaf):
        return gen(t.value)
    return alg(t.idx, t.op.map_children(lambda c: eager_fold(gen, alg, c)))


def swap(t):
    """Exchange the first two families of the signature (indices 0 <-> 1)."""
    return eager_fold(Leaf, lambda i, op: Node(1 - i if i < 2 else i, op), t)


_ROTATE = {0: 2, 1: 0, 2: 1}


def rotate(t):
    """Permute a four-family signature [f1,f2,f3,f4] -> [f2,f3,f1,f4]."""
    return eager_fold(Leaf, lambda i, op: Node(_ROTATE.get(i, i), op), t)
