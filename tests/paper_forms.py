"""The paper's signature permutations swap and rotate, for the tests only.

The translations act at any injection index and the handler stacks name the
index each frame handles, so the paper's swap and rotate retaggings are only
needed to write its compositions as references (test_fusion) and to move a
program between layouts in the tests.
"""

from effsim.core import Leaf, Node, fold


def swap(t):
    """Exchange the first two families of the signature (indices 0 <-> 1)."""
    return fold(Leaf, lambda i, op: Node(1 - i if i < 2 else i, op), t)


_ROTATE = {0: 2, 1: 0, 2: 1}


def rotate(t):
    """Permute a four-family signature [f1,f2,f3,f4] -> [f2,f3,f1,f4]."""
    return fold(Leaf, lambda i, op: Node(_ROTATE.get(i, i), op), t)
