"""The test-only signature permutations in paper_forms."""

import random

from effsim.core import Leaf, put, fail, update, restore
from paper_forms import swap, rotate
from test_core import random_nondet_tree, tree_equal


def test_swap_leaf_and_involution():
    rng = random.Random(3)
    assert tree_equal(swap(Leaf(5)), Leaf(5))
    for _ in range(300):
        t = random_nondet_tree(rng, 4)
        assert tree_equal(swap(swap(t)), t)


def test_swap_retags_put():
    t = swap(put(9, at=0))
    assert t.idx == 1


def test_rotate_order_three():
    # One single-op tree per family position in a 4-family signature.
    samples = [put(1, at=0), fail(at=1), update(2, at=2), restore(3, at=3)]
    expected = [2, 0, 1, 3]
    for t, e in zip(samples, expected):
        assert rotate(t).idx == e
    rng = random.Random(4)
    for _ in range(200):
        t = random_nondet_tree(rng, 3)
        assert tree_equal(rotate(rotate(rotate(t))), t)
