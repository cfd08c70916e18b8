"""Backtracking-effects engine: a ladder of simulations from local-state
semantics down to a fused abstract machine with choicepoint and trail stacks,
plus a differential-testing harness for the translation correctness
properties."""

import sys as _sys

# The eager translation folds (local2global, local2global_m, local2trail)
# recurse over tree structure; deep programs need more than the default
# limit.
if _sys.getrecursionlimit() < 100_000:
    _sys.setrecursionlimit(100_000)

__version__ = "0.1.0"
