"""Backtracking-effects engine: a ladder of simulations from local-state
semantics down to a fused abstract machine with choicepoint and trail stacks,
plus a differential-testing harness for the translation correctness
properties.

Every translation, handler and machine works one node at a time, as the
paper's lazy Haskell folds do, so the package needs no raised recursion
limit and changes no interpreter setting."""

__version__ = "0.1.0"
