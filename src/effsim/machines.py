"""Fused single-pass abstract machines.

simulate_f collapses the choicepoint-stack pipeline into one machine with a
results list and a choicepoint stack; simulate_tf additionally keeps a trail
(the WAM stack/trail discipline) that holds each applied delta as it is and
translations.MARKER at each choicepoint, told apart by identity.  Both run as
iterative loops over in-place stacks (Python lists, top at the end).  A
residual operation is forwarded as core's deferred node, whose children
resume the machine from copies of the stacks when the next handler reads
it, so neither machine recurses.
"""

from .core import (
    Leaf, Get, Put, Fail, Or, MGet, MUpdate, MRestore, _Deferred,
)
from .handlers import INT_UNDO
from .translations import MARKER


def simulate_f(t, s, trace=None):
    """Fused choicepoint machine over [StateF(S),NondetF|rest]; equals simulate.

    Put pushes a state-restoring resumption; Fail and exhausted leaves
    continue from the choicepoint stack.  If `trace` is a list, one record
    (op, |results|, |cpStack|) is appended per machine transition, after the
    transition, with the sizes it left.
    """
    def run(t, xs, stack, s):
        while True:
            if isinstance(t, Leaf):
                xs.append(t.value)
                step, t = "ret", None
            elif t.idx == 0:
                op = t.op
                if isinstance(op, Get):
                    step, t = "get", op.k(s)
                elif isinstance(op, Put):
                    stack.append(("restore", s))
                    step, s, t = "put", op.s, op.k
                else:
                    raise ValueError("simulate_f: non-state operation %s at "
                                     "index 0" % type(op).__name__)
            elif t.idx == 1:
                op = t.op
                if isinstance(op, Fail):
                    step, t = "fail", None
                elif isinstance(op, Or):
                    stack.append(("branch", op.r))
                    step, t = "or", op.l
                else:
                    raise ValueError("simulate_f: non-nondet operation %s at "
                                     "index 1" % type(op).__name__)
            else:
                return _Deferred(t.idx - 2, t.op,
                                 lambda c, xs=xs, stack=stack, s=s:
                                 run(c, list(xs), list(stack), s))
            if trace is not None:
                trace.append((step, len(xs), len(stack)))
            # backtrack: pop the choicepoint stack
            while t is None:
                if not stack:
                    return Leaf(xs)
                tag, v = stack.pop()
                if tag == "restore":
                    s = v
                else:
                    t = v
    return run(t, [], [], s)


def simulate_tf(t, s, undo=INT_UNDO, trace=None):
    """Fused choicepoint + trail machine over [ModifyF,NondetF|rest];
    equals simulate_t.

    Updates log their delta; Or pushes a marker and a resumption; entering a
    resumption first untrails back to the matching marker.  If `trace` is a
    list, one record (op, |results|, |cpStack|, |trStack|) is appended per
    transition and per untrailed delta, after it, with the sizes it left.
    """
    def run(t, xs, cp, tr, s):
        while True:
            if isinstance(t, Leaf):
                xs.append(t.value)
                step, t = "ret", None
            elif t.idx == 0:
                op = t.op
                if isinstance(op, MGet):
                    step, t = "mget", op.k(s)
                elif isinstance(op, MUpdate):
                    tr.append(op.r)
                    step, s, t = "update", undo.plus(s, op.r), op.k
                elif isinstance(op, MRestore):
                    step, s, t = "restore", undo.minus(s, op.r), op.k
                else:
                    raise ValueError("simulate_tf: non-modify operation %s at "
                                     "index 0" % type(op).__name__)
            elif t.idx == 1:
                op = t.op
                if isinstance(op, Fail):
                    step, t = "fail", None
                elif isinstance(op, Or):
                    cp.append(op.r)
                    tr.append(MARKER)
                    step, t = "or", op.l
                else:
                    raise ValueError("simulate_tf: non-nondet operation %s "
                                     "at index 1" % type(op).__name__)
            else:
                return _Deferred(t.idx - 2, t.op,
                                 lambda c, xs=xs, cp=cp, tr=tr, s=s:
                                 run(c, list(xs), list(cp), list(tr), s))
            if trace is not None:
                trace.append((step, len(xs), len(cp), len(tr)))
            # backtrack: pop a resumption and untrail back to its marker.
            # Each Or pushes its resumption and its MARKER together, and
            # untrailing pops back to that marker (forwarded resumptions copy
            # both lists), so the trail holds a marker for every resumption.
            if t is None:
                if not cp:
                    return Leaf(xs)
                t = cp.pop()
                while tr[-1] is not MARKER:
                    s = undo.minus(s, tr.pop())
                    if trace is not None:
                        trace.append(("untrail", len(xs), len(cp), len(tr)))
                tr.pop()  # the marker
    return run(t, [], [], [], s)
