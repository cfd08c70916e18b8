"""Fused single-pass abstract machines.

simulate_f collapses the choicepoint-stack pipeline into one machine with a
results list and a choicepoint stack; simulate_tf additionally keeps a trail
(the WAM stack/trail discipline) that holds each applied delta as it is and
translations.MARKER at each choicepoint, told apart by identity.  Both run as
iterative loops over in-place stacks (Python lists, top at the end); the
only recursion is the forwarding of residual operations, whose children
resume the machine from copies of the stacks.
"""

from .core import (
    Leaf, Node, Get, Put, Fail, Or, MGet, MUpdate, MRestore,
)
from .handlers import INT_UNDO
from .translations import MARKER


def simulate_f(t, s, trace=None):
    """Fused choicepoint machine over [StateF(S),NondetF|rest]; equals simulate.

    Put pushes a state-restoring resumption; Fail and exhausted leaves
    continue from the choicepoint stack.  If `trace` is a list, one record
    (op, |results|, |cpStack|) is appended per machine transition.
    """
    def run(t, xs, stack, s):
        while True:
            if isinstance(t, Leaf):
                if trace is not None:
                    trace.append(("ret", len(xs) + 1, len(stack)))
                xs.append(t.value)
                t = None
            elif t.idx == 0:
                op = t.op
                if isinstance(op, Get):
                    if trace is not None:
                        trace.append(("get", len(xs), len(stack)))
                    t = op.k(s)
                    continue
                if isinstance(op, Put):
                    if trace is not None:
                        trace.append(("put", len(xs), len(stack) + 1))
                    stack.append(("restore", s))
                    s = op.s
                    t = op.k
                    continue
                raise ValueError("simulate_f: non-state operation %s at "
                                 "index 0" % type(op).__name__)
            elif t.idx == 1:
                op = t.op
                if isinstance(op, Fail):
                    if trace is not None:
                        trace.append(("fail", len(xs), len(stack)))
                    t = None
                elif isinstance(op, Or):
                    if trace is not None:
                        trace.append(("or", len(xs), len(stack) + 1))
                    stack.append(("branch", op.r))
                    t = op.l
                    continue
                else:
                    raise ValueError("simulate_f: non-nondet operation %s at "
                                     "index 1" % type(op).__name__)
            else:
                return Node(t.idx - 2,
                            t.op.map_children(
                                lambda c, xs=xs, stack=stack, s=s:
                                run(c, list(xs), list(stack), s)))
            # continue: pop the choicepoint stack
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
    transition.
    """
    def run(t, xs, cp, tr, s):
        while True:
            if isinstance(t, Leaf):
                if trace is not None:
                    trace.append(("ret", len(xs) + 1, len(cp), len(tr)))
                xs.append(t.value)
                t = None
            elif t.idx == 0:
                op = t.op
                if isinstance(op, MGet):
                    if trace is not None:
                        trace.append(("mget", len(xs), len(cp), len(tr)))
                    t = op.k(s)
                    continue
                if isinstance(op, MUpdate):
                    if trace is not None:
                        trace.append(("update", len(xs), len(cp), len(tr) + 1))
                    tr.append(op.r)
                    s = undo.plus(s, op.r)
                    t = op.k
                    continue
                if isinstance(op, MRestore):
                    if trace is not None:
                        trace.append(("restore", len(xs), len(cp), len(tr)))
                    s = undo.minus(s, op.r)
                    t = op.k
                    continue
                raise ValueError("simulate_tf: non-modify operation %s at "
                                 "index 0" % type(op).__name__)
            elif t.idx == 1:
                op = t.op
                if isinstance(op, Fail):
                    if trace is not None:
                        trace.append(("fail", len(xs), len(cp), len(tr)))
                    t = None
                elif isinstance(op, Or):
                    if trace is not None:
                        trace.append(("or", len(xs), len(cp) + 1, len(tr) + 1))
                    cp.append(op.r)
                    tr.append(MARKER)
                    t = op.l
                    continue
                else:
                    raise ValueError("simulate_tf: non-nondet operation %s "
                                     "at index 1" % type(op).__name__)
            else:
                return Node(t.idx - 2,
                            t.op.map_children(
                                lambda c, xs=xs, cp=cp, tr=tr, s=s:
                                run(c, list(xs), list(cp), list(tr), s)))
            # continue: pop a resumption and untrail back to its marker
            if t is None:
                if not cp:
                    return Leaf(xs)
                t = cp.pop()
                while tr and tr[-1] is not MARKER:
                    if trace is not None:
                        trace.append(("untrail", len(xs), len(cp),
                                      len(tr) - 1))
                    s = undo.minus(s, tr.pop())
                if tr:
                    tr.pop()  # the marker
    return run(t, [], [], [], s)
