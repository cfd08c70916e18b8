"""Workloads with planted faults, for the benchmark's self-tests.

A test starts worker.py with these added to its workloads; each fault must
show up as failed items in the result.
"""

import os
import signal

from workloads import Item

N4 = [[2, 4, 1, 3], [3, 1, 4, 2]]


def _right(label, pipeline):
    from effsim import queens as Q
    return Item(label, (pipeline,), lambda: Q.PIPELINES[pipeline](4),
                lambda output: output == N4)


def build_faults(seed):
    """A wrong reference and an exception between two right items."""
    from effsim import queens as Q
    return [
        _right("right", "local"),
        Item("wrong-reference", ("global",), lambda: Q.PIPELINES["global"](4),
             lambda output: output == [[1, 2, 3, 4]]),
        Item("raises", ("sim",), lambda: Q.run_pipeline("no-such", 4),
             lambda output: True),
        _right("after", "fusedF"),
    ]


def build_crash(seed):
    """The worker dies in the second of three items."""
    return [
        _right("right", "local"),
        Item("crash", ("sim",), lambda: os.kill(os.getpid(), signal.SIGSEGV),
             lambda output: True),
        _right("never", "fusedF"),
    ]


def build_trace_sensitive(seed):
    """An item whose output tells whether the tracer is installed."""
    from effsim import core as C
    return [Item("sees-tracer", (), lambda: hasattr(C.fold, "__wrapped__"),
                 lambda output: True)]


WORKLOADS = {
    "faults": build_faults,
    "crash": build_crash,
    "trace-sensitive": build_trace_sensitive,
}
