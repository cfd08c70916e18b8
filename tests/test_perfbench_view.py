"""The benchmark's view of the package: the names it calls and the tracer's
wrappers, loaded from perfbench/ without importing it as a package."""

import importlib.util
import os

import effsim.cli  # noqa: F401  (the tracer must see every effsim module)
from effsim import core

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_every_call_and_workloads_run():
    tracer = _load("tracer").Tracer()
    workloads = _load("workloads")
    tracer.install()
    try:
        # A function the tracer cannot wrap, such as one held as a default
        # argument, silently drops out of the traced run's counts.
        assert tracer.blind_spots == []
        for name, run in workloads.pipeline_runners().items():
            t = core.choose([1, 2, 3], at=0 if name == "naive" else 1)
            assert run(t, 0) == [1, 2, 3], name
        assert tracer.calls["handlers.h_nd"] > 0
    finally:
        tracer.uninstall()
