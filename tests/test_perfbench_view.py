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



def test_tracer_counts_difftest_calls():
    # A dispatch table that held a core constructor or a handler would keep
    # the original function, which the blind-spot check cannot see: its
    # calls would drop out of the counts below.
    from effsim import difftest as D
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        D.check_theorem("T-statesstate", 3, 42)
        D.check_laws("modify", 3, 42)
        program = D.gen_program(5, 4, ("state", "nondet"))
        D.oracle_eval(program, 0, "local")
        D.oracle_eval(program, 0, "global")
        suites = dict(tracer.calls)
        # Each program form lowered alone, since the law suites also call
        # core constructors directly and would hide a capture in lower.
        ret = ("ret", ("const", 1))
        lowered = {}
        for key, form, layout in (
                ("core.get", ("get", "v", ret), D.SN),
                ("core.mget", ("mget", "v", ret), D.MN),
                ("core.put", ("put", ("const", 1), ret), D.SN),
                ("core.update", ("update", ("const", 1), ret), D.MN),
                ("core.bind", ("seq", ret, ret), D.SN)):
            before = tracer.calls[key]
            D.lower(form, layout)
            lowered[key] = tracer.calls[key] > before
    finally:
        tracer.uninstall()
    for key in ("difftest.gen_program", "difftest.lower", "core.get",
                "core.mget", "core.put", "core.update", "core.bind"):
        assert suites.get(key, 0) > 0, key
    assert suites["difftest.oracle_eval"] == 2
    assert all(lowered.values()), lowered


def test_tracer_counts_stack_calls():
    # The cons-cell stacks are pushed and popped only inside the
    # translations' own functions, so each keeps its own count.
    from effsim import handlers as H, translations as T
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.blind_spots == []
        # simulate and simulate_t build their stacks in one fused fold, so
        # the staged translations are reached through run_ndf and
        # h_global_t.
        t = core.choose([1, 2, 3], at=0)
        assert H.h_nil(T.run_ndf(t)) == [1, 2, 3]
        branches = core.or_(core.update(1, 0, core.mget(core.ret)),
                            core.mget(core.ret))
        assert H.h_nil(H.h_global_t(branches, 0)) == [1, 0]
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    for f in ("push_s", "append_s", "pop_s", "push_stack", "untrail"):
        assert calls.get("translations." + f, 0) > 0, f


def test_tracer_counts_restored_and_mutation_rows():
    # The restored-lemma and mutation rows look their translations and
    # handlers up when called, so the tracer's wrappers see those calls.
    from effsim import difftest as D
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.blind_spots == []
        D.check_lemma("state-restored", 3, 42)
        D.check_lemma("modify-restored", 3, 42)
        D.check_mutation("skip-putR", 20, 42)
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    for key in ("translations.local2global", "translations.local2global_m",
                "handlers.h_global"):
        assert calls.get(key, 0) > 0, key


def test_tracer_counts_each_folded_node():
    # Each fold call the tracer counts is one node visited, so a fold whose
    # recursion stops passing through the module-level name core.fold
    # changes these counts.
    from effsim import handlers as H, translations as T
    puts = core.put(1, 0, core.put(2, 0, core.put(3, 0, core.get(core.ret))))
    updates = core.update(1, 0, core.update(2, 0, core.update(
        3, 0, core.mget(core.ret))))
    chain = core.get(core.ret)
    for v in range(100, 0, -1):
        chain = core.put(v, 0, chain)
    # One fused fold per simulation visits each input node at most once,
    # and folds only the first node of a run: the Or step walks the or
    # chain's ret and fail arms and folds its final fail, and a run of puts
    # or updates folds its first node and the get that follows it, whose
    # leaf is folded too.  "Node" is the tree_map that extracts the results.
    cases = (
        (T.simulate, core.choose([1, 2, 3]), [1, 2, 3],
         {"_sim_alg": 2, "Node": 1}),
        (T.simulate_t, core.choose([1, 2, 3]), [1, 2, 3],
         {"_sim_t_alg": 2, "Node": 1}),
        (T.simulate, puts, [3], {"_sim_alg": 3, "Node": 1}),
        (T.simulate_t, updates, [6], {"_sim_t_alg": 3, "Node": 1}))
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        for run, t, expected, folds in cases:
            tracer.reset()
            assert H.h_nil(run(t, 0)) == expected
            assert dict(tracer.fold_algs) == folds, run.__name__
        tracer.reset()
        assert H.h_nil(T.simulate(chain, 0)) == [100]
        nodes = tracer.counts["core.node"]
    finally:
        tracer.uninstall()
    # The fused fold builds 5 nodes here, one put for the whole run of 100
    # (503 when it took one put at a time), and the three staged folds
    # built 2109 (2110 in a pass that built the shared pop_s tree); the
    # bound stays at the staged count.
    assert nodes <= 2110, nodes
