"""The traced run: per-layer counts and self times, taken from outside effsim.

No effsim module is edited.  ``Tracer.install`` replaces each public function
of the six layers (the modules core, handlers, translations, machines,
queens and difftest) by a wrapper, in every effsim module namespace that
holds it, since ``from .core import fold`` copies the binding.  ``uninstall``
puts the originals back.

Time is charged to the innermost wrapped call on the stack: a layer's self
time is the time inside its wrapped calls minus the time inside wrapped
calls they make.  Code that is not a wrapped public function (a translation's
``alg``, a ``Get`` continuation, a queens closure) is charged to whichever
wrapped call runs it, which for lazily composed continuations is usually a
handler or a machine.  Wall clock around a translation call alone reads
about zero, because its work runs inside the last handler.

Core's functions (``fold``, ``bind``, ``seq``, the smart constructors) are
called millions of times a pass, so they are counted on every call but open
a frame only when called from another layer.  ``Node`` constructions and
``Get``/``MGet`` compositions are counted without frames.  Frames down to
item -> pipeline -> entry are kept as spans with parent ids and written out
when the run ends; deeper frames only add to the totals.

Known blind spot: a name captured when a function is defined, such as a
default argument (``difftest._theorem_sides(local2global_impl=local2global)``),
keeps the original function and bypasses the wrappers.  ``install`` lists
every such capture it finds in ``blind_spots``; it does not patch around
them.
"""

import collections
import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "handlers", "translations", "machines", "queens",
          "difftest")
HARNESS = "harness"
SPAN_DEPTH = 2  # item (0) -> pipeline (1) -> handler or translation entry (2)

FOLD_STAGES = ("bind", "swap", "rotate", "local2global", "nondet2state",
               "nondet2state_s", "states2state", "local2global_m",
               "local2trail")
HANDLERS = ("h_nd", "h_state", "h_modify", "h_ndf")
TRANSLATION_CALLS = ("put_r", "pop_s", "push_s", "append_s", "push_stack",
                     "pop_stack", "untrail")
MACHINE_OPS = ("ret", "get", "put", "fail", "or", "mget", "update",
               "restore", "untrail")
DIFFTEST_CALLS = ("gen_program", "lower", "oracle_eval")
REPORTS = ("check_theorem", "check_laws", "check_lemma", "check_mutation")


def metric_units():
    """Every per-layer metric of one traced pass, by name, with its unit."""
    units = {"core.fold.calls": "count"}
    for stage in FOLD_STAGES:
        units["core.fold.calls." + stage] = "count"
    units.update({"core.bind.calls": "count", "core.seq.calls": "count",
                  "core.node.calls": "count", "core.compose.calls": "count",
                  "core.self_s": "s"})
    for h in HANDLERS:
        units["handlers.%s.calls" % h] = "count"
        units["handlers.%s.self_s" % h] = "s"
    units["handlers.self_s"] = "s"
    for f in TRANSLATION_CALLS:
        units["translations.%s.calls" % f] = "count"
    units["translations.self_s"] = "s"
    units["machines.steps"] = "count"
    for op in MACHINE_OPS:
        units["machines.steps." + op] = "count"
    units.update({"machines.peak_cp_depth": "count",
                  "machines.peak_trail_depth": "count",
                  "machines.untrail_per_update": "ratio",
                  "machines.self_s": "s",
                  "queens.safe.calls": "count",
                  "queens.safe.pass_ratio": "ratio",
                  "queens.self_s": "s",
                  "difftest.trials": "count"})
    for f in DIFFTEST_CALLS:
        units["difftest.%s.calls" % f] = "count"
    units.update({"difftest.failures": "count", "difftest.self_s": "s"})
    return units


def fold_stage(qualname):
    """The stage of a fold is its alg's defining function; bind's alg is
    the Node constructor itself."""
    return "bind" if qualname == "Node" else qualname.split(".")[0]


_WRAPPER = """
def {name}({params}):
    _calls[_key] += 1
{pre}{hot}    _frame_ = _open(_layer, _key)
    try:
        _result_ = _fn({args})
    finally:
        _close(_frame_)
{post}    return _result_
"""

# Core calls made from core open no frame.
_HOT = """    if _stack[-1][0] == _layer:
        return _fn({args})
"""


def _signature(fn):
    """A parameter list and forwarding arguments that repeat fn's signature,
    so that the wrapper calls fn with a plain call, which CPython runs
    without growing the C stack; None if fn takes *args or **kwargs."""
    params, args, defaults = [], [], {}
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if p.kind is not p.POSITIONAL_OR_KEYWORD:
            return None
        if p.default is p.empty:
            params.append(p.name)
        else:
            defaults["_d%d" % i] = p.default
            params.append("%s=_d%d" % (p.name, i))
        args.append(p.name)
    return ", ".join(params), ", ".join(args), defaults


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # A frame is [layer, key, time in child frames, span id, parent
        # span id, start]; the root frame stands for the harness.
        self.stack = [[HARNESS, "harness.root", 0.0, None, None, 0.0]]
        self.spans = []
        self.blind_spots = []
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.fold_algs = collections.Counter()
        self.counts = collections.Counter()
        self._undo = []

    def reset(self):
        """Start the counts of a new pass; spans are kept."""
        for c in (self.calls, self.self_s, self.fold_algs, self.counts):
            c.clear()

    # -- frames ------------------------------------------------------------

    def _open(self, layer, key):
        stack = self.stack
        span = parent = None
        if len(stack) - 1 <= SPAN_DEPTH:
            span, parent = len(self.spans), stack[-1][3]
            self.spans.append(None)
        frame = [layer, key, 0.0, span, parent, self.clock()]
        stack.append(frame)
        return frame

    def _close(self, frame):
        end = self.clock()
        duration = end - frame[5]
        self.stack.pop()
        self.self_s[frame[1]] += duration - frame[2]
        self.stack[-1][2] += duration
        if frame[3] is not None:
            self.spans[frame[3]] = {"id": frame[3], "parent": frame[4],
                                    "layer": frame[0], "name": frame[1],
                                    "start": frame[5], "end": end}

    @contextlib.contextmanager
    def span(self, name):
        """A harness span around benchmark code, such as one item."""
        frame = self._open(HARNESS, name)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, pre="", post=""):
        sig = _signature(fn)
        if sig is None:
            params = args = "*args, **kwargs"
            defaults = {}
        else:
            params, args, defaults = sig
        src = _WRAPPER.format(
            name=fn.__name__, params=params, args=args, pre=pre, post=post,
            hot=_HOT.format(args=args) if layer == "core" else "")
        ns = dict(defaults, _calls=self.calls, _key=layer + "." + fn.__name__,
                  _layer=layer, _fn=fn, _open=self._open, _close=self._close,
                  _stack=self.stack, _algs=self.fold_algs,
                  _counts=self.counts, _report=self._report)
        exec(src, ns)
        return functools.update_wrapper(ns[fn.__name__], fn)

    def _wrapper_for(self, layer, fn):
        name = fn.__name__
        if layer == "core" and name == "fold":
            alg = list(inspect.signature(fn).parameters)[1]
            return self._wrap(fn, layer, pre=(
                "    _algs[getattr(%s, '__qualname__', '?')] += 1\n" % alg))
        if layer == "machines" and name in ("simulate_f", "simulate_tf"):
            return self._wrap_machine(fn)
        if layer == "queens" and name == "safe":
            return self._wrap(fn, layer, post=(
                "    if _result_:\n"
                "        _counts['queens.safe.passed'] += 1\n"))
        if layer == "difftest" and name in REPORTS:
            return self._wrap(fn, layer, post="    _report(_key, _result_)\n")
        return self._wrap(fn, layer)

    def _wrap_machine(self, fn):
        """Run the machine with the public trace= argument and count its
        step records."""
        key = "machines." + fn.__name__
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            bound = sig.bind(*args, **kwargs)
            steps = bound.arguments.get("trace")
            if steps is None:
                steps = bound.arguments["trace"] = []
            first = len(steps)
            frame = self._open("machines", key)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._close(frame)
                self._machine_steps(steps[first:])
        return wrapper

    def _machine_steps(self, records):
        counts = self.counts
        for rec in records:
            counts["machines.steps." + rec[0]] += 1
            if rec[2] > counts["machines.peak_cp_depth"]:
                counts["machines.peak_cp_depth"] = rec[2]
            if len(rec) > 3 and rec[3] > counts["machines.peak_trail_depth"]:
                counts["machines.peak_trail_depth"] = rec[3]
        counts["machines.steps"] += len(records)

    def _report(self, key, report):
        counts = self.counts
        if key == "difftest.check_mutation":
            # A mutation check stops at the first trial that exposes it.
            counts["difftest.trials"] += report.get(
                "firstFailingTrial", report["trials"] - 1) + 1
        else:
            counts["difftest.trials"] += report["trials"]
            counts["difftest.failures"] += len(report["failures"])

    def _counting_class(self, cls, key):
        """A subclass of cls that counts its constructions, and passes for
        cls by name, so that bind's alg still reads as Node."""
        counts, init = self.counts, cls.__init__

        def __init__(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)
        return type(cls.__name__, (cls,), {
            "__slots__": (), "__init__": __init__,
            "__qualname__": cls.__qualname__, "__module__": cls.__module__})

    def _counting_method(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def method(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return method

    # -- install -----------------------------------------------------------

    def _patch(self, target, name, value):
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def install(self):
        """Wrap every public function of the layers, in every effsim module
        namespace that holds it."""
        mods = [m for n, m in sys.modules.items()
                if n == "effsim" or n.startswith("effsim.")]
        replace = {}  # id(original) -> (original, replacement)
        for layer in LAYERS:
            mod = sys.modules.get("effsim." + layer)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self._wrapper_for(layer, obj))
        core = sys.modules["effsim.core"]
        replace[id(core.Node)] = (core.Node,
                                  self._counting_class(core.Node, "core.node"))
        for cls in (core.Get, core.MGet):
            self._patch(cls, "map_children", self._counting_method(
                vars(cls)["map_children"], "core.compose"))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patch(mod, name, replace[id(obj)][1])
        self.blind_spots = _captures(mods, replace)

    def uninstall(self):
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of the pass since the last reset."""
        calls, counts, self_s = self.calls, self.counts, self.self_s
        layer_s = collections.Counter()
        for key, seconds in self_s.items():
            layer_s[key.split(".")[0]] += seconds
        stages = collections.Counter()
        for qualname, n in self.fold_algs.items():
            stages[fold_stage(qualname)] += n
        m = {"core.fold.calls": calls["core.fold"],
             "core.bind.calls": calls["core.bind"],
             "core.seq.calls": calls["core.seq"],
             "core.node.calls": counts["core.node"],
             "core.compose.calls": counts["core.compose"]}
        for stage in FOLD_STAGES:
            m["core.fold.calls." + stage] = stages[stage]
        for h in HANDLERS:
            m["handlers.%s.calls" % h] = calls["handlers." + h]
            m["handlers.%s.self_s" % h] = self_s["handlers." + h]
        for f in TRANSLATION_CALLS:
            m["translations.%s.calls" % f] = calls["translations." + f]
        for op in MACHINE_OPS:
            m["machines.steps." + op] = counts["machines.steps." + op]
        for name in ("machines.steps", "machines.peak_cp_depth",
                     "machines.peak_trail_depth", "difftest.trials",
                     "difftest.failures"):
            m[name] = counts[name]
        updates = counts["machines.steps.update"]
        m["machines.untrail_per_update"] = (
            counts["machines.steps.untrail"] / updates if updates else 0.0)
        safe = calls["queens.safe"]
        m["queens.safe.calls"] = safe
        m["queens.safe.pass_ratio"] = (
            counts["queens.safe.passed"] / safe if safe else 0.0)
        for f in DIFFTEST_CALLS:
            m["difftest.%s.calls" % f] = calls["difftest." + f]
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_s[layer]
        return {name: m[name] for name in metric_units()}

    def write_spans(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _captures(mods, replace):
    """Where an effsim module holds an original function other than as a
    module attribute: as a default argument, or as an attribute of a
    module-level object.  Calls through these bypass the wrappers."""
    found = set()
    for mod in mods:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                if obj.__module__ != mod.__name__:
                    continue
                held = [(p, v.default) for p, v in
                        inspect.signature(obj).parameters.items()]
                where = "%s.%s(%s=%s)"
            elif (hasattr(obj, "__dict__") and not inspect.ismodule(obj)
                  and not inspect.isclass(obj)):
                held = list(vars(obj).items())
                where = "%s.%s.%s=%s"
            else:
                continue
            for attr, value in held:
                if id(value) in replace and replace[id(value)][0] is value:
                    found.add(where % (mod.__name__, name, attr,
                                       value.__name__))
    return sorted(found)
