"""tools/pairs.py: the summary of alternating benchmark pairs, on canned
run.py result lines (no benchmark runs here)."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "pairs.py")
METRICS = [("wall_s", "lower"), ("ok_ratio", "higher")]


def _tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stdout(wall, ok=1.0, correct=True):
    """run.py's output: report lines, then the JSON result line."""
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "ok_ratio": {"value": ok, "unit": "ratio"}}}
    return "perfbench fuzz: seed 11\n  wall_s %f s\n%s\n" % (
        wall, json.dumps(result))


def _pairs(tool, values):
    return [(tool.result_of(_stdout(*p)), tool.result_of(_stdout(*c)))
            for p, c in values]


def test_summary_of_canned_pairs():
    tool = _tool()
    pairs = _pairs(tool, [((2.4,), (2.0,)), ((2.5,), (2.1,)),
                          ((2.6,), (2.7,)), ((2.5,), (1.9,)),
                          ((2.45,), (2.05,))])
    wall, ok = tool.summarize(pairs, METRICS)
    # Inclusive quartiles: [2.45, 2.5, 2.5] and [2.0, 2.05, 2.1].
    assert wall["name"] == "wall_s"
    assert wall["parent"] == (2.45, 2.5, 2.5)
    assert [round(x, 9) for x in wall["change"]] == [2.0, 2.05, 2.1]
    assert wall["ratio"] == 2.05 / 2.5
    assert wall["wins"] == 4  # the 2.6 → 2.7 pair is lost
    assert wall["clear"]
    # ok_ratio is better higher; equal values win no pair.
    assert (ok["ratio"], ok["wins"], ok["clear"]) == (1.0, 0, False)
    lines = tool.report(pairs, [wall, ok])
    assert len(lines) == 3
    assert lines[1].split()[-2:] == ["4/5", "yes"]


def test_gap_within_the_parents_spread_is_not_clear():
    tool = _tool()
    pairs = _pairs(tool, [((1.0,), (0.95,)), ((2.0,), (1.9,)),
                          ((3.0,), (2.9,))])
    wall, ok = tool.summarize(pairs, METRICS)
    assert (wall["wins"], wall["clear"]) == (3, False)


def test_higher_is_better_counts_the_other_way():
    tool = _tool()
    pairs = _pairs(tool, [((1.0, 0.9), (1.0, 1.0)), ((1.0, 0.8), (1.0, 1.0))])
    _wall, ok = tool.summarize(pairs, METRICS)
    assert (ok["wins"], ok["clear"]) == (2, True)


def test_one_pair_and_incorrect_runs():
    tool = _tool()
    pairs = _pairs(tool, [((1.0,), (1.0, 0.9, False))])
    rows = tool.summarize(pairs, METRICS)
    assert rows[0]["parent"] == rows[0]["change"] == (1.0, 1.0, 1.0)
    assert rows[1]["wins"] == 0
    assert tool.report(pairs, rows)[-1] == "1 runs were not correct"


def test_metrics_are_the_benchmarks_end_to_end_metrics():
    metrics = dict(_tool().end_to_end_metrics())
    assert metrics["wall_s"] == "lower"
    assert metrics["ok_ratio"] == "higher"


def test_several_workloads_print_one_table_each(monkeypatch, capsys):
    tool = _tool()
    calls = []

    def run(checkout, workload, args):
        calls.append((workload, checkout))
        wall = {"chains": 0.3, "queens": 2.0}[workload]
        return tool.result_of(_stdout(wall * (0.8 if checkout == "c" else 1)))

    monkeypatch.setattr(tool, "run", run)
    monkeypatch.setattr(tool, "end_to_end_metrics", lambda: METRICS)
    tool.main(["p", "c", "--workload", "chains", "queens", "--pairs", "2",
               "--seconds", "1"])
    # Round by round, one pair of each workload, the parent first in even
    # rounds and the change first in odd ones.
    assert calls == [("chains", "p"), ("chains", "c"), ("queens", "p"),
                     ("queens", "c"), ("chains", "c"), ("chains", "p"),
                     ("queens", "c"), ("queens", "p")]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * (3 + len(METRICS))
    assert out[0] == "pairs chains: 2 pairs, parent p, change c"
    assert out[5] == "pairs queens: 2 pairs, parent p, change c"
    for head in (0, 5):
        wall = out[head + 2].split()
        assert wall[0] == "wall_s" and wall[-3:] == ["0.800", "2/2", "yes"]
        # Each table ends with the metrics over their bounds: none here.
        assert out[head + 4] == "over bound: none"


def test_metrics_worse_than_their_bound_are_named():
    tool = _tool()
    bounds = {"wall_s": 0.25, "ok_ratio": 0.01}
    # wall_s 2.0 -> 2.6 is 1.3x, over its bound of 0.25; ok_ratio 1.0 ->
    # 0.995 is within its bound of 0.01.
    pairs = _pairs(tool, [((2.0, 1.0), (2.6, 0.995)),
                          ((2.0, 1.0), (2.6, 0.995))])
    rows = tool.summarize(pairs, METRICS, bounds)
    assert [r["over"] for r in rows] == [True, False]
    assert tool.over_bounds(rows) == "over bound: wall_s"
    # ok_ratio 1.0 -> 0.98 is over its bound too; wall_s 2.0 -> 2.5 is
    # exactly 1.25x, which is not more than its bound.
    pairs = _pairs(tool, [((2.0, 1.0), (2.5, 0.98))])
    rows = tool.summarize(pairs, METRICS, bounds)
    assert tool.over_bounds(rows) == "over bound: ok_ratio"
    # Better medians, and metrics without a bound, are never over.
    pairs = _pairs(tool, [((2.0, 0.9), (1.0, 1.0))])
    assert tool.over_bounds(tool.summarize(pairs, METRICS, bounds)) \
        == "over bound: none"
    pairs = _pairs(tool, [((2.0, 1.0), (9.0, 0.0))])
    assert tool.over_bounds(tool.summarize(pairs, METRICS)) \
        == "over bound: none"


def test_bounds_are_the_benchmarks_end_to_end_bounds():
    tool = _tool()
    bounds = tool.end_to_end_bounds()
    assert set(bounds) == {name for name, _better in
                           tool.end_to_end_metrics()}
    assert bounds["wall_s"] == 0.25 and bounds["ok_ratio"] == 0.01
