"""tools/scaling.py: its shape table and its printer, at a tiny n.  No
timing is asserted."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "scaling.py")


def _tool():
    spec = importlib.util.spec_from_file_location("scaling", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_table_holds_every_shape_with_its_rungs():
    tool = _tool()
    assert len(tool.SHAPES) == 16
    for shape, (_build, rungs, forwarded) in tool.SHAPES.items():
        assert rungs in (tool.STATE, tool.MODIFY, tool.BOTH), shape
        assert forwarded == (shape == "forwarded")
    assert set(tool.BOTH) == set(tool.STATE) | set(tool.MODIFY)


def test_every_rung_of_a_shape_gives_the_same_answer():
    tool = _tool()

    def answer(shape, rung, n):
        return tool.run_cell(shape, rung, tool.SHAPES[shape][0](n))

    for shape, (_build, rungs, _forwarded) in tool.SHAPES.items():
        answers = [repr(answer(shape, rung, 5)) for rung in rungs]
        assert len(set(answers)) == 1, (shape, answers)
    assert answer("put-chain", "local", 5) == [5]
    assert answer("choose-bind-update", "fusedTF", 5) == [1, 2, 3, 4, 5]
    assert answer("left-or", "sim", 3) == [0, 1, 2, 3]
    assert answer("fail-ret-spine", "globalT", 5) == [2, 4]
    assert answer("forwarded", "fusedF", 3) == ([0, 1, 2, 3], 3)


def test_sweep_times_each_cell_at_n_and_4n():
    tool = _tool()
    rows = tool.sweep(2, 1)
    assert [row[:2] for row in rows] == [
        (shape, rung) for shape, (_b, rungs, _f) in tool.SHAPES.items()
        for rung in rungs]
    for _shape, _rung, small, large, _ratio in rows:
        assert small >= 0 and large >= 0
    lines = tool.report(rows, 2)
    assert lines[0].split() == ["shape", "rung", "n=2", "4n=8", "ratio"]
    assert len(lines) == len(rows) + 2
    assert lines[-1].startswith("above 8: ")


def test_report_flags_each_ratio_above_8():
    tool = _tool()
    rows = [("put-chain", "local", 0.01, 0.04, 4.0),
            ("forwarded", "fusedF", 0.01, 0.16, 16.0)]
    lines = tool.report(rows, 10)
    assert lines[1].endswith(" 4.00")
    assert lines[2].endswith(" 16.00 !")
    assert lines[-1] == "above 8: forwarded/fusedF"
    assert tool.report(rows[:1], 10)[-1] == "above 8: none"


def test_main_prints_every_cell(capsys):
    tool = _tool()
    tool.N, tool.K = 1, 1
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["shape", "rung", "n=1", "4n=4", "ratio"]
    assert [line.split()[:2] for line in lines[1:-1]] == [
        [shape, rung] for shape, (_b, rungs, _f) in tool.SHAPES.items()
        for rung in rungs]
