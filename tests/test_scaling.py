"""tools/scaling.py: its shape table and its printer, at a tiny n.  No
timing is asserted."""

from child import load_tool


def test_the_table_holds_every_shape_with_its_rungs():
    tool = load_tool("scaling")
    assert len(tool.SHAPES) == 21
    for shape, (_build, rungs, forwarded, _answer) in tool.SHAPES.items():
        assert rungs in (tool.STATE, tool.MODIFY, tool.BOTH), shape
        assert forwarded == shape.startswith("forwarded")
    assert set(tool.BOTH) == set(tool.STATE) | set(tool.MODIFY)


def test_every_rung_of_a_shape_gives_the_same_answer():
    # Each rung's answer at n = 5 is the shape's closed form, which the
    # long-input rows read at their own sizes.
    tool = load_tool("scaling")
    for shape, (build, rungs, _forwarded, answer) in tool.SHAPES.items():
        for rung in rungs:
            assert tool.run_cell(shape, rung, build(5)) == answer(5), \
                (shape, rung)


def test_sweep_times_each_cell_at_n_and_4n():
    tool = load_tool("scaling")
    rows = tool.sweep(2, 1)
    assert [row[:2] for row in rows] == [
        (shape, rung) for shape, (_b, rungs, _f, _a) in tool.SHAPES.items()
        for rung in rungs]
    for _shape, _rung, small, large, _ratio in rows:
        assert small >= 0 and large >= 0
    lines = tool.report(rows, 2)
    assert lines[0].split() == ["shape", "rung", "n=2", "4n=8", "ratio"]
    assert len(lines) == len(rows) + 2
    assert lines[-1].startswith("above 8: ")


def test_report_flags_each_ratio_above_8():
    tool = load_tool("scaling")
    rows = [("put-chain", "local", 0.01, 0.04, 4.0),
            ("forwarded", "fusedF", 0.01, 0.16, 16.0)]
    lines = tool.report(rows, 10)
    assert lines[1].endswith(" 4.00")
    assert lines[2].endswith(" 16.00 !")
    assert lines[-1] == "above 8: forwarded/fusedF"
    assert tool.report(rows[:1], 10)[-1] == "above 8: none"


def test_main_prints_every_cell(capsys):
    tool = load_tool("scaling")
    tool.N, tool.K = 1, 1
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["shape", "rung", "n=1", "4n=4", "ratio"]
    assert [line.split()[:2] for line in lines[1:-1]] == [
        [shape, rung] for shape, (_b, rungs, _f, _a) in tool.SHAPES.items()
        for rung in rungs]
