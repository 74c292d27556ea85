from __future__ import annotations

import importlib.util
import re
from pathlib import Path

PATH = Path(__file__).parents[1] / "tools" / "verdict_sweep.py"
SPEC = importlib.util.spec_from_file_location("verdict_sweep", PATH)
verdict_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(verdict_sweep)


def test_sweep_reports_each_span_on_two_cells(capsys) -> None:
    assert verdict_sweep.main(["--cells", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summaries = [line for line in lines if line.startswith("span")]
    assert [line.split(":")[0] for line in summaries] == [f"span 10^+-{s}" for s in (1, 3, 5, 8)]
    # every cell that does not exit 0 is listed under its span's summary
    failing = sum(int(m[1]) + int(m[2]) for m in (re.match(r"span \S+: (\d+) of 2 exit 1, (\d+) exit 3", s) for s in summaries))
    assert len(lines) - len(summaries) == failing
    assert all(re.fullmatch(r"  [0-9a-f]{12} exit [13]: \S.*", line) for line in lines if not line.startswith("span"))
    # the weakest contrast passes every check
    assert summaries[0] == "span 10^+-1: 0 of 2 exit 1, 0 exit 3"
