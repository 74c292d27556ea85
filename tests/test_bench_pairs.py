from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _side(ops: float, setup: float, failed: int = 0) -> dict:
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": ops, "setup_s": setup}}


def _pairs(base_ops, change_ops, base_setup, change_setup) -> list[dict]:
    return [
        {"seed": i + 1, "first": "base" if i % 2 == 0 else "change",
         "base": _side(bo, bs), "change": _side(co, cs)}
        for i, (bo, co, bs, cs) in enumerate(zip(base_ops, change_ops, base_setup, change_setup))
    ]


def test_summary_of_a_clear_gain() -> None:
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    change = [130.0, 128.0, 131.0, 99.0, 133.0, 129.0, 130.0, 127.0, 132.0, 130.0]
    setup = [0.2] * 10
    out = bench_pairs.summarize(_pairs(base, change, setup, [0.21] * 10), END_TO_END)
    ops = out["metrics"]["ops_per_s"]
    assert ops["base"]["median"] == 100.0 and ops["change"]["median"] == 130.0
    assert ops["base"]["q1"] == pytest.approx(99.25) and ops["base"]["q3"] == pytest.approx(100.75)
    assert ops["ratios"][0] == pytest.approx(1.3) and len(ops["ratios"]) == 10
    # the fourth pair is a loss: 9 of 10 won still shows the gain
    assert ops["wins"] == 9 and ops["gain_shown"] and ops["within_bound"]
    setup_s = out["metrics"]["setup_s"]
    # 5% slower set-up: no win, no gain, within the 25% bound
    assert setup_s["wins"] == 0 and not setup_s["gain_shown"] and setup_s["within_bound"]
    assert out["base"] == {"all_correct": True, "attempted": 1000, "failed": 0}


def test_summary_refuses_a_gain_inside_the_base_spread_and_flags_a_regression() -> None:
    base = [100.0, 80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0]
    change = [b + 1.0 for b in base]
    out = bench_pairs.summarize(_pairs(base, change, [0.2] * 10, [0.3] * 10), END_TO_END)
    ops = out["metrics"]["ops_per_s"]
    # every pair won, but the medians are 1 apart against a base IQR of about 20
    assert ops["wins"] == 10 and not ops["gain_shown"]
    assert not out["metrics"]["setup_s"]["within_bound"]  # 0.3 against 0.2 is 50% worse


def test_summary_counts_ties_for_neither_side() -> None:
    out = bench_pairs.summarize(_pairs([5.0], [5.0], [1.0], [1.0]), END_TO_END)
    ops = out["metrics"]["ops_per_s"]
    assert ops["wins"] == 0 and ops["base"] == {"median": 5.0, "q1": 5.0, "q3": 5.0, "runs": [5.0]}


def test_each_run_appends_its_record_to_the_trajectory(tmp_path: Path) -> None:
    path = tmp_path / "BENCH_w.json"
    assert bench_pairs.append_record(path, {"commit": "a"}) == [{"commit": "a"}]
    bench_pairs.append_record(path, {"commit": "b"})
    assert json.loads(path.read_text()) == [{"commit": "a"}, {"commit": "b"}]


def test_a_file_of_one_record_becomes_the_first_entry(tmp_path: Path) -> None:
    path = tmp_path / "BENCH_w.json"
    path.write_text(json.dumps({"commit": "a"}))
    bench_pairs.append_record(path, {"commit": "b"})
    assert json.loads(path.read_text()) == [{"commit": "a"}, {"commit": "b"}]


def test_the_two_trees_are_exported_under_names_of_equal_length() -> None:
    names = bench_pairs.TREE_NAMES
    assert set(names) == {"base", "change"}
    assert len(names["base"]) == len(names["change"]) and names["base"] != names["change"]
