"""Alternated parent/change pairs of one benchmark workload, appended to BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload spectral-refine \
        [--seeds 1 2 ...] [--base HEAD~1] [--change HEAD]

Each side is a tree exported with ``git archive`` into a temporary
directory, so both run only committed files, as a fresh checkout would.
The directories are named ``TREE_NAMES``, of equal length, so the two
sides' paths (which the interpreter holds in ``sys.path`` and every
module's ``__file__``) cost them the same memory.
There is one pair per seed (by default seeds 1 to 10).  Pair i runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` on both
sides with the same seed, T being BENCHMARK.json's ``run_seconds``, the
base side first when i is even and the change side first when it is odd.  The summary holds, for every
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
per-pair ratios change/base and the number of pairs the change won (ties
count for neither), and whether that is a gain by the rule of the
benchmark's README: at least nine tenths of the pairs won and the medians
apart by more than the base's interquartile distance.  BENCH_<workload>.json
is the trajectory of these summaries, a list to which each run appends its
record; a file that holds one bare record becomes the list's first entry.

Run it from anywhere inside the repository; it needs git and the Python
the benchmark runs on, and nothing outside the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: directory of each side's exported tree; the record keys stay ``base`` and ``change``
TREE_NAMES = {"base": "parent", "change": "change"}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` under ``dest``, by ``git archive``."""
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its verdict, metric values and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"run.py exited {proc.returncode} without a result:\n{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    env = next((json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("environment:")), {})
    return {
        "exit": proc.returncode,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "environment": env,
    }


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of the pairs' ``base`` and ``change`` runs.

    ``pairs`` holds one ``{"seed", "first", "base", "change"}`` record per
    pair, each side as ``run_once`` returns it; ``end_to_end`` is
    BENCHMARK.json's list of ``{"name", "better", "bound"}``.
    """
    out = {"metrics": {}}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        b, c = _spread(base), _spread(change)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(base, change))
        gap = (b["median"] - c["median"]) if lower else (c["median"] - b["median"])
        out["metrics"][name] = {
            "unit": spec.get("unit"),
            "better": spec["better"],
            "base": {**b, "runs": base},
            "change": {**c, "runs": change},
            "ratios": [y / x if x else None for x, y in zip(base, change)],
            "wins": wins,
            "gain_shown": wins >= 0.9 * len(pairs) and gap > b["q3"] - b["q1"],
            "within_bound": -gap <= spec["bound"] * abs(b["median"]),
        }
    for side in ("base", "change"):
        out[side] = {
            "all_correct": all(p[side]["correct"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
        }
    return out


def append_record(path: Path, record: dict) -> list[dict]:
    """Append ``record`` to the trajectory in ``path`` and return it; a missing
    file starts one, and a file holding one bare record is its first entry."""
    trajectory = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    if isinstance(trajectory, dict):
        trajectory = [trajectory]
    trajectory.append(record)
    path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return trajectory


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)), help="one pair per seed")
    ap.add_argument("--base", default="HEAD~1", help="the parent side's revision")
    ap.add_argument("--change", default="HEAD", help="the change side's revision")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, seeds = float(bench["run_seconds"]), args.seeds
    revs = {side: _git("rev-parse", rev).strip() for side, rev in (("base", args.base), ("change", args.change))}

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(rev, Path(tmp) / TREE_NAMES[side]) for side, rev in revs.items()}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
            pairs.append(pair)
            ops = {side: pair[side]["metrics"].get("ops_per_s") for side in ("base", "change")}
            print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): ops_per_s {ops}", flush=True)

    env = pairs[0]["change"]["environment"]
    record = {
        "workload": args.workload,
        "seconds": seconds,
        "commit": revs["change"],
        "parent": revs["base"],
        "nproc": env.get("nproc", os.cpu_count()),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "seeds": seeds,
        "first": [p["first"] for p in pairs],
        **summarize(pairs, bench["end_to_end"]),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    trajectory = append_record(path, record)
    print(f"appended record {len(trajectory)} to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
