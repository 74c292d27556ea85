"""willis-homog benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload {presets,exact-map,spectral-refine} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics.  Lines before it repeat the metrics in words, with
sample counts and the environment.  The exit code is 0 when every
correctness gate passed, 1 when one failed and 2 when the benchmark could
not run.  Run records and spans go to ``.bench_out/``.

This process only orchestrates: every call into the package runs in a
child interpreter, so the children's set-up can be timed from spawn and
their peak memory read.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (stdlib-only; safe to import without the package)

WORKLOADS = ("presets", "exact-map", "spectral-refine")

#: presets jobs and the sha256 of the CSV each writes at the seed commit;
#: preset CSVs must stay byte-identical
PRESET_JOBS = (
    ("coeffs", "fig2", {"coeffs.csv": "fc7f3bc174d6e83e2b2aa97143520cf4057e93cc4846a366e3f7017fe005bc49"}),
    ("dispersion", "fig2", {"dispersion.csv": "971f06d97d45bc2e54045e3a75c40c427e8419091b191e28bb735965b5a8f2a4"}),
    ("modulation-map", "fig3", {"modulation.csv": "c0c90ad80f284eade69a7e190517c9d6441205d481efc77c16f6f14cf5596963"}),
    ("impedance-map", "fig4", {"impedance.csv": "707b441564a4e2ec9e996ab0c00ddda355ca8e46717503ec633d9b3ad9a57ba7"}),
    ("verify", "fig2", {}),
)

#: an in-process workload runs as this many worker processes in turn,
#: each set up anew and then timing an equal share of the run, so that
#: the set-ups whose median is setup_s spread over the whole run
WORKER_SEGMENTS = 5

#: exit code of a documented numerical error; counts as a failed operation
EXIT_NUMERICAL = 3

#: BLAS and OpenMP threads of every child, unless the caller sets them.
#: With the default (one thread per core) each small LAPACK call in
#: ``verify`` waits on a helper thread that spins for the same cores; when
#: another process or a neighbouring tenant takes a core, ``verify`` ran
#: 4 to 12 times slower, so the runs measured the scheduler.  With one
#: thread it is no slower on an idle 2-core machine and slows only in
#: proportion to the core share it loses (see README.md, Threads).
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    return {**CHILD_THREADS, **os.environ}


class WrongAnswer(Exception):
    """A correctness gate failed."""


# ---------------------------------------------------------------------------
# children


def _child(argv: list[str], timeout: float) -> dict:
    """Run a child interpreter to completion and parse its last stdout line."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, *argv, "--t0", repr(t0)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WrongAnswer(
            f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def check_preset_outputs(command: str, out_dir: Path, expected: dict[str, str]) -> None:
    """Gate: every CSV the command writes matches the seed commit's bytes."""
    for name, digest in expected.items():
        path = out_dir / name
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
        if got != digest:
            raise WrongAnswer(f"{command}: {name} sha256 {got} != {digest}")


def _preset_job(command: str, preset: str, expected: dict, spans: Path | None) -> dict:
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="presets-", dir=OUT))
    try:
        argv = [str(HERE / "cli_job.py"), "--command", command, "--preset", preset, "--out", str(out_dir)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        rec = _child(argv, timeout=120)
        if rec["exit"] == 0:
            check_preset_outputs(command, out_dir, expected)
        elif rec["exit"] != EXIT_NUMERICAL:
            raise WrongAnswer(f"{command} --preset {preset} exited {rec['exit']}")
        rec["failed"] = int(rec["exit"] == EXIT_NUMERICAL)
        return rec
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def best_per_job(keys: list, times: list[float], ops: list[int]) -> tuple[list[float], int]:
    """(best time of each distinct job, operations over the distinct jobs).

    A job that repeats does the same work each time, so its spread over a
    run is the machine's: other tenants and processes taking cores for
    seconds at a time.  Its best time is what the program costs.  A job
    that ever failed counts the operations of its worst repeat.
    """
    best: dict = {}
    for key, t, n in zip(keys, times, ops):
        t0, n0 = best.get(key, (t, n))
        best[key] = (min(t0, t), min(n0, n))
    return [t for t, _ in best.values()], sum(n for _, n in best.values())


def run_presets(seed: int, seconds: float, trace: bool, jobs=PRESET_JOBS) -> dict:
    """Rounds of the preset commands in seeded order, each in a fresh child.

    Untraced runs keep starting rounds until ``seconds`` have passed.  A
    command's inputs never change and no cache outlives its child, so its
    time varies only with how much of the machine it got: a job's time is
    the command's best time in the run (see ``best_per_job``).  The
    traced run does one round, running each command once plain and once
    traced for the overhead ratio.
    """
    rng = random.Random(seed)
    res = {"setup": [], "round_s": [], "attempted": 0, "failed": 0,
           "rss_kb": [], "per_command": {c: [] for c, _, _ in jobs}}
    keys, times, ops = [], [], []
    summaries, plain_s, traced_s, written = [], 0.0, 0.0, 0
    start = time.perf_counter()
    while not res["round_s"] or (not trace and time.perf_counter() - start < seconds):
        round_s = 0.0
        for command, preset, expected in rng.sample(jobs, len(jobs)):
            rec = _preset_job(command, preset, expected, None)
            res["setup"].append(rec["setup_s"])
            res["rss_kb"].append(rec["rss_kb"])
            res["per_command"][command].append(rec["job_s"])
            res["attempted"] += 1
            res["failed"] += rec["failed"]
            keys.append(command)
            times.append(rec["job_s"])
            ops.append(1 - rec["failed"])
            round_s += rec["job_s"]
            if trace:
                spans = OUT / "spans" / f"presets-seed{seed}-{command}.json"
                spans.parent.mkdir(parents=True, exist_ok=True)
                t_rec = _preset_job(command, preset, expected, spans)
                summaries.append(t_rec["summary"])
                plain_s += rec["job_s"]
                traced_s += t_rec["job_s"]
                written += t_rec["bytes"]
        res["round_s"].append(round_s)
    res["job_s"], res["ops"] = best_per_job(keys, times, ops)
    res["timed"] = len(times)
    if trace:
        res["summary"] = tracer.merge(summaries)
        res["extra"] = {"overhead_ratio": traced_s / plain_s, "bytes_written": written}
    return res


def run_worker(workload: str, seed: int, seconds: float, trace: bool, prefix: int | None = None) -> dict:
    base = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if prefix is not None:
        base += ["--prefix", str(prefix)]
    if trace:
        spans = OUT / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        argv = base + ["--seconds", repr(seconds), "--mode", "trace", "--spans", str(spans)]
        recs = [_child(argv, timeout=seconds + 120)]
    else:
        share = seconds / WORKER_SEGMENTS
        recs = [
            _child(base + ["--seconds", repr(share), "--mode", "run", "--segment", str(i)], timeout=share + 120)
            for i in range(WORKER_SEGMENTS)
        ]
    for rec in recs:
        if not rec["correct"]:
            raise WrongAnswer(rec["error"])
    times = [t for rec in recs for t in rec["job_s"]]
    res = {
        "setup": [rec["setup_s"] for rec in recs],
        "all_job_s": times,
        "timed": len(times),
        "attempted": sum(rec["attempted"] for rec in recs),
        "failed": sum(rec["failed"] for rec in recs),
        "rss_kb": [rec["rss_kb"] for rec in recs],
        "digests": list(dict.fromkeys(d for rec in recs for d in rec["digests"])),
    }
    res["job_s"], res["ops"] = best_per_job(
        [k for rec in recs for k in rec["job_key"]], times, [n for rec in recs for n in rec["job_ops"]]
    )
    if trace:
        res["summary"] = recs[0]["summary"]
        res["extra"] = {"overhead_ratio": recs[0]["overhead_ratio"]}
    if "n_final" in recs[0]:
        res.setdefault("extra", {}).update(
            n_final=[n for rec in recs for n in rec["n_final"]],
            ladders_capped=sum(rec["ladders_capped"] for rec in recs),
        )
    return res


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would fall below
    the median (fewer than twenty samples)."""
    xs = sorted(values)
    if len(xs) < 20:
        return xs[-1], 100.0
    idx = len(xs) - 11
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def import_times() -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and willis_homog from
    ``python -X importtime``, each family counted once at its outermost
    import."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import willis_homog.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    families = ("numpy", "scipy", "willis_homog")
    total = dict.fromkeys(families, 0.0)
    stack: list[tuple[int, str]] = []
    rows = re.findall(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", text, re.M)
    # importtime prints children before their parent: walk it backwards
    for cumulative, indent, name in reversed(rows):
        level = len(indent)
        while stack and stack[-1][0] >= level:
            stack.pop()
        family = name.split(".")[0]
        if family in total and all(f != family for _, f in stack):
            total[family] += int(cumulative) * 1e-6
        stack.append((level, family))
    return total


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    tail_s, _ = tail(res["job_s"])
    return {
        "setup_s": (statistics.median(res["setup"]), "s"),
        "job_tail_s": (tail_s, "s"),
        "ops_per_s": (res["ops"] / sum(res["job_s"]), "1/s"),
        "peak_rss_mb": (max(res["rss_kb"]) / 1024.0, "MB"),
    }


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }
    # as set for the children: the caller's value, else CHILD_THREADS
    children = child_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "WILLIS_HOMOG_THREADS"):
        env[var] = children.get(var)
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "willis_homog").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = src.hexdigest()
    return env


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metrics as {name: (value, unit)}, raw record)."""
    if workload == "presets":
        res = run_presets(seed, seconds, trace)
    else:
        res = run_worker(workload, seed, seconds, trace)
    if trace:
        extra = dict(res["extra"], import_s=import_times())
        metrics = tracer.per_layer(res["summary"], extra)
    else:
        metrics = end_to_end(res)
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "willis_homog" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'willis_homog'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "environment": environment()}
    try:
        metrics, res = measure(args.workload, args.seed, args.seconds, trace)
        correct, error = True, None
    except WrongAnswer as exc:
        metrics, res, correct, error = {}, {}, False, str(exc)

    if correct and sorted(metrics) != sorted(declared_metrics(trace)):
        print("benchmark: emitted metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    record.update(correct=correct, error=error, metrics=metrics,
                  samples=len(res.get("job_s", [])), raw={k: v for k, v in res.items() if k != "summary"})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    if error:
        print(f"WRONG ANSWER: {error}")
    if res:
        jobs = res["job_s"]
        _, pct = tail(jobs)
        print(f"{args.workload}: best times of {len(jobs)} distinct jobs run {res['timed']} times, "
              f"{res['attempted']} operations, {res['failed']} failed; tail = p{pct:.0f} of {len(jobs)}")
        for command, times in res.get("per_command", {}).items():
            print(f"  {command.replace('-', '_')}_s = {statistics.median(times):.4f} s median, "
                  f"{min(times):.4f} s best of {len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(res.get("attempted", 0)) or 1,
        "failed": int(res.get("failed", 0)),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
