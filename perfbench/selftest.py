"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
each workload, traced and untraced; that spans nest (self time within the
span, summed self time equal to the wall time of the root spans, every
binding site wrapped and restored); and that a perturbed Z, a wrong
spectral Z or a wrong CSV hash trips its gate.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from willis_homog import cli, dispersion, spectral, willis  # noqa: E402

PASSED: list[str] = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    PASSED.append(what)


def expect_raises(exc_type, fn, what: str) -> None:
    try:
        fn()
    except exc_type:
        PASSED.append(what)
        return
    raise SystemExit(f"selftest FAILED: {what}")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    imports = run.import_times()
    expect(all(v > 0 for v in imports.values()), f"import times measured: {imports}")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            if workload == "presets":
                res = run.run_presets(0, 0.0, trace, jobs=run.PRESET_JOBS[:1])
            else:
                res = run.run_worker(workload, 0, 0.5, trace, prefix=1)
            if trace:
                metrics = tracer.per_layer(res["summary"], dict(res["extra"], import_s=imports))
                declared = [m["name"] for m in spec["per_layer"]]
            else:
                metrics = run.end_to_end(res)
                declared = [m["name"] for m in spec["end_to_end"]]
            label = f"{workload} trace={int(trace)}"
            expect(sorted(metrics) == sorted(declared), f"{label}: emits every declared metric")
            expect(
                all(isinstance(v, (int, float)) and u == units[n] for n, (v, u) in metrics.items()),
                f"{label}: every metric is a number with its declared unit",
            )
            if not trace:
                expect(all(v > 0 for v, _ in metrics.values()), f"{label}: no end-to-end metric is 0")
    expect(
        run.best_per_job(["a", "b", "a"], [3.0, 1.0, 2.0], [1, 1, 0]) == ([2.0, 1.0], 1),
        "a repeated job counts once, at its best time and its worst operation count",
    )


def check_spans() -> None:
    original_z = willis.effective_impedance
    t = tracer.Tracer().install()
    expect(
        dispersion.effective_impedance is not original_z
        and cli.effective_impedance is dispersion.effective_impedance
        and willis.effective_impedance is dispersion.effective_impedance,
        "every binding site of effective_impedance is wrapped",
    )
    expect(cli._COMMANDS["coeffs"] is cli.cmd_coeffs, "cli command table is wrapped")
    out_dir = run.OUT / "selftest"
    try:
        job = next(workloads.map_jobs(3))
        job.rows = job.rows[:2]
        workloads.run_map_job(job)
        workloads.run_probe(next(workloads.probe_jobs(3)).probes[0])
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["coeffs", "--preset", "fig2", "--out", str(out_dir)])
    finally:
        t.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    expect(willis.effective_impedance is original_z, "uninstall restores the bindings")
    expect(
        "eigenvalues" in spectral.BlochOperator.__dict__
        and not hasattr(spectral.BlochOperator.__dict__["eigenvalues"].func, "__wrapped__"),
        "uninstall restores BlochOperator.eigenvalues",
    )
    spans = t.spans
    names = {s[0] for s in spans}
    expect(
        {"exact.cell_solve", "spectral.eigenvalues", "spectral.resolvent_solve", "cli.coeffs",
         "asymptotics.homogenize_exact", "asymptotics.homogenize_spectral"} <= names,
        "spans recorded at every layer exercised",
    )
    self_s = tracer.self_times(spans)
    expect(
        all(-1e-9 <= s <= (sp[2] - sp[1]) + 1e-9 for s, sp in zip(self_s, spans)),
        "0 <= self time <= span time",
    )
    expect(
        all(sp[3] is None or (spans[sp[3]][1] <= sp[1] and sp[2] <= spans[sp[3]][2]) for sp in spans),
        "child spans lie inside their parents",
    )
    roots = sum(sp[2] - sp[1] for sp in spans if sp[3] is None)
    expect(abs(sum(self_s) - roots) <= 1e-6 * max(roots, 1.0), "summed self time equals root wall time")
    summary = tracer.summarize(spans)
    expect(
        summary["counters"]["solves_in_z"] == 2 * summary["counters"]["exact_z"],
        "exact.solves_per_z counts two solves per exact Z",
    )


def check_gates() -> None:
    # exact-map: the single-phase row of a block, then perturbed copies of it
    job = next(workloads.map_jobs(5))
    job.rows = [r for r in job.rows if len(r.cell.cell.phases) == 1]
    workloads.run_map_job(job)
    workloads.check_map_job(job)
    PASSED.append("exact-map gate passes on the real row")
    z = job.rows[0].z
    good = z[3]
    z[3] = good * (1 + 1e-9)
    expect_raises(workloads.GateError, lambda: workloads.check_map_job(job), "perturbed Z trips the closed-form gate")
    z[3] = good + 1e-6j * abs(good)
    expect_raises(workloads.GateError, lambda: workloads.check_map_job(job), "complex Z trips the realness gate")
    z[3] = good
    job.rows[0].residuals["route_agreement"] = 1e-6
    expect_raises(workloads.GateError, lambda: workloads.check_map_job(job), "a large identity residual trips its gate")

    p = next(workloads.probe_jobs(5)).probes[0]
    workloads.run_probe(p)
    workloads.check_probe(p)
    PASSED.append("spectral-refine gate passes on the real probe")
    p.z = complex(p.z) * (1 + 1e-3j)
    expect_raises(workloads.GateError, lambda: workloads.check_probe(p), "complex spectral Z trips its gate")

    out_dir = run.OUT / "selftest"
    command, preset, expected = run.PRESET_JOBS[0]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command, "--preset", preset, "--out", str(out_dir)])
        run.check_preset_outputs(command, out_dir, expected)
        PASSED.append("preset CSV hash gate passes on the real bytes")
        csv = out_dir / "coeffs.csv"
        data = bytearray(csv.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        csv.write_bytes(bytes(data))
        expect_raises(
            run.WrongAnswer,
            lambda: run.check_preset_outputs(command, out_dir, expected),
            "a changed CSV byte trips the hash gate",
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    check_gates()
    check_spans()
    check_metric_names()
    print(f"selftest: {len(PASSED)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
