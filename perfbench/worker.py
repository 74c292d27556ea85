"""One process of the exact-map or spectral-refine workload.

    python3 perfbench/worker.py --workload exact-map --seed 1 --seconds 20 \
        --t0 <epoch seconds at spawn> --mode {run,trace} [--segment I] [--spans FILE] [--prefix N]

Set-up imports the package, builds the input stream and warms up; its time
is measured from ``--t0``.  ``run`` then runs the closed loop: one job at a
time until ``--seconds`` have passed and the current cycle of jobs is
complete, each job checked after its timing.  ``--segment`` numbers the
worker processes of one run, which draw their own job streams from the
seed.  ``trace`` replays the
first cycle of the job stream three times (plain, traced, plain again) and
reports the span summary.  The last stdout line is a JSON record for
``run.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import willis_homog

    if Path(willis_homog.__file__).resolve().parent != ROOT / "src" / "willis_homog":
        raise SystemExit(f"willis_homog imported from {willis_homog.__file__}, not {ROOT / 'src'}")


def _timed(wl, jobs, seconds=None, check=True):
    """Run jobs in a closed loop until the iterator ends or, once ``seconds``
    of wall time have passed, the current cycle of jobs is complete; gates
    run between jobs, outside the job timing."""
    out = {"job_s": [], "job_key": [], "job_ops": [], "attempted": 0, "failed": 0, "digests": [], "done": []}
    start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        ops, attempted, failed = wl.run(job)
        out["job_s"].append(time.perf_counter() - t)
        out["job_key"].append(job.key)
        out["job_ops"].append(ops)
        if check:
            wl.check(job)
        out["attempted"] += attempted
        out["failed"] += failed
        for digest in job.digests:
            if digest not in out["digests"]:
                out["digests"].append(digest)
        out["done"].append(job)
        if (
            seconds is not None
            and time.perf_counter() - start >= seconds
            and len(out["done"]) % wl.cycle == 0
        ):
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--segment", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--prefix", type=int, help="jobs the traced run replays (default: one cycle)")
    args = ap.parse_args(argv)

    _import_package()
    import workloads
    from tracer import Tracer, summarize

    wl = workloads.WORKLOADS[args.workload]
    jobs = wl.jobs(args.seed, args.segment)
    workloads.warm_up(wl.spectral)
    record = {"setup_s": time.time() - args.t0, "correct": True}
    try:
        if args.mode == "run":
            record.update(_timed(wl, jobs, args.seconds))
        else:
            n = args.prefix or wl.cycle

            def replay():
                return list(itertools.islice(wl.jobs(args.seed), n))

            plain = _timed(wl, replay())
            tracer = Tracer().install()
            traced = _timed(wl, replay(), check=False)
            tracer.uninstall()
            # plain again, so that drift in machine speed cancels in the ratio
            again = _timed(wl, replay(), check=False)
            for a, b in zip(plain["done"], traced["done"]):
                if a.outputs() != b.outputs():
                    raise workloads.GateError(f"traced replay changed the outputs of cells {a.digests}")
            if args.spans:
                tracer.write(Path(args.spans))
            record.update(plain)
            record["summary"] = summarize(tracer.spans)
            plain_s = 0.5 * (sum(plain["job_s"]) + sum(again["job_s"]))
            record["overhead_ratio"] = sum(traced["job_s"]) / plain_s
    except workloads.GateError as exc:
        record["correct"] = False
        record["error"] = str(exc)
    done = record.pop("done", [])
    if args.workload == "spectral-refine":
        probes = [p for job in done for p in job.probes if p.z_ref is not None]
        record["n_final"] = [p.n_final for p in probes]
        record["ladders_capped"] = sum(p.capped for p in probes)
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
