"""One presets job: a CLI subcommand in a fresh interpreter.

    python3 perfbench/cli_job.py --t0 <epoch seconds at spawn> \
        --command coeffs --preset fig2 --out DIR [--spans FILE]

Set-up is the import of ``willis_homog.cli`` plus the preset's config load,
measured from ``--t0``.  The job is the wall time of ``cli.main`` with the
command's terminal output captured.  With ``--spans`` the package is traced
and the span summary is included.  The last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--preset", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from willis_homog import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "willis_homog":
        raise SystemExit(f"willis_homog imported from {cli.__file__}, not {ROOT / 'src'}")
    cli.load_config(None, args.preset, None)
    record = {"setup_s": time.time() - args.t0}

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer().install()
    with contextlib.redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        record["exit"] = cli.main([args.command, "--preset", args.preset, "--out", args.out])
        record["job_s"] = time.perf_counter() - t
    if tracer is not None:
        from tracer import summarize

        tracer.uninstall()
        tracer.write(Path(args.spans))
        record["summary"] = summarize(tracer.spans)
    record["bytes"] = sum(p.stat().st_size for p in Path(args.out).iterdir())
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
