"""How often ``verify`` fails on random cells whose physics is right.

    PYTHONPATH=src python3 tools/verdict_sweep.py [--cells 120] [--basis-n 32] [--expect FILE]

For each span of ``SPANS`` the cells are drawn from one
``random.Random(SEED)``, shared by the spans in their order: 1 to 6
phases, each with a length from U(0.05, 1) and G and rho log-uniform in
10^[-span, span], the lengths then normalised to a unit cell.  Each cell runs ``build_verification_report``
at ``--basis-n``, and its exit code is the one ``verify`` would give: 0 when
every check passes, 1 when one fails, 3 when the report raises a numerical
error.  Per span the sweep prints the exit-1 and exit-3 counts and how
often each check failed, then one line per cell that did not exit 0, with
its digest and failing checks, so two trees' outputs can be diffed.

With ``--expect FILE``, FILE is an earlier run's output at the same
``--cells`` and ``--basis-n``, and it sets each cell's expected failures
(none for a cell it does not list).  The sweep then lists the cells that
fail a check outside their set, and those that pass checks of it, and
exits 1 if any cell is of the first kind.  ``EXPECTED`` holds the run at
the defaults with one BLAS thread; a change that moves a verdict rewrites
it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/verdict_sweep.py > tools/verdict_sweep_expected.txt

Run it from the repository root with the package importable; it needs
nothing outside the standard library and the package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import re
from collections import Counter
from pathlib import Path

from willis_homog.verify import build_verification_report
from willis_homog.errors import WillisHomogError
from willis_homog.material import Phase, UnitCell1D, cell_digest

#: decades of contrast, and the seed of the one generator all spans draw from in turn
SPANS = (1, 3, 5, 8)
SEED = 2026

#: the sweep's output at its defaults, which sets each cell's expected failures
EXPECTED = Path(__file__).with_name("verdict_sweep_expected.txt")


def draw_cell(rng: random.Random, span: float) -> UnitCell1D:
    """1-6 phases, lengths from U(0.05, 1) normalised, G and rho log-uniform in 10^+-span."""
    n = rng.randint(1, 6)
    drawn = [(rng.uniform(0.05, 1.0), 10 ** rng.uniform(-span, span), 10 ** rng.uniform(-span, span)) for _ in range(n)]
    total = sum(h for h, _, _ in drawn)
    return UnitCell1D(tuple(Phase(h / total, G, rho) for h, G, rho in drawn))


def verdict(cell: UnitCell1D, basis_n: int) -> tuple[int, list[str]]:
    """(exit code verify would give, names of the failing checks)."""
    # a check group that cannot run reports on stderr; the sweep reports its name
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            report = build_verification_report(cell, basis_n)
        except WillisHomogError as exc:
            return 3, [type(exc).__name__]
    failed = [f"{c.name} ({c.route})" for c in report.checks if not c.passed]
    return (1 if failed else 0), failed


def verdicts(cells: int, basis_n: int, take: int | None = None) -> dict[float, list[tuple[UnitCell1D, int, list[str]]]]:
    """{span: [(cell, exit code, failing checks)]} over the first ``take`` (default all)
    of the ``cells`` cells each span draws."""
    rng = random.Random(SEED)
    out = {}
    for span in SPANS:
        drawn = [draw_cell(rng, span) for _ in range(cells)]
        out[span] = [(cell, *verdict(cell, basis_n)) for cell in drawn[:take]]
    return out


def report(swept: dict) -> list[str]:
    """The sweep's report, one line per string."""
    lines = []
    for span, rows in swept.items():
        exits = Counter(code for _, code, _ in rows)
        names = Counter(name for _, _, failed in rows for name in failed)
        lines.append(
            f"span 10^+-{span:g}: {exits[1]} of {len(rows)} exit 1, {exits[3]} exit 3"
            + "".join(f"; {name} {count}" for name, count in sorted(names.items()))
        )
        lines += [f"  {cell_digest(cell)} exit {code}: {', '.join(failed)}" for cell, code, failed in rows if code]
    return lines


def read_expected(path: Path) -> tuple[set[int], dict[str, set[str]]]:
    """(cells per span, {digest: failing checks}) of a sweep's output."""
    sizes, failing = set(), {}
    for line in Path(path).read_text().splitlines():
        if m := re.match(r"span \S+: \d+ of (\d+) exit 1", line):
            sizes.add(int(m[1]))
        elif m := re.fullmatch(r"  ([0-9a-f]{12}) exit [13]: (.*)", line):
            failing[m[1]] = set(m[2].split(", "))
    return sizes, failing


def ratchet(swept: dict, expected: dict[str, set[str]]) -> tuple[list[str], list[str]]:
    """(cells that fail a check outside their expected set, cells that pass checks
    of it), one line each, with those checks."""
    worse, better = [], []
    for rows in swept.values():
        for cell, _, failed in rows:
            digest = cell_digest(cell)
            want = expected.get(digest, set())
            if new := sorted(set(failed) - want):
                worse.append(f"  {digest} newly fails: {', '.join(new)}")
            if fixed := sorted(want - set(failed)):
                better.append(f"  {digest} now passes: {', '.join(fixed)}")
    return worse, better


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, default=120, help="cells per span (default 120)")
    parser.add_argument("--basis-n", type=int, default=32, help="spectral order of the checks (default 32)")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="an earlier output at the same --cells and --basis-n; exit 1 on a new failure")
    args = parser.parse_args(argv)
    if args.expect:
        sizes, expected = read_expected(args.expect)
        if sizes != {args.cells}:
            parser.error(f"{args.expect} swept {sorted(sizes)} cells per span, not --cells {args.cells}")
    swept = verdicts(args.cells, args.basis_n)
    print("\n".join(report(swept)))
    if not args.expect:
        return 0
    worse, better = ratchet(swept, expected)
    print(f"against {args.expect}: {len(worse)} cells fail a new check, {len(better)} pass an expected failure")
    for line in worse + better:
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
