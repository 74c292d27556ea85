"""How often ``verify`` fails on random cells whose physics is right.

    PYTHONPATH=src python3 tools/verdict_sweep.py [--cells 120] [--basis-n 32]

For each span of ``SPANS`` the cells are drawn from one
``random.Random(SEED)``, shared by the spans in their order: 1 to 6
phases, each with a length from U(0.05, 1) and G and rho log-uniform in
10^[-span, span], the lengths then normalised to a unit cell.  Each cell runs ``build_verification_report``
at ``--basis-n``, and its exit code is the one ``verify`` would give: 0 when
every check passes, 1 when one fails, 3 when the report raises a numerical
error.  Per span the sweep prints the exit-1 and exit-3 counts and how
often each check failed, then one line per cell that did not exit 0, with
its digest and failing checks, so two trees' outputs can be diffed.

Run it from the repository root with the package importable; it needs
nothing outside the standard library and the package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
from collections import Counter

from willis_homog.cli import build_verification_report
from willis_homog.errors import WillisHomogError
from willis_homog.material import Phase, UnitCell1D, cell_digest

#: decades of contrast, and the seed of the one generator all spans draw from in turn
SPANS = (1, 3, 5, 8)
SEED = 2026


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


def sweep(cells: int, basis_n: int) -> list[str]:
    """The sweep's report, one line per string."""
    rng = random.Random(SEED)
    lines = []
    for span in SPANS:
        verdicts = [(cell, *verdict(cell, basis_n)) for cell in (draw_cell(rng, span) for _ in range(cells))]
        exits = Counter(code for _, code, _ in verdicts)
        names = Counter(name for _, _, failed in verdicts for name in failed)
        lines.append(
            f"span 10^+-{span:g}: {exits[1]} of {cells} exit 1, {exits[3]} exit 3"
            + "".join(f"; {name} {count}" for name, count in sorted(names.items()))
        )
        lines += [f"  {cell_digest(cell)} exit {code}: {', '.join(failed)}" for cell, code, failed in verdicts if code]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, default=120, help="cells per span (default 120)")
    parser.add_argument("--basis-n", type=int, default=32, help="spectral order of the checks (default 32)")
    args = parser.parse_args(argv)
    print("\n".join(sweep(args.cells, args.basis_n)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
