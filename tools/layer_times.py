"""Cost of one call at each layer of the package, on two fixed cells.

    PYTHONPATH=src python3 tools/layer_times.py [--rounds 15] [--repeats 20]

The layers, each timed at verify's dynamic probe (k, omega) = (0.5, 0.7
omega_1(0.5)) where a point is needed:

* ``dispersion_function`` on the scan grid that ``exact_branch`` uses at k = 0.5;
* the exact cell solve, the monopole and dipole responses;
* exact ``Z`` (``effective_impedance``);
* spectral ``assemble``, and the spectral solve of both loads with its
  resonance check (``resolvent_solve``), each at N = 8 and N = 32;
* ``homogenize``, the static chain and its coefficient table, on each route
  (the spectral one at N = 8 and N = 32);
* one branch root at k = 0.5 on each route (``exact_branch``, and
  ``spectral_acoustic_branch`` at N = 8 and N = 32).

N = 8 is where every timed ladder of the ``spectral-refine`` benchmark
stops, and N = 32 is ``verify``'s default order.

The cells are ``bilaminate(0.1, 0.1)`` (fig2's) and the six-phase cell
``SIX_PHASE``.  One round times every (cell, layer) once, in a fresh random
order; a layer's time in a round is the best of ``--repeats`` calls.  Each
line gives the median over ``--rounds`` rounds and the quartiles, in
microseconds per call.  The header names the core count, the value of
``OPENBLAS_NUM_THREADS`` and the numpy version, which set these numbers.

Run it from the repository root with the package importable; it needs
nothing outside the standard library and the package.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import statistics
import time

import numpy as np

from willis_homog.asymptotics import homogenize
from willis_homog.cell_functions import responses
from willis_homog.dispersion import _scan_grid, exact_branch, spectral_acoustic_branch
from willis_homog.exact import _LOADS, dispersion_function
from willis_homog.material import Phase, UnitCell1D, bilaminate
from willis_homog.spectral import assemble, resolvent_solve
from willis_homog.willis import effective_impedance

#: a fixed cell of six phases, contrast about 30 in G and 10 in rho
SIX_PHASE = UnitCell1D(
    (
        Phase(0.10, 1.0, 1.0),
        Phase(0.20, 5.0, 0.4),
        Phase(0.15, 0.3, 3.0),
        Phase(0.25, 2.0, 1.2),
        Phase(0.10, 8.0, 0.6),
        Phase(0.20, 0.5, 2.0),
    )
)

CELLS = {"fig2": bilaminate(0.1, 0.1), "six-phase": SIX_PHASE}

#: the Bloch wavenumber of every layer that needs one, as verify's probe
K = 0.5


def layers(cell: UnitCell1D) -> dict:
    """{layer name: zero-argument call} on ``cell``; the operators are built once."""
    omega = 0.7 * float(exact_branch(cell, [K]).omega[0])
    grid = _scan_grid(cell, np.array([K]), None)[0]
    calls = {
        "dispersion_function": lambda: dispersion_function(cell, grid),
        "exact responses": lambda: responses(cell, K, omega, ("monopole", "dipole"), "exact"),
        "exact Z": lambda: effective_impedance(cell, K, omega),
    }
    for n in (8, 32):
        op = assemble(cell, K, n)
        loads = np.stack([op.load(_LOADS["monopole"]), op.load(_LOADS["dipole"])], axis=1)
        calls[f"spectral assemble N={n}"] = lambda n=n: assemble(cell, K, n)
        calls[f"spectral solve N={n}"] = lambda op=op, loads=loads: resolvent_solve(op, omega, loads)
    calls["homogenize exact"] = lambda: homogenize(cell, method="exact")
    for n in (8, 32):
        calls[f"homogenize spectral N={n}"] = lambda n=n: homogenize(cell, method="spectral", order=n)
    calls["branch root exact"] = lambda: exact_branch(cell, [K])
    for n in (8, 32):
        calls[f"branch root spectral N={n}"] = lambda n=n: spectral_acoustic_branch(cell, [K], order=n)
    return calls


def best_of(call, repeats: int) -> float:
    """The shortest of ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def measure(rounds: int, repeats: int, seed: int = 0) -> list[tuple[str, str, float, float, float]]:
    """(cell, layer, median, first quartile, third quartile) in seconds per call."""
    jobs = [(name, layer, call) for name, cell in CELLS.items() for layer, call in layers(cell).items()]
    times: dict[tuple[str, str], list[float]] = {(name, layer): [] for name, layer, _ in jobs}
    rng = random.Random(seed)
    for _ in range(rounds):
        for name, layer, call in rng.sample(jobs, len(jobs)):
            times[name, layer].append(best_of(call, repeats))
    rows = []
    for (name, layer), samples in times.items():
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        rows.append((name, layer, statistics.median(samples), q1, q3))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15, help="interleaved rounds (default 15)")
    parser.add_argument("--repeats", type=int, default=20, help="calls per layer and round, best kept (default 20)")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.repeats < 1:
        parser.error("--rounds must be >= 2 and --repeats >= 1")
    print(
        f"cores {os.cpu_count()}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"numpy {np.__version__}, python {platform.python_version()}; "
        f"median of {args.rounds} rounds of best-of-{args.repeats}, us per call"
    )
    print(f"{'cell':10s} {'layer':26s} {'median':>10s} {'q1':>10s} {'q3':>10s}")
    for name, layer, median, q1, q3 in measure(args.rounds, args.repeats):
        print(f"{name:10s} {layer:26s} {median * 1e6:10.1f} {q1 * 1e6:10.1f} {q3 * 1e6:10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
