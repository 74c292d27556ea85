"""Seeded inputs, jobs and correctness gates of the in-process workloads.

Cells come in blocks of six, one cell for each phase count 1..6 in a
seeded order, with Dirichlet(1, ..., 1) phase lengths and per-phase ``G``
and ``rho`` log-uniform over [0.1, 10].

``exact-map`` draws fresh blocks from the seed.  The cost of an exact
solve follows the phase count alone, so a job, one k-row of each of a
block's six cells, costs the same in every block.  ``spectral-refine``
passes again and again over a fixed population of blocks (see
``probe_population``), one fixed probe per cell, in an order set by the
seed, and a job is one ladder.

The package is called through module attributes (``willis.effective_impedance``,
not a name imported here), so a tracer installed at the package's binding
sites sees these calls too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from willis_homog import asymptotics, dispersion, material, willis
from willis_homog.errors import WillisHomogError

MAX_PHASES = 6
LOG_RANGE = (math.log(0.1), math.log(10.0))

#: exact-map grid per cell: k-rows times omega points per row.  With
#: cell-centred points, omega/c0 = (2j+1) pi/6 is never equal to
#: |k + 2 pi n| = |2i+1 + 16n| pi/8 (even versus odd multiples of pi/24), so
#: no point lies on the quasistatic cone or on a uniform cell's branches
GRID_K = 4
GRID_OMEGA = 6

#: spectral-refine: a fixed population of blocks (see ``probe_population``)
#: and the ladder, N doubling from the start to the cap
POPULATION_SEED = 0
POPULATION_BLOCKS = 8
LADDER_START = 8
LADDER_CAP = 512
TARGET_RTOL = 1e-2

#: gates; the exact-route values are roundoff-level on the seed code.
#: Z vanishes on the Bloch branch, so Z-valued gates are relative to the
#: size of the terms that cancel there (see ``z_scale``), not to |Z|
IMAG_RTOL = 1e-8
EXACT_IDENTITY_TOL = 1e-8
SINGLE_PHASE_RTOL = 1e-10
SPECTRAL_IDENTITY_TOL = 1e-5


class GateError(Exception):
    """A wrong answer: the run fails."""


def draw_cell(rng: np.random.Generator, n_phases: int) -> material.UnitCell1D:
    lengths = rng.dirichlet(np.ones(n_phases))
    lengths[-1] = 1.0 - float(np.sum(lengths[:-1]))
    G = np.exp(rng.uniform(*LOG_RANGE, n_phases))
    rho = np.exp(rng.uniform(*LOG_RANGE, n_phases))
    return material.UnitCell1D(
        tuple(material.Phase(float(h), float(g), float(r)) for h, g, r in zip(lengths, G, rho))
    )


def draw_blocks(rng: np.random.Generator):
    """Endless stream of blocks: six cells, phase counts 1..6 in seeded order."""
    while True:
        yield [draw_cell(rng, int(n)) for n in rng.permutation(MAX_PHASES) + 1]


def z_scale(cell: material.UnitCell1D, k: float, omega: float) -> float:
    """<G> k^2 + <rho> omega^2: the size of the terms whose difference is Z."""
    return cell.mean("G") * k**2 + cell.mean("rho") * omega**2


def check_real(z, scale: float, where: str) -> None:
    if z is None or not cmath.isfinite(z) or abs(z.imag) > IMAG_RTOL * max(abs(z), scale):
        raise GateError(f"{where}: Z = {z!r} is not finite and real")


def quasistatic_speed(cell: material.UnitCell1D) -> float:
    """c0 = sqrt(<1/G>^-1 / <rho>), computed here from the phase data."""
    return math.sqrt(1.0 / cell.mean("1/G") / cell.mean("rho"))


def long_wave_probe(rng: np.random.Generator, c0: float) -> tuple[float, float]:
    """(k, omega) with k in [0.1, 1] and omega in [0.05, 0.5] c0 k.

    Below the acoustic branch, where the package's own verify checks the
    identities: near a branch Z -> 0 and the |Z|-relative residuals lose
    digits to cancellation.
    """
    k = float(rng.uniform(0.1, 1.0))
    return k, float(rng.uniform(0.05, 0.5) * c0 * k)


# ---------------------------------------------------------------------------
# exact-map


@dataclass
class MapCell:
    """One cell's cell-centred grid and, per k-row, a long-wave identity probe."""

    cell: material.UnitCell1D
    digest: str
    ks: np.ndarray
    omegas: np.ndarray
    probes: list[tuple[float, float]]
    omega_max: float


@dataclass
class MapRow:
    cell: MapCell
    row: int
    z: list = field(default_factory=list)
    residuals: dict | None = None
    branch: np.ndarray | None = None


@dataclass
class MapJob:
    """Row ``row`` of each of a block's six cells."""

    rows: list[MapRow]

    @property
    def digests(self) -> list[str]:
        return [r.cell.digest for r in self.rows]

    @property
    def key(self) -> str:
        return ",".join(f"{r.cell.digest}/{r.row}" for r in self.rows)

    def outputs(self) -> list:
        return [r.z for r in self.rows]


def map_cell(rng: np.random.Generator, cell: material.UnitCell1D) -> MapCell:
    c0 = quasistatic_speed(cell)
    ks = (np.arange(GRID_K) + 0.5) * math.pi / GRID_K
    omegas = (np.arange(GRID_OMEGA) + 0.5) * 2.0 * math.pi * c0 / GRID_OMEGA
    probes = [long_wave_probe(rng, c0) for _ in range(GRID_K)]
    # Rayleigh bound: omega_1(k)^2 <= <G> k^2 / <rho>, so the lowest
    # branch lies below this scan limit for every k of the grid
    omega_max = 1.1 * ks[-1] * math.sqrt(cell.mean("G") / cell.mean("rho")) + 0.05
    return MapCell(cell, material.cell_digest(cell), ks, omegas, probes, omega_max)


def map_jobs(seed: int, segment: int = 0):
    rng = np.random.default_rng([seed, 1, segment])
    for block in draw_blocks(rng):
        cells = [map_cell(rng, cell) for cell in block]
        for row in range(GRID_K):
            yield MapJob([MapRow(mc, row) for mc in cells])


def run_map_job(job: MapJob) -> tuple[int, int, int]:
    """Z over the row's omega points, the identity residuals at the row's
    long-wave probe and the exact branch at the row's k, for each cell.

    Returns (Z points, operations attempted, operations failed).
    """
    points = attempted = failed = 0
    for r in job.rows:
        mc, k = r.cell, float(r.cell.ks[r.row])
        for w in mc.omegas:
            attempted += 1
            try:
                r.z.append(willis.effective_impedance(mc.cell, k, float(w)))
                points += 1
            except WillisHomogError:
                failed += 1
                r.z.append(None)
        attempted += 2
        try:
            r.residuals = willis.dynamic_identity_residuals(mc.cell, *mc.probes[r.row])
        except WillisHomogError:
            failed += 1
        try:
            r.branch = dispersion.exact_branch(mc.cell, [k], omega_max=mc.omega_max).omega
        except WillisHomogError:
            failed += 1
    return points, attempted, failed


def check_map_job(job: MapJob) -> None:
    for r in job.rows:
        mc, k = r.cell, float(r.cell.ks[r.row])
        phase = mc.cell.phases[0]
        for w, z in zip(mc.omegas, r.z):
            if z is None:
                continue
            where = f"cell {mc.digest} (k, omega) = ({k!r}, {float(w)!r})"
            scale = z_scale(mc.cell, k, float(w))
            check_real(z, scale, where)
            if len(mc.cell.phases) == 1:
                ref = phase.G * k**2 - phase.rho * float(w) ** 2
                if abs(z - ref) > SINGLE_PHASE_RTOL * scale:
                    raise GateError(f"{where}: Z = {z!r}, closed form G k^2 - rho omega^2 = {ref!r}")
        if r.residuals is not None:
            name, worst = max(r.residuals.items(), key=lambda item: item[1])
            if not worst <= EXACT_IDENTITY_TOL:
                raise GateError(f"cell {mc.digest} k = {k!r}: exact identity {name} residual {worst:.3e}")
        if r.branch is not None and not (np.isfinite(r.branch[0]) and 0 < r.branch[0] <= mc.omega_max):
            raise GateError(f"cell {mc.digest} k = {k!r}: exact branch omega {r.branch[0]!r}")


# ---------------------------------------------------------------------------
# spectral-refine


@dataclass
class Probe:
    """One time-to-accuracy ladder at a long-wave (k, omega)."""

    cell: material.UnitCell1D
    digest: str
    k: float
    omega: float
    z_ref: complex | None = None
    z: complex | None = None
    n_final: int = 0
    capped: bool = False
    coeffs: object = None
    branch: np.ndarray | None = None


@dataclass
class ProbeJob:
    """One ladder (a list, so that both workloads' jobs read alike)."""

    probes: list[Probe]

    @property
    def digests(self) -> list[str]:
        return [p.digest for p in self.probes]

    @property
    def key(self) -> str:
        return ",".join(f"{p.digest}/{p.k!r}/{p.omega!r}" for p in self.probes)

    def outputs(self) -> list:
        return [(p.z_ref, p.z, p.n_final) for p in self.probes]


def probe_population() -> list[material.UnitCell1D]:
    """The cells every spectral-refine run visits.

    The N a ladder needs, and so the job time, follows the cell: with a
    population drawn per seed, the few cells that need N = 256 or 512 would
    move a run's job times far more than the program's speed does.  So the
    population is drawn once, from a fixed stream, and the run's seed sets
    the visiting order and the probes.
    """
    blocks = draw_blocks(np.random.default_rng([POPULATION_SEED, 2]))
    return [cell for _ in range(POPULATION_BLOCKS) for cell in next(blocks)]


def probe_jobs(seed: int, segment: int = 0):
    """Endless passes over the population, each in a fresh seeded order.

    Each cell has one long-wave probe, drawn once from a fixed stream, so
    every pass repeats the same ladders and a run's time for a ladder can
    be its best over the passes.  The N a ladder needs follows the probe as
    well as the cell, and a ladder that needs N = 512 costs as much as about
    250 at N = 8: with probes drawn per seed, the few such ladders a run
    happened to draw moved its job times more than the program's speed did.
    """
    cells = probe_population()
    rng = np.random.default_rng([POPULATION_SEED, 3])
    probes = [
        (cell, material.cell_digest(cell), *long_wave_probe(rng, quasistatic_speed(cell)))
        for cell in cells
    ]
    order = np.random.default_rng([seed, 2, segment])
    while True:
        for i in order.permutation(len(probes)):
            yield ProbeJob([Probe(*probes[i])])


def run_probe(p: Probe) -> bool:
    """Refine N until the spectral Z is within TARGET_RTOL of the exact Z,
    then homogenize and take the acoustic branch at that N.

    A ladder that reaches LADDER_CAP without meeting the target is marked
    ``capped``.  Returns False when the ladder failed: it was capped or a
    documented error ended it.
    """
    try:
        p.z_ref = willis.effective_impedance(p.cell, p.k, p.omega)
        n = LADDER_START
        while True:
            p.z = willis.effective_impedance(p.cell, p.k, p.omega, method="spectral", order=n)
            met = abs(p.z - p.z_ref) <= TARGET_RTOL * abs(p.z_ref)
            if met or n >= LADDER_CAP:
                break
            n *= 2
        p.n_final, p.capped = n, not met
        _, p.coeffs = asymptotics.homogenize(p.cell, method="spectral", order=n)
        p.branch = dispersion.spectral_acoustic_branch(p.cell, [p.k], order=n).omega
    except WillisHomogError:
        p.z_ref = None
        return False
    return not p.capped


def run_probe_job(job: ProbeJob) -> tuple[int, int, int]:
    """Returns (ladders completed, ladders attempted, ladders failed)."""
    ok = sum(run_probe(p) for p in job.probes)
    return ok, len(job.probes), len(job.probes) - ok


def check_probe(p: Probe) -> None:
    if p.z_ref is None:
        return
    where = f"cell {p.digest} (k, omega) = ({p.k!r}, {p.omega!r})"
    for label, z in (("exact", p.z_ref), ("spectral", p.z)):
        check_real(z, z_scale(p.cell, p.k, p.omega), f"{where} {label}")
    res = willis.dynamic_identity_residuals(
        p.cell, p.k, p.omega, method="spectral", order=p.n_final
    )
    name, worst = max(res.items(), key=lambda item: item[1])
    if not worst <= SPECTRAL_IDENTITY_TOL:
        raise GateError(f"{where}: spectral identity {name} residual {worst:.3e} at N={p.n_final}")
    if not (p.coeffs.mu0 > 0 and p.coeffs.rho0 > 0):
        raise GateError(f"cell {p.digest}: spectral mu0, rho0 = {p.coeffs.mu0}, {p.coeffs.rho0}")
    if not (np.all(np.isfinite(p.branch)) and np.all(p.branch > 0)):
        raise GateError(f"{where}: spectral branch omega {p.branch!r}")


def check_probe_job(job: ProbeJob) -> None:
    for p in job.probes:
        check_probe(p)


# ---------------------------------------------------------------------------
# warm-up and the workload table


def warm_up(spectral: bool) -> None:
    """Pay lazy loads (LAPACK, BLAS threads) on a cell no run draws."""
    cell = material.bilaminate(0.3, 3.0)
    for w in (0.1, 0.2, 0.3):
        willis.effective_impedance(cell, 0.4, w)
    willis.dynamic_identity_residuals(cell, 0.4, 0.15)
    dispersion.exact_branch(cell, [0.5, 1.0], omega_max=3.0)
    if spectral:
        for n in (8, 16, 32, 64, 128, 256):
            willis.effective_impedance(cell, 0.4, 0.2, method="spectral", order=n)
        asymptotics.homogenize(cell, method="spectral", order=32)
        dispersion.spectral_acoustic_branch(cell, [0.4], order=32)


@dataclass(frozen=True)
class Workload:
    jobs: object
    run: object
    check: object
    spectral: bool
    #: a run ends on a multiple of this many jobs (a whole block or a whole
    #: pass over the population), so every run sees the same job mix; the
    #: traced run replays exactly one such cycle, so its counts repeat
    cycle: int


WORKLOADS = {
    "exact-map": Workload(map_jobs, run_map_job, check_map_job, False, GRID_K),
    "spectral-refine": Workload(
        probe_jobs, run_probe_job, check_probe_job, True, MAX_PHASES * POPULATION_BLOCKS
    ),
}
