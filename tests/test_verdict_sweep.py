from __future__ import annotations

import importlib.util
import random
import re
from pathlib import Path

import numpy as np

from willis_homog import dispersion, spectral
from willis_homog.asymptotics import homogenize, identity_suite
from willis_homog.dispersion import exact_branch, spectral_acoustic_branch
from willis_homog.material import cell_digest
from willis_homog.spectral import BRANCH_RTOL
from willis_homog.verify import TOLERANCES

PATH = Path(__file__).parents[1] / "tools" / "verdict_sweep.py"
SPEC = importlib.util.spec_from_file_location("verdict_sweep", PATH)
verdict_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(verdict_sweep)


def test_sweep_reports_each_span_on_two_cells(capsys) -> None:
    assert verdict_sweep.main(["--cells", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summaries = [line for line in lines if line.startswith("span")]
    assert [line.split(":")[0] for line in summaries] == [f"span 10^+-{s}" for s in (1, 3, 5, 8)]
    # every cell that does not exit 0 is listed under its span's summary
    failing = sum(int(m[1]) + int(m[2]) for m in (re.match(r"span \S+: (\d+) of 2 exit 1, (\d+) exit 3", s) for s in summaries))
    assert len(lines) - len(summaries) == failing
    assert all(re.fullmatch(r"  [0-9a-f]{12} exit [13]: \S.*", line) for line in lines if not line.startswith("span"))
    # the weakest contrast passes every check
    assert summaries[0] == "span 10^+-1: 0 of 2 exit 1, 0 exit 3"


def widest_span_cells(count: int, cells_per_span: int = 120) -> list:
    """The first ``count`` cells of the sweep's last span, as a run with
    ``--cells cells_per_span`` draws them."""
    rng = random.Random(verdict_sweep.SEED)
    for span in verdict_sweep.SPANS[:-1]:
        for _ in range(cells_per_span):
            verdict_sweep.draw_cell(rng, span)
    return [verdict_sweep.draw_cell(rng, verdict_sweep.SPANS[-1]) for _ in range(count)]


def test_spectral_branch_meets_its_gate_on_the_widest_span(monkeypatch) -> None:
    # G and rho spread over 1e16: the branch comes from the compliance pencil,
    # so it forms neither the stiffness nor Li's inverse
    def refuse(*args, **kwargs):
        raise AssertionError("the branch formed the stiffness")

    monkeypatch.setattr(spectral, "assemble", refuse)
    monkeypatch.setattr(spectral, "toeplitz_inverse", refuse)
    monkeypatch.setattr(dispersion, "assemble", refuse, raising=False)
    k = [0.5, 1.5]
    for cell in widest_span_cells(30):
        w_exact = exact_branch(cell, k).omega
        w = spectral_acoustic_branch(cell, k, order=32).omega
        assert np.all(np.abs(w - w_exact) <= BRANCH_RTOL * w_exact), cell_digest(cell)


def test_spectral_static_identities_hold_on_the_widest_span() -> None:
    # G and rho spread over 1e16: no entry of the suite reads Li's G, whose
    # roundoff past 1/sqrt(eps) contrast tripped a realness guard
    for cell in widest_span_cells(30):
        suite = identity_suite(cell, *homogenize(cell, method="spectral", order=32))
        assert max(suite.values()) <= TOLERANCES["spectral"], cell_digest(cell)
