from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dispersion import resolved_cells
from willis_homog.asymptotics import homogenize
from willis_homog import cli
from willis_homog.cli import build_config, build_verification_report, main
from willis_homog.dispersion import exact_branch
from willis_homog.errors import ConfigError
from willis_homog.material import Phase, UnitCell1D, bilaminate
from willis_homog.spectral import DEFAULT_ORDER


def _benchmark_preset_jobs() -> tuple:
    # the benchmark's byte gate, read as data so the digests live in one place
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PRESET_JOBS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no PRESET_JOBS")


#: (command, preset, {csv name: sha256}) for every preset job with a CSV gate
PRESET_CSV_JOBS = [job for job in _benchmark_preset_jobs() if job[2]]

#: sha256 of the other files those jobs write (identical at 1 and 2 BLAS threads)
PRESET_OTHER_DIGESTS = {
    "coeffs": {"coeffs.json": "9266e848a397d51daf0db61ba9c83e459652bd1f530f3ebddb578ec773fc7754"},
    "dispersion": {"dispersion.svg": "a478a5b13fab0dbe5969d1672e86321d69e881f5a6f06b547acce704dd97705d"},
    "modulation-map": {
        "modulation_re.svg": "95b61ab166881a4970a5edc481d015e013cc49d2cfdae2b6f5eb18b5c9f36f6c",
        "modulation_abs.svg": "810f52902acb5adc612917cb3953345c71b5eb474393043cd35e24eb28784b7f",
    },
    "impedance-map": {
        "impedance_z2.svg": "6bb81a50ac0e23d5b80c298d1a5d0e8366e7a4ea93e29fd9b9f89869f4e19f9f",
        "impedance_cal.svg": "65e660fdab6ea17f2fa5ed04ae6a3aaad06662445811a4df79ba5163b36a92b8",
    },
}


def write_config(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_coeffs_preset_writes_outputs(tmp_path: Path, capsys) -> None:
    rc = main(["coeffs", "--preset", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads((tmp_path / "coeffs.json").read_text())
    assert record["coefficients"]["rho0"] == pytest.approx(0.55)
    assert record["route"] == "exact"
    header = (tmp_path / "coeffs.csv").read_text().splitlines()
    assert header[0].startswith("# willis-homog")
    assert header[1].startswith("# cell:")
    assert header[2].startswith("# basis_n:")
    assert header[3].startswith("# tolerances:")


def test_dispersion_is_deterministic(tmp_path: Path) -> None:
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dispersion", "--preset", "fig2", "--out", str(a)]) == 0
    assert main(["dispersion", "--preset", "fig2", "--out", str(b)]) == 0
    assert (a / "dispersion.csv").read_bytes() == (b / "dispersion.csv").read_bytes()
    svg = (a / "dispersion.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_modulation_map_of_uniform_cell_is_constant(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "cell": {"homogeneous": [1.0, 1.0]},
            "k_range": [0.0, 1.0, 4],
            "omega_range": [0.0, 1.0, 4],
        },
    )
    assert main(["modulation-map", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "modulation.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    assert len(rows) == 16
    assert all(float(r[2]) == pytest.approx(-1.0) for r in rows)
    assert all(float(r[3]) == pytest.approx(1.0) for r in rows)


def test_impedance_map_flags_but_never_divides(tmp_path: Path) -> None:
    assert main(["impedance-map", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "impedance.csv").read_text().splitlines()
    data = [line.split(",") for line in lines if line and not line.startswith("#")]
    cols = data[0]
    rows = data[1:]
    i_z2, i_near, i_cross = cols.index("z2"), cols.index("near_zero"), cols.index("zero_crossing")
    # the modulation factor changes sign inside the grid, so crossings exist
    assert any(r[i_cross] == "1" for r in rows)
    # flagged cells carry nan instead of a divided value
    for r in rows:
        if r[i_near] == "1":
            assert r[i_z2] == "nan"


def test_impedance_map_uniform_cell_polynomials(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "cell": {"homogeneous": [1.0, 1.0]},
            "k_range": [0.0, 2.0, 5],
            "omega_range": [0.0, 2.0, 5],
        },
    )
    assert main(["impedance-map", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "impedance.csv").read_text().splitlines()
    data = [line.split(",") for line in lines if line and not line.startswith("#")]
    cols, rows = data[0], data[1:]
    for r in rows:
        k, w = float(r[cols.index("k")]), float(r[cols.index("omega")])
        assert float(r[cols.index("cal_z2")]) == pytest.approx(w**2 - k**2, abs=1e-12)
        assert float(r[cols.index("z2")]) == pytest.approx(k**2 - w**2, abs=1e-12)


def test_missing_config_and_preset_is_config_error(capsys) -> None:
    assert main(["coeffs"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["coeffs", "--config", str(bad)]) == 2


def test_unknown_field_is_config_error(tmp_path: Path) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "wat": 1})
    assert main(["coeffs", "--config", cfg]) == 2


def test_low_truncation_order_is_config_error(tmp_path: Path) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "basis_n": 2})
    assert main(["coeffs", "--config", cfg]) == 2


def test_resonant_probe_is_numerical_error(tmp_path: Path, capsys) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "probe": [0.5, 0.285462817057]},
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_verify_passes_on_reference_cell(tmp_path: Path, capsys) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is True
    assert all(c["residual"] <= c["tolerance"] for c in report["checks"])


def test_verify_passes_on_a_high_contrast_cell(tmp_path: Path, capsys) -> None:
    # Laurent's product rule missed this cell's branch by 1.06e-2 at N = 128
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.01, 100]}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["basis_n"] == DEFAULT_ORDER
    branch = [c for c in report["checks"] if c["name"].startswith("triangle/spectral_branch")]
    assert len(branch) == 2 and all(c["residual"] <= 1e-9 for c in branch)


def test_verify_fails_with_tight_tolerances(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "tolerances": {"exact": 1e-30}},
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is False


def _corrupt_exact_table(monkeypatch, change) -> None:
    """Make verify's exact static chain hand on ``change(coeffs)`` as its table."""

    def corrupted(cell, method, order):
        fields, coeffs = homogenize(cell, method=method, order=order)
        return fields, change(coeffs) if method == "exact" else coeffs

    monkeypatch.setattr(cli, "homogenize", corrupted)


def test_corrupted_coefficient_is_caught(monkeypatch) -> None:
    cell = bilaminate(0.1, 0.1)
    _corrupt_exact_table(monkeypatch, lambda c: dataclasses.replace(c, mu2=c.mu2 * 1.01))
    report = build_verification_report(cell)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "polynomial/impedance_matches_oracle" in failing


def test_modulation_map_is_deterministic(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {
            "cell": {"bilaminate": [0.1, 0.1]},
            "k_range": [0.0, 2.0, 8],
            "omega_range": [0.0, 2.0, 8],
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["modulation-map", "--config", cfg, "--out", str(a)]) == 0
    assert main(["modulation-map", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "modulation.csv").read_bytes() == (b / "modulation.csv").read_bytes()


def test_basis_n_flag_overrides_config(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "basis_n": 64}
    )
    assert main(["coeffs", "--config", cfg, "--basis-n", "32", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "coeffs.csv").read_text().splitlines()
    assert header[2] == "# basis_n: 32"


@pytest.mark.parametrize("command", ["modulation-map", "dispersion"])
@pytest.mark.parametrize(
    "k_range", [[0.0, float("inf"), 4], [float("-inf"), 1.0, 4], [0.0, 1.0, float("inf")]]
)
def test_non_finite_range_is_config_error(tmp_path: Path, capsys, command, k_range) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "k_range": k_range})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config field 'k_range'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("probe", [[float("inf"), 0.2], [0.5, float("nan")]])
def test_non_finite_probe_is_config_error(tmp_path: Path, capsys, probe) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "probe": probe})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config field 'probe'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeffs", "dispersion", "verify"])
@pytest.mark.parametrize(
    "cell",
    [
        {"phases": [{"length": 0.5, "G": float("inf"), "rho": 1}, {"length": 0.5, "G": 1, "rho": 1}]},
        {"bilaminate": [float("inf"), 1]},
    ],
    ids=["phases-G", "bilaminate-rho"],
)
def test_infinite_phase_data_is_config_error(tmp_path: Path, capsys, command: str, cell: dict) -> None:
    # the JSON reader accepts Infinity; the phase refuses it
    cfg = write_config(tmp_path / "c.json", {"cell": cell})
    assert "Infinity" in Path(cfg).read_text()
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config field 'cell'" in err and "must be finite" in err
    assert not list(tmp_path.glob("*.csv"))


def test_nan_tolerance_is_config_error(tmp_path: Path, capsys) -> None:
    cfg = write_config(
        tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "tolerances": {"exact": float("nan")}}
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config field 'tolerances.exact'" in capsys.readouterr().err
    assert not (tmp_path / "verification.json").exists()


def test_fractional_step_count_is_config_error(tmp_path: Path, capsys) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [0.0, 1.0, 4.7]})
    assert main(["modulation-map", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config field 'k_range'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert build_config({"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [0.0, 1.0, 4.0]}).k_range == (0.0, 1.0, 4)


#: sha256 of ``verify --preset fig2 --basis-n 16``'s verification.json, the
#: same at 1 and 2 BLAS threads.  From N = 32 up OpenBLAS threads the
#: Cholesky factorizations of the spectral branch, which moves the last
#: digits of its two residuals with the thread count
VERIFICATION_N16_DIGEST = "b23072dcfc0a9a0564e6cf8c106439be15701ea72efb239019b0cf7245f78222"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verification_json_is_pinned(tmp_path: Path, threads: str) -> None:
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = ["verify", "--preset", "fig2", "--basis-n", "16", "--out", str(tmp_path)]
    subprocess.run([sys.executable, "-m", "willis_homog", *command], env=env, check=True, capture_output=True)
    digest = hashlib.sha256((tmp_path / "verification.json").read_bytes()).hexdigest()
    assert digest == VERIFICATION_N16_DIGEST


def test_build_config_rejects_unordered_range() -> None:
    with pytest.raises(ConfigError):
        build_config({"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [2.0, 1.0, 8]})


def test_build_config_rejects_unknown_tolerance() -> None:
    with pytest.raises(ConfigError):
        build_config({"cell": {"bilaminate": [0.1, 0.1]}, "tolerances": {"nope": 1.0}})


@pytest.mark.parametrize(
    "cell", [{"homogeneous": [1, 1]}, {"homogeneous": [2, 1]}, {"bilaminate": [0.1, 10]}]
)
def test_verify_does_not_crash_on_simple_cells(tmp_path: Path, capsys, cell) -> None:
    # mu2 = rho2 = 0 puts the two-scale roots on the acoustic cone
    cfg = write_config(tmp_path / "c.json", {"cell": cell})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    assert "numerical error" not in capsys.readouterr().err


def _scaled_fig2(a: float, b: float) -> dict:
    return {"phases": [{"length": 0.5, "G": a, "rho": b}, {"length": 0.5, "G": 0.1 * a, "rho": 0.1 * b}]}


_SCALE_IDS = {1e-15: "1e-15", 1e-12: "1e-12", 1e-6: "1e-6", 1e-3: "1e-3", 1.0: "1", 1e3: "1e3", 1e6: "1e6"}

#: (a, b) of fig2's cell scaled by (G, rho) -> (aG, b rho), every speed by sqrt(a/b)
_UNIT_CHANGES = [
    *((a, a) for a in (1e-12, 1e-6, 1e-3, 1e3, 1e6)),
    *((a, b) for a in (1e-6, 1.0, 1e6) for b in (1e-6, 1.0, 1e6) if a != b),
    (1e-12, 1.0),
    (1e-15, 1.0),
    (1.0, 1e-15),
]


@pytest.mark.parametrize(
    "cell",
    [*(_scaled_fig2(a, b) for a, b in _UNIT_CHANGES), {"homogeneous": [100, 1]}],
    ids=[*(f"fig2*{_SCALE_IDS[a]}" if a == b else f"fig2*({_SCALE_IDS[a]},{_SCALE_IDS[b]})" for a, b in _UNIT_CHANGES), "homogeneous(100,1)"],
)
def test_verify_passes_under_a_change_of_units(tmp_path: Path, cell: dict) -> None:
    # every threshold is in the cell's own scales, so no verdict depends on the units
    cfg = write_config(tmp_path / "c.json", {"cell": cell})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0


@settings(max_examples=10, derandomize=True, deadline=None)
@given(cell=resolved_cells(), log_a=st.floats(-6.0, 6.0), log_b=st.floats(-6.0, 6.0))
def test_verify_passes_on_resolved_cells_in_any_units(cell: UnitCell1D, log_a: float, log_b: float) -> None:
    a, b = 10.0**log_a, 10.0**log_b
    scaled = UnitCell1D(tuple(Phase(p.length, a * p.G, b * p.rho) for p in cell.phases))
    report = build_verification_report(scaled)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_spectral_coeffs_of_a_high_contrast_cell(tmp_path: Path) -> None:
    cell = {
        "phases": [
            {"length": 0.5915613529685979, "G": 2.0829203755954, "rho": 23498.45619076656},
            {"length": 0.4084386470314021, "G": 24440.941463391966, "rho": 79.60091009589874},
        ]
    }
    cfg = write_config(tmp_path / "c.json", {"cell": cell, "route": "spectral"})
    assert main(["coeffs", "--config", cfg, "--basis-n", "32", "--out", str(tmp_path)]) == 0


def test_numerical_error_in_a_check_group_is_a_failing_check(monkeypatch, capsys) -> None:
    cell = bilaminate(0.1, 0.1)
    # a negative mean density ends the two-scale branch before the root probes
    _corrupt_exact_table(monkeypatch, lambda c: dataclasses.replace(c, rho0=-c.rho0))
    report = build_verification_report(cell)
    failed = [c for c in report.checks if c.name == "polynomial"]
    assert len(failed) == 1 and failed[0].residual == float("inf")
    assert not report.passed
    assert "two-scale branch terminates" in capsys.readouterr().err


def test_verify_default_probe_clears_a_slow_cell(tmp_path: Path, capsys) -> None:
    # the cell's speed is 0.4, so its branch passes through (0.5, 0.2)
    cfg = write_config(tmp_path / "c.json", {"cell": {"homogeneous": [0.16, 1]}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_verify_identity_probe_clears_every_cone(tmp_path: Path, capsys) -> None:
    # c0 = 0.3 put the absolute identity probe (1, 0.3) on this cell's cone
    cfg = write_config(tmp_path / "c.json", {"cell": {"homogeneous": [0.09, 1]}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_verify_keeps_the_default_probe_off_the_branch(capsys) -> None:
    cell = bilaminate(0.1, 0.1)
    w_branch = exact_branch(cell, [0.5]).omega[0]
    report = build_verification_report(cell)
    assert report == build_verification_report(cell, probe=(0.5, 0.7 * w_branch))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command,preset,digests", PRESET_CSV_JOBS, ids=[job[0] for job in PRESET_CSV_JOBS]
)
def test_preset_csvs_match_benchmark_digests(tmp_path: Path, command, preset, digests) -> None:
    assert main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "command,preset", [job[:2] for job in PRESET_CSV_JOBS], ids=[job[0] for job in PRESET_CSV_JOBS]
)
def test_preset_svgs_and_coeffs_json_are_pinned(tmp_path: Path, command, preset) -> None:
    assert main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
    for name, digest in PRESET_OTHER_DIGESTS[command].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    for svg in tmp_path.glob("*.svg"):
        assert ElementTree.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_svg_text_is_escaped(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "cell_label": "A&B <x>", "k_range": [0.0, 1.0, 4]},
    )
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
    root = ElementTree.parse(tmp_path / "dispersion.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "A&B <x>: exact" in texts


def test_dispersion_of_a_stiff_cell_resolves(tmp_path: Path) -> None:
    # speed 10: the branch reaches omega = 31 on the default k range
    cfg = write_config(tmp_path / "cfg.json", {"cell": {"homogeneous": [100, 1]}})
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
