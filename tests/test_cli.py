from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from willis_homog.asymptotics import homogenize
from willis_homog.cli import build_config, build_verification_report, main
from willis_homog.errors import ConfigError
from willis_homog.material import bilaminate


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


def test_verify_fails_with_tight_tolerances(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "tolerances": {"exact": 1e-30}},
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is False


def test_corrupted_coefficient_is_caught() -> None:
    cell = bilaminate(0.1, 0.1)
    _, coeffs = homogenize(cell, method="exact")
    bad = dataclasses.replace(coeffs, mu2=coeffs.mu2 * 1.01)
    report = build_verification_report(cell, coefficients=bad)
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


def test_numerical_error_in_a_check_group_is_a_failing_check(capsys) -> None:
    cell = bilaminate(0.1, 0.1)
    _, coeffs = homogenize(cell, method="exact")
    # a negative mean density ends the two-scale branch before the root probes
    bad = dataclasses.replace(coeffs, rho0=-coeffs.rho0)
    report = build_verification_report(cell, coefficients=bad)
    failed = [c for c in report.checks if c.name == "polynomial"]
    assert len(failed) == 1 and failed[0].residual == float("inf")
    assert not report.passed
    assert "two-scale branch terminates" in capsys.readouterr().err
