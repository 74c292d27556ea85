from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dispersion import HIGH_CONTRAST, resolved_cells
from willis_homog.asymptotics import homogenize
from willis_homog import cli, verify, willis
from willis_homog.cli import build_config, main
from willis_homog.verify import build_verification_report
from willis_homog.dispersion import exact_branch, order2_branch
from willis_homog.errors import ConfigError, NumericalError
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_to_dict
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
        "modulation_re.svg": "dd0c4934b0e7b8abc27e1394b11eed17268772b8020c3ff0e07634337529d938",
        "modulation_abs.svg": "4361f24620fe87504135c1ec46ab81ddb9fbb8c398473a5bd57822189afc55b9",
    },
    "impedance-map": {
        "impedance_z2.svg": "303e4efb1b49c0fc94773a1f4740ab17c0a354da7a07e08c4c062aef5cd9927d",
        "impedance_cal.svg": "ed758d5dbbc1cd5d74f99e2e71c03c5851be7b8782960326304fafd05a708b62",
    },
}


#: the SVG namespace, as ElementTree prefixes tags
SVG = "{http://www.w3.org/2000/svg}"


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


def test_dispersion_ends_the_order2_branch_where_its_polynomial_overflows(tmp_path: Path) -> None:
    # k**4 overflows past k ~ 1e77: the order-2 branch terminates there, like past its radicand's zero
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [0, 1e160, 4]})
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    branches = [line.split(",")[1] for line in lines if not line.startswith("#")][1:]
    assert branches.count("exact") == branches.count("quasistatic") == 4 and branches.count("order2") == 1
    _, coeffs = homogenize(bilaminate(0.1, 0.1), method="exact")
    assert order2_branch(coeffs, [0.0, 2.5e159, 5e159]).terminated_at == 2.5e159


@pytest.mark.parametrize("k_range", [[0.5, 1, 1], [0, 1, 1]])
def test_dispersion_of_one_k_draws(tmp_path: Path, k_range) -> None:
    # one k is a zero k span; at k = 0 every branch is 0, a zero omega span too
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "k_range": k_range})
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
    root = ElementTree.parse(tmp_path / "dispersion.svg").getroot()
    points = [line.get("points").split(",") for line in root.iter(f"{SVG}polyline")]
    assert len(points) == 3
    assert all(math.isfinite(float(x)) and math.isfinite(float(y)) for x, y in points)


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


@pytest.mark.parametrize("kind", ["invalid-json", "directory", "non-utf8"])
def test_malformed_json_is_config_error(tmp_path: Path, capsys, kind: str) -> None:
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"{not json" if kind == "invalid-json" else b"\xff\xfe{")
    assert main(["coeffs", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
def test_unusable_out_is_config_error(tmp_path: Path, capsys, out: str) -> None:
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    assert main(["coeffs", "--preset", "fig2", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(tmp_path / out) in err and err.count("\n") == 1


def test_one_flat_parser(tmp_path: Path, capsys) -> None:
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    help_text = capsys.readouterr().out
    for name, description in [
        ("coeffs", "homogenized coefficient table of a cell"),
        ("dispersion", "lowest branch: exact, order-2 and quasistatic"),
        ("modulation-map", "source modulation polynomial on a (k, omega) grid"),
        ("impedance-map", "paired impedance polynomials on a (k, omega) grid"),
        ("verify", "run the identity and oracle check suites"),
    ]:
        assert f"  {name:16s}{description}\n" in help_text
    assert all(option in help_text for option in ("--config", "--out", "--basis-n", "--preset"))

    parser = cli._build_parser()
    options = ["--preset", "fig3", "--basis-n", "8", "--out", str(tmp_path), "--config", "c.json"]
    assert parser.parse_args([*options, "verify"]) == parser.parse_args(["verify", *options])
    for argv in ([], ["bogus"], ["--preset", "fig2"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2


def test_unknown_field_is_config_error(tmp_path: Path) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "wat": 1})
    assert main(["coeffs", "--config", cfg]) == 2


def test_low_truncation_order_is_config_error(tmp_path: Path) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "basis_n": 2})
    assert main(["coeffs", "--config", cfg]) == 2


def test_resonant_probe_fails_the_exact_dynamic_group(tmp_path: Path, capsys) -> None:
    # the exact dynamic group fails like every other group: a report, not exit 3
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "probe": [0.5, 0.285462817057]},
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is False
    failed = [c for c in report["checks"] if c["name"] == "dynamic" and c["route"] == "exact"]
    assert [c["residual"] for c in failed] == [float("inf")] and failed[0]["passed"] is False
    assert not [c for c in report["checks"] if c["name"].startswith("dynamic/") and c["route"] == "exact"]
    err = capsys.readouterr().err
    assert "numerical error" not in err
    assert "check dynamic (exact) could not run: (k, omega) = (0.5, 0.285462817057) lies on a Bloch branch" in err


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


def _corrupt_exact_table(monkeypatch, change) -> None:
    """Make verify's exact static chain hand on ``change(coeffs)`` as its table."""

    def corrupted(cell, method, order):
        fields, coeffs = homogenize(cell, method=method, order=order)
        return fields, change(coeffs) if method == "exact" else coeffs

    monkeypatch.setattr(verify, "homogenize", corrupted)


def test_corrupted_coefficient_is_caught(monkeypatch) -> None:
    cell = bilaminate(0.1, 0.1)
    _corrupt_exact_table(monkeypatch, lambda c: dataclasses.replace(c, mu2=c.mu2 * 1.01))
    report = build_verification_report(cell)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "polynomial/impedance_matches_oracle" in failing


@pytest.mark.parametrize("field", ["mu2", "s_g"])
def test_second_order_coefficient_error_is_caught(tmp_path: Path, monkeypatch, field: str) -> None:
    # the polynomial checks pass this cell with mu2 or s_g off by 3%; mu2 = mu0 s_g does not
    phases = [
        {"length": 0.2, "G": 3.0, "rho": 0.5},
        {"length": 0.5, "G": 0.7, "rho": 2.0},
        {"length": 0.3, "G": 1.5, "rho": 1.1},
    ]
    cfg = write_config(tmp_path / "c.json", {"cell": {"phases": phases}})
    _corrupt_exact_table(monkeypatch, lambda c: dataclasses.replace(c, **{field: getattr(c, field) * (1 + 1e-6)}))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    failing = {(c["name"], c["route"]) for c in report["checks"] if not c["passed"]}
    assert failing == {("static/second_order_coefficient_identity", "exact")}


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


@pytest.mark.parametrize(
    "probe,reason",
    [
        ([0.0, 0.1], "undefined at k = 0"),
        ([6.283185307179586, 0.1], "undefined at k = 0"),
        ([1e-13, 0.1], "undefined at k = 0"),
        ([0.5, 1e160], "omega^2 must be finite, got 1e+160"),
    ],
    ids=["k=0", "k=2pi", "k=1e-13", "omega^2-overflows"],
)
def test_probe_outside_the_dynamic_identities_is_config_error(tmp_path: Path, capsys, probe, reason: str) -> None:
    # the identities divide by k, the rule of the static dipole's k = 0 check,
    # and square k and omega (willis.require_identity_point); neither is a
    # numerical failure (exit 3) or a traceback
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "probe": probe})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: config field 'probe': ") and reason in line
    assert not (tmp_path / "verification.json").exists()


def test_probe_far_from_k_0_mod_2pi_runs() -> None:
    # k mod 2 pi comes from libm's exact reduction: 2 pi 1e6 lies 4.46e-10 off
    # the kernel and 1e17 2.66 off, where k - 2 pi rint(k / 2 pi) read both as 0
    cell = bilaminate(0.1, 0.1)
    for k in (2.0 * math.pi * 1e6, 1e17):
        assert build_config({"cell": {"bilaminate": [0.1, 0.1]}, "probe": [k, 0.1]}).probe == (k, 0.1)
    # every check passes but the comparison of the routes' responses: at k this large w
    # follows 1/(G k^2), which jumps with G, and the spectral <rho w> is off by 5.1e-2 at
    # N = 16 (2.6e-2 at N = 32), converging like 1/N
    report = build_verification_report(cell, 16, (2.0 * math.pi * 1e6, 0.1))
    (failed,) = [c for c in report.checks if not c.passed]
    assert failed.name == "dynamic/route_agreement_responses" and 1e-2 < failed.residual < 1e-1


def test_zero_frequency_probe_is_config_error(tmp_path: Path, capsys) -> None:
    # the Willis parameters divide by omega; a static probe is no numerical failure
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "probe": [0.5, 0.0]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config field 'probe'" in err and "omega != 0" in err and "numerical error" not in err
    assert not (tmp_path / "verification.json").exists()


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


def test_fractional_step_count_is_config_error(tmp_path: Path, capsys) -> None:
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [0.0, 1.0, 4.7]})
    assert main(["modulation-map", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config field 'k_range'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert build_config({"cell": {"bilaminate": [0.1, 0.1]}, "k_range": [0.0, 1.0, 4.0]}).k_range == (0.0, 1.0, 4)


#: sha256 of ``verify --preset fig2 --basis-n 16``'s verification.json, the
#: same at 1 and 2 BLAS threads.  From N = 32 up OpenBLAS threads the
#: factorizations of the spectral branch, which moves the last digits of its
#: two residuals with the thread count.  Re-pinned when the static suite
#: dropped first_order_flux_identity, which restated the chain's own solve
#: (exact 7.585374702407901e-17, spectral 0.0), and the couplings' residuals
#: took the couplings' own size, floored at sqrt(|rho| |C|):
#: dynamic/route_agreement moved from 7.467190500540184e-17 to
#: 1.3009646757398315e-16 (exact) and from 6.045393128667233e-16 to
#: 1.8350209941075003e-15 (spectral), dynamic/symmetry_couplings_conjugate
#: from 7.467190500540184e-17 to 1.3009646757398315e-16 (exact) and from
#: 1.9482223949806523e-16 to 3.394273049980783e-16 (spectral); every other
#: entry keeps its bytes.  Re-pinned when the spectral static chain became
#: its Galerkin rows on coefficient arrays, whose table no longer shares the
#: chain's field products: static/solver_residual moved from
#: 5.602705292762868e-34 to 1.152704037019816e-17,
#: static/static_dipole_flux_matches_covariance from 0.0 to
#: 2.26165541720296e-16 and static/constant_density_reduction from
#: 2.1978911969103953e-18 to 1.2439104794616284e-16 (all spectral); every
#: other entry keeps its bytes
VERIFICATION_N16_DIGEST = "360168829c4f62092302cff1edd17d16f68143ca667e5e59dc81c00d74b5c29e"


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


def test_tolerances_config_field_is_rejected(tmp_path: Path, capsys) -> None:
    # verify's thresholds are one fixed table, which every CSV header records
    cfg = write_config(tmp_path / "c.json", {"cell": {"bilaminate": [0.1, 0.1]}, "tolerances": {"exact": 1e-8}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config fields: ['tolerances']" in capsys.readouterr().err
    assert not (tmp_path / "verification.json").exists()


@pytest.mark.parametrize(
    "cell", [{"homogeneous": [1, 1]}, {"homogeneous": [2, 1]}, {"bilaminate": [0.1, 10]}]
)
def test_verify_does_not_crash_on_simple_cells(tmp_path: Path, capsys, cell) -> None:
    # mu2 = rho2 = 0 puts the two-scale roots on the acoustic cone
    cfg = write_config(tmp_path / "c.json", {"cell": cell})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    assert "numerical error" not in capsys.readouterr().err


@pytest.mark.parametrize("basis_n", ["8", "16", "32"])
def test_verify_reports_on_a_cell_of_extreme_contrast(tmp_path: Path, capsys, basis_n: str) -> None:
    # T(1/G) of G = 1e-9 | 1e9 is near singular: Li's G must still be formed
    # (by LU; a Cholesky inverse raises LinAlgError here) and verify must report
    phases = [{"length": 0.5, "G": 1e-9, "rho": 1}, {"length": 0.5, "G": 1e9, "rho": 1}]
    cfg = write_config(tmp_path / "c.json", {"cell": {"phases": phases}})
    assert main(["verify", "--config", cfg, "--basis-n", basis_n, "--out", str(tmp_path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    checks = json.loads((tmp_path / "verification.json").read_text())["checks"]
    # the dipole's flux is stored as itself, not as <G> = 5e8 plus it, so the
    # exact Willis parameters hold to roundoff here
    assert [c["name"] for c in checks if c["route"] == "exact" and not c["passed"]] == []


def test_verify_reports_on_a_cell_whose_first_band_ends_below_a_rayleigh_step(tmp_path: Path, capsys) -> None:
    # c = 2.6e3 c0: a scan in steps of 0.01 c finds no branch crossing at k = 0.5 (exit 3)
    cfg = write_config(tmp_path / "c.json", {"cell": cell_to_dict(HIGH_CONTRAST[0])})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    assert "numerical error" not in capsys.readouterr().err
    checks = json.loads((tmp_path / "verification.json").read_text())["checks"]
    assert all(c["passed"] for c in checks if c["name"].startswith("triangle/impedance_root"))


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
    # each two-scale root check is a row of its own; the oracle row before them still reports
    failed = [c for c in report.checks if c.residual == float("inf")]
    assert [c.name for c in failed] == ["polynomial/root_construction", "polynomial/root_dual_route"]
    assert [c.tolerance for c in failed] == [1e-10, 1e-9]
    assert {c.name for c in report.checks} >= {"polynomial/impedance_matches_oracle", "polynomial/dipole_matches_oracle"}
    assert not report.passed
    assert "two-scale branch terminates" in capsys.readouterr().err


#: verify's table on fig2 at N = 16, (name, route) per row, read without running a row
_FIG2_ROWS = [(r.name, r.route) for r in verify._rows(bilaminate(0.1, 0.1), 16, (0.5, 0.2), (1.0, 2.0))]


@pytest.mark.parametrize("index", range(len(_FIG2_ROWS)), ids=[f"{name}-{route}" for name, route in _FIG2_ROWS])
def test_a_row_that_raises_is_one_failing_check_in_its_place(monkeypatch, capsys, index: int) -> None:
    cell = bilaminate(0.1, 0.1)
    baseline = build_verification_report(cell, 16).checks
    rows, ran = verify._rows, []

    def fail():
        raise NumericalError("injected")

    def failing_row(*args):
        table = rows(*args)
        ran.extend((row, list(row.residuals())) for row in table)
        table[index] = table[index]._replace(residuals=fail)
        return table

    monkeypatch.setattr(verify, "_rows", failing_row)
    report = build_verification_report(cell, 16)
    # the checks of the rows before it, then one inf check named after the row, then the rest
    start = sum(len(names) for _, names in ran[:index])
    row, names = ran[index]
    assert [(c.name, c.route) for c in baseline[start : start + len(names)]] == [(n, row.route) for n in names]
    failed = verify.CheckResult(row.name, row.route, math.inf, row.tolerance)
    assert report.checks == (*baseline[:start], failed, *baseline[start + len(names) :])
    assert f"check {row.name} ({row.route}) could not run: injected" in capsys.readouterr().err


def test_verify_fails_the_spectral_checks_of_an_indefinite_mass_matrix(tmp_path: Path, capsys) -> None:
    # density spanning 1e15: the spectral mass matrix is not positive definite
    # in floating point, so every spectral check that needs its eigenvalues fails
    phases = [(0.262, 1e5, 0.0199), (0.310, 4.4e-8, 5.28e7), (0.121, 0.0127, 0.146), (0.307, 0.0365, 1.6e-8)]
    cell = {"phases": [{"length": h, "G": G, "rho": rho} for h, G, rho in phases]}
    cfg = write_config(tmp_path / "c.json", {"cell": cell})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    for part in ("spectral eigenvalues", "not positive definite", "k = 0.5", "N = 32", "cell e027265c3a5a"):
        assert part in err, part
    checks = {c["name"]: c for c in json.loads((tmp_path / "verification.json").read_text())["checks"]}
    for name in ("dynamic", "triangle/spectral_branch_k=0.5", "triangle/spectral_branch_k=1.5"):
        assert checks[name]["route"] == "spectral" and checks[name]["residual"] == float("inf"), name
    # the exact triangle checks still run
    assert checks["triangle/impedance_root_k=0.5"]["passed"] and checks["triangle/impedance_root_k=1.5"]["passed"]


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
        root = ElementTree.parse(svg).getroot()
        assert root.tag == f"{SVG}svg"
        if command.endswith("-map"):
            # the grid is one PNG image; the only rects are the page and the plot's outline
            (image,) = root.iter(f"{SVG}image")
            assert image.get("href").startswith("data:image/png;base64,")
            assert len(list(root.iter(f"{SVG}rect"))) == 2
            assert svg.stat().st_size <= 45_000


def test_svg_text_is_escaped(tmp_path: Path) -> None:
    cfg = write_config(
        tmp_path / "c.json",
        {"cell": {"bilaminate": [0.1, 0.1]}, "cell_label": "A&B <x>", "k_range": [0.0, 1.0, 4]},
    )
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
    root = ElementTree.parse(tmp_path / "dispersion.svg").getroot()
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert "A&B <x>: exact" in texts


def test_dispersion_of_a_stiff_cell_resolves(tmp_path: Path) -> None:
    # speed 10: the branch reaches omega = 31 on the default k range
    cfg = write_config(tmp_path / "cfg.json", {"cell": {"homogeneous": [100, 1]}})
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0


#: the averages that the two mean balances through the static dipole read;
#: verify checks those balances only through the identities they sum
#: (``dynamic_identity_residuals``), so each must still fail a kept check of
#: its route.  <w> alone enters no identity of its route (Z = 1/<w> cancels),
#: so only the comparison of the two routes' responses sees it
@pytest.mark.parametrize(
    "kind,field",
    [("monopole", "mean"), ("monopole", "mean_rho"), ("monopole", "mean_flux"), ("dipole", "mean_rho"), ("dipole", "mean_flux")],
    ids=["w.mean", "w.mean_rho", "w.mean_flux", "v.mean_rho", "v.mean_flux"],
)
@pytest.mark.parametrize("route", ["exact", "spectral"])
@pytest.mark.parametrize(
    "cell",
    [bilaminate(0.1, 0.1), UnitCell1D((Phase(0.2, 3.0, 0.5), Phase(0.5, 0.7, 2.0), Phase(0.3, 1.5, 1.1)))],
    ids=["fig2", "three-phase"],
)
def test_kept_dynamic_checks_catch_a_scaled_average(
    monkeypatch, cell: UnitCell1D, route: str, kind: str, field: str
) -> None:
    # each factor is one that the check meant to see it clears: 1e-8 on the exact
    # identities, 1e-5 on the spectral ones and on the comparison of the routes
    factor = 1 + 1e-4 if field == "mean" else {"exact": 1 + 1e-6, "spectral": 1 + 1e-3}[route]
    solve = willis.responses

    def scaled(cell, k, omega, kinds, method, order=DEFAULT_ORDER):
        out = solve(cell, k, omega, kinds, method, order)
        if method != route:
            return out
        return [r._replace(**{field: getattr(r, field) * factor}) if name == kind else r for name, r in zip(kinds, out)]

    monkeypatch.setattr(willis, "responses", scaled)
    monkeypatch.setattr(verify, "responses", scaled)
    cross = ("dynamic/route_agreement_responses", "spectral")
    failing = {(c.name, c.route) for c in build_verification_report(cell).checks if c.name.startswith("dynamic/") and not c.passed}
    if field == "mean":
        assert cross in failing
    else:
        assert {(name, r) for name, r in failing - {cross} if r == route}
