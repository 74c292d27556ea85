from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.errors import ValidationError
from willis_homog.material import (
    FourierField,
    Phase,
    UnitCell1D,
    bilaminate,
    cell_digest,
    cell_from_dict,
    cell_to_dict,
    fourier_coefficients,
    homogeneous,
)


def test_phase_rejects_nonpositive_properties() -> None:
    with pytest.raises(ValidationError):
        Phase(length=0.5, G=0.0, rho=1.0)
    with pytest.raises(ValidationError):
        Phase(length=0.5, G=1.0, rho=-2.0)
    with pytest.raises(ValidationError):
        Phase(length=0.0, G=1.0, rho=1.0)


@pytest.mark.parametrize("G,rho", [(math.inf, 1.0), (1.0, math.inf)])
def test_phase_rejects_infinite_properties(G: float, rho: float) -> None:
    with pytest.raises(ValidationError, match="finite"):
        Phase(length=0.5, G=G, rho=rho)


def test_cell_lengths_must_fill_the_unit_interval() -> None:
    with pytest.raises(ValidationError):
        UnitCell1D(phases=(Phase(0.4, 1.0, 1.0), Phase(0.4, 2.0, 2.0)))


def test_bilaminate_layout_and_means() -> None:
    cell = bilaminate(0.1, 0.1)
    assert cell.breakpoints == pytest.approx([0.0, 0.5, 1.0])
    assert_allclose(cell.mean("rho"), 0.55, rtol=1e-15)
    assert_allclose(cell.mean("G"), 0.55, rtol=1e-15)
    assert_allclose(cell.mean("1/G"), 0.5 * (1.0 + 10.0), rtol=1e-15)


def test_homogeneous_cell_is_single_phase() -> None:
    cell = homogeneous(2.0, 3.0)
    assert len(cell.phases) == 1
    assert cell.mean("G") == pytest.approx(2.0)
    assert cell.mean("rho") == pytest.approx(3.0)


def test_fourier_coefficients_match_half_cell_formula() -> None:
    # for equal halves with values v1, v2 the odd harmonics are
    # -i (v1 - v2) / (pi m) and the even ones vanish
    cell = bilaminate(0.2, 0.3)
    (field,) = fourier_coefficients(cell, ("G",), 8)
    v1, v2 = 1.0, 0.3
    c = dict(zip(range(-8, 9), field.coeffs))
    assert abs(c[0] - (v1 + v2) / 2) < 1e-15
    for m in (-3, 1, 5):
        assert abs(c[m] - (-1j * (v1 - v2) / (np.pi * m))) < 1e-15
    for m in (-4, 2, 6):
        assert abs(c[m]) < 1e-15


def test_fourier_mean_is_cell_mean() -> None:
    cell = bilaminate(0.1, 0.1)
    for name in ("G", "rho", "1/G"):
        (field,) = fourier_coefficients(cell, (name,), 16)
        assert_allclose(field.mean, cell.mean(name), rtol=1e-14)


def evaluate(f: FourierField, x) -> np.ndarray:
    """sum_m c_m exp(2 pi i m x) at each x."""
    m = np.arange(-f.order, f.order + 1)
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(x, dtype=float), m)) @ f.coeffs


def test_fourier_field_evaluation_converges_off_interfaces() -> None:
    cell = bilaminate(0.1, 0.1)
    x = np.array([0.2, 0.7])
    errs = []
    for n in (16, 64, 256):
        (field,) = fourier_coefficients(cell, ("rho",), n)
        errs.append(np.max(np.abs(evaluate(field, x) - [1.0, 0.1])))
    assert errs[2] < errs[0]


def test_conjugate_symmetry_of_real_fields() -> None:
    cell = bilaminate(0.3, 0.7)
    (field,) = fourier_coefficients(cell, ("G",), 12)
    assert np.max(np.abs(field.coeffs[::-1] - np.conj(field.coeffs))) < 1e-15


def _direct_truncated(a: np.ndarray, b: np.ndarray, n: int, op) -> np.ndarray:
    """c_m = op over harmonics, m = -n..n, by explicit sums over the index sets."""
    na, nb = (a.size - 1) // 2, (b.size - 1) // 2
    out = np.zeros(2 * n + 1, dtype=complex)
    for m in range(-n, n + 1):
        if op == "add":
            out[m + n] = a[m + na] + b[m + nb]
        else:
            out[m + n] = sum(
                a[p + na] * b[m - p + nb] for p in range(-na, na + 1) if abs(m - p) <= nb
            )
    return out


@pytest.mark.parametrize("orders", [(3, 5), (5, 3), (4, 4), (8, 4), (2, 7)])
def test_fourier_field_sums_and_products_truncate_to_the_lower_order(orders) -> None:
    rng = np.random.default_rng(7)
    na, nb = orders
    a = rng.standard_normal(2 * na + 1) + 1j * rng.standard_normal(2 * na + 1)
    b = rng.standard_normal(2 * nb + 1) + 1j * rng.standard_normal(2 * nb + 1)
    fa, fb = FourierField(a), FourierField(b)
    n = min(na, nb)
    assert (fa + fb).order == (fa * fb).order == n
    assert_allclose((fa + fb).coeffs, _direct_truncated(a, b, n, "add"), atol=1e-14)
    assert_allclose((fa - fb).coeffs, _direct_truncated(a, -b, n, "add"), atol=1e-14)
    assert_allclose((fa * fb).coeffs, _direct_truncated(a, b, n, "mul"), atol=1e-13)


def test_fourier_field_scalar_algebra_and_calculus() -> None:
    (f,) = fourier_coefficients(bilaminate(0.1, 0.1), ("rho",), 16)
    x = np.array([0.1, 0.3, 0.7])
    assert_allclose(evaluate(2.0 * f - 1.0, x), 2.0 * evaluate(f, x) - 1.0, atol=1e-13)
    assert_allclose((1.0 - f).mean, 1.0 - f.mean, atol=1e-15)
    # d/dx exp(2 pi i x) = 2 pi i exp(2 pi i x)
    e1 = FourierField(np.array([0.0, 0.0, 1.0]))
    assert_allclose(evaluate(e1.derivative(), x), 2j * np.pi * evaluate(e1, x), atol=1e-13)
    assert e1.bound() == 1.0


def test_dict_roundtrip_preserves_cell() -> None:
    cell = UnitCell1D(
        phases=(Phase(0.3, 1.0, 1.0), Phase(0.5, 0.2, 3.0), Phase(0.2, 2.5, 0.4))
    )
    again = cell_from_dict(cell_to_dict(cell))
    assert again.phases == cell.phases
    assert cell_digest(again) == cell_digest(cell)


def test_digest_distinguishes_cells() -> None:
    a = cell_digest(bilaminate(0.1, 0.1))
    b = cell_digest(bilaminate(0.1, 0.2))
    assert a != b
    assert len(a) == 12


@pytest.mark.parametrize(
    "build",
    [
        lambda: FourierField(np.zeros(4)),
        lambda: FourierField(np.zeros((3, 3))),
        lambda: FourierField(np.zeros(0)),
        # operations between fields build their results unchecked, a product or sum with an array does not
        lambda: FourierField(np.ones(3)) * np.ones((2, 3)),
        lambda: FourierField(np.ones(3)) + np.ones(2),
    ],
)
def test_fourier_field_rejects_a_malformed_array(build) -> None:
    with pytest.raises(ValidationError, match="odd length"):
        build()


def test_fourier_coefficients_of_several_fields_share_one_table() -> None:
    cell = UnitCell1D((Phase(0.2, 1.0, 3.0), Phase(0.3, 7.0, 0.5), Phase(0.5, 2.0, 1.0)))
    inv_g, rho = fourier_coefficients(cell, ("1/G", "rho"), 12)
    assert np.array_equal(inv_g.coeffs, fourier_coefficients(cell, ("1/G",), 12)[0].coeffs)
    assert np.array_equal(rho.coeffs, fourier_coefficients(cell, ("rho",), 12)[0].coeffs)


def test_breakpoints_are_one_read_only_array_per_cell() -> None:
    cell = bilaminate(0.1, 0.1)
    assert cell.breakpoints is cell.breakpoints
    with pytest.raises(ValueError):
        cell.breakpoints[1] = 0.25
