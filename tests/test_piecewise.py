from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval
from numpy.testing import assert_allclose

from willis_homog._piecewise import PiecewisePoly, piecewise_constant
from willis_homog.errors import ValidationError
from willis_homog.material import bilaminate


def evaluate(f: PiecewisePoly, x):
    """f at x (mod 1) from the local row of its segment, right-continuous at interfaces."""
    xw = np.mod(np.asarray(x, dtype=float), 1.0)
    idx = np.clip(np.searchsorted(f.breaks, xw, side="right") - 1, 0, f.breaks.size - 2)
    vals = polyval(xw - f.breaks[idx], np.moveaxis(f.coeffs[idx], -1, 0), tensor=False)
    return vals if vals.shape else complex(vals)


def quadratic_example() -> PiecewisePoly:
    # x^2 on (0, 0.5), 1 - x on (0.5, 1), in local coordinates
    return PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=[[0.0, 0.0, 1.0], [0.5, -1.0, 0.0]])


def test_bound_is_the_coefficient_sum_on_the_worst_segment() -> None:
    f = quadratic_example()
    # segment sums: 1 * 0.5^2 = 0.25 and 0.5 + |-1| * 0.5 = 1
    assert f.bound() == 1.0
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(evaluate(f * f - 3.0, x))) <= (f * f - 3.0).bound()


def test_call_matches_local_polynomials() -> None:
    f = quadratic_example()
    x = np.array([0.1, 0.3, 0.6, 0.9])
    assert_allclose(evaluate(f, x), [0.01, 0.09, 1 - 0.6, 1 - 0.9], atol=1e-15)


def test_call_is_periodic() -> None:
    f = quadratic_example()
    assert_allclose(evaluate(f, 0.3 + 1.0), evaluate(f, 0.3), atol=1e-15)
    assert_allclose(evaluate(f, -0.7), evaluate(f, 0.3), atol=1e-15)


def test_mean_is_exact() -> None:
    f = quadratic_example()
    # int_0^.5 x^2 + int_.5^1 (1-x) = 1/24 + 1/8
    assert_allclose(f.mean, 1 / 24 + 1 / 8, rtol=1e-15)


def test_antiderivative_is_continuous_and_starts_at_zero() -> None:
    f = quadratic_example()
    F = f.antiderivative()
    assert evaluate(F, 0.0) == pytest.approx(0.0, abs=1e-15)
    # probe away from the interface and the periodic wrap
    x = np.concatenate([np.linspace(0.05, 0.45, 5), np.linspace(0.55, 0.95, 5)])
    h = 1e-7
    assert_allclose((evaluate(F, x + h) - evaluate(F, x - h)) / (2 * h), evaluate(f, x), atol=1e-6)
    for b in F.breaks[1:-1]:
        assert abs(evaluate(F, b - 1e-13) - evaluate(F, b + 1e-13)) < 1e-11


def test_derivative_of_antiderivative_roundtrip() -> None:
    # each segment's local row of the antiderivative differentiates back to f's
    f = quadratic_example()
    F = f.antiderivative()
    g = PiecewisePoly(breaks=F.breaks, coeffs=polyder(F.coeffs, axis=1))
    x = np.linspace(0.01, 0.99, 23)
    assert_allclose(evaluate(g, x), evaluate(f, x), atol=1e-13)


def test_arithmetic_with_scalars_and_fields() -> None:
    f = quadratic_example()
    x = np.array([0.2, 0.7])
    assert_allclose(evaluate(f + 2.0, x), evaluate(f, x) + 2.0, atol=1e-15)
    assert_allclose(evaluate(f * 3.0, x), 3.0 * evaluate(f, x), atol=1e-15)
    assert_allclose(evaluate(f - f, x), 0.0, atol=1e-15)
    assert_allclose(evaluate(f * f, x), evaluate(f, x) ** 2, atol=1e-15)


@pytest.mark.parametrize("s", [3, -2.5, 1.5 - 0.5j, np.float64(0.75), np.complex128(-1j), np.array(2.0)])
def test_scalar_arithmetic_matches_the_constant_field_formulas_bitwise(s) -> None:
    # the checked path: a constant column from np.full, and neg-then-add for differences;
    # a zero imaginary part of either sign keeps its sign
    f = PiecewisePoly((0.0, 0.5, 1.0), [[complex(0.5, -0.0), -1.0, 2.0], [-0.25, 0.0, 1.0]])
    c = f.coeffs
    plus, minus, rminus = c.copy(), c.copy(), -c
    plus[:, :1] += np.full((2, 1), s, dtype=complex)
    minus[:, :1] += np.full((2, 1), -s, dtype=complex)
    rminus[:, :1] += np.full((2, 1), s, dtype=complex)
    for got, want in ((f + s, plus), (s + f, plus), (f - s, minus), (s - f, rminus), (f * s, c * s), (s * f, c * s)):
        assert np.array_equal(got.coeffs.view(np.uint64), want.view(np.uint64))
        assert got.breaks is f.breaks and np.array_equal(got.lengths, np.diff(f.breaks))


def test_zero_mean_shifts_the_mean_only() -> None:
    f = quadratic_example()
    g = f.zero_mean()
    assert abs(g.mean) < 1e-16
    x = np.linspace(0, 1, 11)
    assert_allclose(evaluate(f, x) - evaluate(g, x), f.mean, atol=1e-14)


def test_piecewise_constant_from_cell() -> None:
    cell = bilaminate(0.1, 0.1)
    g = piecewise_constant(cell, cell.values("G"))
    assert_allclose([evaluate(g, 0.2), evaluate(g, 0.8)], [1.0, 0.1], atol=1e-15)
    assert_allclose(g.mean, 0.55, rtol=1e-15)


def test_constructor_rejects_rows_that_miss_the_partition() -> None:
    # operations build their results unchecked; the public constructor checks
    with pytest.raises(ValidationError, match="one coefficient row per segment"):
        PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=[[1.0, 2.0]])
    with pytest.raises(ValidationError, match="one coefficient row per segment"):
        PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=np.zeros((2, 0)))
    # a product with an array is checked as well
    with pytest.raises(ValidationError, match="one coefficient row per segment"):
        quadratic_example() * np.ones((3, 2, 1))
    # and so is a sum with an array
    with pytest.raises(ValidationError, match="one coefficient row per segment"):
        quadratic_example() + np.ones(3)


def test_operands_on_different_partitions_are_refused() -> None:
    f = quadratic_example()
    g = PiecewisePoly(breaks=(0.0, 0.25, 1.0), coeffs=[[1.0], [2.0]])
    with pytest.raises(ValidationError, match="different partitions"):
        f * g
    # an equal partition held in another array is the same partition
    same = PiecewisePoly(breaks=np.array([0.0, 0.5, 1.0]), coeffs=[[1.0], [2.0]])
    assert (f * same).mean == pytest.approx(1 / 24 + 2 / 8)
