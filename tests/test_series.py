"""Power series tests.

Covers: the check routes' truncated series (``verification.PowerSeries``):
int-only scalars, pickling, ring axioms (checked property-style), the
quasi-inverse contract, derivatives, T(z) read off the count table against
the convolution recurrences, the coefficientwise identity check of
``verify`` (``_check_series``) with deliberate corruption, and the numeric
evaluation branch (``counting.eval_T_numeric``) with its singular endpoint
and its relative error against a high-precision root from subnormal z up
to 0.9 * 4/27.
"""
from __future__ import annotations

import copy
import math
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deptrees import build_count_table, eval_T_numeric
from deptrees.counting import SINGULARITY_FLOAT
from deptrees.verification import (
    PowerSeries,
    _check_series,
    convolution_table,
    z_times_derivative,
)

coefficients = st.integers(-9, 9)
series = st.lists(coefficients, min_size=1, max_size=7).map(PowerSeries)
delayed_series = st.lists(coefficients, min_size=1, max_size=6).map(
    lambda tail: PowerSeries([0] + tail)
)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerSeries([])

    def test_rejects_non_rational(self):
        # a float or str scalar is no int: the series refuses it, and so
        # does the other operand
        T = PowerSeries(build_count_table(4).t)
        for other in (1.5, "2"):
            for op in (lambda: T * other, lambda: other * T,
                       lambda: T + other, lambda: other - T):
                with pytest.raises(TypeError):
                    op()

    def test_rejects_fraction(self):
        # every series the checks build is integral
        T = PowerSeries(build_count_table(4).t)
        for op in (lambda: T * Fraction(1, 2), lambda: Fraction(1, 2) * T,
                   lambda: T + Fraction(1, 2), lambda: Fraction(1, 2) - T):
            with pytest.raises(TypeError):
                op()

    def test_pickle_and_copy_round_trip(self):
        ps = PowerSeries([0, 1, -2, 7])
        for clone in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps), copy.copy(ps)):
            assert clone == ps

    def test_order_and_coefficient(self):
        ps = PowerSeries([3, 1, 4])
        assert ps.order == 2
        assert ps.coeffs[2] == 4


class TestRingAxioms:
    @given(series, series)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(series, series, series)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(series, series)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(series, series, series)
    @settings(deadline=None)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(series, series, series)
    @settings(deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(series)
    def test_identities(self, a):
        assert a + 0 == a
        assert a + (-a) == PowerSeries((0,) * (a.order + 1))
        assert a * 1 == a
        one = PowerSeries((1, *[0] * a.order))
        assert one * a == a

    def test_additive_identity_and_inverse(self):
        one_plus_z = PowerSeries([1, 1])
        assert one_plus_z + 0 == one_plus_z
        T = PowerSeries(build_count_table(6).t)
        assert T + (-T) == PowerSeries((0,) * 7)

    @given(series)
    def test_scalar_arithmetic(self, a):
        assert (a + 5).coeffs == (a.coeffs[0] + 5, *a.coeffs[1:])
        assert 5 + a == a + 5
        assert (a - 7) + 7 == a
        assert 7 - a == -(a - 7)
        assert (a * 3).coeffs == tuple(3 * c for c in a.coeffs)
        assert 3 * a == a * 3

    @given(series, series)
    def test_truncation_to_smaller_order(self, a, b):
        n = min(a.order, b.order)
        assert (a + b).order == n
        assert (a * b).order == n


class TestQuasiInverse:
    def test_geometric_series(self):
        z = PowerSeries((0, 1, 0, 0, 0, 0))
        assert z.quasi_inverse().coeffs == (1, 1, 1, 1, 1, 1)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 1]).quasi_inverse()

    @given(delayed_series)
    def test_defining_property(self, a):
        one = PowerSeries((1, *[0] * a.order))
        assert (1 - a) * a.quasi_inverse() == one

    def test_forest_counts(self):
        # 1/(1-T) enumerates forests
        table = build_count_table(8)
        assert PowerSeries(table.t).quasi_inverse().coeffs == tuple(table.s[:9])


class TestDerivative:
    @given(series)
    def test_z_times_derivative_scales_indices(self, a):
        zd = z_times_derivative(a)
        assert zd.order == a.order
        assert zd.coeffs == tuple(k * c for k, c in enumerate(a.coeffs))

    @given(series, series)
    @settings(deadline=None)
    def test_leibniz_rule(self, a, b):
        # z d/dz is a derivation, exactly at the product's order
        lhs = z_times_derivative(a * b)
        assert lhs == z_times_derivative(a) * b + a * z_times_derivative(b)


class TestTreeGF:
    def test_coefficients_match_table(self):
        T = PowerSeries(build_count_table(40).t)
        assert T.coeffs == convolution_table(40).t
        assert T.order == 40

    def test_identity_holds(self):
        for n in (1, 2, 8, 33):
            assert _check_series(build_count_table(n).t) == (
                True, f"functional and derivative identities hold to order {n}"
            )

    def test_identity_detects_corruption(self):
        for k in (2, 7, 12):
            coeffs = list(build_count_table(12).t)
            coeffs[k] += 1
            assert _check_series(tuple(coeffs)) == (
                False, f"T(1-T)^2 = z fails beyond order {k - 1}"
            )

    def test_identity_fails_at_zero_for_wrong_start(self):
        for t in ((0,) * 6, (1, 1, 1)):
            assert _check_series(t) == (False, "T(1-T)^2 = z fails beyond order 0")

    def test_derivative_identity(self):
        T = PowerSeries(build_count_table(48).t)
        lhs = z_times_derivative(T)
        rhs = T * (1 - T) * (3 * T).quasi_inverse()
        assert lhs == rhs


class TestNumericBranch:
    def test_domain(self):
        for bad in (-1e-9, SINGULARITY_FLOAT + 1e-9, 1.0):
            with pytest.raises(ValueError):
                eval_T_numeric(bad)

    def test_endpoints(self):
        assert eval_T_numeric(0.0) == 0.0
        assert eval_T_numeric(SINGULARITY_FLOAT) == pytest.approx(1 / 3, abs=1e-9)

    def test_residual_and_range(self):
        for i in range(33):
            z = SINGULARITY_FLOAT * i / 32
            x = eval_T_numeric(z)
            assert 0.0 <= x <= 1 / 3 + 1e-15
            assert abs(x * (1 - x) ** 2 - z) <= 1e-12

    def test_monotone(self):
        values = [eval_T_numeric(SINGULARITY_FLOAT * i / 64) for i in range(65)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_small_z_linear_regime(self):
        # T(z) = z + 2z^2 + O(z^3)
        z = 1e-6
        assert eval_T_numeric(z) == pytest.approx(z + 2 * z * z, rel=1e-6)
        # abs=0: approx would otherwise also accept anything within 1e-12
        assert eval_T_numeric(1e-50) == pytest.approx(1e-50, rel=1e-15, abs=0)

    def test_relative_error_against_a_decimal_root(self):
        # 80-digit Newton from t = z: T(1-T)^2 - z is concave and increasing
        # on [0, 1/3], so the steps rise monotonically to the root
        with localcontext() as ctx:
            ctx.prec = 80
            lo, hi = math.log(5e-324), math.log(0.9 * SINGULARITY_FLOAT)
            grid = [5e-324] + [math.exp(lo + (hi - lo) * i / 199) for i in range(1, 200)]
            for z in grid:
                zd = t = Decimal(z)
                for _ in range(200):
                    step = (t * (1 - t) ** 2 - zd) / ((1 - t) * (1 - 3 * t))
                    t -= step
                    if abs(step) <= t * Decimal("1e-60"):
                        break
                error = abs(Decimal(eval_T_numeric(z)) - t) / t
                assert error <= Decimal("2e-15"), (z, error)
