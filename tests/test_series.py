import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from fbq.models import SolverError
from fbq.series import (
    PowerSeries,
    cancel_divide,
    divide,
    kernel_root_pair_at_1,
    kernel_root_series,
)


def random_series(rng, order):
    return PowerSeries(rng.normal(size=order + 1))


class TestArithmetic:
    @pytest.mark.parametrize("seed", range(8))
    def test_mul_matches_polynomial_truncation(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 7))
        a, b = random_series(rng, order), random_series(rng, order)
        exact = np.polynomial.polynomial.polymul(a.c, b.c)[: order + 1]
        assert np.allclose((a * b).c, exact, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_divide_inverts_multiplication(self, seed):
        rng = np.random.default_rng(100 + seed)
        order = int(rng.integers(1, 7))
        a, b = random_series(rng, order), random_series(rng, order)
        b.c[0] = rng.uniform(0.5, 2.0)  # keep the division well defined
        assert np.allclose(divide(a * b, b).c, a.c, rtol=1e-10, atol=1e-10)

    def test_scalar_ops_and_eval(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        t = (2.0 * s - 1.0) / 2.0
        assert t.c == [0.5, 2.0, 3.0]
        assert polyval(0.1, s.c) == pytest.approx(1.0 + 0.2 + 0.03)
        assert s.c[1] * math.factorial(1) == 2.0 and s.c[2] * math.factorial(2) == 6.0

    def test_divide_rejects_zero_constant(self):
        with pytest.raises(ZeroDivisionError):
            divide(PowerSeries([1.0, 1.0]), PowerSeries([0.0, 1.0]))

    def test_cancel_divide_performs_the_limit(self):
        # (t + t^2) / (2t + t^2) -> 1/2 at t = 0
        num = PowerSeries([0.0, 1.0, 1.0, 0.0])
        den = PowerSeries([0.0, 2.0, 1.0, 0.0])
        q = cancel_divide(num, den, 1)
        assert q.c[0] == pytest.approx(0.5)

    def test_cancel_divide_rejects_nonvanishing_leading_terms(self):
        with pytest.raises(SolverError):
            cancel_divide(PowerSeries([1.0, 1.0]), PowerSeries([0.0, 1.0]), 1)


class TestKernelRoot:
    def test_values_at_one(self):
        rho, q = 0.42, 0.1
        s = kernel_root_series(rho, q, 1.0, 3)
        assert s.c[0] == 1.0
        assert s.c[1] * math.factorial(1) == pytest.approx(q / (1 - rho), rel=1e-14)
        assert s.c[2] * math.factorial(2) == pytest.approx(2 * rho * q**2 / (1 - rho) ** 3, rel=1e-13)

    def test_value_at_zero(self):
        # direct evaluation of the closed-form root
        s = kernel_root_series(0.5, 0.1, 0.0, 2)
        assert s.c[0] == pytest.approx((1.5 - math.sqrt(0.45)) / 1.0, rel=1e-14)
        # the root annihilates the kernel quadratic
        y = s.c[0]
        assert 0.5 * y**2 - 1.5 * y + 0.9 == pytest.approx(0.0, abs=1e-14)

    def test_constant_when_q_zero(self):
        s = kernel_root_series(0.7, 0.0, 0.3, 4)
        assert s.c[0] == pytest.approx(1.0)
        assert all(abs(c) < 1e-15 for c in s.c[1:])

    @pytest.mark.parametrize("seed", range(6))
    def test_series_matches_exact_root_nearby(self, seed):
        rng = np.random.default_rng(seed)
        rho, q, z0 = rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.9), rng.uniform(0.0, 1.0)
        s = kernel_root_series(rho, q, z0, 6)
        # stay well inside the series' convergence radius
        h = 0.02 * ((1 - rho) ** 2 - 4 * rho * q * (z0 - 1)) / (4 * rho * q)
        exact = kernel_root_series(rho, q, z0 + h, 0).c[0]
        assert polyval(h, s.c) == pytest.approx(exact, rel=1e-10)

    def test_root_pair_solves_quadratic(self):
        rho, q = 0.35, 0.25
        y1, y2 = kernel_root_pair_at_1(rho, q, 3)
        # exact root values annihilate the kernel at sampled points
        for z in (0.9, 1.0, 1.05):
            disc = (1 - rho) ** 2 - 4 * rho * q * (z - 1)
            for sign in (-1.0, 1.0):
                y = (1 + rho + sign * math.sqrt(disc)) / (2 * rho)
                resid = rho * y * y - (1 + rho) * y + (1 - q + q * z)
                assert resid == pytest.approx(0.0, abs=1e-12)
        # truncated expansions carry the right local data
        assert y2.c[0] == pytest.approx(1.0 / rho, rel=1e-14)
        assert y1.c[0] == 1.0
        assert y1.c[1] == pytest.approx(-y2.c[1], rel=1e-14)
        h = 1e-6

        def y2_at(z):
            disc = (1 - rho) ** 2 - 4 * rho * q * (z - 1)
            return (1 + rho + math.sqrt(disc)) / (2 * rho)

        assert y2.c[1] * math.factorial(1) == pytest.approx((y2_at(1 + h) - y2_at(1 - h)) / (2 * h), rel=1e-6)

    def test_discriminant_guard(self):
        with pytest.raises(SolverError):
            kernel_root_series(0.9, 0.9, 2.5, 2)  # far beyond the branch point
