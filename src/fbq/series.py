"""Truncated power-series arithmetic and Taylor expansions of the kernel roots.

The exact solutions need local Taylor data of the small kernel root y1(z):
its Maclaurin coefficients at z = 0 (the vanishing-coefficient rows of the
single-server boundary system) and its expansion at z = 1 (the pool's
transform matrix near z = 1).  That is mechanised here as arithmetic on short
coefficient lists; a ratio whose numerator and denominator share a zero is
handled by cancelling the vanishing leading coefficients (cancel_divide).
"""

from __future__ import annotations

import math

from .models import SolverError

CANCEL_RTOL = 1e-7   # vanishing leading coefficients, relative to their series' largest


class PowerSeries:
    """Coefficients c[0..order] of a Taylor expansion around a fixed point.

    Supports +, -, * (series or scalar) and / (series with nonzero constant
    term, or scalar); all operations truncate to the shorter order.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = [float(x) for x in coeffs]
        if not self.c:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def constant(cls, value: float, order: int) -> "PowerSeries":
        return cls([float(value)] + [0.0] * order)

    @classmethod
    def variable(cls, value: float, order: int) -> "PowerSeries":
        """value + t, the local coordinate itself."""
        c = [float(value)] + [0.0] * order
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __repr__(self):
        return f"PowerSeries({self.c})"

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(len(self.c), len(other.c))
            return PowerSeries([self.c[i] + other.c[i] for i in range(n)])
        c = self.c[:]
        c[0] += other
        return PowerSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-x for x in self.c])

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(len(self.c), len(other.c))
            out = [0.0] * n
            for i in range(n):
                a = self.c[i]
                if a == 0.0:
                    continue
                for j in range(n - i):
                    out[i + j] += a * other.c[j]
            return PowerSeries(out)
        return PowerSeries([x * other for x in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return divide(self, other)
        return PowerSeries([x / other for x in self.c])

    def value(self) -> float:
        return self.c[0]

    def pow(self, p: int) -> "PowerSeries":
        out = PowerSeries.constant(1.0, self.order)
        for _ in range(p):
            out = out * self
        return out


def divide(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Series quotient; the denominator's constant term must be nonzero."""
    if den.c[0] == 0.0:
        raise ZeroDivisionError("denominator series has zero constant term")
    n = min(len(num.c), len(den.c))
    out = [0.0] * n
    for i in range(n):
        acc = num.c[i]
        for j in range(1, i + 1):
            acc -= den.c[j] * out[i - j]
        out[i] = acc / den.c[0]
    return PowerSeries(out)


def cancel_divide(num: PowerSeries, den: PowerSeries, drop: int) -> PowerSeries:
    """Quotient of two series sharing a zero of multiplicity `drop`.

    The leading `drop` coefficients of both operands are removed before the
    division; those coefficients are required to be below CANCEL_RTOL times
    the largest coefficient of their series, otherwise the assumed limit does
    not exist and a SolverError is raised.
    """
    for name, s in (("numerator", num), ("denominator", den)):
        scale = max(abs(x) for x in s.c)
        for k in range(drop):
            if abs(s.c[k]) > CANCEL_RTOL * scale:
                raise SolverError(f"{name} coefficient {k} = {s.c[k]:.3e} does not vanish "
                                  f"(scale {scale or 1.0:.3e}); limit pass invalid")
    return divide(PowerSeries(num.c[drop:]), PowerSeries(den.c[drop:]))


def kernel_root_series(rho: float, q: float, z0: float, order: int) -> PowerSeries:
    """Taylor expansion at z0 of the small root y1(z) of the arrival kernel.

    y1(z) is the root in (0,1] of rho*y^2 - (1+rho)*y + (1-q+q*z) = 0, the
    quadratic that annihilates the two-dimensional transform of the saturated
    region.  The constant term comes from the closed-form root, the slope from
    implicit differentiation, and higher coefficients from the derivative
    recurrence, all evaluated at z0.
    """
    if rho <= 0:
        raise SolverError(f"kernel root series needs rho > 0, got {rho}")
    disc = (1.0 - rho) ** 2 - 4.0 * rho * q * (z0 - 1.0)
    if disc <= 0:
        raise SolverError(f"kernel discriminant {disc:.3e} <= 0 at z0={z0}; no real root pair")
    sq = math.sqrt(disc)
    c = [0.0] * (order + 1)
    if z0 == 1.0:
        c[0] = 1.0  # exact: the kernel always has root 1 at z = 1
    else:
        c[0] = (1.0 + rho - sq) / (2.0 * rho)
    if order >= 1:
        deriv = q / sq
        c[1] = deriv
        # y^(n) = y^(n-1) * 2*(2n-3)*rho*q / disc
        for n in range(2, order + 1):
            deriv = deriv * 2.0 * (2 * n - 3) * rho * q / disc
            c[n] = deriv / math.factorial(n)
    return PowerSeries(c)


def kernel_root_pair_at_1(rho: float, q: float, order: int) -> tuple[PowerSeries, PowerSeries]:
    """Expansions at z = 1 of both kernel roots y1 (small) and y2 (large).

    The two roots sum to (1+rho)/rho independently of z, so y2 is obtained
    from y1 by reflection, which keeps the pair exactly consistent.
    """
    y1 = kernel_root_series(rho, q, 1.0, order)
    y2 = PowerSeries.constant((1.0 + rho) / rho, order) - y1
    return y1, y2
