"""Truncated Taylor arithmetic in one variable: the float arithmetic of
the tests' reference curvature engine (conftest.reference_cartan_coefficients),
which reads the radial derivatives of any profile A, B, C off jets.

A Jet stores the Taylor coefficients (f, f', f''/2!, ...) of a scalar
function at a point; its order is their number less one.  Arithmetic on
jets propagates derivatives exactly (to machine rounding), with no
finite-difference noise.  A coefficient depends only on coefficients of
the same or lower order, so a lower-order jet holds the leading
coefficients of a higher-order one bit for bit.  A constant is a
one-coefficient jet, padded with zeros before it meets a longer jet; two
longer jets meet at the lower order, and a derivative is one order lower.

A coefficient is a float or a 1-D numpy array, all arrays of one jet (and
of the jets it meets) having the same length: an array jet carries one
point per entry (Taylor-mode propagation with array coefficients, as in
Griewank and Walther, *Evaluating Derivatives*, 2008).  Every operation
performs the same IEEE operations in the same order on each entry as on
floats, so entry i of an array result equals the float result at point i
bit for bit.  A float is never wrapped into an array: `x ** 2` squares
through libm pow on a float but as x*x on an array, and the two differ in
the last bit on some inputs.  exp is the exception, as numpy's exp loops
(picked by its CPU dispatch) may differ from libm in the last bit: both
paths call the numpy ufunc, on a float as a 0-d value and on an array
made contiguous (the AVX-512 loop leaves negative strides to libm), and
so get one loop's bits.  Like math.exp, it raises OverflowError where a
finite value's exp is infinite.  No recurrence adds a leading 0 or
multiplies by 1, so none builds an array that only copies another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _refuse(bad, exc_type, message: str) -> None:
    """Raise exc_type(message) if bad holds, naming the first bad array entry.
    The guards build bad only once one reduction fails to clear the common case."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise exc_type(f"{message} at entry {int(bad.argmax())}")
    elif bad:
        raise exc_type(message)


@dataclass(frozen=True)
class Jet:
    coeffs: tuple

    @staticmethod
    def seed(x) -> "Jet":
        """Order-2 jet of the identity at a point, or at each entry of a 1-D array."""
        return Jet((x if isinstance(x, np.ndarray) else float(x), 1.0, 0.0))

    @staticmethod
    def const(c: float) -> "Jet":
        return Jet((float(c),))

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, m: int):
        """m-th derivative of the underlying function, m at most the order;
        every derivative of a constant (a one-coefficient jet) is 0.0."""
        if m and len(self.coeffs) == 1:
            return 0.0
        return self.coeffs[m] * math.factorial(m) if m > 1 else self.coeffs[m]

    def truncate(self, order: int) -> "Jet":
        """The leading coefficients up to the given order."""
        return Jet(self.coeffs[: order + 1])

    def deriv_jet(self) -> "Jet":
        """Jet of the first derivative, one order lower (a constant's is 0)."""
        c = self.coeffs
        return Jet(tuple(k * c[k] if k > 1 else c[1] for k in range(1, len(c))) or (0.0,))

    def __add__(self, other):
        a, b = _operands(self, other)
        return Jet(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    # x - y is x + (-y) in IEEE arithmetic, signed zeros included.  Subtracting
    # after padding: a padded constant subtracts +0.0, as a jet would.
    def __sub__(self, other):
        a, b = _operands(self, other)
        return Jet(tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        a, b = _operands(self, other)
        return Jet(tuple(y - x for x, y in zip(a, b)))

    def __mul__(self, other):
        a, b = _operands(self, other)
        return Jet(tuple(_dot(a, b, k, 0, k) for k in range(len(a))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = _operands(self, other)
        if not (b[0].all() if isinstance(b[0], np.ndarray) else b[0]):
            _refuse(b[0] == 0.0, ZeroDivisionError, "jet division by zero value")
        q = [a[0] / b[0]]
        for k in range(1, len(a)):
            q.append((a[k] - _dot(b, q, k, 1, k)) / b[0])
        return Jet(tuple(q))

    def __rtruediv__(self, other):
        return Jet.const(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("jet powers must be integers")
        if exponent < 0:
            return 1.0 / (self ** (-exponent))
        if exponent == 0:
            return Jet.const(1.0)
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def sqrt(self) -> "Jet":
        a = self.coeffs
        if not (a[0].min(initial=math.inf) > 0.0 if isinstance(a[0], np.ndarray) else a[0] > 0.0):
            _refuse(a[0] <= 0.0, ValueError, "jet sqrt of a nonpositive value")
        s = [np.sqrt(a[0]) if isinstance(a[0], np.ndarray) else math.sqrt(a[0])]
        twice = 2.0 * s[0]
        for k in range(1, len(a)):
            num = a[k] - _dot(s, s, k, 1, k - 1) if k > 1 else a[1]
            s.append(num / twice)
        return Jet(tuple(s))

    def exp(self) -> "Jet":
        a = self.coeffs
        with np.errstate(all="ignore"):  # one kernel on both paths: see the module docstring
            v = np.exp(np.ascontiguousarray(a[0]) if isinstance(a[0], np.ndarray) else a[0])
        if np.isinf(v).any():
            _refuse(np.isinf(v) & np.isfinite(a[0]), OverflowError, "jet exp overflow")
        e = [v if v.ndim else float(v)]
        d = self.deriv_jet().coeffs  # d[j - 1] = j a[j]
        for k in range(1, len(a)):
            t = _dot(d, e, k - 1, 0, k - 1)
            e.append(t / k if k > 1 else t)
        return Jet(tuple(e))


def _dot(a, b, k: int, lo: int, hi: int):
    """a[lo] b[k-lo] + ... + a[hi] b[k-hi], left to right from the first term
    (built-in sum starts from 0, and from Python 3.12 compensates floats)."""
    total = a[lo] * b[k - lo]  # a fresh array when either factor is one
    for j in range(lo + 1, hi + 1):
        total += a[j] * b[k - j]
    return total


def _operands(a: Jet, b) -> tuple[tuple, tuple]:
    """The coefficients of a and b (a jet or a number) at one order."""
    x = a.coeffs
    y = b.coeffs if isinstance(b, Jet) else (float(b),)
    if len(x) == len(y):
        return x, y
    if len(y) == 1:
        return x, y + (0.0,) * (len(x) - 1)
    if len(x) == 1:
        return x + (0.0,) * (len(y) - 1), y
    n = min(len(x), len(y))
    return x[:n], y[:n]
