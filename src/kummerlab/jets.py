"""Order-4 truncated Taylor arithmetic in one variable.

A Jet stores the Taylor coefficients (f, f', f''/2!, f'''/3!, f''''/4!) of a
scalar function at a point.  Arithmetic on jets propagates derivatives
exactly (to machine rounding), which keeps the radial curvature formulas
free of finite-difference noise even deep in the power-law decay tails.

A coefficient is a float or a 1-D numpy array, all arrays of one jet (and
of the jets it meets) having the same length: an array jet carries one
point per entry (Taylor-mode propagation with array coefficients, as in
Griewank and Walther, *Evaluating Derivatives*, 2008).  Every operation
performs the same IEEE operations in the same order on each entry as on
floats, so entry i of an array result equals the float result at point i
bit for bit.  A float is never wrapped into an array: `x ** 2` squares
through libm pow on a float but as x*x on an array, and the two differ in
the last bit on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORDER = 4
_FACT = [1.0, 1.0, 2.0, 6.0, 24.0]


def _refuse(bad, exc_type, message: str) -> None:
    """Raise exc_type(message) if bad holds, naming the first bad array entry."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise exc_type(f"{message} at entry {int(bad.argmax())}")
    elif bad:
        raise exc_type(message)


@dataclass(frozen=True)
class Jet:
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != ORDER + 1:
            raise ValueError(f"jet must carry {ORDER + 1} coefficients")

    @staticmethod
    def seed(x) -> "Jet":
        """Jet of the identity at a point, or at each entry of a 1-D array."""
        return Jet((x if isinstance(x, np.ndarray) else float(x), 1.0, 0.0, 0.0, 0.0))

    @staticmethod
    def const(c: float) -> "Jet":
        return Jet((float(c), 0.0, 0.0, 0.0, 0.0))

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, m: int):
        """m-th derivative of the underlying function, m <= ORDER."""
        return self.coeffs[m] * _FACT[m]

    def deriv_jet(self) -> "Jet":
        """Jet of the first derivative (top coefficient padded with zero)."""
        shifted = tuple((k + 1) * self.coeffs[k + 1] for k in range(ORDER)) + (0.0,)
        return Jet(shifted)

    def __add__(self, other):
        o = _lift(other)
        return Jet(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        o = _lift(other)
        a, b = self.coeffs, o.coeffs
        return Jet(
            tuple(
                sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(ORDER + 1)
            )
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        a, b = self.coeffs, o.coeffs
        _refuse(b[0] == 0.0, ZeroDivisionError, "jet division by zero value")
        q = [0.0] * (ORDER + 1)
        for k in range(ORDER + 1):
            q[k] = (a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0]
        return Jet(tuple(q))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("jet powers must be integers")
        if exponent < 0:
            return 1.0 / (self ** (-exponent))
        out = Jet.const(1.0)
        for _ in range(exponent):
            out = out * self
        return out

    def sqrt(self) -> "Jet":
        a = self.coeffs
        _refuse(a[0] <= 0.0, ValueError, "jet sqrt of a nonpositive value")
        s = [0.0] * (ORDER + 1)
        s[0] = np.sqrt(a[0]) if isinstance(a[0], np.ndarray) else math.sqrt(a[0])
        for k in range(1, ORDER + 1):
            s[k] = (a[k] - sum(s[j] * s[k - j] for j in range(1, k))) / (2.0 * s[0])
        return Jet(tuple(s))

    def exp(self) -> "Jet":
        a = self.coeffs
        e = [0.0] * (ORDER + 1)
        if isinstance(a[0], np.ndarray):
            # np.exp and libm exp differ in the last bit on some inputs.
            e[0] = np.fromiter(map(math.exp, a[0].tolist()), float, len(a[0]))
        else:
            e[0] = math.exp(a[0])
        for k in range(1, ORDER + 1):
            e[k] = sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k
        return Jet(tuple(e))


def _lift(x) -> Jet:
    if isinstance(x, Jet):
        return x
    return Jet.const(float(x))
