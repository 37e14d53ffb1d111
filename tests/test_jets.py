import math

import numpy as np
import pytest

from kummerlab.jets import Jet


def fd_derivative(f, x, m, h=1e-3):
    """Central-difference m-th derivative oracle (m <= 2)."""
    if m == 0:
        return f(x)
    if m == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def test_polynomial_derivatives_exact():
    r = Jet.seed(1.7)
    cube = r**3
    assert abs(cube.value - 1.7**3) < 1e-15
    assert abs(cube.derivative(1) - 3 * 1.7**2) < 1e-12
    assert abs(cube.derivative(2) - 6 * 1.7) < 1e-12
    assert abs(cube.derivative(3) - 6.0) < 1e-12
    assert cube.derivative(4) == 0.0


def test_quotient_exp_sqrt_against_closed_forms():
    x = 0.8
    r = Jet.seed(x)
    expr = (1.0 / (1.0 + r**2)).exp()
    f = lambda t: math.exp(1.0 / (1.0 + t * t))
    fp = lambda t: f(t) * (-2 * t) / (1 + t * t) ** 2
    assert abs(expr.value - f(x)) < 1e-14
    assert abs(expr.derivative(1) - fp(x)) < 1e-12

    s = (1.0 + r**4).sqrt()
    g = lambda t: math.sqrt(1 + t**4)
    assert abs(s.value - g(x)) < 1e-14
    assert abs(s.derivative(1) - 4 * x**3 / (2 * g(x))) < 1e-12


def test_negative_powers_and_deriv_jet():
    x = 2.5
    r = Jet.seed(x)
    inv4 = r ** (-4)
    assert abs(inv4.value - x**-4) < 1e-16
    assert abs(inv4.derivative(1) + 4 * x**-5) < 1e-14
    d = inv4.deriv_jet()
    assert abs(d.value - inv4.derivative(1)) < 1e-16
    assert abs(d.derivative(1) - inv4.derivative(2)) < 1e-14


def test_composite_matches_finite_differences():
    # Same composite shape as the glued metric coefficient on the ramp.
    def build(t):
        r = Jet.seed(t)
        num = (-1.0 / (2.0 - r * 0.1)).exp()
        den = num + (-1.0 / (r * 0.1 - 1.0)).exp()
        rho = num / den
        return rho / (1.0 - r ** (-4)) + (1.0 - rho)

    f = lambda t: build(t).value
    x = 14.0
    jet = build(x)
    assert abs(jet.derivative(1) - fd_derivative(f, x, 1)) < 1e-7
    assert abs(jet.derivative(2) - fd_derivative(f, x, 2, h=1e-3)) < 1e-5


# ---------------------------------------------------------------------------
# Array-valued jets: entry i of an array result is the float result at i.


def seeded_points(n=257, lo=0.3, hi=7.0, seed=11):
    return np.random.default_rng(seed).uniform(lo, hi, n)


def assert_entrywise_bitwise(array_jet, scalar_jets):
    for k in range(5):
        coeff = np.broadcast_to(array_jet.coeffs[k], (len(scalar_jets),))
        expected = np.array([j.coeffs[k] for j in scalar_jets])
        assert np.array_equal(coeff, expected), f"coefficient {k}"
        assert all(type(j.coeffs[k]) is float for j in scalar_jets)


OPERATIONS = {
    "add": lambda x, y: x + y + 1.5,
    "sub": lambda x, y: 2.0 - x - y,
    "mul": lambda x, y: x * y * 0.7,
    "div": lambda x, y: (1.0 + x) / y / 3.0,
    "pow": lambda x, y: x**3 - y ** (-4),
    "sqrt": lambda x, y: (x * y + 1.0).sqrt(),
    "exp": lambda x, y: (-1.0 / x).exp() + (y * 0.1).exp(),
    "deriv_jet": lambda x, y: ((1.0 + x**2) / y).deriv_jet(),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_array_jet_matches_scalar_jets_bitwise(name):
    op = OPERATIONS[name]
    xs, ys = seeded_points(seed=11), seeded_points(seed=12)
    # y carries array coefficients beyond the value too.
    y_arr = (Jet.seed(ys) * 0.5).exp() + Jet.seed(ys)
    got = op(Jet.seed(xs), y_arr)
    want = [op(Jet.seed(x), (Jet.seed(y) * 0.5).exp() + Jet.seed(y)) for x, y in zip(xs, ys)]
    assert_entrywise_bitwise(got, want)


def test_array_jet_error_paths_match_scalar():
    xs = np.array([2.0, 1.0, -3.0, 1.0])
    with pytest.raises(ZeroDivisionError, match="jet division by zero value at entry 1"):
        Jet.const(1.0) / (Jet.seed(xs) - 1.0)
    with pytest.raises(ZeroDivisionError, match="jet division by zero value$"):
        Jet.const(1.0) / (Jet.seed(1.0) - 1.0)
    with pytest.raises(ValueError, match="jet sqrt of a nonpositive value at entry 2"):
        Jet.seed(xs).sqrt()
    with pytest.raises(ValueError, match="jet sqrt of a nonpositive value$"):
        Jet.seed(-3.0).sqrt()
    with pytest.raises(OverflowError):
        Jet.seed(np.array([1.0, 800.0])).exp()
    with pytest.raises(OverflowError):
        Jet.seed(800.0).exp()
