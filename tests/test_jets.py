import math
import sys
import warnings

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


def seed(x, order=2):
    """Jet of the identity of the given order (Jet.seed is order 2)."""
    return Jet((x if isinstance(x, np.ndarray) else float(x), 1.0) + (0.0,) * (order - 1))


def test_seed_and_const_orders():
    assert Jet.seed(1.5).coeffs == (1.5, 1.0, 0.0)
    assert Jet.seed(np.array([1.5])).coeffs[1:] == (1.0, 0.0)
    assert Jet.const(2).coeffs == (2.0,)
    assert Jet.const(2.0).deriv_jet().coeffs == (0.0,)
    assert (Jet.seed(1.5) ** 0).coeffs == (1.0,)


def test_polynomial_derivatives_exact():
    r = Jet((1.7, 1.0, 0.0, 0.0, 0.0))
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


def test_order_four_closed_forms():
    x = 2.0
    e, s, q = seed(x, 4).exp(), seed(x, 4).sqrt(), 1.0 / seed(x, 4)
    sqrt_derivs = [x**0.5, 0.5 * x**-0.5, -0.25 * x**-1.5, 0.375 * x**-2.5, -0.9375 * x**-3.5]
    for m in range(5):
        assert abs(e.derivative(m) - math.exp(x)) < 1e-13 * math.exp(x)
        assert abs(s.derivative(m) - sqrt_derivs[m]) < 1e-14
        assert abs(q.derivative(m) - (-1) ** m * math.factorial(m) / x ** (m + 1)) < 1e-14


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


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero, entry by entry."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_entrywise_bitwise(array_jet, scalar_jets):
    assert all(len(j.coeffs) == len(array_jet.coeffs) for j in scalar_jets)
    for k, coeff in enumerate(array_jet.coeffs):
        coeff = np.broadcast_to(coeff, (len(scalar_jets),))
        expected = np.array([j.coeffs[k] for j in scalar_jets])
        assert same_bits(coeff, expected), f"coefficient {k}"
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
    # -x carries -0.0 coefficients; each constant meets them before and after.
    "constants": lambda x, y: (
        (-x - 0.0) * Jet.const(-0.0) + (Jet.const(-0.0) - (-x)) / Jet.const(4.0) - (-0.0 - y) * 2.0
    ),
}


def operands(order, array):
    """x and a y with array coefficients beyond the value, at one order."""
    xs, ys = seeded_points(seed=11), seeded_points(seed=12)
    build = lambda x, y: (seed(x, order), (seed(y, order) * 0.5).exp() + seed(y, order))
    return build(xs, ys) if array else [build(x, y) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_array_jet_matches_scalar_jets_bitwise(name):
    op = OPERATIONS[name]
    for order in (2, 4):
        got = op(*operands(order, array=True))
        want = [op(x, y) for x, y in operands(order, array=False)]
        assert_entrywise_bitwise(got, want)


@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_order_two_is_the_leading_part_of_order_four(name, array):
    op = OPERATIONS[name]
    low, high = operands(2, array), operands(4, array)
    for x2y2, x4y4 in [(low, high)] if array else zip(low, high):
        lo, hi = op(*x2y2).coeffs, op(*x4y4).coeffs
        assert len(hi) - len(lo) == 2
        for k, coeff in enumerate(lo):
            assert same_bits(coeff, hi[k]), f"coefficient {k}"


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("c", [2.5, 0.0, -0.0])
def test_constant_acts_as_its_zero_padded_jet(c, order):
    padded = Jet((c,) + (0.0,) * order)
    for x in (-seed(0.75, order), -seed(np.array([0.75, -0.0, 3.0]), order)):
        for f in (
            lambda x, k: x + k, lambda x, k: k + x, lambda x, k: x - k, lambda x, k: k - x,
            lambda x, k: x * k, lambda x, k: k * x, lambda x, k: k / (x + 7.0),
        ) + ((lambda x, k: x / k,) if c else ()):
            want = f(x, padded).coeffs
            for k in (c, Jet.const(c)):
                got = f(x, k).coeffs
                assert len(got) == len(want)
                assert all(same_bits(g, w) for g, w in zip(got, want))


def test_constant_derivatives_are_zero():
    for m in (1, 2, 3):
        assert Jet.const(4.0).derivative(m) == 0.0
        assert Jet.const(4.0).deriv_jet().derivative(m) == 0.0
    with pytest.raises(IndexError):
        Jet((1.0, 2.0)).derivative(2)  # a truncated jet knows no higher derivative


def test_jets_of_different_orders_meet_at_the_lower():
    x2, x4 = Jet.seed(1.3), seed(1.3, 4)
    assert (x4 * x2.exp()).coeffs == (x2 * x2.exp()).coeffs
    assert (x4 / (x2 + 1.0)).coeffs == (x2 / (x2 + 1.0)).coeffs
    assert (x2.deriv_jet() - x4).coeffs == (1.0 - 1.3, -1.0)


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


LARGEST_FINITE_EXP = 709.782712893384  # math.exp of the next float up overflows


def test_exp_edges_match_math_exp_on_both_paths():
    xs = [LARGEST_FINITE_EXP, -740.0, -1e6, math.inf, -math.inf, math.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes either path
        array = Jet((np.array(xs),)).exp().value
        scalar = [Jet((x,)).exp().value for x in xs]
        # The finite arguments carry derivatives as well.
        assert_entrywise_bitwise(Jet.seed(np.array(xs[:3])).exp(), [Jet.seed(x).exp() for x in xs[:3]])
    assert all(type(v) is float for v in scalar)
    want = [math.exp(x) for x in xs]
    assert 0.0 < want[1] < sys.float_info.min  # subnormal
    assert same_bits(array[:5], np.array(scalar[:5])) and same_bits(array[:5], np.array(want[:5]))
    assert math.isnan(array[5]) and math.isnan(scalar[5]) and math.isnan(want[5])


def test_exp_overflows_where_math_exp_does():
    over = math.nextafter(LARGEST_FINITE_EXP, math.inf)
    with pytest.raises(OverflowError):
        math.exp(over)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="jet exp overflow at entry 2"):
            Jet.seed(np.array([1.0, LARGEST_FINITE_EXP, over, over])).exp()
        with pytest.raises(OverflowError, match="jet exp overflow$"):
            Jet.seed(over).exp()
        with pytest.raises(OverflowError, match="jet exp overflow at entry 0"):
            Jet((np.array([over, math.inf]),)).exp()


def test_exp_of_a_strided_array_matches_scalar_jets_bitwise():
    xs = np.random.default_rng(13).uniform(-100.0, -1.0, 4096)
    for view in (xs[::-1], xs[::3]):
        assert_entrywise_bitwise(Jet.seed(view).exp(), [Jet.seed(x).exp() for x in view.tolist()])
