"""Finite groups of affine isometries of the flat torus R^n/Z^n, exactly.

An isometry is stored as an integer signed-permutation matrix plus a
rational translation reduced mod 1.  Everything in this module is exact:
the group closure and its product table run on an integer encoding of the
isometries; fixed loci are read off the cycles of each element's signed
permutation (once per group element); a component is canonicalized to
its lexicographically least rational point by subtracting its unit-pivot
direction rows; and census orbits are traced through the generators'
permutations of the components, computed on the same integer codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .intlinalg import hermite_row_basis, mat_vec

# Bound here only for perfbench/tracing.py, which counts calls through them.
from .intlinalg import smith_normal_form, unimodular_inverse  # noqa: F401

Vector = tuple[Fraction, ...]

LOCAL_MODEL_PRODUCT = "S¹×(ℂ²/±1)"
LOCAL_MODEL_HALF_TURN = "(ℂ²/±1 × S¹)/ℤ₂"
NOT_AN_ISOMETRY = "not a flat-torus isometry: linear part must be a signed permutation matrix"


def _mod1(x: Fraction) -> Fraction:
    return x % 1


def _signed_permutation(linear) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, signs) of a signed permutation matrix: row i holds the
    entry signs[i] in column perm[i].  Raises ValueError on any other matrix."""
    n = len(linear)
    perm, signs = [], []
    for row in linear:
        nonzero = [(j, v) for j, v in enumerate(row) if v != 0]
        if len(row) != n or len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            raise ValueError(NOT_AN_ISOMETRY)
        perm.append(nonzero[0][0])
        signs.append(nonzero[0][1])
    if sorted(perm) != list(range(n)):
        raise ValueError(NOT_AN_ISOMETRY)
    return tuple(perm), tuple(signs)


@dataclass(frozen=True)
class AffineIsometry:
    """x -> linear @ x + translation on the torus R^n/Z^n; perm and signs are
    the linear part as _signed_permutation reads it, outside equality and repr."""

    linear: tuple[tuple[int, ...], ...]
    translation: Vector
    perm: tuple[int, ...] = field(init=False, compare=False, repr=False)
    signs: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        perm, signs = _signed_permutation(self.linear)
        if len(self.translation) != len(self.linear):
            raise ValueError("dimension mismatch between linear part and translation")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(
            self, "translation", tuple(_mod1(Fraction(t)) for t in self.translation)
        )

    @property
    def dim(self) -> int:
        return len(self.linear)

    @staticmethod
    def identity(n: int) -> "AffineIsometry":
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return AffineIsometry(eye, tuple(Fraction(0) for _ in range(n)))

    @staticmethod
    def from_diagonal(signs, translation) -> "AffineIsometry":
        n = len(signs)
        lin = tuple(tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n))
        return AffineIsometry(lin, tuple(Fraction(t) for t in translation))

    def is_identity(self) -> bool:
        n = self.dim
        return all(self.translation[i] == 0 for i in range(n)) and all(
            self.linear[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )

    def apply(self, point) -> Vector:
        """Evaluate at a rational point, reduced into [0,1)^n."""
        pt = [Fraction(x) for x in point]
        return tuple(
            _mod1(sum((v * pt[j] for j, v in enumerate(row) if v), self.translation[i]))
            for i, row in enumerate(self.linear)
        )

    def apply_linear(self, v: list[int]) -> list[int]:
        return mat_vec([list(r) for r in self.linear], list(v))

    def inverse(self) -> "AffineIsometry":
        n = self.dim
        lt = tuple(tuple(self.linear[j][i] for j in range(n)) for i in range(n))
        trans = tuple(
            -sum(lt[i][j] * self.translation[j] for j in range(n)) for i in range(n)
        )
        return AffineIsometry(lt, trans)


def compose(f: AffineIsometry, g: AffineIsometry) -> AffineIsometry:
    """The isometry x -> f(g(x))."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    lin = tuple(
        tuple(sum(f.linear[i][k] * g.linear[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    trans = tuple(
        sum(Fraction(f.linear[i][k]) * g.translation[k] for k in range(n)) + f.translation[i]
        for i in range(n)
    )
    return AffineIsometry(lin, trans)


class GroupClosureError(RuntimeError):
    pass


@dataclass
class GroupTable:
    """Closure of a generator list, with names and a product index table.

    factors[p] = (i, g) records the closure's spanning tree: element p is
    element i composed with the generator element g (factors[0] = (0, 0)).
    codes = (N, codes): every element's integer code over the common denominator N.
    """

    elements: list[AffineIsometry]
    names: list[str]
    product: list[list[int]]
    abelian: bool
    exponent: int
    factors: list[tuple[int, int]]
    codes: tuple[int, list[tuple[int, ...]]]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @cached_property
    def fixed_loci(self) -> list[list[FixedComponent]]:
        """The fixed components of every element, by index, computed on first use."""
        return [fixed_locus(el) for el in self.elements]

    @cached_property
    def generator_indices(self) -> list[int]:
        """Indices of the distinct non-identity generator elements, ascending.

        In BFS order these are 1..k, ahead of every other element, so a
        check that holds for the generators holds for the group and the
        first element failing it is always a generator.
        """
        return sorted({g for _i, g in self.factors[1:]})

    def inverse_index(self, i: int) -> int:
        return self.product[i].index(0)

    def subgroup_generated(self, indices) -> frozenset[int]:
        closed = {0}
        frontier = [0]
        gens = sorted(set(indices))
        while frontier:
            nxt = []
            for i in frontier:
                for g in gens:
                    p = self.product[i][g]
                    if p not in closed:
                        closed.add(p)
                        nxt.append(p)
            frontier = nxt
        return frozenset(closed)


# Integer code of an isometry: (permutation, signs, translation numerators
# over a common denominator N), flattened into one tuple.  Row i of the
# linear part has the entry signs[i] in column perm[i].


def _encode(f: AffineIsometry, denom: int) -> tuple[int, ...]:
    return (*f.perm, *f.signs, *(int(t * denom) for t in f.translation))


def _decode(code: tuple[int, ...], n: int, denom: int) -> AffineIsometry:
    perm, signs = code[:n], code[n : 2 * n]
    linear = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
    return AffineIsometry(linear, tuple(Fraction(t, denom) for t in code[2 * n :]))


def _compose_codes(f: tuple[int, ...], g: tuple[int, ...], n: int, denom: int) -> tuple[int, ...]:
    """Code of f∘g: (f∘g)(x)_i = s_f[i] (s_g[p] x[p_g[p]] + t_g[p]) + t_f[i], p = p_f[i]."""
    perm = tuple(g[f[i]] for i in range(n))
    signs = tuple(f[n + i] * g[n + f[i]] for i in range(n))
    trans = tuple((f[n + i] * g[2 * n + f[i]] + f[2 * n + i]) % denom for i in range(n))
    return perm + signs + trans


def generate_group(
    generators: list[AffineIsometry],
    names: list[str] | None = None,
    max_order: int = 1024,
) -> GroupTable:
    """BFS closure of the generators under composition.

    Element 0 is the identity; generators follow in the declared order,
    then products by BFS level, which makes the ordering deterministic.
    The closure runs on integer codes; the product table is filled from
    the closure's right multiplications by generators, a∘(b∘g) = (a∘b)∘g.
    The group is abelian iff its generators commute pairwise.
    """
    if not generators:
        raise ValueError("empty generator list")
    n = generators[0].dim
    if any(g.dim != n for g in generators):
        raise ValueError("dimension mismatch among generators")
    if names is None:
        names = [f"g{i+1}" for i in range(len(generators))]

    denom = lcm(1, *(t.denominator for g in generators for t in g.translation))
    gen_codes = [_encode(g, denom) for g in generators]
    ident = _encode(AffineIsometry.identity(n), denom)
    codes = [ident]
    elt_names = ["e"]
    index = {ident: 0}
    steps: list[tuple[int, int]] = []  # element p = element i ∘ generator k, for p >= 1
    right: list[list[int]] = []  # right[i][k]: index of element i composed with generator k
    # Elements are visited in index order, which is BFS-level order.
    i = 0
    while i < len(codes):
        row = []
        for k, g in enumerate(gen_codes):
            p = _compose_codes(codes[i], g, n, denom)
            j = index.get(p)
            if j is None:
                if len(codes) >= max_order:
                    raise GroupClosureError(
                        f"group closure exceeded the cap of {max_order} elements"
                    )
                j = index[p] = len(codes)
                codes.append(p)
                elt_names.append(names[k] if i == 0 else elt_names[i] + "*" + names[k])
                steps.append((i, k))
            row.append(j)
        right.append(row)
        i += 1

    order = len(codes)
    product = []
    for a in range(order):
        row = [a]
        for i, k in steps:
            row.append(right[row[i]][k])
        product.append(row)
    gens = set(right[0])  # the generator elements
    abelian = all(product[a][b] == product[b][a] for a in gens for b in gens)
    exponent = 1
    for i in range(order):
        k, j = 1, i
        while j != 0:
            j = product[j][i]
            k += 1
        exponent = lcm(exponent, k)
    elements = [_decode(c, n, denom) for c in codes]
    factors = [(0, 0)] + [(i, right[0][k]) for i, k in steps]
    return GroupTable(elements, elt_names, product, abelian, exponent, factors, (denom, codes))


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of a fixed-point set: an affine subtorus.

    basepoint is the canonical representative: the lexicographically
    smallest point of the component in [0,1)^n.  directions is the
    canonical (Hermite) basis of the saturated integer direction lattice.
    """

    basepoint: Vector
    directions: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.directions)

    @property
    def key(self):
        return (self.basepoint, self.directions)


def _canonical_codes(nums, m, directions) -> tuple[list[int], list[tuple[int, ...]]]:
    """(q, w) per row: w[r]/q[r] is the canonical basepoint of the component
    through the point nums[r]/m[r] along the directions.

    directions must be a Hermite basis with unit pivots, which every
    direction lattice of a signed-permutation isometry has; any other
    lattice raises ValueError.  The point moves to x - Σ x[p_k]·d_k, p_k
    being the pivot of row d_k, and is reduced mod 1.  This is the
    lexicographic minimum of the component mod 1:
    - the rows vanish at each other's pivots, so the subtraction zeroes
      every pivot coordinate, and coordinates before the first pivot are
      fixed on the component;
    - each pivot coordinate moves freely along its own row, and 0 is its
      least value;
    - once every pivot coordinate is 0 the point is fixed, and each other
      coordinate is the value of x_j - Σ x[p_k]·d_k[j], a functional that
      vanishes on the directions, so the denominator q left after
      reduction is the component's intrinsic one.
    Hence (q, w) depends only on the component, not on the point or on m.
    Rows are processed together on object arrays of Python ints.
    """
    m = np.array(m, dtype=object)
    nums = np.array(nums, dtype=object).reshape(len(m), -1)
    if directions:
        pivots = [next(j for j, x in enumerate(row) if x) for row in directions]
        rows = np.array(directions, dtype=object)
        if (rows[:, pivots] != np.eye(len(pivots), dtype=int)).any():
            raise ValueError("direction lattice has no Hermite basis with unit pivots")
        nums = nums - nums[:, pivots].dot(rows)
    nums = nums % m[:, None]
    q = m // np.gcd(m, np.gcd.reduce(nums, axis=1))
    w = nums // (m // q)[:, None]
    return q.tolist(), [tuple(row) for row in w.tolist()]


def fixed_locus(f: AffineIsometry) -> list[FixedComponent]:
    """All connected components of {x : f(x) = x mod Z^n}, sorted.

    Row i of x = Lx + t reads x_i = s_i·x_{p(i)} + t_i.  Along a cycle
    c_0, c_1 = p(c_0), ... of the permutation, started at its smallest
    coordinate, x_{c_{j+1}} = s_{c_j}(x_{c_j} - t_{c_j}), so every
    coordinate is e_j·y + a_j in y = x_{c_0}, and closing the cycle gives
    (1 - e)·y ≡ u (mod 1), e being the cycle's sign product.  A cycle with
    e = +1 is a free direction (y = 0 at the basepoint), or the locus is
    empty when u ≢ 0; one with e = -1 pins y to u/2 or u/2 + 1/2.  The
    free directions are disjoint ±1 vectors led by +1 at their cycles'
    smallest coordinates, a Hermite basis already.  Numerators are over
    2N, N the translation's denominator.
    """
    n = f.dim
    denom = lcm(1, *(t.denominator for t in f.translation))
    m = 2 * denom
    t = [int(x * m) for x in f.translation]
    cycle_of, sign, offset = [None] * n, [0] * n, [0] * n
    pins, directions = [], []
    for start in range(n):
        if cycle_of[start] is not None:
            continue
        c, e, a = start, 1, 0
        while cycle_of[c] is None:
            cycle_of[c], sign[c], offset[c] = len(pins), e, a
            e, a = f.signs[c] * e, f.signs[c] * (a - t[c])
            c = f.perm[c]
        if e == 1:
            if a % m:
                return []
            directions.append(tuple(sign[i] if cycle_of[i] == len(pins) else 0 for i in range(n)))
        pins.append([0] if e == 1 else [a // 2, a // 2 + denom])
    ys = np.array(list(itertools.product(*pins)), dtype=object)
    points, directions = ys[:, cycle_of] * sign + offset, tuple(directions)
    q, w = _canonical_codes(points, [m] * len(points), directions)
    common = lcm(*q)
    order = sorted(range(len(q)), key=lambda r: _lex_key(q[r], w[r], common))
    return [FixedComponent(tuple(Fraction(k, q[r]) for k in w[r]), directions) for r in order]


def _lex_key(q: int, w, scale: int) -> tuple[int, ...]:
    """The point w/q as numerators over the common denominator scale, so
    that integer tuples compare as the rational points do."""
    return tuple(x * (scale // q) for x in w)


# Integer form of a component: (directions, q, w), its canonical basepoint
# being w/q with q the intrinsic denominator.


def _component_code(comp: FixedComponent) -> tuple:
    q = lcm(1, *(x.denominator for x in comp.basepoint))
    return comp.directions, q, tuple(x.numerator * (q // x.denominator) for x in comp.basepoint)


def _apply_codes(g: tuple[int, ...], denom: int, q, w) -> tuple[np.ndarray, np.ndarray]:
    """(m, image): the image of the point w[r]/q[r] under the isometry of
    code g is image[r]/m[r].  q and w are object arrays of Python ints."""
    n = w.shape[1]
    signs, trans = np.array(g[n : 2 * n], dtype=object), np.array(g[2 * n :], dtype=object)
    m = np.lcm(q, denom)
    return m, w[:, list(g[:n])] * signs * (m // q)[:, None] + trans * (m // denom)[:, None]


def _image_codes(g: tuple[int, ...], denom: int, directions, q, w) -> tuple:
    """(image directions, q, w): integer forms of the images, under the
    isometry of code g, of the components with these directions through
    the points w[r]/q[r]."""
    n = w.shape[1]
    image_dirs = tuple(
        tuple(r)
        for r in hermite_row_basis([[g[n + i] * dv[g[i]] for i in range(n)] for dv in directions])
    )
    m, image = _apply_codes(g, denom, q, w)
    return (image_dirs, *_canonical_codes(image, m, image_dirs))


def _point_arrays(q: list[int], w: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    return np.array(q, dtype=object), np.array(w, dtype=object).reshape(len(q), -1)


def transform_component(g: AffineIsometry, comp: FixedComponent) -> FixedComponent:
    """The image g(comp), canonicalized."""
    denom = lcm(1, *(t.denominator for t in g.translation))
    directions, q, w = _component_code(comp)
    image_dirs, (q,), (w,) = _image_codes(
        _encode(g, denom), denom, directions, *_point_arrays([q], [w])
    )
    return FixedComponent(tuple(Fraction(k, q) for k in w), image_dirs)


@dataclass
class CensusOrbit:
    representative: FixedComponent
    components: list[FixedComponent]
    setwise_stabilizer: list[int]
    pointwise_stabilizer: list[int]
    translation_elements: list[int]
    quotient_length_factor: Fraction
    local_model: str | None

    @property
    def size(self) -> int:
        return len(self.components)


@dataclass
class SingularCensus:
    components: list[FixedComponent]
    orbits: list[CensusOrbit]

    @property
    def total_components(self) -> int:
        return len(self.components)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def _component_permutations(group: GroupTable, codes: list[tuple]) -> np.ndarray:
    """perms[p, c]: index of the image of component c under element p.

    codes are the components' integer forms.  Only the generators are
    applied to components, one batch per direction lattice; every other
    element's permutation follows from the closure's spanning tree, since
    p = e_i∘g gives perm_p = perm_i∘perm_g.
    """
    position = {code: k for k, code in enumerate(codes)}
    batches: dict = {}  # directions -> component indices
    for k, code in enumerate(codes):
        batches.setdefault(code[0], []).append(k)
    points = {
        directions: _point_arrays([codes[k][1] for k in ks], [codes[k][2] for k in ks])
        for directions, ks in batches.items()
    }
    denom, elt_codes = group.codes
    perms = np.empty((group.order, len(codes)), dtype=np.intp)
    perms[0] = np.arange(len(codes))
    for g in group.generator_indices:
        for directions, ks in batches.items():
            image_dirs, q, w = _image_codes(
                elt_codes[g], denom, directions, *points[directions]
            )
            images = [position.get((image_dirs, *qw)) for qw in zip(q, w)]
            if None in images:
                raise AssertionError("orbit left the census component set")
            perms[g, ks] = images
    for p, (i, g) in enumerate(group.factors[1:], start=1):
        perms[p] = perms[i][perms[g]]
    return perms


def singular_census(group: GroupTable, require_circles: bool = True) -> SingularCensus:
    """Union of all fixed components of non-identity elements, by orbit.

    Per orbit: setwise and pointwise stabilizers, the elements acting on
    the component by a nonzero internal translation, the induced length
    factor 1/[setwise:pointwise], and the combinatorial local model label
    (product type when no translation element exists, half-turn quotient
    type otherwise).
    """
    seen: dict = {}
    for loci in group.fixed_loci[1:]:
        for comp in loci:
            seen.setdefault(comp.key, comp)
    unsorted = list(seen.values())
    codes = [_component_code(comp) for comp in unsorted]
    scale = lcm(1, *(q for _dirs, q, _w in codes))
    # Sorted as by comp.key = (basepoint, directions), on integers.
    order = sorted(range(len(codes)), key=lambda k: (_lex_key(*codes[k][1:], scale), codes[k][0]))
    codes = [codes[k] for k in order]
    components = [unsorted[k] for k in order]
    if require_circles:
        bad = [c for c in components if c.dimension != 1]
        if bad:
            raise ValueError(
                "circles-only census requested but a fixed component has "
                f"dimension {bad[0].dimension}"
            )

    perms = _component_permutations(group, codes)
    denom, elt_codes = group.codes
    n = group.dim
    assigned = np.zeros(len(components), dtype=bool)
    orbits = []
    for r, rep in enumerate(components):
        if assigned[r]:
            continue
        in_orbit = np.zeros(len(components), dtype=bool)
        in_orbit[perms[:, r]] = True
        members = np.flatnonzero(in_orbit).tolist()
        assigned |= in_orbit
        setwise = np.flatnonzero(perms[:, r] == r).tolist()
        directions, q, w = codes[r]
        # Elements preserving the component and its directions move it along itself.
        along = [
            i
            for i in setwise
            if all(
                elt_codes[i][n + j] * dv[elt_codes[i][j]] == dv[j]
                for dv in directions
                for j in range(n)
            )
        ]
        # g(w/q) = w/q mod 1, compared over the common denominator m.
        m = lcm(q, denom)
        a, b = m // q, m // denom
        pointwise = []
        for i in along:
            g = elt_codes[i]
            if all((g[n + j] * w[g[j]] * a + g[2 * n + j] * b - w[j] * a) % m == 0 for j in range(n)):
                pointwise.append(i)
        translations = [i for i in along if i not in pointwise]
        model = None
        if rep.dimension == 1:
            model = LOCAL_MODEL_HALF_TURN if translations else LOCAL_MODEL_PRODUCT
        orbits.append(
            CensusOrbit(
                representative=rep,
                components=[components[k] for k in members],
                setwise_stabilizer=setwise,
                pointwise_stabilizer=pointwise,
                translation_elements=translations,
                quotient_length_factor=Fraction(len(pointwise), len(setwise)),
                local_model=model,
            )
        )
    return SingularCensus(components, orbits)


@dataclass
class Pi1Certificate:
    """Heuristic certificate for the loop-folding simple-connectivity argument.

    PASS means: every coordinate direction is reversed by some element
    with nonempty fixed locus, and the elements with nonempty fixed loci
    generate the whole group.  This certifies the two structural inputs
    of the folding argument; it is not a fundamental-group computation.
    """

    status: str
    direction_witnesses: dict[int, int | None]
    fixed_point_elements: list[int]
    generated_by_fixed: bool
    note: str = (
        "structural conditions for the loop-folding argument; "
        "heuristic PASS, not a computed fundamental group"
    )

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def pi1_certificate(group: GroupTable) -> Pi1Certificate:
    n = group.dim
    loci = group.fixed_loci
    fixed_elements = [i for i in range(group.order) if loci[i]]

    els = group.elements
    # L e_j = -e_j iff row j holds -1 in column j.
    witnesses = {j: next((i for i in fixed_elements if (els[i].perm[j], els[i].signs[j]) == (j, -1)), None)
                 for j in range(n)}
    generated = group.subgroup_generated(fixed_elements) == frozenset(range(group.order))
    ok = generated and all(w is not None for w in witnesses.values())
    return Pi1Certificate(
        status="PASS" if ok else "FAIL",
        direction_witnesses=witnesses,
        fixed_point_elements=fixed_elements,
        generated_by_fixed=generated,
    )
