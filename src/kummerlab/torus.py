"""Finite groups of affine isometries of the flat torus R^n/Z^n, exactly.

An isometry is its integer code: a signed permutation for the linear part
and the translation, reduced mod 1, as integer numerators over a common
denominator; its matrix and its Fraction translation are views for
reports.  Everything in this module is exact: the group closure composes
one BFS level's code arrays with every generator at once, the same
composition of the arrays with themselves gives the exponent, and the
closure keeps only its Cayley graph, products by generators; fixed loci
are read off the cycles of each element's signed permutation (once per
group element); components are rows of integer arrays, each the
numerators of its lexicographically least rational point over a common
denominator, found by subtracting its unit-pivot direction rows; and census
orbits are traced along the closure's spanning tree through the generators'
preimages of the components, found by sorting the generators' images of
whole batches of rows.  The arrays are np.int64 while _code_dtype's bound
holds and Python ints (object dtype) beyond it, through the same code.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .intlinalg import hermite_row_basis

# Bound here only for perfbench/tracing.py, which counts calls through them.
from .intlinalg import smith_normal_form, unimodular_inverse  # noqa: F401

Vector = tuple[Fraction, ...]

LOCAL_MODEL_PRODUCT = "S¹×(ℂ²/±1)"
LOCAL_MODEL_HALF_TURN = "(ℂ²/±1 × S¹)/ℤ₂"
NOT_AN_ISOMETRY = "not a flat-torus isometry: linear part must be a signed permutation matrix"
MAX_GROUP_ORDER = 1024  # the default cap of a group closure


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


class AffineIsometry:
    """x -> linear @ x + translation on the torus R^n/Z^n, held as its code.

    Row i of the linear part holds signs[i] in column perm[i], and
    translation[i] = nums[i]/denom with 0 <= nums[i] < denom.  An element
    of a closure keeps the closure's common denominator; any other isometry
    has denom the lcm of its denominators.  linear and translation are
    views, built on first read; equality, hashing and repr are those of
    (linear, translation).  An isometry is immutable.
    """

    def __init__(self, linear, translation):
        perm, signs = _signed_permutation(linear)
        if len(translation) != len(linear):
            raise ValueError("dimension mismatch between linear part and translation")
        translation = [Fraction(t) % 1 for t in translation]
        denom = lcm(1, *(t.denominator for t in translation))
        nums = tuple(t.numerator * (denom // t.denominator) for t in translation)
        self.__dict__.update(perm=perm, signs=signs, nums=nums, denom=denom)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable AffineIsometry")

    @cached_property
    def linear(self) -> tuple[tuple[int, ...], ...]:
        n = self.dim
        return tuple(tuple(s if j == p else 0 for j in range(n)) for p, s in zip(self.perm, self.signs))

    @cached_property
    def translation(self) -> Vector:
        return tuple(Fraction(t, self.denom) for t in self.nums)

    def _key(self) -> tuple:
        """The code over the least common denominator."""
        g = gcd(self.denom, *self.nums)
        return self.perm, self.signs, self.denom // g, tuple(t // g for t in self.nums)

    def __eq__(self, other):
        if not isinstance(other, AffineIsometry):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"AffineIsometry(linear={self.linear!r}, translation={self.translation!r})"

    @property
    def dim(self) -> int:
        return len(self.perm)


def _isometry(perm: tuple[int, ...], signs: tuple[int, ...], nums: tuple[int, ...], denom: int) -> AffineIsometry:
    """The isometry of a code, taken as it is: nothing is checked or reduced."""
    f = object.__new__(AffineIsometry)
    f.__dict__.update(perm=perm, signs=signs, nums=nums, denom=denom)
    return f


class GroupClosureError(RuntimeError):
    pass


@dataclass
class GroupTable:
    """Closure of a generator list, with names and its Cayley graph.

    right[i][k] is the index of element i composed with generator k.
    factors[p] = (i, g) records the closure's spanning tree: element p is
    element i composed with the generator element g (factors[0] = (0, 0)).
    generator_names are the declared names, generator k's at k.
    """

    elements: list[AffineIsometry]
    names: list[str]
    right: list[list[int]]
    abelian: bool
    exponent: int
    factors: list[tuple[int, int]]
    generator_names: list[str]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def denom(self) -> int:
        """The closure's common denominator N: every element's nums are over it."""
        return self.elements[0].denom

    @cached_property
    def fixed_loci(self) -> list[Components]:
        """The fixed components of every element, by index, computed on first
        use from the elements' codes: all are rows over 2N, N = denom."""
        return [fixed_locus(el) for el in self.elements]

    def word_index(self, word: str) -> int | None:
        """Index of the element a '*'-product of declared generator names
        names, its factors composed left to right (e is the identity), or
        None if a factor is neither.  So every closure name resolves to its
        own element, and so do other words for it, such as beta*alpha for
        alpha*beta in an abelian group."""
        slots = []
        for factor in word.split("*"):
            if factor in self.generator_names:
                slots.append(self.generator_names.index(factor))
            elif factor != "e":
                return None
        return self._walk(0, slots)

    @cached_property
    def generator_indices(self) -> list[int]:
        """Indices of the distinct non-identity generator elements, ascending.

        In BFS order these are 1..k, ahead of every other element, so a
        check that holds for the generators holds for the group and the
        first element failing it is always a generator.
        """
        return sorted(set(self.right[0]) - {0})

    def _word(self, j: int) -> list[int]:
        """The generator slots k of j's spanning-tree word, in the order they act."""
        word = []
        while j:
            j, g = self.factors[j]
            word.append(self.right[0].index(g))
        return word[::-1]

    def _walk(self, i: int, word: list[int]) -> int:
        """Index of element i composed with the generators of word, in order."""
        for k in word:
            i = self.right[i][k]
        return i

    def mul(self, i: int, j: int) -> int:
        """Index of element i∘j: j's spanning-tree word applied to i through right."""
        return self._walk(i, self._word(j))

    def subgroup_generated(self, indices) -> frozenset[int]:
        """Closure of the elements of indices; only an element outside the
        closure so far becomes a generator, so at most log2|G| of them do.
        Each generator's word is spelled once."""
        closed, words = {0}, []
        for x in indices:
            if x in closed:
                continue
            words.append(self._word(x))
            frontier = list(closed)
            while frontier:
                nxt = [p for p in {self._walk(i, w) for i in frontier for w in words} if p not in closed]
                closed.update(nxt)
                frontier = nxt
        return frozenset(closed)


def _compose(f: tuple, g: tuple, rows, denom: int) -> tuple:
    """Codes of f∘g, f and g being (perm, signs, nums) arrays over denom whose
    rows broadcast: (f∘g)(x)_i = s_f[i] (s_g[p] x[p_g[p]] + t_g[p]) + t_f[i],
    p = p_f[i], reading g's codes at the rows."""
    (fp, fs, ft), (gp, gs, gt) = f, g
    return gp[rows, fp], fs * gs[rows, fp], (fs * gt[rows, fp] + ft) % denom


def generate_group(
    generators: list[AffineIsometry],
    names: list[str] | None = None,
    max_order: int = MAX_GROUP_ORDER,
) -> GroupTable:
    """BFS closure of the generators under composition.

    Element 0 is the identity; generators follow in the declared order,
    then products by BFS level, which makes the ordering deterministic.
    Each level is composed with every generator at once, on code arrays,
    and keeps its right multiplications by generators.  The group is
    abelian iff its generators commute pairwise.
    """
    if not generators:
        raise ValueError("empty generator list")
    n, k = generators[0].dim, len(generators)
    if any(g.dim != n for g in generators):
        raise ValueError("dimension mismatch among generators")
    if names is None:
        names = [f"g{i+1}" for i in range(k)]

    denom = lcm(1, *(g.denom for g in generators))
    dtype = _code_dtype(n, denom)
    gens = (np.array([g.perm for g in generators], np.intp), np.array([g.signs for g in generators], dtype),
            np.array([[t * (denom // g.denom) for t in g.nums] for g in generators], dtype))
    level = (np.arange(n)[None], np.ones((1, n), dtype), np.zeros((1, n), dtype))
    index = {(*range(n), *(1,) * n, *(0,) * n): 0}
    levels, elt_names, right = [level], ["e"], []  # right[i][kk]: element i composed with generator kk
    steps: list[tuple[int, int]] = []  # element p = element i ∘ generator kk, for p >= 1
    while len(level[0]):
        start, size = len(right), len(index)
        codes = _compose(tuple(a[:, None] for a in level), gens, np.arange(k)[:, None], denom)
        flat = np.concatenate(codes, axis=2).reshape(-1, 3 * n).tolist()
        found = [index.setdefault(key, len(index)) for key in map(tuple, flat)]
        if len(index) > max_order:
            raise GroupClosureError(f"group closure exceeded the cap of {max_order} elements")
        fresh = []  # each new element's first occurrence, in row-major (i, kk) order
        for e, j in enumerate(found):
            if j == size + len(fresh):
                fresh.append(e)
                i, kk = start + e // k, e % k
                elt_names.append(names[kk] if i == 0 else elt_names[i] + "*" + names[kk])
                steps.append((i, kk))
        right += [found[e : e + k] for e in range(0, len(found), k)]
        level = tuple(a.reshape(-1, n)[fresh] for a in codes)
        levels.append(level)

    # The generator elements a = right[0][kk] commute pairwise; an element's
    # order is its linear part's, m, times that of its m-th power's translation.
    abelian = all(right[a][kb] == right[b][ka] for ka, a in enumerate(right[0]) for kb, b in enumerate(right[0]))
    codes = tuple(np.concatenate(arrays) for arrays in zip(*levels))
    power, pending, exponent, m = codes, np.ones(len(index), bool), 1, 1
    while pending.any():
        done = pending & (power[0] == np.arange(n)).all(axis=1) & (power[1] == 1).all(axis=1)
        exponent = lcm(exponent, *(m * (denom // np.gcd(np.gcd.reduce(power[2][done], axis=1), denom))).tolist())
        power, pending, m = _compose(power, codes, np.arange(len(index))[:, None], denom), pending & ~done, m + 1
    del levels, codes, power  # freed first: the arrays and the elements never coexist
    elements = [_isometry(c[:n], c[n : 2 * n], c[2 * n :], denom) for c in index]
    factors = [(0, 0)] + [(i, right[0][kk]) for i, kk in steps]
    return GroupTable(elements, elt_names, right, abelian, exponent, factors, names)


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of a fixed-point set: an affine subtorus, as
    its integer code.

    directions is the canonical (Hermite) basis of the saturated integer
    direction lattice.  The canonical basepoint, the lexicographically
    smallest point of the component in [0,1)^n, is w/q, q being the
    intrinsic denominator (gcd(q, *w) = 1).
    """

    directions: tuple[tuple[int, ...], ...]
    q: int
    w: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.directions)

    @property
    def key(self) -> tuple:
        return (self.directions, self.q, self.w)

    @property
    def basepoint(self) -> Vector:
        return tuple(Fraction(k, self.q) for k in self.w)


class Components(Sequence):
    """Fixed components as rows of integer arrays, in basepoint order.

    Row r has the directions lattices[lattice[r]] and the canonical
    basepoint points[r]/m.  Indexing builds the FixedComponent of a row,
    so only the components that are read become objects.  A table equals
    any sequence of the same components in the same order.
    """

    def __init__(self, lattices: tuple, lattice: np.ndarray, m: int, points: np.ndarray):
        self.lattices, self.lattice, self.m, self.points = lattices, lattice, m, points

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, r) -> FixedComponent:
        row = self.points[r].tolist()
        g = gcd(self.m, *row)
        return FixedComponent(self.lattices[self.lattice[r]], self.m // g, tuple(x // g for x in row))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Components({list(self)!r})"


def _code_dtype(n: int, m: int):
    """np.int64 if it holds every intermediate of the exact core's arrays
    in dimension n over the common denominator m, else object (Python ints).

    Every translation numerator lies in [0, m), and so does every row that
    enters an image.  Each intermediate is below 4n·m in absolute value:
    - fixed_locus: walking a cycle of length L <= n adds at most m per step
      to the offset, so offsets and pins are below n·m and points
      e·y + a below 2n·m;
    - the image s·x + t of a row lies in (-m, 2m);
    - _canonical_codes subtracts x[p]·d from rows below B in absolute value,
      with directions of disjoint ±1 entries, leaving entries below 2B.
    The census uses m = 2N, N the closure's common denominator, so int64
    is exact whenever 8n·N <= 2^63, e.g. N < 2^57 at n = 5.
    """
    return np.int64 if 4 * n * m <= 2**63 else object


def _canonical_codes(nums: np.ndarray, m: int, lattices, lattice: np.ndarray) -> np.ndarray:
    """The canonical numerators over m: row r of the result over m is the
    canonical basepoint of the component with the directions
    lattices[lattice[r]] through the point nums[r]/m.

    Each lattice must be a Hermite basis with unit pivots, which every
    direction lattice of a signed-permutation isometry has; any other
    lattice raises ValueError.  The point moves to x - Σ x[p_k]·d_k, p_k
    being the pivot of row d_k, and is reduced mod m.  This is the
    lexicographic minimum of the component mod 1:
    - the rows vanish at each other's pivots, so the subtraction zeroes
      every pivot coordinate, and coordinates before the first pivot are
      fixed on the component;
    - each pivot coordinate moves freely along its own row, and 0 is its
      least value;
    - once every pivot coordinate is 0 the point is fixed, and each other
      coordinate is the value of x_j - Σ x[p_k]·d_k[j], a functional that
      vanishes on the directions, so the gcd of m and a row's numerators
      gives the component's intrinsic denominator.
    Hence the row depends only on the component and on m.  All rows are
    processed in one array expression, in the dtype of nums; lattices with
    fewer rows are padded with zero rows.  _code_dtype bounds the entries
    for the direction rows that signed permutations produce.
    """
    dim = max(map(len, lattices), default=0)
    if dim:
        pad = [(0,) * nums.shape[1]]
        pivots, rows = [], []
        for directions in lattices:
            piv = [next(j for j, x in enumerate(row) if x) for row in directions]
            if any(row[p] != (k == i) for i, p in enumerate(piv) for k, row in enumerate(directions)):
                raise ValueError("direction lattice has no Hermite basis with unit pivots")
            pivots.append(piv + [0] * (dim - len(piv)))
            rows.append(list(directions) + pad * (dim - len(piv)))
        at = nums[np.arange(len(nums))[:, None], np.array(pivots, np.intp)[lattice]]
        nums = nums - (at[:, None, :] @ np.array(rows, nums.dtype)[lattice])[:, 0]
    return nums % m


def _sorted_rows(points: np.ndarray, *last) -> np.ndarray:
    """Indices that sort the rows lexicographically, ties broken by the keys last."""
    return np.lexsort((*last, *points.T[::-1]))


def fixed_locus(f: AffineIsometry) -> Components:
    """All connected components of {x : f(x) = x mod Z^n}, sorted.

    Row i of x = Lx + t reads x_i = s_i·x_{p(i)} + t_i.  Along a cycle
    c_0, c_1 = p(c_0), ... of the permutation, started at its smallest
    coordinate, x_{c_{j+1}} = s_{c_j}(x_{c_j} - t_{c_j}), so every
    coordinate is e_j·y + a_j in y = x_{c_0}, and closing the cycle gives
    (1 - e)·y ≡ u (mod 1), e being the cycle's sign product.  A cycle with
    e = +1 is a free direction, or the locus is empty when u ≢ 0; one with
    e = -1 pins y to u/2 or u/2 + 1/2.  The free directions are disjoint
    ±1 vectors led by +1 at their cycles' smallest coordinates, a Hermite
    basis with unit pivots.  Taking y = 0 on a free cycle puts 0 at its
    pivot, so each point is its component's canonical basepoint (see
    _canonical_codes) once reduced.  The rows are over m = 2·f.denom, read
    off f's integer numerators.
    """
    n, m = f.dim, 2 * f.denom
    dtype = _code_dtype(n, m)
    t = [2 * x for x in f.nums]
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
                return Components((), np.zeros(0, np.intp), m, np.zeros((0, n), dtype))
            directions.append(tuple(sign[i] if cycle_of[i] == len(pins) else 0 for i in range(n)))
        pins.append([0] if e == 1 else [a // 2, a // 2 + f.denom])
    ys = np.array(list(itertools.product(*pins)), dtype=dtype)
    points = (ys[:, cycle_of] * np.array(sign, dtype) + np.array(offset, dtype)) % m
    return Components((tuple(directions),), np.zeros(len(points), np.intp), m, points[_sorted_rows(points)])


def _image_codes(g: AffineIsometry, table: Components) -> Components:
    """The images, row by row, of the table's components under g, whose
    denominator divides the table's m.

    Row r of the result is the image of row r; its lattices are the images
    of the table's lattices, in the same order.
    """
    m, dtype = table.m, table.points.dtype
    lattices = tuple(
        tuple(tuple(r) for r in hermite_row_basis([[s * dv[p] for p, s in zip(g.perm, g.signs)] for dv in directions]))
        for directions in table.lattices
    )
    signs, trans = np.array(g.signs, dtype), np.array(g.nums, dtype)
    image = table.points[:, list(g.perm)] * signs + trans * (m // g.denom)
    return Components(lattices, table.lattice, m, _canonical_codes(image, m, lattices, table.lattice))


def transform_component(g: AffineIsometry, comp: FixedComponent) -> FixedComponent:
    """The image g(comp), canonicalized."""
    m = lcm(comp.q, g.denom)
    points = np.array([[x * (m // comp.q) for x in comp.w]], dtype=_code_dtype(g.dim, m))
    table = Components((comp.directions,), np.zeros(1, np.intp), m, points)
    return _image_codes(g, table)[0]


@dataclass
class CensusOrbit:
    representative: FixedComponent
    size: int
    setwise_stabilizer: list[int]
    pointwise_stabilizer: list[int]
    translation_elements: list[int]
    quotient_length_factor: Fraction
    local_model: str | None


@dataclass(eq=False)
class SingularCensus:
    """The components, in (basepoint, directions) order, their orbits in the
    order of their representatives, and orbit[r], the orbit of component r."""

    components: Components
    orbits: list[CensusOrbit]
    orbit: np.ndarray

    @property
    def total_components(self) -> int:
        return len(self.components)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def _generator_preimages(group: GroupTable, components: Components) -> dict[int, np.ndarray]:
    """pre[g][c]: index of the preimage of component c under generator element g.

    Only the generators are applied to components, each to the whole table
    in one batch.  A generator permutes the components, which are sorted,
    so sorting its images pairs each with its index; an image that finds
    no equal row raises AssertionError.
    """
    rank = {d: c for c, d in enumerate(components.lattices)}
    pre = {}
    for g in group.generator_indices:
        image = _image_codes(group.elements[g], components)
        lattice = np.array([rank.get(d, -1) for d in image.lattices], np.intp)[image.lattice]
        pre[g] = _sorted_rows(image.points, lattice)
        if (image.points[pre[g]] != components.points).any() or (lattice[pre[g]] != components.lattice).any():
            raise AssertionError("orbit left the census component set")
    return pre


def _census_components(group: GroupTable) -> Components:
    """The distinct fixed components of the non-identity elements, in
    (basepoint, directions) order, as rows over the loci's common 2N."""
    n, m = group.dim, 2 * group.denom
    loci = [locus for locus in group.fixed_loci[1:] if len(locus)]
    lattices = tuple(sorted({locus.lattices[0] for locus in loci}))
    if not loci:
        return Components(lattices, np.zeros(0, np.intp), m, np.zeros((0, n), _code_dtype(n, m)))
    rank = {d: c for c, d in enumerate(lattices)}
    lattice = np.repeat([rank[locus.lattices[0]] for locus in loci], [len(locus) for locus in loci])
    points = np.concatenate([locus.points for locus in loci])
    order = _sorted_rows(points, lattice)
    lattice, points = lattice[order], points[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (points[1:] != points[:-1]).any(axis=1) | (lattice[1:] != lattice[:-1])
    return Components(lattices, lattice[new], m, points[new])


def singular_census(group: GroupTable) -> SingularCensus:
    """Union of all fixed components of non-identity elements, by orbit.

    Per orbit: setwise and pointwise stabilizers, the elements acting on
    the component by a nonzero internal translation, the induced length
    factor 1/[setwise:pointwise], and, for a circle, the combinatorial
    local model label (product type when no translation element exists,
    half-turn quotient type otherwise).
    """
    components = _census_components(group)
    pre = {g: p.tolist() for g, p in _generator_preimages(group, components).items()}
    steps = [(i, pre[g]) for i, g in group.factors[1:]]
    els, denom = group.elements, group.denom
    orbit = np.full(len(components), -1)
    orbits = []
    while (unassigned := np.flatnonzero(orbit < 0)).size:
        r = int(unassigned[0])
        # back[p] = p⁻¹(r) along the spanning tree: p = i∘g gives p⁻¹(r) = g⁻¹(i⁻¹(r)).
        back = [r]
        for i, p in steps:
            back.append(p[back[i]])
        back = np.array(back)
        orbit[back] = len(orbits)
        setwise = np.flatnonzero(back == r).tolist()
        rep = components[r]
        directions, q, w = rep.key
        # Elements preserving the component and its directions move it along itself.
        along = [
            i
            for i in setwise
            if all(s * dv[p] == dv[j] for dv in directions for j, (p, s) in enumerate(zip(els[i].perm, els[i].signs)))
        ]
        # g(w/q) = w/q mod 1, compared over the common denominator m.
        m = lcm(q, denom)
        a, b = m // q, m // denom
        pointwise, translations = [], []
        for i in along:
            g = els[i]
            fixes = all((s * w[p] * a + t * b - w[j] * a) % m == 0
                        for j, (p, s, t) in enumerate(zip(g.perm, g.signs, g.nums)))
            (pointwise if fixes else translations).append(i)
        model = None
        if rep.dimension == 1:
            model = LOCAL_MODEL_HALF_TURN if translations else LOCAL_MODEL_PRODUCT
        orbits.append(
            CensusOrbit(
                representative=rep,
                size=group.order // len(setwise),
                setwise_stabilizer=setwise,
                pointwise_stabilizer=pointwise,
                translation_elements=translations,
                quotient_length_factor=Fraction(len(pointwise), len(setwise)),
                local_model=model,
            )
        )
    return SingularCensus(components, orbits, orbit)


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
        generated_by_fixed=generated,
    )
