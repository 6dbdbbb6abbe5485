"""Finite matrix group analysis: closure, derived series, spinning, scalars.

Two engines compute group orders.  The exact path (`closure`, the `--exact`
command) enumerates every element breadth-first through the group's action
on the row vectors it meets (Seress, *Permutation Group Algorithms*, 2003),
over any FieldSpec.  Each distinct exact row gets an id, an element is the
tuple of the ids of its rows, and every map is a list of row ids: an input
generator's is filled by one exact `Matrix` product per batch of new rows,
and the derived series composes and inverts whole permutations of the
closed table.  So an element times a generator is one lookup per row, and
field arithmetic is done once per distinct row and input generator.
`closure` returns that `_Enumeration` itself, which `derived_series`
continues and `contains_scalar` reads.  The modular path keeps no element
list: `chain.StabilizerChain` is a stabilizer chain of the group mod p,
built by deterministic Schreier-Sims with numpy.  Both
offer `extend(words)`: it extends the group by the products of words of
(x, x^-1) pairs, in order, a member changing nothing; the chain asks
whether they are members in one batch.  So one derived series grows each
derived subgroup in place, and no engine inverts a matrix: the chain forms
the inverse of a new element from the inverses `MatrixGroupGen` forms on
first read, and the enumeration inverts permutations of its rows, so the
exact path inverts nothing.
Both raise CapExceeded exactly when the order exceeds the cap; that
exception is the only way either reports the cap.

Generator validation and the invariant decomposition first bound what they
compute modulo one prime (`_Bounds`): over GF(p) the field's own p, else
the smallest odd p = 1 mod m (m = 1 over Q) that divides no denominator of
the tuple, so every entry is p-integral.  Reducing a p-integral matrix can
only lower its rank, so spin_p <= spin, rank_p <= rank, fixed_p >= fixed
and End_p >= End >= 1, and a bound at its extreme value is the exact value
(the Meat-Axe certificate).  A generator of rank d mod p is invertible, and
`fixed_dim` 0 and `moving_dim` d are read off the bounds.  An exact fixed
space F and moving summand M are upper bounds in turn: a seed s spins to
its line if s is in F and else to at most dim M + [s not in M]; F + M = V
if dim F + dim M = d and their reduced bases have rank d; and M's reduced
RREF basis times the reduced generators, read at its pivots, is the
restricted tuple mod p, whose End_p of 1 is exact.  Only what a bound
leaves open is eliminated exactly, by the same routines as without the
bounds, so the prime decides how often a bound settles a value and never
the output.

For cyclotomic or rational generators the modular path maps the root of unity
to an element of the same order in GF(p) for an odd prime p = 1 mod m,
works mod p, and requires agreement across distinct primes; a derived series
is built only once the orders and scalars agree.  A prime that divides a
denominator of a generator or its inverse is refused; for other p > 2 the
reduction is injective on finite groups, so the modular order of a finite
group is exact.  Over GF(p) the only prime is p; the chain is exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BadPrime,
    CapExceeded,
    NonInvertibleGenerator,
    OrderDisagreement,
    ZeroSeed,
)
from .field import FieldElement, FieldSpec, _factorize, cyclotomic_polynomial, format_element, is_prime
from .linalg import (
    Matrix,
    Subspace,
    _Echelon,
    hstack,
    image,
    intertwiner_space,
    kernel,
    minus_identity,
    square_tuple_shape,
    subspace_sum,
    vstack,
)

if TYPE_CHECKING:
    import numpy as np

    from .chain import StabilizerChain

__all__ = [
    "MatrixGroupGen",
    "closure",
    "derived_series",
    "spin",
    "spin_subspace",
    "fixed_subspace",
    "moving_subspace",
    "contains_scalar",
    "root_of_unity_modp",
    "reduce_matrix_modp",
    "modular_group_analysis",
    "invariant_decomposition",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 500_000


@dataclass(frozen=True)
class MatrixGroupGen:
    """A finite list of invertible generators of a matrix group; their inverses
    are formed when first read, which only the modular path does, and their
    reduction mod a prime (`_bounds`) when validation or the decomposition
    first reads it."""

    spec: FieldSpec
    degree: int
    generators: tuple[Matrix, ...]

    @classmethod
    def from_matrices(cls, gens: Sequence[Matrix]) -> "MatrixGroupGen":
        """Generators of full rank; a repeated generator keeps its first occurrence only.

        A generator of rank d mod p is invertible; only a generator that is
        singular mod p is eliminated exactly.
        """
        spec, d = square_tuple_shape(gens)
        group = cls(spec, d, tuple(dict.fromkeys(gens)))
        bounds = group._bounds
        for g, reduced in zip(group.generators, bounds.mats):
            if bounds.rank(reduced) < d and len(_Echelon(g.entries).rows) < d:
                raise NonInvertibleGenerator("generator is singular")
        return group

    @cached_property
    def inverses(self) -> tuple[Matrix, ...]:
        return tuple(g.inverse() for g in self.generators)

    @cached_property
    def _bounds(self) -> "_Bounds":
        return _Bounds.of(self.generators)


def _as_generators(gens) -> MatrixGroupGen:
    if isinstance(gens, MatrixGroupGen):
        return gens
    return MatrixGroupGen.from_matrices(list(gens))


# -- the exact engine and the derived series of either engine -----------------------
#
# `_derived_series` reads from `_Enumeration` or `chain.StabilizerChain` only
# `order`, `gens`, `inverses`, `extend` and `trivial`, and hands `extend`
# words of (x, x^-1) pairs, so one derived series serves both and inverts
# nothing; in the enumeration each x is a list of row ids.


class _Rows:
    """The distinct exact row vectors an enumeration and its subgroups meet, numbered
    in the order met; `identity` holds the ids of the identity's rows.

    A row is stored as one flat tuple of integers, the denominators of its
    entries followed by their numerators, which hashes and compares without
    field arithmetic and holds no FieldElement.
    """

    def __init__(self, spec: FieldSpec, degree: int):
        self.spec, self.degree = spec, degree
        self.keys: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.identity = tuple(map(self.id, Matrix.identity(spec, degree).entries))

    @staticmethod
    def key(row: Sequence[FieldElement]) -> tuple[int, ...]:
        flat = [e.den for e in row]
        for e in row:
            flat += e.coeffs
        return tuple(flat)

    def id(self, row: Sequence[FieldElement]) -> int:
        key = self.key(row)
        new = len(self.keys)
        found = self.ids.setdefault(key, new)
        if found == new:
            self.keys.append(key)
        return found

    def matrix(self, ids: Sequence[int]) -> Matrix:
        """The rows with these ids, as an exact matrix."""
        spec, d, k = self.spec, self.degree, self.spec.degree
        starts = list(enumerate(range(d, d + d * k, k)))  # (entry, its first numerator)
        rows = []
        for r in ids:
            key = self.keys[r]
            rows.append(tuple([FieldElement(spec, key[j : j + k], key[i]) for i, j in starts]))
        return Matrix(spec, tuple(rows), cols=d)


class _Enumeration:
    """All elements of the group generated by the input generators and everything
    passed to `extend`.

    An element g is the tuple of the ids of its rows e_i g in a `_Rows`
    table shared with the subgroups `trivial` makes, and a map x is the
    list of ids with x[r] the id of row r times x, so g times x is one
    lookup per row.  `members` is the set of the `order` elements;
    `elements` builds them as exact matrices on request.  `gens` holds the
    maps of the generators that enlarged the group, `inverses` their
    inverses and, in a `closure` result, `matrices` the input generators
    behind `gens`.  More than `cap` elements raise CapExceeded.
    """

    def __init__(self, rows: _Rows, cap: int, matrices: Sequence[Matrix] = ()):
        self.rows, self.cap = rows, cap
        self.members = {rows.identity}
        self.gens: list[list[int]] = []
        self.matrices: list[Matrix] = []
        for mat in matrices:
            # the rows of a generator are its images of the identity's rows,
            # ids 0 to d - 1, so a member costs no product
            g = tuple(map(rows.id, mat.entries))
            if g not in self.members:
                self.matrices.append(mat)
                self._add(g, list(g))
        self.inverses: list[list[int]] = [self._inverse(x) for x in self.gens]  # the group is complete

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def elements(self) -> set[Matrix]:
        return {self.rows.matrix(g) for g in self.members}

    def __contains__(self, mat: Matrix) -> bool:
        rows = self.rows
        return tuple(rows.ids.get(rows.key(row)) for row in mat.entries) in self.members

    def trivial(self) -> "_Enumeration":
        return _Enumeration(self.rows, self.cap)

    def extend(self, words) -> None:
        """Extend the group by the product of each word of (x, x^-1) pairs, in order;
        a member changes nothing.

        Each x is a map that permutes the whole row table, which a complete
        input group has closed.  A word is read on the identity's d rows
        first, so a member costs d lookups per letter; only a new element's
        map is composed on the whole table, and inverted.
        """
        for word in words:
            g = self.rows.identity
            for x, _ in word:
                g = tuple([x[r] for r in g])
            if g in self.members:
                continue
            (images, _), *rest = word
            for x, _ in rest:
                images = [x[r] for r in images]
            self._add(g, images)
            self.inverses.append(self._inverse(images))

    def _inverse(self, images: list[int]) -> list[int]:
        """The inverse of a map that must permute the whole row table."""
        assert len(images) == len(self.rows.keys), "the row table is not closed under the group"
        inverse = [-1] * len(images)
        for r, s in enumerate(images):
            inverse[s] = r
        assert -1 not in inverse, "the map is not a permutation of the rows"
        return inverse

    def _add(self, g: tuple[int, ...], images: list[int]) -> None:
        """Extend the group by its new element g, whose map of rows is `images`.

        Every old element times g seeds the search, and only the new
        elements it finds are multiplied by all generators, so no old
        product is redone.  An input generator's map is filled for the rows
        it has not met by one exact product per batch.
        """
        rows, members = self.rows, self.members
        self.gens.append(images)
        frontier, step = list(members), [len(self.gens) - 1]
        while True:
            # A row is first met as a row of a new element, so the frontier's
            # rows all have ids below `bound`, and the maps need no more.
            found, bound = [], len(rows.keys)
            for k in step:
                x = self.gens[k]
                if len(x) < bound:  # unnamed, the product and its FieldElements are freed before the loop
                    x += map(rows.id, (rows.matrix(range(len(x), bound)) * self.matrices[k]).entries)
                for el in frontier:
                    prod = tuple([x[r] for r in el])
                    size = len(members)
                    members.add(prod)  # hashes prod once; a member leaves the size
                    if len(members) == size:
                        continue
                    if size >= self.cap:
                        raise CapExceeded(f"group enumeration exceeded the cap of {self.cap}")
                    found.append(prod)
            if not found:
                return
            frontier, step = found, range(len(self.gens))


def _derived_series(group: _Enumeration | StabilizerChain) -> list[int]:
    """Orders of the group and its successive derived subgroups.

    The derived subgroup is the normal closure of the commutators of the
    generators: it is grown by those commutators, then by the conjugates of
    each of its generators by each generator of the group until none is new.
    Each step passes its words to `extend` together.  The list stops at
    order 1 (solvable) or when the order stabilizes (perfect derived
    subgroup).
    """
    orders = [group.order]
    while orders[-1] != 1:
        pairs = list(zip(group.gens, group.inverses))
        sub = group.trivial()
        sub.extend(
            [(a_inv, a), (b_inv, b), (a, a_inv), (b, b_inv)]
            for (a, a_inv), (b, b_inv) in itertools.combinations(pairs, 2)
        )
        for s in zip(sub.gens, sub.inverses):  # both grow during the loop
            sub.extend([(g_inv, g), s, (g, g_inv)] for g, g_inv in pairs)
        orders.append(sub.order)
        if orders[-1] == orders[-2]:
            break
        group = sub
    return orders


def closure(gens, cap: int = DEFAULT_CAP) -> _Enumeration:
    """Every element of the generated group, enumerated exactly; more than `cap` raise CapExceeded."""
    group = _as_generators(gens)
    if cap < 1:
        raise CapExceeded("cap must be >= 1")
    return _Enumeration(_Rows(group.spec, group.degree), cap, group.generators)


def contains_scalar(group: _Enumeration, lam: FieldElement) -> bool:
    """True when lambda * identity is an element of a `closure` result."""
    return Matrix.diagonal(lam.spec, [lam] * group.rows.degree) in group


def derived_series(gens, cap: int = DEFAULT_CAP) -> list[int]:
    """Orders of the group and its successive derived subgroups (exact).

    `gens` may also be a result of `closure`, whose enumeration is then
    continued instead of repeated.  The list stops at order 1 (solvable) or
    when the order stabilizes (perfect derived subgroup).
    """
    return _derived_series(gens if isinstance(gens, _Enumeration) else closure(gens, cap=cap))


# -- invariant subspaces ----------------------------------------------------------


def spin(gens, seed: Sequence[FieldElement]) -> Subspace:
    """Smallest generator-stable subspace containing the seed vector."""
    group = _as_generators(gens)
    if all(c.is_zero() for c in seed):
        raise ZeroSeed("spin needs a nonzero seed")
    return spin_subspace(group, Subspace.from_rows(group.spec, group.degree, [list(seed)]))


def spin_subspace(gens, seed_space: Subspace) -> Subspace:
    """Smallest generator-stable subspace containing a whole subspace."""
    return _spin(_as_generators(gens).generators, seed_space)


def _spin(generators: Sequence[Matrix], seed_space: Subspace) -> Subspace:
    # Breadth-first layers: the images of a layer under each generator are one
    # product, and those that grow the echelon form the next layer.  An
    # echelon that spans the whole ambient space can grow no further, so the
    # search stops there, within a layer too; the RREF of the span does not
    # depend on the order.
    n, spec = seed_space.ambient_dim, seed_space.spec
    ech = _Echelon(seed_space.basis.entries)
    layer = seed_space.basis
    while layer.rows and len(ech.rows) < n:
        grown = []
        for gen in generators:
            if len(ech.rows) == n:
                break
            grown += [img for img in (layer * gen).entries if ech.add(img)]
        layer = Matrix(spec, tuple(grown), cols=n)
    return ech.subspace(spec, n)


def fixed_subspace(gens) -> Subspace:
    """Common fixed vectors of all generators."""
    return kernel(hstack([minus_identity(g) for g in _as_generators(gens).generators]))


def moving_subspace(gens) -> Subspace:
    """Generator-stable closure of the sum of the images of g - 1.

    For a finite group in invertible characteristic this is the sum of all
    non-trivial isotypic components, i.e. the canonical invariant complement
    of the fixed subspace.
    """
    group = _as_generators(gens)
    return spin_subspace(group, image(vstack([minus_identity(g) for g in group.generators])))


def restricted_tuple(gens, space: Subspace) -> list[Matrix]:
    """The action of the generators on an invariant subspace, in its basis."""
    group = _as_generators(gens)
    return [
        Matrix.from_rows(group.spec, [space.coordinates(img) for img in (space.basis * g).entries], cols=space.dim)
        for g in group.generators
    ]


def invariant_decomposition(gens) -> dict:
    """Summary of the fixed space F / moving summand M decomposition by spinning.

    Each value is first bounded over GF(p) by `_Bounds`, at a prime that
    divides no denominator of the tuple; a bound at its extreme value is
    exact, so `fixed_dim` 0 and `moving_dim` d cost no exact elimination.
    The exact F and M bound the rest.  A seed s in F spins to its line, and
    <s> + M is generator-stable (s*g = s + s(g - 1)), so spin(s) <= dim M +
    [s not in M].  F + M = V when dim F + dim M = d and their bases have rank
    d mod p.  M's RREF basis B has unit columns at its pivots, so g
    restricts to B*g read there, and mod p to B_p*g_p when B is p-integral.
    Only a value a bound leaves open comes from `spin`, `subspace_sum`,
    `restricted_tuple` (once for both keys) or `intertwiner_space`.
    """
    group = _as_generators(gens)
    d, spec = group.degree, group.spec
    bounds = group._bounds
    p = bounds.p
    less_one = [[[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(g)] for g in bounds.mats]
    # fixed_p = d - the rank of the rows of hstack(g - 1); moving_p spins the rows of vstack(g - 1)
    ident = Matrix.identity(spec, d)
    fixed, moving = Subspace.zero(spec, d), Subspace(spec, d, ident, tuple(range(d)))
    if bounds.rank([sum(rows, []) for rows in zip(*less_one)]) < d:
        fixed = fixed_subspace(group)
    if bounds.spin([row for g in less_one for row in g]) < d:
        moving = moving_subspace(group)
    k, seed_dims = moving.dim, []
    for j, seed in enumerate(ident.entries):
        upper = 1 if fixed.contains_vector(seed) else k + (not moving.contains_vector(seed))
        seed_dims.append(upper if upper == 1 or bounds.spin([_unit(d, j)]) == upper else spin(group, seed).dim)
    summary = {
        "standard_seed_spin_dims": seed_dims,
        "fixed_dim": fixed.dim,
        "moving_dim": k,
        # F + M = V and F meets M in 0; with dims adding up to d, M = V exactly when F = 0
        "decomposes": fixed.dim + k == d
        and (k == d or bounds.rank(bounds.reduce(fixed.basis.entries + moving.basis.entries) or []) == d
             or subspace_sum(fixed, moving).dim == d),
        "moving_irreducible_by_spinning": None,
        "moving_endomorphism_dim": None,
    }
    if not k:
        return summary
    # the restricted tuple, formed once and only for a value its bounds leave open; on M = V the seeds are spun
    sub = cache(lambda: list(group.generators) if k == d else restricted_tuple(group, moving))
    sub_bounds = bounds if k == d else bounds.restricted(moving) or _Bounds.of(sub())
    summary["moving_irreducible_by_spinning"] = all(dim == d for dim in seed_dims) if k == d else all(
        sub_bounds.spin([_unit(k, j)]) == k or _spin(sub(), Subspace.from_rows(spec, k, [s])).dim == k
        for j, s in enumerate(Matrix.identity(spec, k).entries)
    )
    # End >= 1 always holds (the scalars), so a bound of 1 is exact
    end = sub_bounds.endomorphism_dim()
    summary["moving_endomorphism_dim"] = 1 if end == 1 else intertwiner_space(sub(), sub()).dim
    return summary


def _unit(n: int, j: int) -> list[int]:
    return [int(i == j) for i in range(n)]


class _Bounds:
    """A tuple of d x d matrices reduced mod a prime p, and one-sided bounds on exact dimensions.

    `_Bounds.of` picks p: over GF(p) the field's own, over Q and Q(zeta_m)
    the smallest odd p = 1 mod m (m = 1 over Q) that divides no denominator
    of an entry, so every entry is p-integral and reduction, with zeta_m sent
    to `root = root_of_unity_modp(m, p)`, is a ring map.  Reducing a p-integral
    matrix can only lower its rank, so over GF(p) a spin, a rank and a
    kernel dimension bound the exact ones: spin_p <= spin, rank_p <= rank
    and End_p >= End, and a bound at its extreme value is exact (the Meat-Axe
    certificate; Holt-Eick-O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 7).  Vectors are int lists, eliminated forward only.
    """

    def __init__(self, p: int, root: int | None, mats: list[list[list[int]]]):
        self.p, self.root, self.mats = p, root, mats
        self.degree = len(mats[0])
        self.columns = [list(zip(*g)) for g in mats]

    @classmethod
    def of(cls, mats: Sequence[Matrix]) -> "_Bounds":
        spec = mats[0].spec
        if spec.kind == "prime":
            p, root = spec.p, None
        else:
            m = spec.m if spec.kind == "cyclotomic" else 1
            dens = {e.den for g in mats for row in g.entries for e in row}
            step = m if m % 2 == 0 else 2 * m  # p - 1 is even and a multiple of m
            p = 1 + step
            while not is_prime(p) or any(den % p == 0 for den in dens):
                p += step
            root = root_of_unity_modp(m, p)
        return cls(p, root, [[[reduce_element_modp(e, p, root) for e in row] for row in g.entries] for g in mats])

    def reduce(self, rows: Sequence[Sequence[FieldElement]]) -> list[list[int]] | None:
        """Exact rows mod p, or None when p divides a denominator."""
        try:
            return [[reduce_element_modp(e, self.p, self.root) for e in row] for row in rows]
        except BadPrime:
            return None

    def restricted(self, space: Subspace) -> "_Bounds | None":
        """The reduced tuple on a generator-stable subspace, in its basis B; None when B does
        not reduce.  B has unit columns at its pivots, so g restricts to B*g read there."""
        basis, p = self.reduce(space.basis.entries), self.p
        if basis is None:
            return None
        mats = [[[sum(map(operator.mul, row, cols[c])) % p for c in space.pivots] for row in basis] for cols in self.columns]
        return _Bounds(p, self.root, mats)

    def _grows(self, echelon: dict[int, list[int]], v: Sequence[int]) -> bool:
        """Reduce v by the rows of `echelon`, each held from its leading one on and keyed
        by that column; keep what is left if it is nonzero."""
        p = self.p
        v = list(v)
        for j in range(len(v)):
            f = v[j]
            if f:
                row = echelon.get(j)
                if row is None:
                    inv = pow(f, -1, p)
                    echelon[j] = [x * inv % p for x in v[j:]]
                    return True
                v[j:] = [(a - f * b) % p for a, b in zip(v[j:], row)]
        return False

    def rank(self, rows: Sequence[list[int]]) -> int:
        """The rank of int rows with entries in 0..p-1."""
        echelon: dict[int, list[int]] = {}
        for row in rows:
            if self._grows(echelon, row) and len(echelon) == len(row):
                break
        return len(echelon)

    def spin(self, seeds: Sequence[list[int]]) -> int:
        """The dimension of the smallest subspace that holds the seeds and that every
        reduced matrix maps into itself."""
        p, n = self.p, self.degree
        echelon: dict[int, list[int]] = {}
        layer = [v for v in seeds if self._grows(echelon, v)]
        while layer and len(echelon) < n:
            grown = []
            for columns in self.columns:
                for v in layer:
                    image = [sum(map(operator.mul, v, col)) % p for col in columns]
                    if self._grows(echelon, image):
                        if len(echelon) == n:
                            return n
                        grown.append(image)
            layer = grown
        return len(echelon)

    def endomorphism_dim(self) -> int:
        """The dimension of the matrices T with T*g = g*T for every reduced g: the kernel
        of the stacked equations, which the identity solves, so it stops at rank d*d - 1."""
        p, d = self.p, self.degree
        n = d * d
        echelon: dict[int, list[int]] = {}
        for g in self.mats:
            for r in range(d):
                for c in range(d):
                    # entry (r, c) of T*g - g*T in the unknowns T[x][y] at x*d + y
                    v = [0] * n
                    for s in range(d):
                        v[r * d + s] += g[s][c]
                        v[s * d + c] -= g[r][s]
                    if self._grows(echelon, [x % p for x in v]) and len(echelon) == n - 1:
                        return 1
        return n - len(echelon)


# -- modular fast path -------------------------------------------------------------


def root_of_unity_modp(m: int, p: int) -> int:
    """Smallest residue of multiplicative order exactly m in GF(p)."""
    if not is_prime(p) or p == 2:
        raise BadPrime(f"{p} is not an odd prime")
    if (p - 1) % m != 0:
        raise BadPrime(f"{p} is not 1 mod {m}")
    if m == 1:
        return 1
    prime_divisors = _factorize(m)
    for a in range(2, p):
        if pow(a, m, p) != 1:
            continue
        if all(pow(a, m // q, p) != 1 for q in prime_divisors):
            phi = cyclotomic_polynomial(m)
            value = sum(c * pow(a, k, p) for k, c in enumerate(phi)) % p
            if value != 0:
                raise BadPrime(f"{a} mod {p} does not satisfy the cyclotomic polynomial")
            return a
    raise BadPrime(f"no element of order {m} in GF({p})")


def reduce_element_modp(el: FieldElement, p: int, root: int | None = None) -> int:
    spec = el.spec
    if spec.kind == "prime":
        if spec.p != p:
            raise BadPrime(f"element lives in GF({spec.p}), not GF({p})")
        return el.coeffs[0]
    if el.den % p == 0:
        raise BadPrime(f"denominator of {format_element(el)} vanishes mod {p}")
    if root is None:
        root = root_of_unity_modp(spec.m, p) if spec.m else 1
    total = 0
    for c in reversed(el.coeffs):
        total = (total * root + c) % p
    return total * pow(el.den, -1, p) % p


def reduce_matrix_modp(mat: Matrix, p: int, root: int | None = None) -> np.ndarray:
    if mat.spec.kind == "cyclotomic" and root is None:
        root = root_of_unity_modp(mat.spec.m, p)
    import numpy as np

    data = [[reduce_element_modp(e, p, root) for e in row] for row in mat.entries]
    return np.array(data, dtype=np.int64)


def _modp_scalar_exponents(chain: StabilizerChain, spec: FieldSpec, root: int | None) -> list[int]:
    # Exponents k with (root of unity)^k * identity in the group; rational
    # generators are scanned against +-1, prime-field generators skipped.
    p = chain.p
    if spec.kind == "cyclotomic":
        m, base = spec.m, root
    elif spec.kind == "rational":
        m, base = 2, p - 1
    else:
        return []
    import numpy as np

    scalars = np.array([pow(base, k, p) for k in range(m)], dtype=np.int64)
    return np.flatnonzero(chain.contains(chain.ident * scalars[:, None, None])).tolist()


def _modp_entry(group: MatrixGroupGen, p: int, cap: int, with_derived: bool) -> dict:
    root = root_of_unity_modp(group.spec.m, p) if group.spec.kind == "cyclotomic" else None
    reduced = [reduce_matrix_modp(g, p, root) for g in group.generators]
    try:
        inverses = [reduce_matrix_modp(g, p, root) for g in group.inverses]
    except BadPrime as exc:
        raise NonInvertibleGenerator(f"generator not invertible mod {p}: {exc}") from None
    from .chain import StabilizerChain  # numpy and the chain load here: the exact path never does

    chain = StabilizerChain(p, group.degree, cap, zip(reduced, inverses))
    scalars = _modp_scalar_exponents(chain, group.spec, root)
    entry = {"chain": chain, "order": chain.order, "scalar_exponents": scalars}
    if with_derived:
        entry["derived_series"] = _derived_series(chain)
    return entry


def modular_group_analysis(
    gens,
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
    with_derived: bool = True,
) -> dict:
    """Order, derived series and scalar content over several modular primes.

    The primes must be distinct, with degree * (p - 1)^2 < 2^63 so that int64
    products are exact; over Q and Q(zeta_m) they must be odd primes, over
    GF(p) the only prime is p.  A prime dividing a denominator of a generator
    raises BadPrime, and of an inverse NonInvertibleGenerator.  Raises
    OrderDisagreement when the primes disagree on any computed value: on the
    order, then the scalar exponents, then the derived series, which is built
    only when that comparison or the result reads it.
    """
    group = _as_generators(gens)
    if not primes:
        raise BadPrime("no primes supplied")
    if len(set(primes)) != len(primes):
        raise BadPrime(f"repeated prime in {list(primes)}")
    for p in primes:
        if group.spec.kind != "prime" and (not is_prime(p) or p == 2):
            raise BadPrime(f"{p} is not an odd prime")
        if group.degree * (p - 1) ** 2 >= 2**63:
            raise BadPrime(f"{p} is too large for int64 products in degree {group.degree}")
    per_prime = [_modp_entry(group, p, cap, with_derived=False) for p in primes]

    def value(entry: dict, key: str):  # a derived series is built on its first read
        if key not in entry:
            entry[key] = _derived_series(entry["chain"])
        return entry[key]

    first = per_prime[0]
    for other in per_prime[1:]:
        for key in ("order", "scalar_exponents", "derived_series")[: 3 if with_derived else 2]:
            if value(first, key) != value(other, key):
                raise OrderDisagreement(f"primes disagree on {key}: {first[key]} vs {other[key]}")
    result = {"primes": list(primes), "order": first["order"], "scalar_exponents": first["scalar_exponents"]}
    if with_derived:
        result["derived_series"] = value(first, "derived_series")
        result["solvable"] = first["derived_series"][-1] == 1
    return result


def default_modular_primes(gens) -> list[int]:
    """[p] over GF(p); otherwise the two smallest odd primes p = 1 mod m (m = 1 over Q)
    that divide no denominator of a generator or of its inverse."""
    group = _as_generators(gens)
    spec = group.spec
    if spec.kind == "prime":
        return [spec.p]
    m = spec.m if spec.kind == "cyclotomic" else 1
    dens = {e.den for g in group.generators + group.inverses for row in g.entries for e in row}
    out: list[int] = []
    p = 3
    while len(out) < 2:
        if is_prime(p) and (p - 1) % m == 0 and all(den % p for den in dens):
            out.append(p)
        p += 2
    return out
