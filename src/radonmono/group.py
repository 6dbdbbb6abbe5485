"""Finite matrix group analysis: closure, derived series, spinning, scalars.

One breadth-first enumeration, `_Enumeration`, serves every group order.  It
works on batches over a backend: exact `Matrix` arithmetic with canonical
keys over any FieldSpec (the reference path; a batch is a list), or int64
residues mod p (a batch is one (N, d, d) numpy array).  A frontier step costs
one batch product per generator (mod p, a single (N d, d) @ (d, d) matmul),
one batch of keys and one set-membership pass; a mod-p key is the bytes of a
matrix cast to the narrowest unsigned type holding p - 1.  `add(g)` ignores a
member and otherwise searches only from the new elements, so the derived
series grows each derived subgroup in place: by commutators, then by
conjugates until it is normal.

For cyclotomic or rational generators the modular path maps the root of unity
to an element of the same order in GF(p) for an odd prime p = 1 mod m,
enumerates mod p, and requires agreement across distinct primes.  For p > 2
not dividing any generator denominator the reduction is injective on finite
groups, so the modular order is the exact order whenever the generators embed.
Over GF(p) the only prime is p itself, and the enumeration is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Sequence

from .errors import (
    BadPrime,
    CapExceeded,
    FieldMismatch,
    NonInvertibleGenerator,
    OrderDisagreement,
    ShapeMismatch,
    Singular,
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
    row_times_matrix,
    subspace_sum,
    vstack,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MatrixGroupGen",
    "ClosureResult",
    "closure",
    "derived_series",
    "spin",
    "spin_subspace",
    "fixed_subspace",
    "moving_subspace",
    "contains_scalar",
    "root_of_unity_modp",
    "reduce_matrix_modp",
    "modular_order",
    "modular_group_analysis",
    "invariant_decomposition",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 500_000


@dataclass(frozen=True)
class MatrixGroupGen:
    """A finite list of invertible generators of a matrix group."""

    spec: FieldSpec
    degree: int
    generators: tuple[Matrix, ...]

    @classmethod
    def from_matrices(cls, gens: Sequence[Matrix]) -> "MatrixGroupGen":
        """Validated generators; a repeated generator keeps its first occurrence only."""
        if not gens:
            raise ShapeMismatch("no generators")
        gens = tuple(dict.fromkeys(gens))
        spec = gens[0].spec
        d = gens[0].rows
        for g in gens:
            if g.spec != spec:
                raise FieldMismatch("generators over different fields")
            if not g.is_square() or g.rows != d:
                raise ShapeMismatch("generators must be square of equal size")
            try:
                g.inverse()
            except Singular:
                raise NonInvertibleGenerator("generator is singular") from None
        return cls(spec=spec, degree=d, generators=gens)


@dataclass
class ClosureResult:
    """Outcome of a breadth-first closure enumeration."""

    status: str  # "complete" or "cap_exceeded"
    order: int | None
    enumeration: _Enumeration | None = field(default=None, repr=False)  # reused by derived_series

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def keys(self) -> AbstractSet[bytes] | None:
        """The canonical keys of the elements, shared with the enumeration: read only."""
        return None if self.enumeration is None else self.enumeration.keys


def _as_generators(gens) -> MatrixGroupGen:
    if isinstance(gens, MatrixGroupGen):
        return gens
    return MatrixGroupGen.from_matrices(list(gens))


# -- the enumeration engine and its two backends ------------------------------------


class _ExactOps:
    """Exact `Matrix` arithmetic over the generators' field; a batch is a list."""

    def __init__(self, spec: FieldSpec, degree: int):
        self.spec, self.degree = spec, degree

    def identity(self) -> Matrix:
        return Matrix.identity(self.spec, self.degree)

    def batch(self, mats) -> list[Matrix]:
        return list(mats)

    def join(self, batches) -> list[Matrix]:
        return [mat for batch in batches for mat in batch]

    def take(self, batch, indices) -> list[Matrix]:
        return [batch[i] for i in indices]

    def times(self, batch, g: Matrix) -> list[Matrix]:
        return [el * g for el in batch]

    def keys(self, batch) -> list[bytes]:
        return [mat.canonical_key() for mat in batch]

    def inverse(self, mat: Matrix) -> Matrix:
        return mat.inverse()


class _ModpOps:
    """int64 numpy matrices with entries in 0..p-1; a batch is one (N, d, d) array.

    A key is the bytes of a matrix cast to the narrowest unsigned type that
    holds p - 1: 16 bytes for d = 4 and p < 256.
    """

    def __init__(self, p: int, degree: int):
        import numpy as np  # here and in reduce_matrix_modp only: the exact path never loads it

        self.p, self.degree, self.np = p, degree, np
        self.narrow = np.min_scalar_type(p - 1)
        self.key_type = np.dtype((np.void, degree * degree * self.narrow.itemsize))

    def identity(self) -> np.ndarray:
        return self.np.eye(self.degree, dtype=self.np.int64)

    def batch(self, mats) -> np.ndarray:
        return self.np.stack(mats)

    def join(self, batches) -> np.ndarray:
        return self.np.concatenate(batches)

    def take(self, batch, indices) -> np.ndarray:
        return batch.take(indices, axis=0)

    def times(self, batch, g: np.ndarray) -> np.ndarray:
        d = self.degree
        return (batch.reshape(-1, d) @ g % self.p).reshape(-1, d, d)

    def keys(self, batch) -> list[bytes]:
        narrow = batch.astype(self.narrow).reshape(len(batch), -1)
        return narrow.view(self.key_type).ravel().tolist()

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        try:
            inv = Matrix.from_ints(FieldSpec.prime(self.p), mat.tolist()).inverse()
        except Singular:
            raise NonInvertibleGenerator(f"singular generator mod {self.p}") from None
        return reduce_matrix_modp(inv, self.p)


class _Enumeration:
    """All elements of the group generated by everything passed to `add`.

    The elements are kept as a list of batches, `chunks`, holding `order`
    matrices in all, with one key each in `keys`.  `gens` holds only the
    generators that enlarged the group, and `inverses` their inverses.  More
    than `cap` elements raise CapExceeded.
    """

    def __init__(self, ops, cap: int, gens=()):
        ident = ops.batch([ops.identity()])
        self.ops, self.cap = ops, cap
        self.chunks = [ident]
        self.order = 1
        self.keys = set(ops.keys(ident))
        self.gens: list = []
        self.inverses: list = []
        for g in gens:
            self.add(g)

    def add(self, g) -> None:
        """Extend the group by g; a member changes nothing.

        Every old element times g seeds the search, and only the new elements
        it finds are multiplied by all generators, so no old product is redone.
        """
        ops = self.ops
        if ops.keys(ops.batch([g]))[0] in self.keys:
            return
        self.inverses.append(ops.inverse(g))  # also rejects a singular g
        self.gens.append(g)
        frontier = ops.join(self.chunks)
        self.chunks, step = [frontier], [g]
        while True:
            found = []
            for gen in step:
                prods = ops.times(frontier, gen)
                keys = ops.keys(prods)
                # products of distinct elements by one generator are distinct
                fresh = [i for i, key in enumerate(keys) if key not in self.keys]
                if not fresh:
                    continue
                if self.order + len(fresh) > self.cap:
                    raise CapExceeded(f"group enumeration exceeded the cap of {self.cap}")
                self.order += len(fresh)
                self.keys.update(map(keys.__getitem__, fresh))
                found.append(ops.take(prods, fresh))
            if not found:
                return
            frontier, step = ops.join(found), self.gens
            self.chunks.append(frontier)


def _product(ops, first, *rest):
    for mat in rest:
        first = ops.times(ops.batch([first]), mat)[0]
    return first


def _derived_series(group: _Enumeration) -> list[int]:
    """Orders of the group and its successive derived subgroups.

    The derived subgroup is the normal closure of the commutators of the
    generators: it is grown by those commutators, then by the conjugates of
    each of its generators by each generator of the group until none is new.
    The list stops at order 1 (solvable) or when the order stabilizes
    (perfect derived subgroup).
    """
    ops = group.ops
    orders = [group.order]
    while orders[-1] != 1:
        pairs = list(zip(group.gens, group.inverses))
        sub = _Enumeration(ops, group.cap)
        for (a, a_inv), (b, b_inv) in itertools.combinations(pairs, 2):
            sub.add(_product(ops, a_inv, b_inv, a, b))
        for s in sub.gens:  # sub.gens grows during the loop
            for g, g_inv in pairs:
                sub.add(_product(ops, g_inv, s, g))
        orders.append(sub.order)
        if orders[-1] == orders[-2]:
            break
        group = sub
    return orders


def closure(gens, cap: int = DEFAULT_CAP) -> ClosureResult:
    """Exact BFS closure of the generated group, up to `cap` elements."""
    group = _as_generators(gens)
    if cap < 1:
        raise CapExceeded("cap must be >= 1")
    try:
        enum = _Enumeration(_ExactOps(group.spec, group.degree), cap, group.generators)
    except CapExceeded:
        return ClosureResult(status="cap_exceeded", order=None)
    return ClosureResult("complete", enum.order, enum)


def contains_scalar(result: ClosureResult, lam: FieldElement, degree: int) -> bool:
    """True when lambda * identity occurs in a completed closure."""
    if not result.complete or result.keys is None:
        raise CapExceeded("closure did not complete")
    spec = lam.spec
    scalar = Matrix.diagonal(spec, [lam] * degree)
    return scalar.canonical_key() in result.keys


def derived_series(gens, cap: int = DEFAULT_CAP) -> list[int]:
    """Orders of the group and its successive derived subgroups (exact).

    `gens` may also be a result of `closure`, whose enumeration is then
    continued instead of repeated.  The list stops at order 1 (solvable) or
    when the order stabilizes (perfect derived subgroup).
    """
    first = gens if isinstance(gens, ClosureResult) else closure(gens, cap=cap)
    if not first.complete:
        raise CapExceeded("closure exceeded the cap")
    return _derived_series(first.enumeration)


# -- invariant subspaces ----------------------------------------------------------


def spin(gens, seed: Sequence[FieldElement]) -> Subspace:
    """Smallest generator-stable subspace containing the seed vector."""
    group = _as_generators(gens)
    if all(c.is_zero() for c in seed):
        raise ZeroSeed("spin needs a nonzero seed")
    return spin_subspace(group, Subspace.from_rows(group.spec, group.degree, [list(seed)]))


def spin_subspace(gens, seed_space: Subspace) -> Subspace:
    """Smallest generator-stable subspace containing a whole subspace."""
    group = _as_generators(gens)
    ech = _Echelon(seed_space.basis.entries)
    queue = list(seed_space.basis.entries)
    while queue:
        vec = queue.pop()
        for gen in group.generators:
            img = row_times_matrix(vec, gen)
            if ech.add(img):
                queue.append(img)
    return ech.subspace(group.spec, group.degree)


def fixed_subspace(gens) -> Subspace:
    """Common fixed vectors of all generators."""
    group = _as_generators(gens)
    ident = Matrix.identity(group.spec, group.degree)
    return kernel(hstack([g - ident for g in group.generators]))


def moving_subspace(gens) -> Subspace:
    """Generator-stable closure of the sum of the images of g - 1.

    For a finite group in invertible characteristic this is the sum of all
    non-trivial isotypic components, i.e. the canonical invariant complement
    of the fixed subspace.
    """
    group = _as_generators(gens)
    ident = Matrix.identity(group.spec, group.degree)
    return spin_subspace(group, image(vstack([g - ident for g in group.generators])))


def restricted_tuple(gens, space: Subspace) -> list[Matrix]:
    """The action of the generators on an invariant subspace, in its basis."""
    group = _as_generators(gens)
    out = []
    for g in group.generators:
        rows = []
        for row in space.basis.entries:
            img = row_times_matrix(row, g)
            rows.append(space.coordinates(img))
        out.append(Matrix.from_rows(group.spec, rows, cols=space.dim))
    return out


def invariant_decomposition(gens) -> dict:
    """Summary of the fixed line / moving summand decomposition by spinning."""
    group = _as_generators(gens)
    d = group.degree
    spec = group.spec
    one, zero = spec.one(), spec.zero()
    seeds = [[one if j == i else zero for j in range(d)] for i in range(d)]
    seed_dims = [spin(group, s).dim for s in seeds]
    fixed = fixed_subspace(group)
    moving = moving_subspace(group)
    # fixed + moving = V and fixed meets moving in 0: both dims add up to d
    span = subspace_sum(fixed, moving).dim
    summary = {
        "standard_seed_spin_dims": seed_dims,
        "fixed_dim": fixed.dim,
        "moving_dim": moving.dim,
        "decomposes": span == d == fixed.dim + moving.dim,
        "moving_irreducible_by_spinning": None,
        "moving_endomorphism_dim": None,
    }
    if 0 < moving.dim:
        sub = restricted_tuple(group, moving)
        sub_one, sub_zero = spec.one(), spec.zero()
        all_full = True
        for i in range(moving.dim):
            seed = [sub_one if j == i else sub_zero for j in range(moving.dim)]
            if spin(MatrixGroupGen(spec, moving.dim, tuple(sub)), seed).dim != moving.dim:
                all_full = False
                break
        summary["moving_irreducible_by_spinning"] = all_full
        summary["moving_endomorphism_dim"] = intertwiner_space(sub, sub).dim
    return summary


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


def _modp_scalar_exponents(enum: _Enumeration, spec: FieldSpec, root: int | None) -> list[int]:
    # Exponents k with (root of unity)^k * identity in the group; rational
    # generators are scanned against +-1, prime-field generators skipped.
    p = enum.ops.p
    if spec.kind == "cyclotomic":
        m, base = spec.m, root
    elif spec.kind == "rational":
        m, base = 2, p - 1
    else:
        return []
    ops = enum.ops
    scalars = ops.batch([ops.identity() * pow(base, k, p) % p for k in range(m)])
    return [k for k, key in enumerate(ops.keys(scalars)) if key in enum.keys]


def _modp_entry(group: MatrixGroupGen, p: int, cap: int, with_derived: bool) -> dict:
    # One prime per call, so each enumeration is freed before the next starts.
    root = root_of_unity_modp(group.spec.m, p) if group.spec.kind == "cyclotomic" else None
    reduced = [reduce_matrix_modp(g, p, root) for g in group.generators]
    enum = _Enumeration(_ModpOps(p, group.degree), cap, reduced)
    entry = {
        "prime": p,
        "order": enum.order,
        "scalar_exponents": _modp_scalar_exponents(enum, group.spec, root),
    }
    if with_derived:
        entry["derived_series"] = _derived_series(enum)
    return entry


def modular_order(gens, primes: Sequence[int], cap: int = DEFAULT_CAP) -> int:
    """Exact group order via reduction mod each prime; primes must agree."""
    analysis = modular_group_analysis(gens, primes, cap=cap, with_derived=False)
    return analysis["order"]


def modular_group_analysis(
    gens,
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
    with_derived: bool = True,
) -> dict:
    """Order, derived series and scalar content over several modular primes.

    The primes must be distinct, with degree * (p - 1)^2 < 2^63 so that int64
    products are exact; over Q and Q(zeta_m) they must be odd primes, over
    GF(p) the only prime is p.  Raises OrderDisagreement when the primes
    disagree on any computed value.
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
    per_prime = [_modp_entry(group, p, cap, with_derived) for p in primes]
    first = per_prime[0]
    for other in per_prime[1:]:
        for key in ("order", "scalar_exponents", "derived_series"):
            if key in first and first.get(key) != other.get(key):
                raise OrderDisagreement(
                    f"primes disagree on {key}: {first.get(key)} vs {other.get(key)}"
                )
    result = {
        "primes": list(primes),
        "order": first["order"],
        "scalar_exponents": first["scalar_exponents"],
    }
    if with_derived:
        result["derived_series"] = first["derived_series"]
        result["solvable"] = first["derived_series"][-1] == 1
    return result


def default_modular_primes(spec: FieldSpec, count: int = 2) -> list[int]:
    """[p] over GF(p); otherwise the smallest odd primes p = 1 mod m (m = 1 over Q)."""
    if spec.kind == "prime":
        return [spec.p]
    m = spec.m if spec.kind == "cyclotomic" else 1
    out: list[int] = []
    p = 3
    while len(out) < count:
        if is_prime(p) and (p - 1) % m == 0:
            out.append(p)
        p += 2
    return out
