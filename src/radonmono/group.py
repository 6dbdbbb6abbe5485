"""Finite matrix group analysis: closure, derived series, spinning, scalars.

Two engines compute group orders.  The exact path (`closure`, the `--exact`
command) enumerates every element breadth-first with `Matrix` arithmetic
over any FieldSpec and holds each once, in a set of exact matrices hashed by
their entries: `closure` returns that `_Enumeration` itself, which
`derived_series` continues and `contains_scalar` reads.  The modular path
keeps no element list: `chain.StabilizerChain` is a stabilizer chain of the
group mod p, built by deterministic Schreier-Sims with numpy.  Both offer
`add(word)`: it extends the group by the product of a word of (x, x^-1)
pairs, a member changing nothing, and forms the inverse from the word only
for a new element.  So one derived series grows each derived subgroup in
place, and no engine inverts a matrix: the generators come with the inverses
`MatrixGroupGen` computed.  Both raise CapExceeded exactly when the order
exceeds the cap; that exception is the only way either reports the cap.

For cyclotomic or rational generators the modular path maps the root of unity
to an element of the same order in GF(p) for an odd prime p = 1 mod m,
works mod p, and requires agreement across distinct primes.  A prime that
divides a denominator of a generator or its inverse is refused; for other
p > 2 the reduction is injective on finite groups, so the modular order of a
finite group is exact.  Over GF(p) the only prime is p; the chain is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BadPrime,
    CapExceeded,
    NonInvertibleGenerator,
    OrderDisagreement,
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
    product_of,
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
    """A finite list of invertible generators of a matrix group, with their inverses."""

    spec: FieldSpec
    degree: int
    generators: tuple[Matrix, ...]
    inverses: tuple[Matrix, ...]

    @classmethod
    def from_matrices(cls, gens: Sequence[Matrix]) -> "MatrixGroupGen":
        """Validated generators; a repeated generator keeps its first occurrence only."""
        spec, d = square_tuple_shape(gens)
        gens = tuple(dict.fromkeys(gens))
        inverses = []
        for g in gens:
            try:
                inverses.append(g.inverse())
            except Singular:
                raise NonInvertibleGenerator("generator is singular") from None
        return cls(spec, d, gens, tuple(inverses))


def _as_generators(gens) -> MatrixGroupGen:
    if isinstance(gens, MatrixGroupGen):
        return gens
    return MatrixGroupGen.from_matrices(list(gens))


# -- the exact engine and the derived series of either engine -----------------------
#
# `_derived_series` reads from `_Enumeration` or `chain.StabilizerChain` only
# `order`, `gens`, `inverses`, `add` and `trivial`, and hands `add` words of
# (x, x^-1) pairs, so one derived series serves both and inverts nothing.


class _Enumeration:
    """All elements of the group generated by everything passed to `add`.

    Exact `Matrix` arithmetic over the generators' field: `elements` is the
    set of the `order` elements, exact matrices hashed by their entries.
    `gens` holds only the generators that enlarged the group, and `inverses`
    their inverses; it starts from (g, g^-1) `pairs`.  More than `cap`
    elements raise CapExceeded.
    """

    def __init__(self, spec: FieldSpec, degree: int, cap: int, pairs=()):
        self.spec, self.degree, self.cap = spec, degree, cap
        self.elements = {Matrix.identity(spec, degree)}
        self.gens: list[Matrix] = []
        self.inverses: list[Matrix] = []
        for pair in pairs:
            self.add([pair])

    @property
    def order(self) -> int:
        return len(self.elements)

    def trivial(self) -> "_Enumeration":
        return _Enumeration(self.spec, self.degree, self.cap)

    def add(self, word) -> None:
        """Extend the group by g, the product of a word of (x, x^-1) pairs; a member changes nothing.

        g^-1 is the reversed product of the inverses.  Every old element
        times g seeds the search, and only the new elements it finds are
        multiplied by all generators, so no old product is redone.
        """
        g = product_of([x for x, _ in word])
        if g in self.elements:
            return
        self.inverses.append(product_of([x_inv for _, x_inv in reversed(word)]))
        self.gens.append(g)
        frontier, step = list(self.elements), [g]
        while True:
            found = []
            for gen in step:
                for el in frontier:
                    prod = el * gen
                    size = len(self.elements)
                    self.elements.add(prod)  # hashes prod once; a member leaves the size
                    if len(self.elements) == size:
                        continue
                    if size >= self.cap:
                        raise CapExceeded(f"group enumeration exceeded the cap of {self.cap}")
                    found.append(prod)
            if not found:
                return
            frontier, step = found, self.gens


def _derived_series(group: _Enumeration | StabilizerChain) -> list[int]:
    """Orders of the group and its successive derived subgroups.

    The derived subgroup is the normal closure of the commutators of the
    generators: it is grown by those commutators, then by the conjugates of
    each of its generators by each generator of the group until none is new.
    The list stops at order 1 (solvable) or when the order stabilizes
    (perfect derived subgroup).
    """
    orders = [group.order]
    while orders[-1] != 1:
        pairs = list(zip(group.gens, group.inverses))
        sub = group.trivial()
        for (a, a_inv), (b, b_inv) in itertools.combinations(pairs, 2):
            sub.add([(a_inv, a), (b_inv, b), (a, a_inv), (b, b_inv)])
        for s in zip(sub.gens, sub.inverses):  # both grow during the loop
            for g, g_inv in pairs:
                sub.add([(g_inv, g), s, (g, g_inv)])
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
    return _Enumeration(group.spec, group.degree, cap, zip(group.generators, group.inverses))


def contains_scalar(group: _Enumeration, lam: FieldElement) -> bool:
    """True when lambda * identity is an element of a `closure` result."""
    return Matrix.diagonal(lam.spec, [lam] * group.degree) in group.elements


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
    # search stops there; the RREF of the span does not depend on the order.
    n, spec = seed_space.ambient_dim, seed_space.spec
    ech = _Echelon(seed_space.basis.entries)
    layer = seed_space.basis
    while layer.rows and len(ech.rows) < n:
        grown = [img for gen in generators for img in (layer * gen).entries if ech.add(img)]
        layer = Matrix(spec, tuple(grown), cols=n)
    return ech.subspace(spec, n)


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
    return [
        Matrix.from_rows(group.spec, [space.coordinates(img) for img in (space.basis * g).entries], cols=space.dim)
        for g in group.generators
    ]


def invariant_decomposition(gens) -> dict:
    """Summary of the fixed line / moving summand decomposition by spinning."""
    group = _as_generators(gens)
    d, spec = group.degree, group.spec
    seed_dims = [spin(group, s).dim for s in Matrix.identity(spec, d).entries]
    fixed = fixed_subspace(group)
    moving = moving_subspace(group)
    summary = {
        "standard_seed_spin_dims": seed_dims,
        "fixed_dim": fixed.dim,
        "moving_dim": moving.dim,
        # fixed + moving = V and fixed meets moving in 0: both dims add up to d
        "decomposes": subspace_sum(fixed, moving).dim == d == fixed.dim + moving.dim,
        "moving_irreducible_by_spinning": None,
        "moving_endomorphism_dim": None,
    }
    if 0 < moving.dim == d:
        # the moving space is V: its coordinates are the standard ones, already spun
        summary["moving_irreducible_by_spinning"] = all(dim == d for dim in seed_dims)
        summary["moving_endomorphism_dim"] = intertwiner_space(group.generators, group.generators).dim
    elif moving.dim:
        # spun in the moving space's own coordinates, whose rows are shorter than ambient ones
        sub = restricted_tuple(group, moving)
        seeds = Matrix.identity(spec, moving.dim).entries
        summary["moving_irreducible_by_spinning"] = all(
            _spin(sub, Subspace.from_rows(spec, moving.dim, [s])).dim == moving.dim for s in seeds
        )
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
    return [k for k in range(m) if chain.contains(chain.ident * pow(base, k, p))]


def _modp_entry(group: MatrixGroupGen, p: int, cap: int, with_derived: bool) -> dict:
    root = root_of_unity_modp(group.spec.m, p) if group.spec.kind == "cyclotomic" else None
    reduced = [reduce_matrix_modp(g, p, root) for g in group.generators]
    try:
        inverses = [reduce_matrix_modp(g, p, root) for g in group.inverses]
    except BadPrime as exc:
        raise NonInvertibleGenerator(f"generator not invertible mod {p}: {exc}") from None
    from .chain import StabilizerChain  # numpy and the chain load here: the exact path never does

    chain = StabilizerChain(p, group.degree, cap, zip(reduced, inverses))
    entry = {
        "prime": p,
        "order": chain.order,
        "scalar_exponents": _modp_scalar_exponents(chain, group.spec, root),
    }
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
    OrderDisagreement when the primes disagree on any computed value.
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
