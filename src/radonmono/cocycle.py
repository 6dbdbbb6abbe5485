"""Cocycle spaces of a monodromy tuple and the braid-induced maps on them.

For an r-tuple g of invertible n x n matrices with ordered product 1, the
cocycle space is

    H = {(v_1, ..., v_r) : v_i in Im(g_i - 1),
         v_1 g_2...g_r + v_2 g_3...g_r + ... + v_r = 0}  in V^r,

the coboundary space is E = {(v(g_1 - 1), ..., v(g_r - 1)) : v in V}, and
the quotient W = H/E models the parabolic cohomology of the punctured line
with coefficients in the rank-n local system defined by g.  Braid deformations
act on W through explicit block-transvection matrices on V^r, composed
left to right while the tuple advances under the braid action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braid import BraidWord, act_on_tuple
from .errors import GeneratorOutOfRange, ProductNotIdentity, ShapeMismatch
from .linalg import (
    Matrix,
    Subspace,
    extend_basis,
    hstack,
    image,
    intersect,
    kernel,
    row_times_matrix,
    subspace_direct_sum,
    vstack,
)

__all__ = [
    "TupleSpaces",
    "compute_H",
    "compute_E",
    "trafodat",
    "local_matrix",
    "word_matrix",
    "phibar",
]


@dataclass
class TupleSpaces:
    """A tuple g with its cocycle data and the flag change of basis.

    The rows of `transition` are, in order, a basis of E, an extension to a
    basis of H, and an extension to all of V^r; quotient maps are read off
    as the middle dim_w x dim_w block after conjugating by it.
    """

    g: tuple[Matrix, ...]
    n: int
    r: int
    H: Subspace
    E: Subspace
    dim_e: int
    dim_h: int
    dim_w: int
    transition: Matrix
    transition_inv: Matrix


def _check_tuple(g: Sequence[Matrix]) -> tuple[int, int]:
    if not g:
        raise ShapeMismatch("empty monodromy tuple")
    n = g[0].rows
    spec = g[0].spec
    for m in g:
        if m.spec != spec:
            raise ShapeMismatch("tuple entries over different fields")
        if not m.is_square() or m.rows != n:
            raise ShapeMismatch("tuple entries must be square of equal size")
    prod = g[0]
    for m in g[1:]:
        prod = prod * m
    if not prod.is_identity():
        raise ProductNotIdentity("ordered product of the tuple is not the identity")
    return n, len(g)


def compute_H(g: Sequence[Matrix]) -> Subspace:
    """The cocycle space H of the tuple, canonical in V^r."""
    n, r = _check_tuple(g)
    spec = g[0].spec
    ident = Matrix.identity(spec, n)
    h1 = subspace_direct_sum([image(gi - ident) for gi in g])
    # Stack the suffix products g_{i+1}...g_r as an (n*r) x n matrix; the
    # left kernel is the summation condition.
    suffix = [None] * (r + 1)
    suffix[r] = ident
    for i in range(r - 1, 0, -1):
        suffix[i] = g[i] * suffix[i + 1]
    stacked = vstack([suffix[i + 1] for i in range(r)])
    h2 = kernel(stacked)
    return intersect(h1, h2)


def compute_E(g: Sequence[Matrix]) -> Subspace:
    """The coboundary space E: the row space of [g_1 - 1 | ... | g_r - 1]."""
    n, _ = _check_tuple(g)
    spec = g[0].spec
    ident = Matrix.identity(spec, n)
    return image(hstack([gi - ident for gi in g]))


def trafodat(g: Sequence[Matrix]) -> TupleSpaces:
    """Cocycle data of g together with the deterministic flag basis."""
    n, r = _check_tuple(g)
    e = compute_E(g)
    h = compute_H(g)
    if not h.contains(e):
        raise ShapeMismatch("coboundary space escapes the cocycle space")
    t = extend_basis(e, h, n * r)
    return TupleSpaces(
        g=tuple(g),
        n=n,
        r=r,
        H=h,
        E=e,
        dim_e=e.dim,
        dim_h=h.dim,
        dim_w=h.dim - e.dim,
        transition=t,
        transition_inv=t.inverse(),
    )


def local_matrix(g: Sequence[Matrix], letter: int) -> Matrix:
    """The deformation matrix of a single braid letter on V^r.

    Positive letter i places the block [[0, g_{i+1}], [1, 1 - g_{i+1}^-1 g_i
    g_{i+1}]] at block position i; the negative letter carries the closed
    form [[(g_{i+1} - 1) g_i^-1, 1], [g_i^-1, 0]], which equals the inverse
    of the positive matrix of the advanced tuple.
    """
    n = g[0].rows
    r = len(g)
    a = abs(letter)
    if letter == 0 or a > r - 1:
        raise GeneratorOutOfRange(f"letter {letter} outside 1..{r - 1}")
    spec = g[0].spec
    ident = Matrix.identity(spec, n)
    out = Matrix.identity(spec, n * r)
    i = a - 1
    top, mid = n * i + 1, n * (i + 1) + 1  # 1-based block corners
    if letter > 0:
        gi, gi1 = g[i], g[i + 1]
        out = out.insert_block(Matrix.zero(spec, n, n), top, top)
        out = out.insert_block(gi1, top, mid)
        out = out.insert_block(ident, mid, top)
        out = out.insert_block(ident - gi1.inverse() * gi * gi1, mid, mid)
    else:
        gi, gi1 = g[i], g[i + 1]
        gi_inv = gi.inverse()
        out = out.insert_block((gi1 - ident) * gi_inv, top, top)
        out = out.insert_block(ident, top, mid)
        out = out.insert_block(gi_inv, mid, top)
        out = out.insert_block(Matrix.zero(spec, n, n), mid, mid)
    return out


def word_matrix(g: Sequence[Matrix], word: BraidWord | Sequence[int]) -> Matrix:
    """The deformation matrix of a braid word: the left-to-right product of
    single-letter matrices while the tuple advances under the action."""
    mat, _ = word_matrix_with_target(g, word)
    return mat


def word_matrix_with_target(
    g: Sequence[Matrix], word: BraidWord | Sequence[int]
) -> tuple[Matrix, tuple[Matrix, ...]]:
    letters = word.letters if isinstance(word, BraidWord) else tuple(word)
    if isinstance(word, BraidWord) and word.strands != len(g):
        raise ShapeMismatch(f"word on {word.strands} strands for an {len(g)}-tuple")
    n = g[0].rows
    out = Matrix.identity(g[0].spec, n * len(g))
    current = tuple(g)
    for letter in letters:
        out = out * local_matrix(current, letter)
        current = act_on_tuple(current, [letter])
    return out, current


def phibar(
    g: Sequence[Matrix],
    word: BraidWord | Sequence[int],
    spaces: TupleSpaces | None = None,
    verify: bool = False,
) -> Matrix:
    """The map induced on the quotient W = H/E by a braid word.

    The full deformation matrix is conjugated into the flag basis of the
    source tuple and the middle dim_w x dim_w block is extracted.  The same
    source basis is used on both sides; for words that move the tuple this
    reads the result in the source flag coordinates.  With verify=True the
    stability of the cocycle and coboundary spaces under the deformation is
    checked exactly.
    """
    ts = spaces if spaces is not None else trafodat(g)
    full, target = word_matrix_with_target(g, word)
    if verify:
        _verify_stability(ts, full, target)
    conj = ts.transition * full * ts.transition_inv
    return conj.extract_block(ts.dim_e + 1, ts.dim_e + 1, ts.dim_w, ts.dim_w)


def _verify_stability(ts: TupleSpaces, full: Matrix, target: Sequence[Matrix]):
    if tuple(target) == ts.g:
        h_target, e_target = ts.H, ts.E
    else:
        h_target = compute_H(target)
        e_target = compute_E(target)
    for row in ts.H.basis.entries:
        if not h_target.contains_vector(row_times_matrix(row, full)):
            raise ShapeMismatch("cocycle space is not stable under the word")
    for row in ts.E.basis.entries:
        if not e_target.contains_vector(row_times_matrix(row, full)):
            raise ShapeMismatch("coboundary space is not stable under the word")
