"""Cocycle spaces of a monodromy tuple and the braid-induced maps on them.

For an r-tuple g of invertible n x n matrices with ordered product 1, the
cocycle space is

    H = {(v_1, ..., v_r) : v_i in Im(g_i - 1),
         v_1 g_2...g_r + v_2 g_3...g_r + ... + v_r = 0}  in V^r,

the coboundary space is E = {(v(g_1 - 1), ..., v(g_r - 1)) : v in V}, and
the quotient W = H/E models the parabolic cohomology of the punctured line
with coefficients in the rank-n local system defined by g.  A braid letter i
deforms V^r by a block transvection of the blocks v_i and v_{i+1} only;
`act_on_rows` applies a word to row vectors as one 2n-column update per
letter while the tuple advances.  `phibar` moves only the dim W middle rows
of the flag basis, and `word_matrix` moves the identity rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braid import BraidWord, act_on_letter
from .braid import act_on_tuple  # noqa: F401  (perfbench's tracer looks the action up here)
from .errors import GeneratorOutOfRange, ProductNotIdentity, ShapeMismatch
from .field import FieldElement
from .linalg import (
    Matrix,
    Subspace,
    extend_basis,
    hstack,
    image,
    intersect,
    kernel,
    product_of,
    row_times_matrix,
    subspace_direct_sum,
    vstack,
)

__all__ = [
    "TupleSpaces",
    "compute_H",
    "compute_E",
    "trafodat",
    "act_on_rows",
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
    if not product_of(g).is_identity():
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


def act_on_rows(
    g: Sequence[Matrix], word: BraidWord | Sequence[int], rows: list[list[FieldElement]]
) -> tuple[Matrix, ...]:
    """Right-multiply each row of V^r, in place, by the deformation of each
    letter in turn while the tuple advances; return the advanced tuple.

    With x and y the blocks i and i+1 of a row, g_i and g_{i+1} entries of
    the current tuple, letter i sets x' = y and y' = x g_{i+1} + y - y g'
    with g' = g_{i+1}^-1 g_i g_{i+1}; letter -i sets x' = (x g_{i+1} - x +
    y) g_i^-1 and y' = x.
    """
    if isinstance(word, BraidWord) and word.strands != len(g):
        raise ShapeMismatch(f"word on {word.strands} strands for an {len(g)}-tuple")
    letters = word.letters if isinstance(word, BraidWord) else word
    n, r = g[0].rows, len(g)
    current = list(g)
    for letter in letters:
        a = abs(letter)
        if letter == 0 or a > r - 1:
            raise GeneratorOutOfRange(f"letter {letter} outside 1..{r - 1}")
        top, mid, end = n * (a - 1), n * a, n * (a + 1)
        gi1 = current[a]
        inv = act_on_letter(current, letter)
        if letter > 0:
            conj = current[a]  # g_{i+1}^-1 g_i g_{i+1}
            for row in rows:
                x, y = row[top:mid], row[mid:end]
                xg, yc = row_times_matrix(x, gi1), row_times_matrix(y, conj)
                row[top:end] = y + [s + t - u for s, t, u in zip(xg, y, yc)]
        else:
            for row in rows:  # inv is g_i^-1
                x, y = row[top:mid], row[mid:end]
                xg = row_times_matrix(x, gi1)
                row[top:end] = [*row_times_matrix([s - t + u for s, t, u in zip(xg, x, y)], inv), *x]
    return tuple(current)


def local_matrix(g: Sequence[Matrix], letter: int) -> Matrix:
    """The deformation matrix of a single braid letter on V^r.

    Positive letter i places the block [[0, g_{i+1}], [1, 1 - g_{i+1}^-1 g_i
    g_{i+1}]] at block position i; the negative letter carries the closed
    form [[(g_{i+1} - 1) g_i^-1, 1], [g_i^-1, 0]], which equals the inverse
    of the positive matrix of the advanced tuple.
    """
    return word_matrix(g, [letter])


def word_matrix(g: Sequence[Matrix], word: BraidWord | Sequence[int]) -> Matrix:
    """The deformation matrix of a braid word: the left-to-right product of
    single-letter matrices while the tuple advances under the action."""
    return word_matrix_with_target(g, word)[0]


def word_matrix_with_target(
    g: Sequence[Matrix], word: BraidWord | Sequence[int]
) -> tuple[Matrix, tuple[Matrix, ...]]:
    spec, size = g[0].spec, g[0].rows * len(g)
    rows = [list(row) for row in Matrix.identity(spec, size).entries]
    target = act_on_rows(g, word, rows)
    return Matrix.from_rows(spec, rows, cols=size), target


def phibar(
    g: Sequence[Matrix],
    word: BraidWord | Sequence[int],
    spaces: TupleSpaces | None = None,
    verify: bool = False,
) -> Matrix:
    """The map induced on the quotient W = H/E by a braid word.

    The dim_w middle rows of the source flag basis are moved through the
    word by `act_on_rows` and multiplied by the middle dim_w columns of the
    inverse flag basis.  The same source basis is used on both sides; for
    words that move the tuple this reads the result in the source flag
    coordinates.  With verify=True the basis rows of H and E are moved along
    and the stability of the cocycle and coboundary spaces is checked exactly.
    """
    ts = spaces if spaces is not None else trafodat(g)
    lo, hi = ts.dim_e, ts.dim_h
    rows = [list(row) for row in ts.transition.entries[lo:hi]]
    checked = [list(row) for row in ts.H.basis.entries + ts.E.basis.entries] if verify else []
    target = act_on_rows(g, word, rows + checked)
    if verify:
        _verify_stability(ts, checked, target)
    middle = Matrix(ts.transition.spec, tuple(tuple(row[lo:hi]) for row in ts.transition_inv.entries), cols=ts.dim_w)
    return Matrix.from_rows(middle.spec, rows, cols=ts.n * ts.r) * middle


def _verify_stability(ts: TupleSpaces, moved: list[list[FieldElement]], target: Sequence[Matrix]):
    same = tuple(target) == ts.g
    h_target, e_target = (ts.H, ts.E) if same else (compute_H(target), compute_E(target))
    for row in moved[: ts.dim_h]:
        if not h_target.contains_vector(row):
            raise ShapeMismatch("cocycle space is not stable under the word")
    for row in moved[ts.dim_h :]:
        if not e_target.contains_vector(row):
            raise ShapeMismatch("coboundary space is not stable under the word")
