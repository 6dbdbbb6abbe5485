"""Dense exact linear algebra over a FieldSpec.

Linear maps act on row vectors from the right: v maps to v*A.  Consequently
image(A) is the row space of A and kernel(A) is the left kernel
{v : v*A = 0}.

Every exact product is a `Matrix` product, one `FieldSpec.dot` per entry
against the columns of the right factor, built once per product: each entry
is normalised once.  A vector times a matrix is a one-row product.

All elimination is one incremental echelon, `_Echelon`, grown a row at a
time and kept in reduced row echelon form: each row has a leading one at its
pivot and zeros at every other pivot, and the rows are sorted by pivot.
Every elimination step, reduction and back-substitution alike, is one
`FieldSpec.sub_multiple`: each eliminated entry is normalised once, and an
entry facing a zero is not touched.  Subspaces are stored as such bases, so
equal subspaces have structurally identical representations.
"""

from __future__ import annotations

import operator
from bisect import bisect
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    FieldMismatch,
    ShapeMismatch,
    Singular,
)
from .field import FieldElement, FieldSpec

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "image",
    "kernel",
    "intersect",
    "subspace_sum",
    "intertwiner_space",
    "hstack",
    "vstack",
    "product_of",
    "square_tuple_shape",
]


class Matrix:
    """An immutable dense matrix over an exact field."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, entries: tuple[tuple[FieldElement, ...], ...], cols: int | None = None):
        self.spec = spec
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else (cols if cols is not None else 0)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Sequence[FieldElement]], cols: int | None = None) -> "Matrix":
        tup = tuple(tuple(row) for row in rows)
        widths = {len(r) for r in tup}
        if len(widths) > 1:
            raise ShapeMismatch("ragged rows")
        return cls(spec, tup, cols=cols)

    @classmethod
    def from_ints(cls, spec: FieldSpec, grid: Sequence[Sequence[int]]) -> "Matrix":
        return cls.from_rows(spec, [[spec.from_int(v) for v in row] for row in grid])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        one, zero = spec.one(), spec.zero()
        return cls(spec, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = spec.zero()
        return cls(spec, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), cols=cols)

    @classmethod
    def diagonal(cls, spec: FieldSpec, scalars: Sequence[FieldElement]) -> "Matrix":
        z = spec.zero()
        n = len(scalars)
        return cls(spec, tuple(tuple(scalars[i] if i == j else z for j in range(n)) for i in range(n)))

    # -- basics ----------------------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.spec, self.rows)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    # -- arithmetic --------------------------------------------------------------

    def _check_spec(self, other: "Matrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other):
        return self._entrywise(other, "+", operator.add)

    def __sub__(self, other):
        return self._entrywise(other, "-", operator.sub)

    def _entrywise(self, other, symbol: str, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_spec(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} {symbol} {other.rows}x{other.cols}")
        return Matrix(self.spec, tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)), cols=self.cols)

    def __neg__(self):
        return Matrix(self.spec, tuple(tuple(-a for a in row) for row in self.entries), cols=self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_spec(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # One normalised dot product per entry; a 0-row `other` has `cols` empty columns.
        # Rows are built from lists, which CPython turns into tuples of their final size.
        columns = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        dot = self.spec.dot
        return Matrix(
            self.spec,
            tuple([tuple([dot(row, col) for col in columns]) for row in self.entries]),
            cols=other.cols,
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if not self.is_square():
            raise ShapeMismatch("power of a non-square matrix")
        base = self if exponent >= 0 else self.inverse()
        exponent = abs(exponent)
        result = Matrix.identity(self.spec, self.rows)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        # The rows of [A | I] reduce to [I | A^-1]; a pivot in the right half
        # means the rows of A added so far are dependent.
        n = self.rows
        ech = _Echelon()
        for row in hstack([self, Matrix.identity(self.spec, n)]).entries:
            ech.add(row)
            if ech.pivots[-1] >= n:
                raise Singular("matrix is singular")
        return Matrix(self.spec, tuple(tuple(row[n:]) for row in ech.rows), cols=n)

    # -- identity ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        # entries are canonical field elements, so equal matrices hash alike
        return hash(self.entries)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over {self.spec.label()}>"


def _reduce(rows: Sequence[Sequence[FieldElement]], pivots: Sequence[int], vector: Sequence[FieldElement]) -> list[FieldElement]:
    """The vector minus its multiples of the echelon rows, one per pivot."""
    w = list(vector)
    for row, p in zip(rows, pivots):
        f = w[p]
        if not f.is_zero():
            w = f.spec.sub_multiple(w, f, row)
    return w


class _Echelon:
    """A reduced row echelon basis grown one vector at a time.

    Each row has a leading one at its pivot and zeros at every other pivot,
    and the rows are sorted by pivot, so the basis is the RREF of the span.
    """

    def __init__(self, rows: Iterable[Sequence[FieldElement]] = ()):
        self.rows: list[Sequence[FieldElement]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def add(self, vector: Sequence[FieldElement]) -> bool:
        """Insert the vector into the span; False (and no change) if already there."""
        red = _reduce(self.rows, self.pivots, vector)
        pivot = next((j for j, e in enumerate(red) if not e.is_zero()), None)
        if pivot is None:
            return False
        inv = red[pivot].inverse()
        red = [e * inv if e else e for e in red]
        for k, row in enumerate(self.rows):
            f = row[pivot]
            if not f.is_zero():
                self.rows[k] = f.spec.sub_multiple(row, f, red)
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, red)
        self.pivots.insert(at, pivot)
        return True

    def subspace(self, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        basis = Matrix(spec, tuple(tuple(row) for row in self.rows), cols=ambient_dim)
        return Subspace(spec, ambient_dim, basis, tuple(self.pivots))


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form (padded with zero rows to a.rows), pivot columns and rank."""
    ech = _Echelon(a.entries)
    rank = len(ech.rows)
    zero_row = (a.spec.zero(),) * a.cols
    red = tuple(tuple(row) for row in ech.rows) + (zero_row,) * (a.rows - rank)
    return Matrix(a.spec, red, cols=a.cols), tuple(ech.pivots), rank


def hstack(mats: Sequence[Matrix]) -> Matrix:
    rows = _stacked(mats, "hstack", "row counts", lambda m: m.rows)
    entries = tuple([tuple([e for m in mats for e in m.entries[i]]) for i in range(rows)])
    return Matrix(mats[0].spec, entries, cols=sum(m.cols for m in mats))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    cols = _stacked(mats, "vstack", "column counts", lambda m: m.cols)
    return Matrix(mats[0].spec, tuple(row for m in mats for row in m.entries), cols=cols)


def _stacked(mats: Sequence[Matrix], name: str, what: str, size) -> int:
    # the common size of a nonempty list of matrices over one field
    if not mats:
        raise ShapeMismatch(f"{name} of nothing")
    for m in mats:
        if size(m) != size(mats[0]):
            raise ShapeMismatch(f"{name} with differing {what}")
        if m.spec != mats[0].spec:
            raise FieldMismatch(f"{name} over different fields")
    return size(mats[0])


def square_tuple_shape(mats: Sequence[Matrix]) -> tuple[FieldSpec, int]:
    """The field and the size of a nonempty tuple of d x d matrices over one field."""
    if not mats:
        raise ShapeMismatch("empty tuple")
    spec, d = mats[0].spec, mats[0].rows
    for m in mats:
        if m.spec != spec:
            raise FieldMismatch("tuple entries over different fields")
        if not m.is_square() or m.rows != d:
            raise ShapeMismatch("tuple entries must be square of equal size")
    return spec, d


def product_of(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeMismatch("product of an empty sequence")
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


class Subspace:
    """A subspace of k^n held as a reduced row echelon basis (canonical)."""

    __slots__ = ("spec", "ambient_dim", "basis", "pivots")

    def __init__(self, spec: FieldSpec, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        self.spec = spec
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_rows(cls, spec: FieldSpec, ambient_dim: int, rows: Iterable[Sequence[FieldElement]]) -> "Subspace":
        rows = list(rows)
        for r in rows:
            if len(r) != ambient_dim:
                raise AmbientMismatch(f"row of length {len(r)} in ambient {ambient_dim}")
        return _Echelon(rows).subspace(spec, ambient_dim)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, Matrix(spec, (), cols=ambient_dim), ())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_vector(self, vector: Sequence[FieldElement]) -> bool:
        if len(vector) != self.ambient_dim:
            raise AmbientMismatch(f"vector of length {len(vector)} in ambient {self.ambient_dim}")
        return not any(_reduce(self.basis.entries, self.pivots, vector))

    def coordinates(self, vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Coordinates of a member vector in the echelon basis."""
        if not self.contains_vector(vector):
            raise AmbientMismatch("vector is not in the subspace")
        return tuple(vector[p] for p in self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of k^{self.ambient_dim} over {self.spec.label()}>"


def image(a: Matrix) -> Subspace:
    """Row space of a: the image of v -> v*a."""
    return Subspace.from_rows(a.spec, a.cols, a.entries)


def kernel(a: Matrix) -> Subspace:
    """Left kernel of a: all row vectors v with v*a = 0."""
    # Eliminate the transpose with its columns reversed (column j is row
    # m-1-j of a).  Free column j gives the kernel vector with a one at m-1-j
    # and minus column j of the echelon at the pivots before j, all after
    # m-1-j in v: in order of the free columns, this is the RREF basis.
    m, spec = a.rows, a.spec
    ech = _Echelon(tuple(a.entries[m - 1 - j][c] for j in range(m)) for c in range(a.cols))
    pivots = set(ech.pivots)
    zero, one = spec.zero(), spec.one()
    basis, free = [], []
    for i in range(m):
        j = m - 1 - i
        if j in pivots:
            continue
        v = [zero] * m
        v[i] = one
        for row, p in zip(ech.rows, ech.pivots):
            if p > j:
                break
            if not row[j].is_zero():
                v[m - 1 - p] = -row[j]
        basis.append(tuple(v))
        free.append(i)
    return Subspace(spec, m, Matrix(spec, tuple(basis), cols=m), tuple(free))


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if u.spec != w.spec:
        raise FieldMismatch("subspaces over different fields")
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(f"ambient {u.ambient_dim} vs {w.ambient_dim}")
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.spec, u.ambient_dim)
    stacked = vstack([u.basis, w.basis])
    pairs = kernel(stacked)
    if pairs.dim == 0:
        return Subspace.zero(u.spec, u.ambient_dim)
    left = Matrix(
        u.spec,
        tuple(tuple(row[: u.dim]) for row in pairs.basis.entries),
        cols=u.dim,
    )
    return image(left * u.basis)


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.spec != w.spec:
        raise FieldMismatch("subspaces over different fields")
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(f"ambient {u.ambient_dim} vs {w.ambient_dim}")
    return Subspace.from_rows(u.spec, u.ambient_dim, list(u.basis.entries) + list(w.basis.entries))


def intertwiner_space(tuple_a: Sequence[Matrix], tuple_b: Sequence[Matrix]) -> Subspace:
    """All matrices T with T*B_i = A_i*T, as row vectors of length d*d.

    The pairs are solved one at a time inside the solutions so far: a basis
    matrix T_k of those gives the condition row T_k*B - A*T_k, and the left
    kernel of the condition rows holds the coefficients of the next
    solutions.  Coefficients in reduced echelon form times a reduced echelon
    basis are again one, with the basis pivots the kernel pivots select.
    """
    if len(tuple_a) != len(tuple_b):
        raise ShapeMismatch("tuples of different length")
    spec, d = square_tuple_shape([*tuple_a, *tuple_b])
    n = d * d
    # The first pair is solved over all d x d matrices, whose basis is the units E_ij.
    space = kernel(Matrix(spec, _unit_conditions(tuple_a[0], tuple_b[0]), cols=n))
    # Equal tuples: the identity is a solution, so at dim 1 the space is the
    # scalars, which solve every later pair.
    floor = 1 if list(tuple_a) == list(tuple_b) else 0
    for a, b in zip(tuple_a[1:], tuple_b[1:]):
        if space.dim <= floor:
            break
        conditions = []
        for row in space.basis.entries:
            t = matrix_from_flat(spec, row, d)
            conditions.append(tuple([e for r in (t * b - a * t).entries for e in r]))
        coeffs = kernel(Matrix(spec, tuple(conditions), cols=n))
        if coeffs.dim < space.dim:
            pivots = tuple(space.pivots[i] for i in coeffs.pivots)
            space = Subspace(spec, n, coeffs.basis * space.basis, pivots)
    return space


def _unit_conditions(a: Matrix, b: Matrix) -> tuple[tuple[FieldElement, ...], ...]:
    # E_ij*B - A*E_ij flattened, for k = i*d + j: row j of B in row i, minus
    # column i of A in column j, the two meeting at (i, j).
    d = a.rows
    zero = a.spec.zero()
    minus_columns = [[-x for x in col] for col in zip(*a.entries)]
    rows = []
    for i in range(d):
        for j, b_row in enumerate(b.entries):
            t = [zero] * (d * d)
            t[i * d : (i + 1) * d] = b_row
            t[j::d] = minus_columns[i]
            t[i * d + j] = b_row[j] - a.entries[i][i]
            rows.append(tuple(t))
    return tuple(rows)


def matrix_from_flat(spec: FieldSpec, flat: Sequence[FieldElement], d: int) -> Matrix:
    """Reassemble a d x d matrix from a row-major flattened vector."""
    if len(flat) != d * d:
        raise ShapeMismatch(f"flat vector of length {len(flat)} for {d}x{d}")
    return Matrix.from_rows(spec, [flat[i * d : (i + 1) * d] for i in range(d)], cols=d)
