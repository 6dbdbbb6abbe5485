"""Braid words and their right action on matrix tuples and on V^r.

Words in the braid group on r strands are flat sequences of nonzero letters
in {-(r-1), ..., -1, 1, ..., r-1}; letter i stands for the i-th standard
generator and -i for its inverse.  The surface syntax (powers, conjugation
exponents) parses to a small expression tree which expands to flat words.
Conjugation is x^y = y^(-1) * x * y.

`act_on_rows` is the one braid action.  Each letter advances the tuple and
the inverses of its entries, which travel with it, by matrix products, and
moves rows of V^r by one 2n x 2n block product on the two blocks the letter
touches.  `act_on_tuple` moves no rows and forms no letter matrix.  A plain
letter list becomes a `BraidWord`, the one letter-range check; `expand`
and the input parser refuse, through `check_length`, a word longer than
MAX_LETTERS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InputError, ParseError, ShapeMismatch, StrandOutOfRange
from .field import FieldElement, _Scanner
from .linalg import Matrix

__all__ = [
    "MAX_LETTERS",
    "BraidWord",
    "Generator",
    "Product",
    "Power",
    "Conjugate",
    "BraidExpr",
    "parse_braid",
    "expand",
    "check_length",
    "free_reduce",
    "inverse_letters",
    "act_on_tuple",
    "act_on_rows",
    "braid_text",
]


@dataclass(frozen=True)
class BraidWord:
    """A flat word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise StrandOutOfRange(f"strand count must be >= 1, got {self.strands}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise StrandOutOfRange(
                    f"letter {letter} outside the generators of B_{self.strands}"
                )

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, inverse_letters(self.letters))

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class Product:
    factors: tuple["BraidExpr", ...]


@dataclass(frozen=True)
class Power:
    base: "BraidExpr"
    exponent: int


@dataclass(frozen=True)
class Conjugate:
    base: "BraidExpr"
    by: "BraidExpr"


BraidExpr = Union[Generator, Product, Power, Conjugate]

# The longest word `expand` writes out; the bundled and test inputs stay far below it.
MAX_LETTERS = 100_000


def inverse_letters(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def expand(expr: BraidExpr, strands: int) -> BraidWord:
    """Flatten an expression tree into a word of B_strands.

    A word longer than MAX_LETTERS is refused by `check_length`, before any
    letter is written.
    """
    check_length(expr)
    return BraidWord(strands, _expand_letters(expr))


def check_length(expr: BraidExpr) -> None:
    """Refuse, with InputError, a word that expands to more than MAX_LETTERS
    letters; the length is read off the tree's size."""
    length = _expanded_length(expr)
    if length > MAX_LETTERS:
        raise InputError(f"braid word expands to {length} letters, more than the {MAX_LETTERS} allowed")


def _expanded_length(expr: BraidExpr) -> int:
    if isinstance(expr, Generator):
        return 1
    if isinstance(expr, Product):
        return sum(_expanded_length(f) for f in expr.factors)
    if isinstance(expr, Power):
        return _expanded_length(expr.base) * abs(expr.exponent)
    if isinstance(expr, Conjugate):
        return 2 * _expanded_length(expr.by) + _expanded_length(expr.base)
    raise TypeError(f"not a braid expression: {expr!r}")


def _expand_letters(expr: BraidExpr) -> tuple[int, ...]:
    if isinstance(expr, Generator):
        return (expr.index,)
    if isinstance(expr, Product):
        out: list[int] = []
        for f in expr.factors:
            out.extend(_expand_letters(f))
        return tuple(out)
    if isinstance(expr, Power):
        base = _expand_letters(expr.base)
        if expr.exponent < 0:
            base = inverse_letters(base)
        return base * abs(expr.exponent)
    if isinstance(expr, Conjugate):
        by = _expand_letters(expr.by)
        return inverse_letters(by) + _expand_letters(expr.base) + by
    raise TypeError(f"not a braid expression: {expr!r}")


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in word.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(word.strands, tuple(stack))


def act_on_tuple(g: Sequence[Matrix], word: BraidWord | Sequence[int]) -> tuple[Matrix, ...]:
    """Right action of a braid word on an r-tuple of invertible matrices.

    Letter i sends (..., g_i, g_{i+1}, ...) to (..., g_{i+1},
    g_{i+1}^-1 g_i g_{i+1}, ...); letter -i applies the inverse move.
    No letter matrix is formed.
    """
    return act_on_rows(g, word, [])


def act_on_rows(
    g: Sequence[Matrix], word: BraidWord | Sequence[int], rows: list[list[FieldElement]]
) -> tuple[Matrix, ...]:
    """Right-multiply each row of V^r, in place, by the deformation of each
    letter in turn while the tuple advances; return the advanced tuple.

    Letter i multiplies the blocks [x, y] = [v_i, v_{i+1}] of a row by the
    2n x 2n letter matrix [[0, g_{i+1}], [1, 1 - g']], g' = g_{i+1}^-1 g_i
    g_{i+1}, and letter -i by [[(g_{i+1} - 1) g_i^-1, 1], [g_i^-1, 0]].  One
    half of each output is a copy of x or y; the other half takes one
    `FieldSpec.dot` per entry against the letter matrix's columns, built once
    per letter and only when rows are given.  A row that is zero on both
    blocks is left as it is.

    The inverses h = g^-1 travel with the tuple: each is formed when a letter
    first needs it and then advanced by products, (g')^-1 = h_{i+1} h_i
    g_{i+1} and (g_i g_{i+1} h_i)^-1 = g_i h_{i+1} h_i; an unknown h stays
    unknown.  A plain letter list is checked as a word on len(g) strands.
    """
    if not isinstance(word, BraidWord):
        word = BraidWord(len(g) or 1, tuple(word))  # the empty tuple takes only the empty word
    elif word.strands != len(g):
        raise ShapeMismatch(f"word on {word.strands} strands acting on an {len(g)}-tuple")
    if not g:
        return ()
    n, spec = g[0].rows, g[0].spec
    ident, dot = Matrix.identity(spec, n), spec.dot
    gs: list[Matrix] = list(g)
    hs: list[Matrix | None] = [None] * len(gs)
    for letter in word.letters:
        j = abs(letter)
        i = j - 1
        gi, gj, hi, hj = gs[i], gs[j], hs[i], hs[j]
        if letter > 0:
            if hj is None:
                hj = gj.inverse()
            conj = hj * gi * gj
            gs[i], gs[j] = gj, conj
            hs[i], hs[j] = hj, None if hi is None else hj * hi * gj
        else:
            if hi is None:
                hi = gi.inverse()
            gs[i], gs[j] = gi * gj * hi, gi
            hs[i], hs[j] = None if hj is None else gi * hj * hi, hi
        if rows:
            upper, lower = (gj, ident - conj) if letter > 0 else ((gj - ident) * hi, hi)
            cols = tuple(zip(*upper.entries, *lower.entries))
            top, end = n * i, n * (j + 1)
            for row in rows:
                seg = row[top:end]
                if any(seg):
                    moved = [dot(seg, c) for c in cols]
                    row[top:end] = [*seg[n:], *moved] if letter > 0 else [*moved, *seg[:n]]
    return tuple(gs)


# -- parser ---------------------------------------------------------------------

# Word   := Factor+
# Factor := Atom ['^' Exp]
# Atom   := 'b' INT | '(' Word ')'
# Exp    := signed INT | Atom | '(' Word ')'


class _BraidScanner(_Scanner):
    """The element scanner with the braid grammar; no whitespace inside a
    generator or between an exponent's sign and its digits."""

    def __init__(self, text: str, strands: int):
        super().__init__(text)
        self.strands = strands

    def generator(self) -> Generator:
        pos = self.pos
        self.pos += 1  # consume 'b'
        index = self.integer()
        if index < 1 or index > self.strands - 1:
            raise StrandOutOfRange(
                f"b{index} is not a generator of B_{self.strands} (position {pos})"
            )
        return Generator(index)

    def atom(self) -> BraidExpr:
        ch = self.peek()
        if ch == "b":
            return self.generator()
        if ch == "(":
            self.pos += 1
            word = self.word()
            self.expect(")")
            return word
        raise ParseError(f"expected a braid atom, got {ch!r}", self.pos)

    def factor(self) -> BraidExpr:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        ch = self.peek()
        if ch is None:
            raise ParseError("dangling '^'", self.pos)
        if ch in "+-" or ch.isdigit():
            return Power(base, self.signed_integer())
        if ch in "b(":
            return Conjugate(base, self.atom())
        raise ParseError(f"bad exponent {ch!r}", self.pos)

    def word(self) -> BraidExpr:
        factors = [self.factor()]
        while self.peek() in ("b", "("):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))


def parse_braid(text: str, strands: int) -> BraidExpr:
    """Parse braid notation like "b1^2", "(b2^2)^b1" or "b3^-1 (b1 b2 b1)^2 b3"."""
    sc = _BraidScanner(text, strands)
    if sc.at_end():
        raise ParseError("empty braid expression", 0)
    expr = sc.word()
    if not sc.at_end():
        raise ParseError(f"unexpected character {sc.peek()!r}", sc.pos)
    return expr


def braid_text(expr: BraidExpr) -> str:
    """Normalized text form in the grammar accepted by parse_braid."""
    if isinstance(expr, Generator):
        return f"b{expr.index}"
    if isinstance(expr, Product):
        return " ".join(_factor_text(f) for f in expr.factors)
    if isinstance(expr, Power):
        return f"{_atom_text(expr.base)}^{expr.exponent}"
    if isinstance(expr, Conjugate):
        by = expr.by
        by_text = braid_text(by) if isinstance(by, Generator) else f"({braid_text(by)})"
        return f"{_atom_text(expr.base)}^{by_text}"
    raise TypeError(f"not a braid expression: {expr!r}")


def _factor_text(expr: BraidExpr) -> str:
    if isinstance(expr, (Generator, Power, Conjugate)):
        return braid_text(expr)
    return f"({braid_text(expr)})"


def _atom_text(expr: BraidExpr) -> str:
    if isinstance(expr, Generator):
        return braid_text(expr)
    return f"({braid_text(expr)})"


def word_from_letters(letters: Sequence[int], strands: int) -> tuple[BraidExpr, BraidWord]:
    """Wrap a flat letter array as an expression plus its word."""
    factors: list[BraidExpr] = []
    for letter in letters:
        if letter >= 1:
            factors.append(Generator(letter))
        else:
            factors.append(Power(Generator(-letter), -1))
    if len(factors) == 1:
        expr: BraidExpr = factors[0]
    else:
        expr = Product(tuple(factors))
    return expr, BraidWord(strands, tuple(int(x) for x in letters))
