"""Braid words and their right action on matrix tuples and on V^r.

Words in the braid group on r strands are flat sequences of nonzero letters
in {-(r-1), ..., -1, 1, ..., r-1}; letter i stands for the i-th standard
generator and -i for its inverse.  The surface syntax (powers, conjugation
exponents) parses to a small expression tree which expands to flat words.
Conjugation is x^y = y^(-1) * x * y.

`act_on_rows` is the one braid action: it advances the tuple and moves rows
of V^r by each letter's block transvection; `act_on_tuple` moves no rows.
A plain letter list becomes a `BraidWord`, the one letter-range check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InputError, ParseError, ShapeMismatch, StrandOutOfRange
from .field import FieldElement, _Scanner
from .linalg import Matrix, row_times_matrix

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

    A word longer than MAX_LETTERS is refused from the tree's size, before
    any letter is written.
    """
    length = _expanded_length(expr)
    if length > MAX_LETTERS:
        raise InputError(f"braid word expands to {length} letters, more than the {MAX_LETTERS} allowed")
    return BraidWord(strands, _expand_letters(expr))


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
    """
    return act_on_rows(g, word, [])


def act_on_rows(
    g: Sequence[Matrix], word: BraidWord | Sequence[int], rows: list[list[FieldElement]]
) -> tuple[Matrix, ...]:
    """Right-multiply each row of V^r, in place, by the deformation of each
    letter in turn while the tuple advances; return the advanced tuple.

    With x and y the blocks i and i+1 of a row, g_i and g_{i+1} entries of
    the current tuple, letter i sets x' = y and y' = x g_{i+1} + y - y g'
    with g' = g_{i+1}^-1 g_i g_{i+1}; letter -i sets x' = (x g_{i+1} - x +
    y) g_i^-1 and y' = x.  A plain letter list is checked as a word on
    len(g) strands.
    """
    if not isinstance(word, BraidWord):
        word = BraidWord(len(g) or 1, tuple(word))  # the empty tuple takes only the empty word
    elif word.strands != len(g):
        raise ShapeMismatch(f"word on {word.strands} strands acting on an {len(g)}-tuple")
    n = g[0].rows if g else 0
    gs = list(g)
    for letter in word.letters:
        a = abs(letter)
        top, mid, end = n * (a - 1), n * a, n * (a + 1)
        gi, gi1 = gs[a - 1], gs[a]
        if letter > 0:
            conj = gi1.inverse() * gi * gi1
            gs[a - 1], gs[a] = gi1, conj
            for row in rows:
                x, y = row[top:mid], row[mid:end]
                xg, yc = row_times_matrix(x, gi1), row_times_matrix(y, conj)
                row[top:end] = y + [s + t - u for s, t, u in zip(xg, y, yc)]
        else:
            inv = gi.inverse()
            gs[a - 1], gs[a] = gi * gi1 * inv, gi
            for row in rows:
                x, y = row[top:mid], row[mid:end]
                xg = row_times_matrix(x, gi1)
                row[top:end] = [*row_times_matrix([s - t + u for s, t, u in zip(xg, x, y)], inv), *x]
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
