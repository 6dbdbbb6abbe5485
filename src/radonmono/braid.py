"""Braid words and their right action on matrix tuples and on V^r.

Words in the braid group on r strands are flat sequences of nonzero letters
in {-(r-1), ..., -1, 1, ..., r-1}; letter i stands for the i-th standard
generator and -i for its inverse.  The surface syntax (powers, conjugation
exponents) parses to a small expression tree which expands to flat words.
Conjugation is x^y = y^(-1) * x * y.

`act_on_rows` is the one braid action, on integer numerators: each letter
advances the tuple and the inverses of its entries by products and moves all
rows of V^r at once by one block product on the two blocks it touches, and
field elements are formed only at the end.  `act_on_tuple` moves no rows.  A
plain letter list becomes a `BraidWord`, the one letter-range check;
`expand` and the input parser refuse, through `check_length`, a word longer
than MAX_LETTERS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .errors import InputError, ParseError, ShapeMismatch, StrandOutOfRange
from .field import FieldElement, _reduced, _Scanner
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
    g_{i+1}, and letter -i by [[(g_{i+1} - 1) g_i^-1, 1], [g_i^-1, 0]].  The
    tuple, its inverses and the rows cross the word as integer numerators
    (`_Numerators`), converted once on the way in and once on the way out.
    A plain letter list is checked as a word on len(g) strands.
    """
    letters = _word_letters(word, len(g))
    if not g:
        return ()
    start = _Numerators(g)
    moving = [*start.slots(rows)] if rows else None
    target = start.move(letters, moving)
    for row, moved in zip(rows, start.rows(*moving) if rows else ()):
        row[:] = moved
    return tuple(map(start.matrix, target))


def _word_letters(word: BraidWord | Sequence[int], strands: int) -> tuple[int, ...]:
    if not isinstance(word, BraidWord):
        return BraidWord(strands or 1, tuple(word)).letters  # the empty tuple takes only the empty word
    if word.strands != strands:
        raise ShapeMismatch(f"word on {word.strands} strands acting on an {strands}-tuple")
    return word.letters


class _Numerators:
    """A tuple g and the inverses of its entries as integer numerators, the
    working form of the braid action; `TupleSpaces` keeps one per tuple.

    An entry is its d = phi(m) coefficients in the power basis: one residue
    over GF(p), one integer over Q.  A k x c matrix is its c*d slots, slot
    (j, e) the list of coefficient e down column j, over one denominator (1
    over GF(p)).  A product adds each slot of the left factor times the right
    factor's coefficients into a convolution, folds it by the nonzero terms
    of z^d modulo the cyclotomic polynomial, reduces it modulo p, and takes
    one gcd when the denominator is not 1.
    """

    def __init__(self, g: Sequence[Matrix]):
        spec = g[0].spec
        self.spec, self.n, self.p, (self.d, self.terms) = spec, g[0].rows, spec.p, spec._reduction
        self.gs = [self.slots(m.entries) for m in g]

    def slots(self, rows: Sequence[Sequence[FieldElement]]) -> tuple[list[list[int]], int]:
        """The slots and the denominator of a matrix given by its rows, at least one."""
        columns = list(zip(*rows))
        if self.p:
            return [[x.coeffs[0] for x in col] for col in columns], 1
        den = lcm(*(x.den for row in rows for x in row))
        return [[x.coeffs[e] * (den // x.den) for x in col] for col in columns for e in range(self.d)], den

    def rows(self, slots: list[list[int]], den: int) -> list[list[FieldElement]]:
        """The rows of a matrix given by its slots; equal entries share one element."""
        spec, d, known = self.spec, self.d, {}
        columns = slots if d == 1 else [list(zip(*slots[c : c + d])) for c in range(0, len(slots), d)]
        for key in {key for column in columns for key in column}:
            nums = (key,) if d == 1 else key
            known[key] = FieldElement(spec, nums) if self.p else _reduced(spec, nums, den)
        return [[known[key] for key in row] for row in zip(*columns)]

    def matrix(self, a) -> Matrix:
        return Matrix(self.spec, tuple(map(tuple, self.rows(*a))), cols=self.n)

    @cached_property
    def hs(self) -> list:
        """The inverses of g from at most one inversion: with q_k = g_1 ... g_k,
        g_k^-1 = q_k^-1 q_(k-1) and q_(k-1)^-1 = g_k q_k^-1.  A tuple whose
        product q_r is 1, as every tuple `trafodat` accepts, inverts nothing."""
        q = list(accumulate(self.gs, self._mul))
        one = self.slots(Matrix.identity(self.spec, self.n).entries)
        inv = one if q[-1] == one else self.slots(self.matrix(q[-1]).inverse().entries)
        hs = list(self.gs)
        for k in range(len(q) - 1, 0, -1):
            hs[k], inv = self._mul(inv, q[k - 1]), self._mul(self.gs[k], inv)
        return [inv, *hs[1:]]

    def _times(self, xs: list[list[int]], ys: list[list[int]]) -> list[list[int]]:
        # the slots of X * Y from those of X and Y, numerators only
        d, p, terms, size = self.d, self.p, self.terms, len(xs[0]) if xs else 0
        live = [[(e, xs[t + e]) for e in range(d) if any(xs[t + e])] for t in range(0, len(xs), d)]
        out = []
        for j in range(0, len(ys), d):
            conv: list = [None] * (2 * d - 1)
            for f in range(d):
                for t, b in enumerate(ys[j + f]):
                    if b:
                        for e, x in live[t]:
                            conv[e + f] = _axpy(conv[e + f], b, x)
            for s in range(d - 2, -1, -1):  # top down: z^(s + d) = sum of c * z^(s + k), (k, c) in terms
                if conv[s + d] is not None:
                    for k, c in terms:
                        conv[s + k] = _axpy(conv[s + k], c, conv[s + d])
            out += ([0] * size if acc is None else [c % p for c in acc] if p else acc for acc in conv[:d])
        return out

    def _mul(self, a, b):
        (xs, dx), (ys, dy), p = a, b, self.p
        if self.d > 1:
            return _lowest(self._times(xs, ys), dx * dy)
        rows = list(zip(*xs))  # n x n: one dot per entry beats one pass per slot
        out = [[sum(map(mul, row, col)) for row in rows] for col in ys]
        return _lowest([[c % p for c in v] for v in out] if p else out, dx * dy)

    def _less_one(self, a, sign: int):
        # sign * (a - 1)
        (x, den), d = a, self.d
        out = [[sign * c for c in v] for v in x]
        for k in range(self.n):
            out[k * d][k] -= sign * den
        return out, den

    def move(self, letters: Sequence[int], rows: list | None) -> list:
        """Apply the letters to `rows`, the slots and the denominator of k
        rows of V^r, in place; return the advanced tuple.

        Each letter advances four n x n products (1 x 1 entries only swap),
        forms its 2n x n block of moved columns over one denominator D, and
        multiplies the 2n*d slots it touches by it.  When D is not 1 the
        slots it does not move are rescaled by D, and all take one gcd.
        """
        n, mul_, w = self.n, self._mul, self.n * self.d
        gs, hs = list(self.gs), list(self.hs) if n != 1 or rows is not None else [None] * len(self.gs)
        for letter in letters:
            i, j = abs(letter) - 1, abs(letter)
            gi, gj, hi, hj = gs[i], gs[j], hs[i], hs[j]
            if n == 1:  # 1 x 1 entries commute, so a letter swaps them; their inverses serve only rows
                conj, gs[i], gs[j], hs[i], hs[j] = gi, gj, gi, hj, hi
            elif letter > 0:
                conj = mul_(mul_(hj, gi), gj)
                gs[i], gs[j], hs[i], hs[j] = gj, conj, hj, mul_(mul_(hj, hi), gj)
            else:
                gs[i], gs[j], hs[i], hs[j] = mul_(mul_(gi, gj), hi), gi, mul_(mul_(gi, hj), hi), hi
            if rows is None:
                continue
            upper, lower = (gj, self._less_one(conj, -1)) if letter > 0 else (mul_(self._less_one(gj, 1), hi), hi)
            (up, du), (low, dl) = upper, lower
            den = lcm(du, dl)
            block = [[c * (den // du) for c in u] + [c * (den // dl) for c in v] for u, v in zip(up, low)]
            slots, top, end = rows[0], w * i, w * (j + 1)
            moved = self._times(slots[top:end], block)
            if den != 1:
                slots[:] = [[c * den for c in v] for v in slots]
            slots[top:end] = [*slots[top + w : end], *moved] if letter > 0 else [*moved, *slots[top : top + w]]
            if den != 1:
                rows[:] = _lowest(slots, rows[1] * den)
        return gs


def _axpy(acc: list[int] | None, b: int, x: list[int]) -> list[int]:
    # acc + b * x, None standing for zero
    return [b * c for c in x] if acc is None else [a + b * c for a, c in zip(acc, x)]


def _lowest(slots: list[list[int]], den: int):
    # slots / den with their common factor taken out
    g = gcd(den, *(c for v in slots for c in v)) if den != 1 else 1
    return ([[c // g for c in v] for v in slots], den // g) if g != 1 else (slots, den)


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
        if ch in "+-" or ch.isdecimal():
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
        return f"{_factor_text(expr.base, Generator)}^{expr.exponent}"
    if isinstance(expr, Conjugate):
        return f"{_factor_text(expr.base, Generator)}^{_factor_text(expr.by, Generator)}"
    raise TypeError(f"not a braid expression: {expr!r}")


def _factor_text(expr: BraidExpr, bare=(Generator, Power, Conjugate)) -> str:
    return braid_text(expr) if isinstance(expr, bare) else f"({braid_text(expr)})"


def word_from_letters(letters: Sequence[int], strands: int) -> BraidExpr:
    """Wrap a flat letter array, checked as a word on `strands` strands, as an expression."""
    BraidWord(strands, tuple(letters))
    factors = [Generator(x) if x >= 1 else Power(Generator(-x), -1) for x in letters]
    return factors[0] if len(factors) == 1 else Product(tuple(factors))
