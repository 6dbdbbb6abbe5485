"""Exact arithmetic in Q, GF(p) and cyclotomic fields Q(zeta_m).

Elements are coefficient vectors over the base field: a single residue in
[0, p) for GF(p), a single Fraction for Q, and phi(m) Fractions for
Q(zeta_m) encoding c_0 + c_1*z + ... + c_{d-1}*z^(d-1), reduced modulo the
m-th cyclotomic polynomial.  Reduction makes the vector canonical, so
structural equality doubles as field equality and elements hash exactly.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch, InputError, NotInField, ParseError

__all__ = [
    "FieldSpec",
    "FieldElement",
    "parse_element",
    "format_element",
    "canonical_key",
    "cyclotomic_polynomial",
    "totient",
    "is_prime",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    """Euler's phi function."""
    if m < 1:
        raise InputError(f"totient undefined for {m}")
    result = m
    for q in _factorize(m):
        result = result // q * (q - 1)
    return result


def _polydiv_int_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic; remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise InputError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first."""
    if m < 1:
        raise InputError(f"conductor must be >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # z^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_int_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    # z^(d+k) for k = 0..d-2 written in the power basis 1, z, ..., z^(d-1),
    # plus the k = 0 row which also rewrites z itself when d == 1.
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:d]]  # z^d
    rows.append(tuple(cur))
    for _ in range(d - 2):
        cur = [0] + list(cur)
        top = cur.pop()
        if top:
            cur = [c + top * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return tuple(rows)


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: Q, GF(p) or Q(zeta_m)."""

    kind: str
    p: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None or self.m is not None:
                raise InputError("rational field takes no p or m")
        elif self.kind == "prime":
            if self.m is not None:
                raise InputError("prime field takes no conductor m")
            if self.p is None or not is_prime(self.p):
                raise InputError(f"prime field needs a prime modulus, got {self.p}")
        elif self.kind == "cyclotomic":
            if self.p is not None:
                raise InputError("cyclotomic field takes no modulus p")
            if self.m is None or self.m < 1:
                raise InputError(f"cyclotomic field needs a conductor >= 1, got {self.m}")
        else:
            raise InputError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p=p)

    @staticmethod
    def cyclotomic(m: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", m=m)

    @property
    def degree(self) -> int:
        return totient(self.m) if self.kind == "cyclotomic" else 1

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0

    def label(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"Q(zeta_{self.m})"

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, value: int) -> "FieldElement":
        if self.kind == "prime":
            return FieldElement(self, (value % self.p,))
        if self.kind == "rational":
            return FieldElement(self, (Fraction(value),))
        coeffs = [Fraction(value)] + [Fraction(0)] * (self.degree - 1)
        return FieldElement(self, tuple(coeffs))

    def from_fraction(self, value: Fraction) -> "FieldElement":
        value = Fraction(value)
        if self.kind == "prime":
            if value.denominator % self.p == 0:
                raise NotInField(f"{value} has no image in {self.label()}")
            num = value.numerator % self.p
            return FieldElement(self, (num * pow(value.denominator, -1, self.p) % self.p,))
        if self.kind == "rational":
            return FieldElement(self, (value,))
        coeffs = [value] + [Fraction(0)] * (self.degree - 1)
        return FieldElement(self, tuple(coeffs))

    def gen(self) -> "FieldElement":
        """The distinguished root of unity zeta_m (cyclotomic fields only)."""
        if self.kind != "cyclotomic":
            raise NotInField(f"{self.label()} has no generator z")
        d = self.degree
        if d == 1:
            return FieldElement(self, tuple(Fraction(c) for c in _reduction_rows(self.m)[0]))
        coeffs = [Fraction(0)] * d
        coeffs[1] = Fraction(1)
        return FieldElement(self, tuple(coeffs))

    def element(self, values) -> "FieldElement":
        """Canonicalize an iterable of coefficients into an element.

        Cyclotomic vectors longer than the degree are reduced modulo the
        cyclotomic polynomial.
        """
        vals = list(values)
        if self.kind == "prime":
            if len(vals) != 1:
                raise InputError("prime field elements have one coefficient")
            v = vals[0]
            if isinstance(v, Fraction):
                return self.from_fraction(v)
            return FieldElement(self, (int(v) % self.p,))
        if self.kind == "rational":
            if len(vals) != 1:
                raise InputError("rational elements have one coefficient")
            return FieldElement(self, (Fraction(vals[0]),))
        coeffs = [Fraction(v) for v in vals]
        d = self.degree
        if len(coeffs) < d:
            coeffs += [Fraction(0)] * (d - len(coeffs))
        elif len(coeffs) > d:
            coeffs = _cyclo_reduce(self.m, coeffs)
        return FieldElement(self, tuple(coeffs))


def _cyclo_reduce(m: int, coeffs: list[Fraction]) -> list[Fraction]:
    d = totient(m)
    rows = _reduction_rows(m)
    out = list(coeffs[:d]) + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(d, len(coeffs)):
        c = coeffs[k]
        if c:
            row = rows[k - d]
            for j in range(d):
                out[j] += c * row[j]
    return out


def _poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    return q, _poly_trim(a)


def _cyclo_inverse(m: int, coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # Extended Euclid against the (irreducible) cyclotomic polynomial.
    mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
    a = _poly_trim(list(coeffs))
    if not a:
        raise DivisionByZero("division by zero")
    r0, r1 = mod, a
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        prod = _poly_mul(q, t1)
        t0, t1 = t1, _poly_sub(t0, prod)
    c = r1[0]
    inv = [t / c for t in t1]
    d = totient(m)
    inv = _cyclo_reduce(m, inv + [Fraction(0)] * max(0, d - len(inv)))
    return tuple(inv)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


class FieldElement:
    """A canonical element of a FieldSpec; immutable and hashable."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        self.spec = spec
        self.coeffs = coeffs

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatch(
                    f"mixed fields {self.spec.label()} and {other.spec.label()}"
                )
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        if isinstance(other, Fraction):
            return self.spec.from_fraction(other)
        return None

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] + o.coeffs[0]) % s.p,))
        return FieldElement(s, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] - o.coeffs[0]) % s.p,))
        return FieldElement(s, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((-self.coeffs[0]) % s.p,))
        return FieldElement(s, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] * o.coeffs[0]) % s.p,))
        if s.kind == "rational":
            return FieldElement(s, (self.coeffs[0] * o.coeffs[0],))
        a, b = self.coeffs, o.coeffs
        d = len(a)
        if d == 1:
            return FieldElement(s, (a[0] * b[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return FieldElement(s, tuple(_cyclo_reduce(s.m, conv)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        s = self.spec
        if s.kind == "prime":
            if self.coeffs[0] == 0:
                raise DivisionByZero("division by zero")
            return FieldElement(s, (pow(self.coeffs[0], -1, s.p),))
        if s.kind == "rational":
            if self.coeffs[0] == 0:
                raise DivisionByZero("division by zero")
            return FieldElement(s, (1 / self.coeffs[0],))
        return FieldElement(s, _cyclo_inverse(s.m, self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.spec.one()
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def key(self) -> bytes:
        return canonical_key(self)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec.label()}>"


def canonical_key(a: FieldElement) -> bytes:
    """Injective byte encoding of the canonical form (used for hashing)."""
    s = a.spec
    tag = f"{s.kind}:{s.p or s.m or 0}:"
    return (tag + ",".join(str(c) for c in a.coeffs)).encode()


def format_element(a: FieldElement) -> str:
    """Canonical text form; parse_element(format_element(a)) == a."""
    s = a.spec
    if s.kind in ("prime", "rational"):
        return str(a.coeffs[0])
    parts = []
    for k in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[k]
        if c == 0:
            continue
        negative = c < 0
        mag = -c if negative else c
        if k == 0:
            body = str(mag)
        else:
            head = "z" if k == 1 else f"z^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts) if parts else "0"


# -- element parser -----------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def signed_integer(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -1
        return sign * self.integer()

    def at_end(self) -> bool:
        return self.peek() is None


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse an element literal: rationals `a` or `a/b`, polynomials in z."""
    sc = _Scanner(text)
    value = _parse_expr(sc, spec)
    if not sc.at_end():
        raise ParseError(f"unexpected character {sc.peek()!r}", sc.pos)
    return value


def _parse_expr(sc: _Scanner, spec: FieldSpec) -> FieldElement:
    value = _parse_term(sc, spec)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        rhs = _parse_term(sc, spec)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(sc: _Scanner, spec: FieldSpec) -> FieldElement:
    value = _parse_factor(sc, spec)
    while sc.peek() == "*":
        sc.take()
        value = value * _parse_factor(sc, spec)
    return value


def _parse_factor(sc: _Scanner, spec: FieldSpec) -> FieldElement:
    negate = False
    while sc.peek() in ("+", "-"):
        if sc.take() == "-":
            negate = not negate
    value = _parse_primary(sc, spec)
    return -value if negate else value


def _parse_primary(sc: _Scanner, spec: FieldSpec) -> FieldElement:
    ch = sc.peek()
    if ch is None:
        raise ParseError("unexpected end of input", sc.pos)
    if ch.isdigit():
        start = sc.pos
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            den = sc.integer()
            if den == 0:
                raise NotInField(f"zero denominator at position {start}")
            try:
                return spec.from_fraction(Fraction(num, den))
            except DivisionByZero:
                raise NotInField(f"{num}/{den} has no image in {spec.label()}") from None
        return spec.from_int(num)
    if ch == "z":
        sc.take()
        if spec.kind != "cyclotomic":
            raise NotInField(f"symbol z is not defined over {spec.label()}")
        power = 1
        if sc.peek() == "^":
            sc.take()
            power = sc.integer()
        return spec.gen() ** power
    if ch == "(":
        sc.take()
        value = _parse_expr(sc, spec)
        sc.expect(")")
        if sc.peek() == "^":
            sc.take()
            value = value ** sc.signed_integer()
        return value
    raise ParseError(f"unexpected character {ch!r}", sc.pos)
