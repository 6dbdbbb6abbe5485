"""Exact arithmetic in Q, GF(p) and cyclotomic fields Q(zeta_m).

An element of GF(p) is a single residue in [0, p).  An element of Q(zeta_m)
of degree d = phi(m) is a tuple of d integer numerators over one positive
denominator, (c_0 + c_1*z + ... + c_{d-1}*z^(d-1)) / den, with
gcd(den, c_0, ..., c_{d-1}) = 1; Q is the case m = 1, d = 1.  Products and
longer inputs are reduced modulo the m-th cyclotomic polynomial, which is
monic, by the nonzero terms of z^d = sum(c_j * z^j), cached per field; the
inverse is the product of the other Galois conjugates over the norm.  The
form is canonical, so structural equality doubles as field equality and
elements hash exactly.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, FieldMismatch, InputError, NotInField, ParseError

__all__ = [
    "FieldSpec",
    "FieldElement",
    "parse_element",
    "format_element",
    "cyclotomic_polynomial",
    "is_prime",
]

# The longest digit run of a literal or of a printed number; Python 3.11+
# refuses int() and str() of a longer one by default.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster, Math. Comp. 2017)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases; exact for every n below
    _MR_BOUND = 3,317,044,064,679,887,385,961,981 (about 3.3e24)."""
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
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Phi_m is the product of (z^d - 1)^mu(m/d) over the divisors d of m, the
    Moebius inversion of z^m - 1 = prod Phi_d.  The factors with mu = 1 are
    multiplied in first, then those with mu = -1 divided out exactly, each
    in one pass over the coefficients.
    """
    if m < 1:
        raise InputError(f"conductor must be >= 1, got {m}")
    mu = {}
    for d in range(1, m + 1):
        if m % d == 0:
            exponents = _factorize(m // d).values()
            if all(e == 1 for e in exponents):
                mu[d] = (-1) ** len(exponents)
    poly = [1]
    for d in [d for d, sign in mu.items() if sign == 1]:  # times z^d - 1
        poly = [0] * d + poly
        for i in range(len(poly) - d):
            poly[i] -= poly[i + d]
    for d in [d for d, sign in mu.items() if sign == -1]:  # q (z^d - 1) = poly: q_i = q_(i-d) - poly_i
        poly = [-c for c in poly[: len(poly) - d]]
        for i in range(d, len(poly)):
            poly[i] += poly[i - d]
    return tuple(poly)


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
            if self.p is not None and self.p >= _MR_BOUND:
                raise InputError(f"prime modulus {self.p} is not below {_MR_BOUND}, where the primality test is exact")
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
        return self._reduction[0]

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0

    def label(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"Q(zeta_{self.m})"

    @cached_property
    def _reduction(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """d = phi(m) and the nonzero terms (j, c_j) of z^d = sum(c_j * z^j), j < d,
        modulo the monic Phi_m; Q and GF(p) are the case m = 1 (z = 1)."""
        phi = cyclotomic_polynomial(self.m or 1)
        d = len(phi) - 1
        return d, tuple((j, -c) for j, c in enumerate(phi[:d]) if c)

    # -- element constructors -------------------------------------------------

    @cached_property
    def _zero_one(self) -> tuple["FieldElement", "FieldElement"]:
        return self.from_int(0), self.from_int(1)

    def zero(self) -> "FieldElement":
        return self._zero_one[0]

    def one(self) -> "FieldElement":
        return self._zero_one[1]

    def from_int(self, value: int) -> "FieldElement":
        return self.element((value,))

    def from_fraction(self, value: Fraction) -> "FieldElement":
        return self.element((value,))

    def gen(self) -> "FieldElement":
        """The distinguished root of unity zeta_m (cyclotomic fields only)."""
        if self.kind != "cyclotomic":
            raise NotInField(f"{self.label()} has no generator z")
        return self.element((0, 1))

    def element(self, values) -> "FieldElement":
        """The element c_0 + c_1*z + c_2*z^2 + ... for rational coefficients c_e.

        Q and GF(p) take exactly one coefficient.  Cyclotomic vectors of any
        length are reduced modulo the cyclotomic polynomial.
        """
        vals = [v if isinstance(v, int) else Fraction(v) for v in values]
        if self.m is None and len(vals) != 1:
            raise InputError(f"elements of {self.label()} have one coefficient")
        if self.kind == "prime":
            v = vals[0]
            if v.denominator % self.p == 0:
                raise NotInField(f"{v} has no image in {self.label()}")
            return FieldElement(self, (v.numerator * pow(v.denominator, -1, self.p) % self.p,))
        den = lcm(*(v.denominator for v in vals))
        nums = _in_basis(self, [v.numerator * (den // v.denominator) for v in vals])
        return _reduced(self, nums, den)

    def dot(self, xs, ys) -> "FieldElement":
        """sum(x * y) over the pairs of xs and ys, normalised once.

        Over GF(p) this is one modulo.  In characteristic 0 the integer
        convolutions of the numerators are summed over a running common
        denominator, then reduced once modulo Phi_m and once by the gcd.
        """
        if self.kind == "prime":
            return FieldElement(self, (sum(x.coeffs[0] * y.coeffs[0] for x, y in zip(xs, ys)) % self.p,))
        reduction = self._reduction
        conv = [0] * (2 * reduction[0] - 1)
        den = 1
        zero = self._zero_one[0].coeffs  # canonical, so every zero element has exactly these
        for x, y in zip(xs, ys):
            a, b = x.coeffs, y.coeffs
            if a == zero or b == zero:
                continue
            e = x.den * y.den
            if den % e:
                g = gcd(den, e)
                scale = e // g
                conv = [c * scale for c in conv]
                den *= scale
            f = den // e
            i = 0
            for u in a:
                if u:
                    u *= f
                    k = i
                    for v in b:
                        conv[k] += u * v
                        k += 1
                i += 1
        return _reduced(self, _fold(reduction, conv), den)

    def sub_multiple(self, w, f: "FieldElement", row) -> list["FieldElement"]:
        """[a - f * b for a, b in zip(w, row)], each entry normalised once; an
        entry whose b is zero is a itself.

        Over GF(p) this is one modulo per entry.  In characteristic 0 the
        integer product of the numerators of f and b, over f.den * b.den, is
        brought to a common denominator with a and reduced once by the gcd.
        """
        if self.kind == "prime":
            p, c = self.p, f.coeffs[0]
            return [FieldElement(self, ((a.coeffs[0] - c * b.coeffs[0]) % p,)) if b.coeffs[0] else a for a, b in zip(w, row)]
        reduction, zero, fc, fd = self._reduction, self._zero_one[0].coeffs, f.coeffs, f.den
        out = []
        for a, b in zip(w, row):
            bc = b.coeffs
            if bc == zero:
                out.append(a)
                continue
            da, e = a.den, fd * b.den
            out.append(_reduced(self, [x * e - y * da for x, y in zip(a.coeffs, _times(reduction, fc, bc))], da * e))
        return out


def _reduced(spec: FieldSpec, nums, den: int) -> "FieldElement":
    # The characteristic-0 element nums/den with den > 0 and gcd(den, *nums) = 1.
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return FieldElement(spec, tuple(nums), den)


def _in_basis(spec: FieldSpec, coeffs, k: int = 1) -> list[int]:
    # sum(coeffs[e] * z^(k*e)) in the power basis: z^m = 1, so c_e goes to e*k mod m.
    m = spec.m or 1
    out = [0] * m
    for e, c in enumerate(coeffs):
        if c:
            out[e * k % m] += c
    return _fold(spec._reduction, out)


def _times(reduction, a, b) -> list[int]:
    # The product of two integer coefficient vectors in the power basis.
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    return _fold(reduction, conv)


def _fold(reduction, conv: list[int]) -> list[int]:
    # conv reduced in place, from its top term down, to d terms: c * z^(s + d) -> sum(c * c_j * z^(s + j))
    d, terms = reduction
    for s in range(len(conv) - d - 1, -1, -1):
        c = conv[s + d]
        if c:
            for j, cj in terms:
                conv[s + j] += c * cj
    del conv[d:]
    return conv


class FieldElement:
    """A canonical element of a FieldSpec; immutable and hashable.

    Over GF(p), `coeffs` is the single residue in [0, p) and `den` is 1.
    In characteristic 0, the element is sum(coeffs[e] * z^e) / den with
    integer `coeffs`, den > 0 and gcd(den, *coeffs) = 1.
    """

    __slots__ = ("spec", "coeffs", "den")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...], den: int = 1):
        self.spec = spec
        self.coeffs = coeffs
        self.den = den

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise FieldMismatch(
                    f"mixed fields {self.spec.label()} and {other.spec.label()}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.element((other,))
        return None

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.den == 1 and self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] + o.coeffs[0]) % s.p,))
        da, db = self.den, o.den
        return _reduced(s, [x * db + y * da for x, y in zip(self.coeffs, o.coeffs)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] - o.coeffs[0]) % s.p,))
        da, db = self.den, o.den
        return _reduced(s, [x * db - y * da for x, y in zip(self.coeffs, o.coeffs)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((-self.coeffs[0]) % s.p,))
        return FieldElement(s, tuple(-x for x in self.coeffs), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, ((self.coeffs[0] * o.coeffs[0]) % s.p,))
        return _reduced(s, _times(s._reduction, self.coeffs, o.coeffs), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("division by zero")
        s = self.spec
        if s.kind == "prime":
            return FieldElement(s, (pow(self.coeffs[0], -1, s.p),))
        if not any(self.coeffs[1:]):  # a rational c_0/den: no conjugate products
            return _reduced(s, [self.den] + [0] * (len(self.coeffs) - 1), self.coeffs[0])
        # With a = A/den, the product P of the other conjugates A(z^k),
        # gcd(k, m) = 1, makes A*P the rational norm N, so 1/a = den*P/N.
        reduction, m = s._reduction, s.m
        prod = [1] + [0] * (len(self.coeffs) - 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                prod = _times(reduction, prod, _in_basis(s, self.coeffs, k))
        norm = _times(reduction, self.coeffs, prod)[0]
        return _reduced(s, [self.den * c for c in prod], norm)

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
        return self.coeffs == o.coeffs and self.den == o.den

    def __hash__(self):
        return hash((self.coeffs, self.den))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec.label()}>"


def format_element(a: FieldElement) -> str:
    """Canonical text form; parse_element(format_element(a)) == a.

    A number of more than MAX_DIGITS digits, which parse_element would
    refuse, raises InputError.
    """
    if a.spec.kind == "prime":
        return str(a.coeffs[0])
    parts = []
    for k in range(len(a.coeffs) - 1, -1, -1):
        c = Fraction(a.coeffs[k], a.den)
        if c == 0:
            continue
        if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
            raise InputError(f"an output number is longer than {MAX_DIGITS} digits")
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
    """A cursor over element or braid text: `peek`, `take` and `expect` skip
    whitespace first, while `integer` reads digits at the cursor only."""

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
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > MAX_DIGITS:
            raise ParseError(f"integer of {self.pos - start} digits, more than the {MAX_DIGITS} allowed", start)
        return int(self.text[start : self.pos])

    def signed_integer(self) -> int:
        """An optional sign, then digits right after it."""
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.pos += 1
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
    if ch.isdecimal():
        start = sc.pos
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            sc.skip_ws()
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
            sc.skip_ws()
            power = sc.integer()
        return spec.gen() ** power
    if ch == "(":
        sc.take()
        value = _parse_expr(sc, spec)
        sc.expect(")")
        if sc.peek() == "^":
            sc.take()
            sign = -1 if sc.peek() == "-" else 1
            if sc.peek() in ("+", "-"):
                sc.take()
            sc.skip_ws()  # unlike a braid exponent, whitespace may follow the sign
            value = value ** (sign * sc.integer())
        return value
    raise ParseError(f"unexpected character {ch!r}", sc.pos)
