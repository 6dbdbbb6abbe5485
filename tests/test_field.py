import random
from fractions import Fraction
from math import gcd

import pytest

from radonmono import field
from radonmono.errors import (
    DivisionByZero,
    FieldMismatch,
    InputError,
    NotInField,
    ParseError,
)
from radonmono.field import (
    FieldSpec,
    cyclotomic_polynomial,
    format_element,
    parse_element,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for m in [*range(1, 401), 2520, 2730]:
        expected = sympy.cyclotomic_poly(m, z, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected), m


def test_spec_validation():
    with pytest.raises(InputError):
        FieldSpec.prime(6)
    with pytest.raises(InputError):
        FieldSpec.cyclotomic(0)
    with pytest.raises(InputError):
        FieldSpec("weird")
    assert FieldSpec.cyclotomic(6).degree == 2
    assert FieldSpec.prime(5).degree == 1
    assert FieldSpec.rational().characteristic == 0
    assert FieldSpec.prime(7).characteristic == 7


# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSP_12 = 318_665_857_834_031_151_167_461
PSP_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_is_exact_below_the_documented_bound():
    assert PSP_12 == 399_165_290_221 * 798_330_580_441
    assert PSP_13 == 1_287_836_182_261 * 2_575_672_364_521
    assert not field.is_prime(PSP_12)
    assert field.is_prime(2**61 - 1) and not field.is_prime((2**61 - 1) * (2**31 - 1))
    # PSP_13 fools all 13 bases, so every modulus from it on is refused, the prime 2^89 - 1 too
    for p in (PSP_12, PSP_13, 2**89 - 1):
        with pytest.raises(InputError):
            FieldSpec.prime(p)
    assert FieldSpec.prime(2**61 - 1).p == 2**61 - 1


def test_zeta6_squared_reduces():
    # zeta^2 reduces to zeta - 1 modulo z^2 - z + 1
    q6 = FieldSpec.cyclotomic(6)
    z = q6.gen()
    assert (z * z).coeffs == (Fraction(-1), Fraction(1))


def test_inverse_of_two_mod_five():
    gf5 = FieldSpec.prime(5)
    assert gf5.from_int(2).inverse() == gf5.from_int(3)


def test_rational_addition():
    q = FieldSpec.rational()
    assert parse_element("1/2", q) + parse_element("1/3", q) == q.from_fraction(Fraction(5, 6))


@pytest.mark.parametrize("m", [3, 4, 6])
def test_root_of_unity_order(m):
    spec = FieldSpec.cyclotomic(m)
    z = spec.gen()
    power = z
    for k in range(1, m):
        assert not power.is_one(), f"zeta_{m}^{k} = 1"
        power = power * z
    assert power.is_one()


def test_parse_examples():
    q = FieldSpec.rational()
    assert parse_element("-1", q) == q.from_int(-1)
    q6 = FieldSpec.cyclotomic(6)
    assert parse_element("z^2 - z + 1", q6).is_zero()
    gf5 = FieldSpec.prime(5)
    assert parse_element("2/3", gf5) == gf5.from_int(4)


def test_parse_errors_carry_positions():
    q = FieldSpec.rational()
    with pytest.raises(ParseError) as err:
        parse_element("1 + + ", q)
    assert err.value.position is not None
    with pytest.raises(NotInField):
        parse_element("z", q)
    with pytest.raises(NotInField):
        parse_element("1/2", FieldSpec.prime(2))
    with pytest.raises(ParseError):
        parse_element("2 2", q)


def test_canonical_equality_and_hash():
    q6 = FieldSpec.cyclotomic(6)
    z = q6.gen()
    for a, b in ((q6.zero(), q6.element([0, 0])), (z * z, z - q6.one())):
        assert a == b and hash(a) == hash(b)
    q = FieldSpec.rational()
    assert q.from_fraction(Fraction(1, 2)) != q.from_int(2)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        FieldSpec.rational().one() + FieldSpec.prime(5).one()


def test_division_by_zero():
    for spec in (FieldSpec.rational(), FieldSpec.prime(5), FieldSpec.cyclotomic(6)):
        with pytest.raises(DivisionByZero):
            spec.one() / spec.zero()


def _random_element(spec, rng):
    if spec.kind == "prime":
        return spec.from_int(rng.randrange(spec.p))
    if spec.kind == "rational":
        return spec.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return spec.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(spec.degree)])


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.rational(), FieldSpec.prime(7), FieldSpec.cyclotomic(6), FieldSpec.cyclotomic(4)],
    ids=lambda s: s.label(),
)
def test_field_axioms_on_samples(spec):
    rng = random.Random(20240)
    for _ in range(40):
        a, b, c = (_random_element(spec, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert ((a ** 3) * (a ** -3)).is_one()


def test_inverse_of_a_rational_element_makes_no_conjugate_products(monkeypatch):
    # in Q(zeta_2999) the norm route would take phi(2999) - 1 = 2997 products
    spec = FieldSpec.cyclotomic(2999)
    two, neg = spec.from_int(2), spec.from_fraction(Fraction(-3, 7))
    calls = []
    times = field._times

    def counting_times(*args):
        calls.append(args)
        return times(*args)

    monkeypatch.setattr(field, "_times", counting_times)
    assert two.inverse() == spec.from_fraction(Fraction(1, 2))
    assert neg.inverse() == spec.from_fraction(Fraction(-7, 3))
    assert calls == []
    monkeypatch.undo()
    assert (two * two.inverse()).is_one() and (neg * neg.inverse()).is_one()


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.rational(), FieldSpec.prime(11), FieldSpec.cyclotomic(6), FieldSpec.cyclotomic(12)],
    ids=lambda s: s.label(),
)
def test_format_parse_round_trip(spec):
    rng = random.Random(991)
    for _ in range(50):
        x = _random_element(spec, rng)
        assert parse_element(format_element(x), spec) == x


def test_degree_one_cyclotomic_fields():
    # conductors 1 and 2 collapse to the rationals with z = 1 and z = -1
    assert FieldSpec.cyclotomic(1).gen().is_one()
    assert FieldSpec.cyclotomic(2).gen() == FieldSpec.cyclotomic(2).from_int(-1)


# -- differential against sympy and the canonical form --------------------------

# Phi_105 is the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
DIFFERENTIAL_CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 105]


def _fraction_vector(rng, length):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else Fraction(0) for _ in range(length)]


@pytest.mark.parametrize("m", DIFFERENTIAL_CONDUCTORS)
def test_cyclotomic_arithmetic_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(m, z), z, domain="QQ")
    spec = FieldSpec.cyclotomic(m)
    assert spec.degree == phi.degree()

    def poly(values):
        return sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in reversed(values)], z, domain="QQ")

    def as_poly(el):
        return sympy.Poly([sympy.Rational(c, el.den) for c in reversed(el.coeffs)], z, domain="QQ")

    rng = random.Random(7000 + m)
    for sample in range(25):
        va, vb = _fraction_vector(rng, spec.degree), _fraction_vector(rng, spec.degree)
        a, b = spec.element(va), spec.element(vb)
        pa, pb = poly(va), poly(vb)
        assert as_poly(a) == pa
        assert as_poly(a * b) == (pa * pb).rem(phi)
        assert as_poly(a + b) == pa + pb
        assert as_poly(a - b) == pa - pb
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            if m < 100 or sample < 2:  # sympy.invert takes over a second per element at m = 105
                assert as_poly(a.inverse()) == sympy.invert(pa, phi)
        long = _fraction_vector(rng, rng.randint(spec.degree + 1, 3 * m))
        assert as_poly(spec.element(long)) == poly(long).rem(phi)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property below needs hypothesis
    given = None

if given is not None:

    @settings(max_examples=120, deadline=None)
    @given(
        spec=st.sampled_from([FieldSpec.rational()] + [FieldSpec.cyclotomic(m) for m in (1, 2, 3, 4, 5, 6, 12)]),
        values=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=8),
        scale=st.integers(2, 30),
    )
    def test_canonical_form_property(spec, values, scale):
        if spec.kind == "rational":
            values = values[:1]
        x = spec.element(values)
        assert x.den > 0
        assert gcd(x.den, *x.coeffs) == 1
        z = spec.gen() if spec.kind == "cyclotomic" else spec.one()
        # The same element by other routes: scaled numerators over a scaled
        # denominator, and a sum of monomials.
        routes = [
            spec.element([v * scale for v in values]) * spec.from_fraction(Fraction(1, scale)),
            spec.element([Fraction(v.numerator * scale, v.denominator * scale) for v in values]),
            sum((spec.from_fraction(v) * z**e for e, v in enumerate(values)), spec.zero()),
        ]
        for y in routes:
            assert (y.coeffs, y.den) == (x.coeffs, x.den)
            assert y == x and hash(y) == hash(x)


DOT_SPECS = [FieldSpec.prime(7), FieldSpec.prime(101), FieldSpec.rational()] + [
    FieldSpec.cyclotomic(m) for m in (3, 4, 5, 7, 12)
]


def _per_term_sum(spec, xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), spec.zero())


def test_dot_examples():
    for spec in DOT_SPECS:
        assert spec.dot([], []) == spec.zero()
        assert spec.dot([spec.zero()] * 3, [spec.one()] * 3) == spec.zero()
        assert spec.dot([spec.one(), spec.from_int(2)], [spec.from_int(3), spec.from_int(4)]) == spec.from_int(11)
    q = FieldSpec.rational()
    # 1/2 * 1/3 + 1/4 * 2/3 = 1/3 over the running denominators 6 and 12
    halves = [q.from_fraction(Fraction(1, 2)), q.from_fraction(Fraction(1, 4))]
    thirds = [q.from_fraction(Fraction(1, 3)), q.from_fraction(Fraction(2, 3))]
    assert q.dot(halves, thirds) == q.from_fraction(Fraction(1, 3))
    z12 = FieldSpec.cyclotomic(12)
    z = z12.gen()
    # z^5 * z^7 = z^12 = 1: the product leaves the power basis and comes back
    assert z12.dot([z**5, z12.from_fraction(Fraction(1, 6))], [z**7, z12.from_int(-6)]) == z12.zero()


if given is not None:

    @st.composite
    def dot_case(draw):
        spec = draw(st.sampled_from(DOT_SPECS))
        if spec.kind == "prime":
            value = st.integers(0, spec.p - 1).map(spec.from_int)
        else:
            coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
            value = st.lists(coeff, min_size=spec.degree, max_size=spec.degree).map(spec.element)
        entry = st.one_of(st.just(spec.zero()), value)
        n = draw(st.integers(0, 7))
        xs = draw(st.lists(entry, min_size=n, max_size=n))
        ys = draw(st.lists(entry, min_size=n, max_size=n))
        return spec, xs, ys

    SUB_MULTIPLE_SPECS = [FieldSpec.prime(101), FieldSpec.rational(), FieldSpec.cyclotomic(6), FieldSpec.cyclotomic(105)]

    @st.composite
    def sub_multiple_case(draw):
        """w, f and row, zeros on either side; denominators up to 12 differ entry by entry."""
        spec = draw(st.sampled_from(SUB_MULTIPLE_SPECS))
        if spec.kind == "prime":
            value = st.integers(0, spec.p - 1).map(spec.from_int)
        else:
            coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
            # a few nonzero coefficients keep Q(zeta_105), of degree 48, quick
            terms = st.dictionaries(st.integers(0, spec.degree - 1), coeff, max_size=3)
            value = terms.map(lambda t: spec.element([t.get(e, 0) for e in range(spec.degree)]))
        entry = st.one_of(st.just(spec.zero()), value)
        n = draw(st.integers(0, 6))
        w = draw(st.lists(entry, min_size=n, max_size=n))
        row = draw(st.lists(entry, min_size=n, max_size=n))
        return spec, w, draw(entry), row

    @settings(max_examples=200, deadline=None)
    @given(sub_multiple_case())
    def test_sub_multiple_equals_per_entry_difference(case):
        spec, w, f, row = case
        got = spec.sub_multiple(w, f, row)
        want = [a - f * b for a, b in zip(w, row)]
        assert [(x.coeffs, x.den) for x in got] == [(x.coeffs, x.den) for x in want]
        # an entry facing a zero is the entry itself
        assert all(x is a for x, a, b in zip(got, w, row) if b.is_zero())

    @settings(max_examples=200, deadline=None)
    @given(dot_case())
    def test_dot_equals_per_term_sum(case):
        spec, xs, ys = case
        got, want = spec.dot(xs, ys), _per_term_sum(spec, xs, ys)
        assert (got.coeffs, got.den) == (want.coeffs, want.den)
        if spec.kind != "prime":
            assert got.den > 0 and gcd(got.den, *got.coeffs) == 1
