"""Edge cases of the element and braid grammars, pinned string by string.

Each row gives a string and either the canonical text of its value or the
class, message and position (None when the class carries none) of the
error it raises.  Whitespace is skipped around every token, except inside a
braid generator ("b 1") and between a braid exponent's sign and its digits
("b1^- 2"); an element exponent's sign may be followed by whitespace.
"""

import radonmono.errors as errors
from radonmono.braid import braid_text, parse_braid
from radonmono.field import FieldSpec, format_element, parse_element

FIELDS = {"Q": FieldSpec.rational(), "GF(7)": FieldSpec.prime(7), "Q(zeta_6)": FieldSpec.cyclotomic(6)}

ELEMENT_CASES = [
    ('Q', '', ('ParseError', 'unexpected end of input (at position 0)', 0)),
    ('Q', ' ', ('ParseError', 'unexpected end of input (at position 1)', 1)),
    ('Q', '1', '1'),
    ('Q', ' 1', '1'),
    ('Q', '1 ', '1'),
    ('Q', ' 1 ', '1'),
    ('Q', '\t1\n', '1'),
    ('Q', '-1', '-1'),
    ('Q', '- 1', '-1'),
    ('Q', '+1', '1'),
    ('Q', '+ 1', '1'),
    ('Q', '--1', '1'),
    ('Q', '- - 1', '1'),
    ('Q', '-+-1', '1'),
    ('Q', '1/2', '1/2'),
    ('Q', '1 /2', '1/2'),
    ('Q', '1/ 2', '1/2'),
    ('Q', '1 / 2', '1/2'),
    ('Q', '-1/2', '-1/2'),
    ('Q', '1/-2', ('ParseError', 'expected an integer (at position 2)', 2)),
    ('Q', '1/0', ('NotInField', 'zero denominator at position 0', None)),
    ('Q', '1/ 0', ('NotInField', 'zero denominator at position 0', None)),
    ('Q', '/2', ('ParseError', "unexpected character '/' (at position 0)", 0)),
    ('Q', '1/', ('ParseError', 'expected an integer (at position 2)', 2)),
    ('Q', '1/ ', ('ParseError', 'expected an integer (at position 3)', 3)),
    ('Q', '1/2/3', ('ParseError', "unexpected character '/' (at position 3)", 3)),
    ('Q', '6/4', '3/2'),
    ('Q', '1 2', ('ParseError', "unexpected character '2' (at position 2)", 2)),
    ('Q', '1+', ('ParseError', 'unexpected end of input (at position 2)', 2)),
    ('Q', '1 +', ('ParseError', 'unexpected end of input (at position 3)', 3)),
    ('Q', '*2', ('ParseError', "unexpected character '*' (at position 0)", 0)),
    ('Q', '2**3', ('ParseError', "unexpected character '*' (at position 2)", 2)),
    ('Q', '2 * 3', '6'),
    ('Q', '1.5', ('ParseError', "unexpected character '.' (at position 1)", 1)),
    ('Q', 'x', ('ParseError', "unexpected character 'x' (at position 0)", 0)),
    ('Q', 'z', ('NotInField', 'symbol z is not defined over Q', None)),
    ('Q', '(1/2)^-1', '2'),
    ('Q', '(1/2)^ - 1', '2'),
    ('Q', '(0)^-1', ('DivisionByZero', 'division by zero', None)),
    ('Q', '(0)^0', '1'),
    ('GF(7)', '3/7', ('NotInField', '3/7 has no image in GF(7)', None)),
    ('GF(7)', '1/3', '5'),
    ('GF(7)', '1/ 3', '5'),
    ('GF(7)', '-1', '6'),
    ('GF(7)', '(3)^-1', '5'),
    ('GF(7)', 'z', ('NotInField', 'symbol z is not defined over GF(7)', None)),
    ('Q(zeta_6)', 'z', 'z'),
    ('Q(zeta_6)', ' z ', 'z'),
    ('Q(zeta_6)', 'z^2', 'z - 1'),
    ('Q(zeta_6)', 'z ^2', 'z - 1'),
    ('Q(zeta_6)', 'z^ 2', 'z - 1'),
    ('Q(zeta_6)', 'z ^ 2', 'z - 1'),
    ('Q(zeta_6)', 'z^-1', ('ParseError', 'expected an integer (at position 2)', 2)),
    ('Q(zeta_6)', 'z^ -1', ('ParseError', 'expected an integer (at position 3)', 3)),
    ('Q(zeta_6)', 'z^', ('ParseError', 'expected an integer (at position 2)', 2)),
    ('Q(zeta_6)', 'z^ ', ('ParseError', 'expected an integer (at position 3)', 3)),
    ('Q(zeta_6)', 'z^0', '1'),
    ('Q(zeta_6)', 'z^10', '-z'),
    ('Q(zeta_6)', '2*z', '2*z'),
    ('Q(zeta_6)', '2 * z', '2*z'),
    ('Q(zeta_6)', '2z', ('ParseError', "unexpected character 'z' (at position 1)", 1)),
    ('Q(zeta_6)', 'z2', ('ParseError', "unexpected character '2' (at position 1)", 1)),
    ('Q(zeta_6)', '(z)^-1', '-z + 1'),
    ('Q(zeta_6)', '(z)^- 1', '-z + 1'),
    ('Q(zeta_6)', '(z) ^ -1', '-z + 1'),
    ('Q(zeta_6)', '(z)^ - 1', '-z + 1'),
    ('Q(zeta_6)', '(z)^+2', 'z - 1'),
    ('Q(zeta_6)', '(z)^ + 2', 'z - 1'),
    ('Q(zeta_6)', '(z)^--1', ('ParseError', 'expected an integer (at position 5)', 5)),
    ('Q(zeta_6)', '(z)^', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('Q(zeta_6)', '(z)^-', ('ParseError', 'expected an integer (at position 5)', 5)),
    ('Q(zeta_6)', '(z)^- x', ('ParseError', 'expected an integer (at position 6)', 6)),
    ('Q(zeta_6)', '(z)^z', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('Q(zeta_6)', '(z', ('ParseError', "expected ')' (at position 2)", 2)),
    ('Q(zeta_6)', 'z)', ('ParseError', "unexpected character ')' (at position 1)", 1)),
    ('Q(zeta_6)', '((z)', ('ParseError', "expected ')' (at position 4)", 4)),
    ('Q(zeta_6)', '()', ('ParseError', "unexpected character ')' (at position 1)", 1)),
    ('Q(zeta_6)', '(1+z)*(1-z)', '-z + 2'),
    ('Q(zeta_6)', '( 1 + z ) ^ 2', '3*z'),
    ('Q(zeta_6)', '1/2*z - 3', '1/2*z - 3'),
    ('Q(zeta_6)', '-z^2 + z - 1', '0'),
    ('Q(zeta_6)', 'z^2-z+1', '0'),
    ('Q(zeta_6)', '(1+z)^3000000', ('InputError', 'a power reaches a number longer than 4300 digits', None)),
]

BRAID_CASES = [
    ('', ('ParseError', 'empty braid expression (at position 0)', 0)),
    (' ', ('ParseError', 'empty braid expression (at position 0)', 0)),
    ('b1', 'b1'),
    (' b1', 'b1'),
    ('b1 ', 'b1'),
    (' b1 ', 'b1'),
    ('b 1', ('ParseError', 'expected an integer (at position 1)', 1)),
    ('b', ('ParseError', 'expected an integer (at position 1)', 1)),
    ('b ', ('ParseError', 'expected an integer (at position 1)', 1)),
    ('b0', ('StrandOutOfRange', 'b0 is not a generator of B_4 (position 0)', None)),
    ('b3', 'b3'),
    ('b4', ('StrandOutOfRange', 'b4 is not a generator of B_4 (position 0)', None)),
    ('b10', ('StrandOutOfRange', 'b10 is not a generator of B_4 (position 0)', None)),
    ('b01', 'b1'),
    ('B1', ('ParseError', "expected a braid atom, got 'B' (at position 0)", 0)),
    ('x', ('ParseError', "expected a braid atom, got 'x' (at position 0)", 0)),
    ('b-1', ('ParseError', 'expected an integer (at position 1)', 1)),
    ('b+1', ('ParseError', 'expected an integer (at position 1)', 1)),
    ('b1b2', 'b1 b2'),
    ('b1 b2', 'b1 b2'),
    ('b1\tb2', 'b1 b2'),
    ('b1  b2', 'b1 b2'),
    ('b1 x', ('ParseError', "unexpected character 'x' (at position 3)", 3)),
    ('b1^2', 'b1^2'),
    ('b1 ^2', 'b1^2'),
    ('b1^ 2', 'b1^2'),
    ('b1 ^ 2', 'b1^2'),
    ('b1^-2', 'b1^-2'),
    ('b1^ -2', 'b1^-2'),
    ('b1^- 2', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('b1 ^ - 2', ('ParseError', 'expected an integer (at position 6)', 6)),
    ('b1^+2', 'b1^2'),
    ('b1^+ 2', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('b1^--2', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('b1^-', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('b1^', ('ParseError', "dangling '^' (at position 3)", 3)),
    ('b1^ ', ('ParseError', "dangling '^' (at position 4)", 4)),
    ('b1^0', 'b1^0'),
    ('b1^x', ('ParseError', "bad exponent 'x' (at position 3)", 3)),
    ('b1^-b2', ('ParseError', 'expected an integer (at position 4)', 4)),
    ('b1^2^3', ('ParseError', "unexpected character '^' (at position 4)", 4)),
    ('b1^b2', 'b1^b2'),
    ('b1^ b2', 'b1^b2'),
    ('b1 ^ b2', 'b1^b2'),
    ('b1^b4', ('StrandOutOfRange', 'b4 is not a generator of B_4 (position 3)', None)),
    ('b1^(b2 b3)', 'b1^(b2 b3)'),
    ('b1^ (b2 b3)', 'b1^(b2 b3)'),
    ('b1^b2^b3', ('ParseError', "unexpected character '^' (at position 5)", 5)),
    ('(b1 b2)^b3', '(b1 b2)^b3'),
    ('(b1 b2)^-1', '(b1 b2)^-1'),
    ('( b1 b2 ) ^ 2', '(b1 b2)^2'),
    ('(b1)', 'b1'),
    ('(b4)', ('StrandOutOfRange', 'b4 is not a generator of B_4 (position 1)', None)),
    ('(b1', ('ParseError', "expected ')' (at position 3)", 3)),
    ('b1)', ('ParseError', "unexpected character ')' (at position 2)", 2)),
    ('((b1)', ('ParseError', "expected ')' (at position 5)", 5)),
    ('()', ('ParseError', "expected a braid atom, got ')' (at position 1)", 1)),
    ('( )', ('ParseError', "expected a braid atom, got ')' (at position 2)", 2)),
    ('b3^-1 (b1 b2 b1)^2 b3', 'b3^-1 (b1 b2 b1)^2 b3'),
    ('(b2^2)^b1', '(b2^2)^b1'),
    ('(b2^2)^(b1 b3)', '(b2^2)^(b1 b3)'),
]


def _outcome(parse, text_of):
    try:
        return text_of(parse())
    except errors.RadonError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


def test_parser_edge_case_table():
    assert len(ELEMENT_CASES) + len(BRAID_CASES) >= 80
    wrong = []
    for label, text, expected in ELEMENT_CASES:
        got = _outcome(lambda: parse_element(text, FIELDS[label]), format_element)
        if got != expected:
            wrong.append((label, text, expected, got))
    for text, expected in BRAID_CASES:
        got = _outcome(lambda: parse_braid(text, 4), braid_text)
        if got != expected:
            wrong.append(("B_4", text, expected, got))
    assert not wrong, wrong
