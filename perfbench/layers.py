"""Layer microbenchmarks for the traced run.

Each metric calls only API the package keeps: FieldElement `*` and
`inverse`, Matrix `*` and `inverse`, `kernel`, `act_on_tuple`, `closure`,
`derived_series`, `modular_group_analysis` and `invariant_decomposition`.
Inputs are fixed by the seed.  A metric whose API is gone, or raises,
becomes None instead of failing the run.

Timings are medians over repeats; an operation that takes more than about
a quarter of a second is timed once.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import synth

FIELD_NAMES = ("gf101", "q", "qz6")

# Matrix sizes per metric and field.  A 64x64 product over Q(zeta_6) takes
# about 10 s here, so qz6 stops at d32.
MATMUL_DIMS = {"gf101": (4, 32, 64), "q": (4, 32, 64), "qz6": (4, 32)}
SOLVE_DIM = 32

# Metric names this module reports; `None` values mean "not measurable".
METRICS = (
    [f"field.mul_us.{f}" for f in FIELD_NAMES]
    + [f"field.inv_us.{f}" for f in FIELD_NAMES]
    + [f"linalg.matmul_ms.{f}.d{d}" for f in FIELD_NAMES for d in MATMUL_DIMS[f]]
    + [f"linalg.inverse_ms.{f}.d{SOLVE_DIM}" for f in FIELD_NAMES]
    + [f"linalg.kernel_ms.{f}.d{SOLVE_DIM}" for f in FIELD_NAMES]
    + [f"braid.act_letter_us.{f}" for f in FIELD_NAMES]
    + [
        "group.modular_order_s",
        "group.modular_derived_s",
        "group.invariant_decomposition_s",
        "group.closure_s",
        "group.derived_series_s",
        "group.elements_enumerated",
    ]
)


def _spec(rm, name):
    if name == "gf101":
        return rm.FieldSpec.prime(synth.P)
    if name == "q":
        return rm.FieldSpec.rational()
    return rm.FieldSpec.cyclotomic(synth.M)


def _element(spec, name, rng):
    """A random nonzero element with small coefficients."""
    if name == "gf101":
        return spec.from_int(rng.randrange(1, synth.P))
    if name == "q":
        return spec.from_fraction(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    return spec.element([Fraction(rng.randint(-3, 3)), Fraction(rng.choice((-1, 1)) * rng.randint(1, 3))])


def _timed(fn, repeats: int = 5, budget: float = 0.25) -> float:
    """Median wall time of fn(); stops repeating once `budget` seconds are spent."""
    samples = []
    spent = 0.0
    while len(samples) < repeats and (not samples or spent < budget):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    return statistics.median(samples)


def _guard(out, name, fn):
    # A metric whose API changed or vanished is recorded as None with the
    # error, so that one broken layer does not cost the other numbers.
    try:
        out[name] = fn()
    except Exception as exc:  # noqa: BLE001 - boundary, the error is recorded
        out[name] = None
        out.setdefault("_errors", {})[name] = repr(exc)


def field_metrics(rm, rng, out):
    for name in FIELD_NAMES:
        spec = _spec(rm, name)
        xs = [_element(spec, name, rng) for _ in range(2000)]
        ys = [_element(spec, name, rng) for _ in range(2000)]

        def mul():
            for x, y in zip(xs, ys):
                x * y

        def inv():
            for x in xs:
                x.inverse()

        _guard(out, f"field.mul_us.{name}", lambda: _timed(mul) / len(xs) * 1e6)
        _guard(out, f"field.inv_us.{name}", lambda: _timed(inv) / len(xs) * 1e6)


def _random_matrix(rm, spec, name, rng, d):
    return rm.Matrix.from_rows(spec, [[_element(spec, name, rng) for _ in range(d)] for _ in range(d)])


def linalg_metrics(rm, rng, out):
    for name in FIELD_NAMES:
        spec = _spec(rm, name)
        for d in MATMUL_DIMS[name]:
            a = _random_matrix(rm, spec, name, rng, d)
            b = _random_matrix(rm, spec, name, rng, d)
            _guard(out, f"linalg.matmul_ms.{name}.d{d}", lambda: _timed(lambda: a * b) * 1e3)
        d = SOLVE_DIM
        a = _random_matrix(rm, spec, name, rng, d)
        _guard(out, f"linalg.inverse_ms.{name}.d{d}", lambda: _timed(a.inverse) * 1e3)
        # Rank d - 8: the product of random d x (d-8) and (d-8) x d matrices.
        left = rm.Matrix.from_rows(spec, [[_element(spec, name, rng) for _ in range(d - 8)] for _ in range(d)])
        right = rm.Matrix.from_rows(spec, [[_element(spec, name, rng) for _ in range(d)] for _ in range(d - 8)])
        singular = left * right
        _guard(out, f"linalg.kernel_ms.{name}.d{d}", lambda: _timed(lambda: rm.kernel(singular)) * 1e3)


def braid_metrics(rm, rng, out):
    for name in FIELD_NAMES:
        spec = _spec(rm, name)
        tup = synth.tuple_with_product_one(rng, name, 3, 16)
        mats = [
            rm.Matrix.from_rows(spec, [[rm.parse_element(e, spec) for e in row] for row in synth.matrix_text(name, g)])
            for g in tup
        ]
        letters = [rng.randrange(1, 16) * rng.choice((1, -1)) for _ in range(60)]
        _guard(
            out,
            f"braid.act_letter_us.{name}",
            lambda: _timed(lambda: rm.act_on_tuple(mats, letters)) / len(letters) * 1e6,
        )


def group_metrics(rm, gens_small, gens_zariski_c, out):
    """Group-layer timings.

    gens_small: generator lists of small exact groups (closure, derived series).
    gens_zariski_c: the zariski_c output tuple (modular path, decomposition).
    """
    group_mod = rm.group
    enumerated = [0]
    original = group_mod.closure

    def counting_closure(*args, **kwargs):
        result = original(*args, **kwargs)
        enumerated[0] += result.order or 0
        return result

    def run_closures():
        for gens in gens_small:
            group_mod.closure(gens)

    def run_derived():
        for gens in gens_small:
            group_mod.derived_series(gens)

    def count_enumerated():
        # Elements enumerated by one closure plus one derived series of each
        # group; the derived series closes every derived subgroup it tries.
        group_mod.closure = counting_closure
        try:
            run_closures()
            run_derived()
        finally:
            group_mod.closure = original
        return enumerated[0]

    _guard(out, "group.closure_s", lambda: _timed(run_closures, repeats=3))
    _guard(out, "group.derived_series_s", lambda: _timed(run_derived, repeats=3))
    _guard(out, "group.elements_enumerated", count_enumerated)
    primes = [7, 13]
    _guard(
        out,
        "group.modular_order_s",
        lambda: _timed(lambda: rm.modular_group_analysis(gens_zariski_c, primes, with_derived=False)),
    )
    _guard(
        out,
        "group.modular_derived_s",
        lambda: _timed(lambda: rm.modular_group_analysis(gens_zariski_c, primes)),
    )
    _guard(
        out,
        "group.invariant_decomposition_s",
        lambda: _timed(lambda: rm.invariant_decomposition(gens_zariski_c), repeats=3),
    )


def run_all(rm, seed: int, gens_small, gens_zariski_c) -> dict:
    rng = random.Random(f"layers:{seed}")
    out: dict = {}
    field_metrics(rm, rng, out)
    linalg_metrics(rm, rng, out)
    braid_metrics(rm, rng, out)
    group_metrics(rm, gens_small, gens_zariski_c, out)
    return out
