"""Deterministic synthetic fundamental data for the transform_synth workload.

Every input is a product-one monodromy tuple (g_1, ..., g_r) of n x n
matrices together with braid words shaped like braid monodromy words: a
conjugate c^-1 b_i^k c of a generator power.  The seed draws the braid
words.  The shapes (field, n, r, word lengths) are fixed in SHAPES, and
each shape's tuple is drawn once from a fixed stream, so that the work in a
pass hardly changes from seed to seed: over Q and Q(zeta_6) the cost of a
transform depends on the tuple's sparsity pattern.

Tuples over Q and Q(zeta_6) are monomial with root-of-unity entries, so
coefficients stay bounded under the braid action.  Tuples over GF(101) are
dense random invertible matrices.  Every g_i is fixed-point free, which
fixes dim H = n(r-1), dim E = n and dim W = n(r-2) for every seed.

The arithmetic here is independent of radonmono: the product rule and the
fixed-point condition are checked on integer data before anything is
written.  Run `python3 perfbench/synth.py --seed 1 --out DIR` to write the
inputs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random

P = 101
M = 6

FIELDS = {
    "gf101": {"kind": "prime", "p": P},
    "q": {"kind": "rational"},
    "qz6": {"kind": "cyclotomic", "m": M},
}

# (field, n, r, word lengths).  Sized so that a pass takes about 7 s on one
# core of a 2-core x86 box, which leaves room for several passes in a run.  Q(zeta_6) stops at
# nr = 32 and Q at nr = 48: one Q(zeta_6) input at nr = 64 alone costs 5 to
# 14 s there (trafodat plus 20 letters).
SHAPES = [
    ("gf101", 1, 8, (200,)),
    ("gf101", 2, 16, (30,)),
    ("gf101", 3, 16, (20,)),
    ("gf101", 2, 32, (20,)),
    ("q", 1, 8, (160,)),
    ("q", 2, 16, (20,)),
    ("qz6", 1, 8, (80,)),
    ("qz6", 2, 16, (20,)),
]

# -- GF(p) dense matrices -------------------------------------------------------


def _matmul_p(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % P for j in range(n)] for i in range(n)]


def _inverse_p(a):
    """Inverse mod P, or None when singular."""
    n = len(a)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, P)
        work[col] = [x * inv % P for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % P for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def _fixed_point_free_p(a) -> bool:
    n = len(a)
    return _inverse_p([[(a[i][j] - (i == j)) % P for j in range(n)] for i in range(n)]) is not None


def _random_gl_p(rng, n):
    while True:
        a = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        if _inverse_p(a) is not None and _fixed_point_free_p(a):
            return a


# -- monomial matrices with root-of-unity entries -----------------------------------
#
# A monomial matrix is (perm, exps): row i has the single entry w^exps[i] in
# column perm[i], with w = -1 over Q (order 2) and w = zeta_6 over Q(zeta_6).


def _mono_mul(a, b, order):
    pa, ea = a
    pb, eb = b
    return [pb[pa[i]] for i in range(len(pa))], [(ea[i] + eb[pa[i]]) % order for i in range(len(pa))]


def _mono_inverse(a, order):
    perm, exps = a
    inv_perm = [0] * len(perm)
    inv_exps = [0] * len(perm)
    for i, j in enumerate(perm):
        inv_perm[j] = i
        inv_exps[j] = -exps[i] % order
    return inv_perm, inv_exps


def _mono_fixed_point_free(a, order) -> bool:
    # Each cycle of the permutation carries a fixed vector exactly when the
    # product of its entries is 1.
    perm, exps = a
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        total, i = 0, start
        while i not in seen:
            seen.add(i)
            total += exps[i]
            i = perm[i]
        if total % order == 0:
            return False
    return True


def _random_mono(rng, n, order):
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        a = (perm, [rng.randrange(order) for _ in range(n)])
        if _mono_fixed_point_free(a, order):
            return a


# -- tuples and words ------------------------------------------------------------


def tuple_with_product_one(rng, field, n, r):
    """r fixed-point-free matrices g_1, ..., g_r with g_1 g_2 ... g_r = 1.

    Over GF(101): lists of residues.  Over Q and Q(zeta_6): monomial
    matrices (perm, exps).
    """
    if field == "gf101":
        rand = lambda: _random_gl_p(rng, n)  # noqa: E731
        mul, inv = _matmul_p, _inverse_p
        ok = _fixed_point_free_p
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        order = 2 if field == "q" else M
        rand = lambda: _random_mono(rng, n, order)  # noqa: E731
        mul = lambda a, b: _mono_mul(a, b, order)  # noqa: E731
        inv = lambda a: _mono_inverse(a, order)  # noqa: E731
        ok = lambda a: _mono_fixed_point_free(a, order)  # noqa: E731
        ident = (list(range(n)), [0] * n)
    head = [rand() for _ in range(r - 2)]
    prefix = ident
    for g in head:
        prefix = mul(prefix, g)
    while True:
        g_penult = rand()
        g_last = inv(mul(prefix, g_penult))
        if ok(g_last):
            break
    tup = head + [g_penult, g_last]
    total = ident
    for g in tup:
        total = mul(total, g)
    if total != ident:
        raise AssertionError("generated tuple does not have product one")
    return tup


# zeta_6^k written in the basis 1, z of Q(zeta_6), using z^2 = z - 1.
_ZETA6_TEXT = ("1", "z", "z - 1", "-1", "-z", "1 - z")


def matrix_text(field, g):
    if field == "gf101":
        return [[str(x) for x in row] for row in g]
    perm, exps = g
    n = len(perm)
    out = [["0"] * n for _ in range(n)]
    for i in range(n):
        if field == "q":
            out[i][perm[i]] = "-1" if exps[i] else "1"
        else:
            out[i][perm[i]] = _ZETA6_TEXT[exps[i]]
    return out


def _conjugator(rng, r, length, avoid):
    """A freely reduced word of the given length whose first letter is not +-avoid."""
    letters: list[int] = []
    while len(letters) < length:
        x = rng.randrange(1, r) * rng.choice((1, -1))
        if not letters and abs(x) == avoid:
            continue
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return letters


def _braid_word(rng, r, length):
    """(b_i^k)^c = c^-1 b_i^k c with exactly `length` letters, as text.

    k is 2 (a node) for even lengths and 1 or 3 (a tangent or a cusp) for
    odd ones.  c and c^-1 hold the same letters with opposite signs, so the
    word always has (length - k) / 2 negative letters.
    """
    k = rng.choice((1, 3)) if length % 2 else 2
    i = rng.randrange(1, r)
    conj = _conjugator(rng, r, (length - k) // 2, i)
    text = " ".join(f"b{x}" if x > 0 else f"b{-x}^-1" for x in conj)
    return f"(b{i}^{k})^({text})" if conj else f"b{i}^{k}"


def synth_inputs(seed: int) -> list[tuple[str, dict]]:
    """The (name, input document) pairs of one seed, in SHAPES order."""
    out = []
    for idx, (field, n, r, lengths) in enumerate(SHAPES):
        tup = tuple_with_product_one(random.Random(f"tuple:{idx}"), field, n, r)
        rng = random.Random(f"{seed}:{idx}")
        doc = {
            "field": FIELDS[field],
            "n": n,
            "r": r,
            "matrices": [matrix_text(field, g) for g in tup],
            "braids": [_braid_word(rng, r, length) for length in lengths],
        }
        out.append((shape_name(field, n, r), doc))
    return out


def input_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


def write_inputs(seed: int, out_dir: str) -> list[tuple[str, str]]:
    """Write one seed's inputs as JSON files; returns (name, path) pairs."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, doc in synth_inputs(seed):
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "wb") as handle:
            handle.write(input_bytes(doc))
        paths.append((name, path))
    return paths


def shape_name(field: str, n: int, r: int) -> str:
    return f"{field}_n{n}_r{r}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    for name, path in write_inputs(args.seed, args.out):
        print(name, path)
