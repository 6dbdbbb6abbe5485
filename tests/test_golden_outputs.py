"""Golden outputs: stdout, stderr and exit code of fixed CLI runs.

Each run is pinned by the SHA-256 of its stdout and stderr and by its exit
code.  The digests were recorded before the elimination code was unified;
any change to RREF, inverse, kernel or flag bases that alters a printed
byte shows up here.  The exact closure and derived series of zariski_c (a
group of order 648 over Q(zeta_6)) was recorded before the field elements
moved to integer numerators over one denominator.  The `group` run on
four_lines stays pinned at exit 1 ("primes disagree on order: 24 vs 120")
until the modular path falls back or labels its answer.

The inputs under `tests/data/` have rank two or three, pseudo-reflections
and identity entries (so the fixed vectors of the g_i enter the cocycle
conditions), and words that move the tuple (so the moved flag rows leave H
and the unit-vector rows of the flag are read).  Their digests were recorded
before the flag basis was built from the condition matrix.

The three `group` runs on `gf101_moving_word.json` and `fl72_1113.json` pin
the exact closure and the invariant decomposition over GF(101) (d = 3, the
exact closure stops at its cap) and over Q(zeta_6) (d = 2, order 72).  They
were recorded before matrix products were normalised once per entry and
before the decomposition stopped early.  The two `group` runs on
`zc24_3_7.json` (zariski_c's braid words 3 and 7: a group of order 24 with a
fixed plane beside a moving plane) were recorded before the exact fixed
and moving spaces bounded the seed spins, the sum and the restriction.
"""

import contextlib
import hashlib
import io
import os

import pytest

from radonmono.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = [
    ("compute --input fixture:four_lines", 0, "1a71ede6d265bebde158b32faca1417f95c8c123d1b7cbd7dc46f4eb41601f76", EMPTY),
    ("rank --input fixture:four_lines", 0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", EMPTY),
    ("check --input fixture:four_lines", 0, "e1edf4616ee18dce21d145ae4b6133b15edf8bbed28e8cdb9fd9f3cb9a106529", EMPTY),
    ("group --input fixture:four_lines", 1, EMPTY, "cfb121548300bf2bb97e70cad81247b50b0547c259789ebf00931cfdb06e97b5"),
    ("compute --input fixture:scalar_group", 0, "c9ec9ec3707844d3948bb3985ac399ea113b658c37a329f24a182e2026799cb2", EMPTY),
    ("rank --input fixture:scalar_group", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", EMPTY),
    ("check --input fixture:scalar_group", 0, "50cd7510bfdece7dd994c2eb0c8a9a7649ead14894065f9312003a750b83255d", EMPTY),
    ("group --input fixture:scalar_group", 0, "1ff556b770de65bb8f22e8dc9c108afeb42a0c07c4777f43020f9532fd7d6445", EMPTY),
    ("compute --input fixture:zariski_c", 0, "6c58f20012ae4fdf046d17007132100fbf7de93293697b032e11a165992042dc", EMPTY),
    ("rank --input fixture:zariski_c", 0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d", EMPTY),
    ("check --input fixture:zariski_c", 0, "50cd7510bfdece7dd994c2eb0c8a9a7649ead14894065f9312003a750b83255d", EMPTY),
    ("group --input fixture:zariski_c", 0, "0cd305219a0393460f3b1596c89f382db29f097f95de5fff7723fcdf2f563ad2", EMPTY),
    ("compute --input fixture:zariski_cprime", 0, "43a156f81c09be0c57fe5a09430fa5b362f4525b37c35f4b448885b75d267316", EMPTY),
    ("rank --input fixture:zariski_cprime", 0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d", EMPTY),
    ("check --input fixture:zariski_cprime", 0, "50cd7510bfdece7dd994c2eb0c8a9a7649ead14894065f9312003a750b83255d", EMPTY),
    ("group --input fixture:zariski_cprime", 0, "43bc8c4d1ef71f4cd7dc016250c3f8299bca209bafdcf73d1c8e50124c13ea00", EMPTY),
    ("compute --input fixture:four_lines --verify", 0, "1a71ede6d265bebde158b32faca1417f95c8c123d1b7cbd7dc46f4eb41601f76", EMPTY),
    ("compute --input fixture:scalar_group --verify", 0, "c9ec9ec3707844d3948bb3985ac399ea113b658c37a329f24a182e2026799cb2", EMPTY),
    ("compute --input fixture:zariski_c --verify", 0, "6c58f20012ae4fdf046d17007132100fbf7de93293697b032e11a165992042dc", EMPTY),
    ("compute --input fixture:zariski_cprime --verify", 0, "43a156f81c09be0c57fe5a09430fa5b362f4525b37c35f4b448885b75d267316", EMPTY),
    ("group --input fixture:scalar_group --exact", 0, "b5b2815faf387c3cc50d5760545f3a93af027312d7d7616c15a69fc48b7094ec", EMPTY),
    ("group --input fixture:four_lines --exact --cap 2000", 0, "0c98de6fd91f2ebf0064e0197484e20ac7239f19eec2337614ca0027b2fda4ac", EMPTY),
    ("group --input fixture:scalar_group --exact --cap 2", 0, "b08c8c119bfb2423c3c4e020fc395117b4a66c71961a7a816cc50ae86686a1e3", EMPTY),
    ("group --input fixture:zariski_c --exact", 0, "332d2728202c51e06be4e7b12562481dcaeb40844716a20f1e4e8d616e310a0f", EMPTY),
    ("compute --input data/gf101_moving_word.json", 0, "279c80feb753dae14dceb9f427f3449dc83895b23c77b7d41d7e85af3465862d", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("compute --input data/gf101_moving_word.json --verify", 0, "279c80feb753dae14dceb9f427f3449dc83895b23c77b7d41d7e85af3465862d", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("compute --input data/qz6_pseudo_reflections.json", 0, "de0edcdc212c712e83fa7359a0e1dfbc1cb4d01c9211a03bd70003f313d75de5", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("compute --input data/qz6_pseudo_reflections.json --verify", 0, "de0edcdc212c712e83fa7359a0e1dfbc1cb4d01c9211a03bd70003f313d75de5", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("compute --input data/q_identity_entry.json", 0, "291f47ce42ba06b1c9e501ab2087ce3b218474ee758d717cebef884c660248cc", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("compute --input data/q_identity_entry.json --verify", 0, "291f47ce42ba06b1c9e501ab2087ce3b218474ee758d717cebef884c660248cc", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("group --input data/gf101_moving_word.json --exact --cap 2000", 0, "20c3948600ad2d148c721ec8f194dbb24bffafb718085733747c3326442a1364", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("group --input data/gf101_moving_word.json", 0, "f7e63cdd7113c4a0f5a6b3a597045e0d88ad7d690abf657e96ef0c315d60924a", "e9bf7e5d38dcc6ce68172537c9f8ec8a96ed06dff66d51238d284b79e183d367"),
    ("group --input data/fl72_1113.json --exact", 0, "aaf6628f457246d449285200d8d6cd28424bc36a54867a8e8e80fd7a3ddfbc33", EMPTY),
    ("group --input data/zc24_3_7.json", 0, "8c8762d329d8c21a7fcf741356b06f5636eb0c2a61f6cc7d99346641bc26bf89", EMPTY),
    ("group --input data/zc24_3_7.json --exact", 0, "e2fa10917b04ce81e26c2b1c03866d511995667ab831d040a449d64d797cc898", EMPTY),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, out_digest, err_digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(argv, code, out_digest, err_digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main([os.path.join(DATA, a[5:]) if a.startswith("data/") else a for a in argv.split()])
    assert (got, _sha256(out.getvalue()), _sha256(err.getvalue())) == (code, out_digest, err_digest), (
        err.getvalue()
    )
