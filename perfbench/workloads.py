"""The three workloads: their inputs, operations, rounds and metrics.

A workload is a set of rounds.  A round is a fixed list of CLI operations
that the timed loop runs back to back.  A timing metric is the median, over
the executions of one round, of the summed wall time of the round's
operations in one category.

Every workload's pass is split into named parts (SPLITS):

* fixtures        - every subcommand on every bundled fixture, default
                    flags.  Rounds `light` (rank, compute, check) and
                    `group`.  Splits: compute_s, check_s, group_s.  The seed
                    only shuffles the order.
* transform_synth - `compute` on synthetic product-one inputs (synth.py),
                    fields interleaved in one round.  Splits
                    compute_s.gf101, compute_s.q, compute_s.qz6, so that a
                    gain on one field cannot hide a loss on another.
* exact_group     - `group --exact` on scalar_group plus seeded inputs
                    whose output groups are finite matrix groups over
                    Q(zeta_6).  Split group_exact_s (the whole round) and
                    its classes: 2x2 groups of order 72 and 36, 4x4 groups
                    of order 24.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

import synth

FIXTURES = ("four_lines", "scalar_group", "zariski_c", "zariski_cprime")

# zeta_6^k in the basis 1, z of Q(zeta_6).
ZETA6 = ("1", "z", "z - 1", "-1", "-z", "1 - z")

# Local monodromy exponents (of zeta_6) for the four-line braids whose output
# groups are finite: the classes give orders 72 and 36 (recorded in
# expected.json).  Each class is closed under permutation.
FOUR_LINE_CLASSES = {
    "fl72": [(1, 1, 1, 3), (3, 5, 5, 5)],
    "fl36": [(1, 1, 2, 2), (4, 4, 5, 5)],
}

# Pairs of zariski_c braid words whose output matrices generate a group of
# order 24 with derived series [24, 8, 2, 1].
ZARISKI_C_PAIRS = [
    (1, 3), (1, 5), (1, 6), (1, 7), (3, 6), (3, 7),
    (3, 8), (5, 6), (5, 7), (5, 8), (6, 8), (7, 8),
]

# Inputs per exact_group round, by class.
EXACT_PICKS = {"fl72": 3, "fl36": 3, "zc24": 4}


@dataclass(frozen=True)
class Op:
    key: str  # unique name of the operation, also its expected.json key
    kind: str  # subcommand: rank, compute, check or group
    input: str  # path or fixture:NAME
    category: str  # metric bucket within the round
    flags: tuple[str, ...] = ()
    field: dict | None = None  # coefficient field, for structural checks
    n: int | None = None  # set for synthetic inputs (fixes dim E and dim H)
    r: int | None = None

    def argv(self, output: str) -> list[str]:
        return [self.kind, "--input", self.input, "--output", output, *self.flags]


SPLITS = (
    "compute_s",
    "check_s",
    "group_s",
    "compute_s.gf101",
    "compute_s.q",
    "compute_s.qz6",
    "group_exact_s",
    "group_exact_s.fl72",
    "group_exact_s.fl36",
    "group_exact_s.zc24",
)


@dataclass
class Workload:
    name: str
    rounds: dict[str, list[Op]]
    # Split name -> (round, category); category None means the whole round.
    splits: dict[str, tuple[str, str | None]]
    inputs: list[str] = field(default_factory=list)  # files setup must load


def fixture_file(root: str, name: str) -> str:
    return os.path.join(root, "src", "radonmono", "fixtures", f"{name}.json")


def write_input(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return path


def build_fixtures(seed: int, out_dir: str, root: str) -> Workload:
    order = list(FIXTURES)
    random.Random(seed).shuffle(order)
    light = [
        Op(f"{fx}/{kind}", kind, f"fixture:{fx}", kind)
        for fx in order
        for kind in ("rank", "compute", "check")
    ]
    group = [Op(f"{fx}/group", "group", f"fixture:{fx}", "group") for fx in order]
    return Workload(
        "fixtures",
        {"light": light, "group": group},
        {"compute_s": ("light", "compute"), "check_s": ("light", "check"), "group_s": ("group", "group")},
        [fixture_file(root, fx) for fx in FIXTURES],
    )


def build_transform_synth(seed: int, out_dir: str, root: str) -> Workload:
    per_field: dict[str, list[Op]] = {f: [] for f in synth.FIELDS}
    paths = synth.write_inputs(seed, out_dir)
    shapes = {synth.shape_name(f, n, r): (f, n, r) for f, n, r, _ in synth.SHAPES}
    for name, path in paths:
        f, n, r = shapes[name]
        per_field[f].append(Op(f"{name}/compute", "compute", path, f, field=synth.FIELDS[f], n=n, r=r))
    # One round with the fields interleaved, so that slow and fast phases of
    # the machine fall on every field alike.
    lists = list(per_field.values())
    ops = [lst[i] for i in range(max(map(len, lists))) for lst in lists if i < len(lst)]
    return Workload(
        "transform_synth",
        {"pass": ops},
        {f"compute_s.{f}": ("pass", f) for f in synth.FIELDS},
        [path for _, path in paths],
    )


def exact_variants(root: str) -> dict[str, dict]:
    """Every exact_group input the seed can pick, keyed by variant name."""
    with open(fixture_file(root, "four_lines"), encoding="utf-8") as handle:
        four_lines = json.load(handle)
    with open(fixture_file(root, "zariski_c"), encoding="utf-8") as handle:
        zariski_c = json.load(handle)
    out: dict[str, dict] = {}
    for cls, bases in FOUR_LINE_CLASSES.items():
        for exps in sorted({p for base in bases for p in itertools.permutations(base)}):
            out[f"{cls}-{''.join(map(str, exps))}"] = {
                "field": {"kind": "cyclotomic", "m": 6},
                "n": 1,
                "r": 4,
                "matrices": [[[ZETA6[e]]] for e in exps],
                "braids": list(four_lines["braids"]),
            }
    for i, j in ZARISKI_C_PAIRS:
        doc = dict(zariski_c)
        doc["braids"] = [zariski_c["braids"][i], zariski_c["braids"][j]]
        out[f"zc24-{i}-{j}"] = doc
    return out


def build_exact_group(seed: int, out_dir: str, root: str) -> Workload:
    rng = random.Random(seed)
    variants = exact_variants(root)
    ops = [Op("scalar_group/group-exact", "group", "fixture:scalar_group", "scalar", ("--exact",))]
    inputs = [fixture_file(root, "scalar_group")]
    for cls, count in EXACT_PICKS.items():
        names = sorted(k for k in variants if k.startswith(cls + "-"))
        for name in rng.sample(names, count):
            doc = dict(variants[name])
            braids = list(doc["braids"])
            rng.shuffle(braids)  # a different generator order, the same group
            doc["braids"] = braids
            path = write_input(os.path.join(out_dir, f"{name}.json"), doc)
            inputs.append(path)
            ops.append(Op(f"{name}/group-exact", "group", path, cls, ("--exact",)))
    rng.shuffle(ops)
    splits = {"group_exact_s": ("exact", None)}
    splits.update({f"group_exact_s.{cls}": ("exact", cls) for cls in EXACT_PICKS})
    return Workload("exact_group", {"exact": ops}, splits, inputs)


BUILDERS = {
    "fixtures": build_fixtures,
    "transform_synth": build_transform_synth,
    "exact_group": build_exact_group,
}


def build(name: str, seed: int, out_dir: str, root: str) -> Workload:
    os.makedirs(out_dir, exist_ok=True)
    return BUILDERS[name](seed, out_dir, root)
