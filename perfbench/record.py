"""Record the oracle's expected values (expected.json) from the current sources.

    python3 perfbench/record.py [--synth-seeds 0-19]

Run once at the commit whose answers are trusted; later commits are judged
against the file.  It records every fixture operation, every exact_group
variant and the transform_synth inputs of the given seeds.  An operation
that exits non-zero is recorded as {"exit": code}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from radonmono.cli import main as cli_main  # noqa: E402

import oracle  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402


def record_op(kind: str, argv: list[str], work: str):
    out = os.path.join(work, "out")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main([kind, *argv, "--output", out])
    if rc != 0:
        return {"exit": rc}
    with open(out, encoding="utf-8") as handle:
        return oracle.content(kind, handle.read())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--synth-seeds", default="0-19", type=seed_range)
    args = parser.parse_args()
    expected: dict = {"fixtures": {}, "exact_group": {}, "transform_synth": {}}
    work = os.path.join(ROOT, ".perfbench_out", "record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for fx in workloads.FIXTURES:
        for kind in ("rank", "compute", "check", "group"):
            expected["fixtures"][f"{fx}/{kind}"] = record_op(kind, ["--input", f"fixture:{fx}"], work)
    expected["exact_group"]["scalar_group/group-exact"] = record_op(
        "group", ["--input", "fixture:scalar_group", "--exact"], work
    )
    for name, doc in workloads.exact_variants(ROOT).items():
        path = workloads.write_input(os.path.join(work, f"{name}.json"), doc)
        expected["exact_group"][f"{name}/group-exact"] = record_op("group", ["--input", path, "--exact"], work)
        print(name, expected["exact_group"][f"{name}/group-exact"].get("order"), flush=True)
    for seed in args.synth_seeds:
        per_seed = {}
        for name, path in synth.write_inputs(seed, os.path.join(work, f"synth-{seed}")):
            per_seed[f"{name}/compute"] = record_op("compute", ["--input", path], work)
        expected["transform_synth"][str(seed)] = per_seed
        print("synth seed", seed, flush=True)
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
