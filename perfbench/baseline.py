"""Re-measure the ROADMAP baseline rows (open item 1) with this harness.

    python3 perfbench/baseline.py [--repeats 1]

Times each library stage once per repeat, in-process, and prints the listed
value, the measured median and their ratio.  One repeat takes about a minute
and a half on a 2-core x86 box; the exact derived series dominates.  Prints
one JSON line at the end with the measured medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import radonmono as rm  # noqa: E402

# (fixture, stage, listed seconds)
ROWS = [
    ("zariski_c", "radon_transform", 0.19),
    ("zariski_c", "exact closure (order 648)", 9.6),
    ("zariski_c", "exact derived_series", 38.0),
    ("zariski_c", "modular analysis", 0.04),
    ("zariski_cprime", "radon_transform", 0.23),
    ("zariski_cprime", "modular analysis [7, 13], order only", 2.3),
    ("zariski_cprime", "modular analysis [7, 13], with derived series", 6.5),
    ("zariski_cprime", "invariant_decomposition", 1.3),
]


def stages(fixture: str):
    fd = rm.load_fundamental_data(rm.fixture_path(fixture))
    gens = list(rm.radon_transform(fd).gtilde)
    return {
        "radon_transform": lambda: rm.radon_transform(fd),
        "exact closure (order 648)": lambda: rm.closure(gens),
        "exact derived_series": lambda: rm.derived_series(gens),
        "modular analysis": lambda: rm.modular_group_analysis(gens, [7, 13]),
        "modular analysis [7, 13], order only": lambda: rm.modular_group_analysis(gens, [7, 13], with_derived=False),
        "modular analysis [7, 13], with derived series": lambda: rm.modular_group_analysis(gens, [7, 13]),
        "invariant_decomposition": lambda: rm.invariant_decomposition(gens),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()
    funcs = {fx: stages(fx) for fx in ("zariski_c", "zariski_cprime")}
    measured = {}
    print(f"{'fixture':<15} {'stage':<48} {'listed':>8} {'measured':>9} {'ratio':>6}")
    for fixture, stage, listed in ROWS:
        samples = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            funcs[fixture][stage]()
            samples.append(time.perf_counter() - t0)
        value = statistics.median(samples)
        measured[f"{fixture}: {stage}"] = value
        print(f"{fixture:<15} {stage:<48} {listed:>7.2f}s {value:>8.2f}s {value / listed:>6.2f}", flush=True)
    print(json.dumps(measured))
    return 0


if __name__ == "__main__":
    sys.exit(main())
