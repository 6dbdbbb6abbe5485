"""Set-up probe: a fresh process imports radonmono, then generates and loads
one workload's inputs.  run.py times this whole process for `setup_s`.

Usage: python3 perfbench/setup_probe.py ROOT WORKLOAD SEED OUT_DIR
"""

import os
import sys

if __name__ == "__main__":
    root, workload, seed, out_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    from radonmono import load_fundamental_data

    import workloads

    for path in workloads.build(workload, seed, out_dir, root).inputs:
        load_fundamental_data(path)
