"""End-to-end and per-layer benchmark of the radonmono command line.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One process drives the public CLI
entry `radonmono.cli.main([...])` in-process on bundled or generated inputs
(workloads.py), writing every output to a file under .perfbench_out/ and
checking it with the oracle (oracle.py) outside the timed region.  It never
passes --jobs or --verify.

--trace 0 measures for --seconds seconds and reports the end-to-end metrics,
with pass_s and setup_s scaled to a reference machine speed (Calibrator).
--trace 1 alternates untraced and traced passes, then runs the layer
microbenchmarks (layers.py), and reports the per-layer metrics.  The metric
names and units are those declared in BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when some operation
printed an answer that contradicts the oracle; `failed` counts those plus
every operation that exited non-zero.  Earlier lines give provenance, the
per-name summary and the failures; the full record, spans included, goes to
.perfbench_out/<workload>-s<seed>-t<trace>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# End-to-end times are reported at the speed of a machine on which the
# calibration loop takes this long (see Calibrator).
CALIBRATION_REF_S = 0.006

import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics read off the spans of the traced passes, per pass.
# name -> (span name, field of the span summary)
SPAN_METRICS = {
    "cli.self_s": ("cli.main", "self_s"),
    "radon.load_s": ("radon.load", "self_s"),
    "radon.validate_s": ("radon.validate", "self_s"),
    "radon.radon_rank_s": ("radon.radon_rank", "self_s"),
    "radon.radon_transform_s": ("radon.radon_transform", "self_s"),
    "radon.result_to_dict_s": ("radon.result_to_dict", "self_s"),
    "cocycle.trafodat_s": ("cocycle.trafodat", "self_s"),
    "cocycle.phibar_s": ("cocycle.phibar", "self_s"),
    "cocycle.letters": ("cocycle.phibar", "letters"),
    "cocycle.dim_w": ("cocycle.trafodat", "dim_w"),
    "cocycle.dim_nr": ("cocycle.trafodat", "dim_nr"),
    "braid.act_on_tuple_s": ("braid.act_on_tuple", "self_s"),
    "linalg.kernel_s": ("linalg.kernel", "self_s"),
    "group.closure.self_s": ("group.closure", "self_s"),
    "group.closure.calls": ("group.closure", "calls"),
    "group.closure.elements": ("group.closure", "elements"),
    "group.derived_series.self_s": ("group.derived_series", "self_s"),
    "group.modular_group_analysis.self_s": ("group.modular_group_analysis", "self_s"),
    "group.invariant_decomposition.self_s": ("group.invariant_decomposition", "self_s"),
}
TRACE_METRICS = (
    "cocycle.phibar_us_per_letter",
    "trace.untraced_pass_s",
    "trace.traced_pass_s",
    "trace.overhead_s",
    "trace.span_self_sum_s",
    "trace.spans",
)
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
# The splits of the pass are reported with the per-layer metrics: the speed of
# the shared box changes by up to 1.5x for minutes at a time, which puts the
# run-to-run spread of short splits (check_s is 0.1 s) above any usable bound.
PER_LAYER = (*workloads.SPLITS, *layers.METRICS, *SPAN_METRICS, *TRACE_METRICS)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import radonmono from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "radonmono", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no radonmono sources under {SRC}")
    sys.path.insert(0, SRC)
    import radonmono
    import radonmono.cli

    if os.path.realpath(radonmono.__file__) != os.path.realpath(init):
        raise ProgramMissing(f"imported radonmono from {radonmono.__file__}, not {init}")
    return radonmono


def declared_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


# -- provenance -------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and fixtures, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "radonmono")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy

    blas = None
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
        "optimize": sys.flags.optimize,
    }


# -- machine speed --------------------------------------------------------------------

_CAL_RNG = random.Random(0)
_CAL_MATRIX = [[Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 9)) for _ in range(12)] for _ in range(12)]


def calibration_loop() -> float:
    """Wall time of a fixed 12x12 Fraction matrix product in pure Python, the
    kind of work the program's inner loops do.  It never calls radonmono."""
    a = _CAL_MATRIX
    t0 = time.perf_counter()
    [[sum(a[i][k] * a[k][j] for k in range(12)) for j in range(12)] for i in range(12)]
    return time.perf_counter() - t0


class Calibrator:
    """Tracks the machine's speed during a run.

    This shared 2-core VM switches between two speeds about 1.5x apart, for
    seconds to minutes at a time; no amount of work in one 30 s run averages
    that out.  The calibration loop runs before every operation and every
    set-up probe, outside their timings, and a phase's times are scaled by
    CALIBRATION_REF_S / (mean calibration time of that phase).  The raw
    times stay in result.json and on the `raw` output line.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        self.samples.append(calibration_loop())

    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


# -- set-up time ------------------------------------------------------------------


def measure_setup(workload: str, seed: int, out_dir: str, calibrator: Calibrator) -> list[float]:
    """Wall times of fresh processes that import radonmono and load the inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for k in range(SETUP_REPEATS):
        calibrator.sample()
        probe_dir = os.path.join(out_dir, f"setup-{k}")
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, probe, ROOT, workload, str(seed), probe_dir],
            check=True,
            cwd=ROOT,
            timeout=SETUP_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


# -- running operations ---------------------------------------------------------------


class Runner:
    """Runs operations through radonmono.cli.main and judges each output."""

    def __init__(self, rm, workload, seed: int, out_dir: str, calibrator: Calibrator):
        self.main = rm.cli.main
        self.calibrator = calibrator
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.expected = oracle.load_expected()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, dict] = {}

    def expectation(self, op):
        record = self.expected.get(self.workload.name, {})
        if self.workload.name == "transform_synth":
            record = record.get(str(self.seed), {})
        return record.get(op.key)

    def structure(self, op):
        if op.kind == "compute" and op.field is not None:
            return lambda text: oracle.compute_structure(json.loads(text), op.field, op.n, op.r)
        if op.kind == "group":
            fixture = op.input[len("fixture:"):] if op.input.startswith("fixture:") else None

            def check(text):
                group = json.loads(text)["group"]
                return oracle.group_structure(group) or oracle.paper_check(fixture, group)

            return check
        return None

    def run_op(self, op, tracer=None) -> float:
        out = os.path.join(self.out_dir, op.key.replace("/", "__") + ".out")
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        argv = op.argv(out)
        self.calibrator.sample()
        err = io.StringIO()
        root_span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with root_span:
                    rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        verdict = oracle.judge(op.kind, rc, out, self.expectation(op), self.structure(op))
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.wrong += verdict.wrong
            entry = self.failures.setdefault(
                op.key, {"count": 0, "reason": verdict.reason, "wrong": verdict.wrong,
                         "stderr": err.getvalue()[-500:]}
            )
            entry["count"] += 1
        return elapsed

    def run_round(self, name: str, tracer=None) -> dict[str | None, float]:
        """Summed op time per category, and the round total under None."""
        sums: dict[str | None, float] = {None: 0.0}
        for op in self.workload.rounds[name]:
            elapsed = self.run_op(op, tracer)
            sums[op.category] = sums.get(op.category, 0.0) + elapsed
            sums[None] += elapsed
        return sums

    def run_pass(self, tracer=None) -> dict[str, list[dict]]:
        """Every round once, as samples in the shape timed_passes returns."""
        return {name: [self.run_round(name, tracer)] for name in self.workload.rounds}


def pass_time(samples: dict[str, list[dict]]) -> float:
    """One pass: the sum over rounds of the median round time."""
    return sum(statistics.median(s[None] for s in values) for values in samples.values())


def splits(workload, samples: dict[str, list[dict]]) -> dict[str, float]:
    """Median over rounds of each split; 0.0 for splits of other workloads."""
    out = dict.fromkeys(workloads.SPLITS, 0.0)
    for name, (round_name, category) in workload.splits.items():
        out[name] = statistics.median(s.get(category, 0.0) for s in samples[round_name])
    return out


def fits(elapsed: float, last: float, seconds: float) -> bool:
    """Whether a pass that took `last` seconds may start: it must end no
    later than half its length past the deadline."""
    return elapsed + last / 2 <= seconds


def timed_passes(runner: Runner, seconds: float) -> dict[str, list[dict]]:
    """Run whole passes for about `seconds`; at least one.

    A run never stops between the rounds of a pass, so every operation runs
    equally often and failed / attempted is the same in every run.
    """
    samples: dict[str, list[dict]] = {name: [] for name in runner.workload.rounds}
    start = time.perf_counter()
    last = 0.0
    while not last or fits(time.perf_counter() - start, last, seconds):
        t0 = time.perf_counter()
        for name, values in runner.run_pass().items():
            samples[name] += values
        last = time.perf_counter() - t0
    return samples


def end_to_end(
    runner: Runner, samples: dict[str, list[dict]], setup: list[float], setup_cal: Calibrator
) -> tuple[dict, dict]:
    """The end-to-end metrics (times at the reference speed), the raw times and
    this workload's splits for the summary."""
    raw = {"setup_s": statistics.median(setup), "pass_s": pass_time(samples)}
    factors = {"setup_s": setup_cal.factor(), "pass_s": runner.calibrator.factor()}
    metrics = {name: value * factors[name] for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = splits(runner.workload, samples)
    detail = {
        "raw": raw,
        "speed_factors": factors,
        "calibration_s": {"setup": setup_cal.samples, "pass": runner.calibrator.samples},
        "splits": {name: named[name] for name in runner.workload.splits},
        "rounds": {name: len(values) for name, values in samples.items()},
    }
    return metrics, detail


# -- traced run -------------------------------------------------------------------------


def layer_inputs(rm, out_dir: str):
    """Generators for the group microbenchmarks (outside any timing)."""
    variants = workloads.exact_variants(ROOT)
    small = []
    for name in ("fl72-1113", "zc24-1-3"):
        path = workloads.write_input(os.path.join(out_dir, f"layer-{name}.json"), variants[name])
        small.append(list(rm.radon_transform(rm.load_fundamental_data(path)).gtilde))
    zc = rm.radon_transform(rm.load_fundamental_data(workloads.fixture_file(ROOT, "zariski_c")))
    return small, list(zc.gtilde)


def traced_run(rm, runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    # A first pass in a process is slower (lazy set-up, cold caches); without
    # this warm-up the overhead would come out negative.
    runner.run_pass()
    untraced, traced = [], []
    untraced_samples: dict[str, list[dict]] = {name: [] for name in runner.workload.rounds}
    start = time.perf_counter()
    pair = 0.0
    while not traced or fits(time.perf_counter() - start, pair, seconds):
        t0 = time.perf_counter()
        one = runner.run_pass()
        for name, values in one.items():
            untraced_samples[name] += values
        untraced.append(pass_time(one))
        with tracer.installed():
            traced.append(pass_time(runner.run_pass(tracer)))
        pair = time.perf_counter() - t0
    n = len(traced)
    table = spans.summarize(tracer.spans)
    # A span name is measurable while at least one of its functions exists.
    present = {"cli.main"} | {
        name for module, attr, name, _ in spans.TARGETS if f"{module}.{attr}" not in tracer.missing
    }
    metrics: dict = splits(runner.workload, untraced_samples)
    metrics.update(
        (metric, table.get(span_name, {}).get(key, 0) / n if span_name in present else None)
        for metric, (span_name, key) in SPAN_METRICS.items()
    )
    phibar = table.get("cocycle.phibar")
    metrics["cocycle.phibar_us_per_letter"] = (
        phibar["total_s"] / phibar["letters"] * 1e6 if phibar and phibar.get("letters") else None
    )
    self_sum = sum(row["self_s"] for row in table.values())
    metrics.update(
        {
            "trace.untraced_pass_s": statistics.median(untraced),
            "trace.traced_pass_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "trace.span_self_sum_s": self_sum / n,
            "trace.spans": len(tracer.spans) / n,
        }
    )
    small, zc = layer_inputs(rm, runner.out_dir)
    micro = layers.run_all(rm, seed, small, zc)
    errors = micro.pop("_errors", {})
    metrics.update(micro)
    detail = {
        "passes": {"untraced": untraced, "traced": traced},
        "span_table": {name: {k: v / n for k, v in row.items()} for name, row in sorted(table.items())},
        "missing_targets": tracer.missing,
        "layer_errors": errors,
        "nesting_problems": spans.check_nesting(tracer.spans)[:20],
    }
    with open(os.path.join(runner.out_dir, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "counters"], "spans": tracer.spans}, handle)
    return metrics, detail


# -- main ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="radonmono end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rm = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    units = declared_units()
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    setup_cal = Calibrator()
    setup = measure_setup(args.workload, args.seed, out_dir, setup_cal)
    workload = workloads.build(args.workload, args.seed, os.path.join(out_dir, "inputs"), ROOT)
    runner = Runner(rm, workload, args.seed, out_dir, Calibrator())
    if args.trace:
        values, detail = traced_run(rm, runner, args.seconds, args.seed)
        names = PER_LAYER
    else:
        samples = timed_passes(runner, args.seconds)
        values, detail = end_to_end(runner, samples, setup, setup_cal)
        detail["samples"] = samples
        names = END_TO_END
    detail["setup_samples_s"] = setup

    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name), "unit": units[name]} for name in names},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "failures": runner.failures,
        **detail,
        "result": result,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if not args.trace:
        factors = detail["speed_factors"]
        print(f"raw (speed factors {json.dumps(factors, sort_keys=True)}) " + json.dumps(detail["raw"], sort_keys=True))
        print("splits " + json.dumps(detail["splits"], sort_keys=True))
    print(f"fail_frac {record['fail_frac']:.6f} ({runner.failed}/{runner.attempted})")
    for key, entry in sorted(runner.failures.items()):
        print(f"failure {key} x{entry['count']}: {entry['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
