"""In-memory span tracer for the traced run.

`Tracer.installed(TARGETS)` replaces each public function under the name its
caller looks up (for example `radonmono.radon.phibar`) with a wrapper that
records a span: id, parent id, name, start, end and optional counters.
Spans stay in memory until the run writes them out.  A target whose module
or attribute no longer exists is skipped and reported as missing, so a
deleted function turns its metric into null instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _phibar_letters(args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs.get("word")
    letters = getattr(word, "letters", word)
    return {"letters": len(letters)}


def _trafodat_dims(args, kwargs, result):
    return {"dim_w": result.dim_w, "dim_nr": result.n * result.r}


def _closure_order(args, kwargs, result):
    return {"elements": result.order or 0}


# (module looked up by the caller, attribute, span name, counter function)
TARGETS = [
    ("radonmono.cli", "load_fundamental_data", "radon.load", None),
    ("radonmono.cli", "radon_transform", "radon.radon_transform", None),
    ("radonmono.cli", "radon_rank", "radon.radon_rank", None),
    ("radonmono.cli", "validate", "radon.validate", None),
    ("radonmono.cli", "check_relations", "radon.check_relations", None),
    ("radonmono.cli", "result_to_dict", "radon.result_to_dict", None),
    ("radonmono.cli", "dump_json", "radon.dump_json", None),
    ("radonmono.cli", "closure", "group.closure", _closure_order),
    ("radonmono.cli", "derived_series", "group.derived_series", None),
    ("radonmono.cli", "modular_group_analysis", "group.modular_group_analysis", None),
    ("radonmono.cli", "invariant_decomposition", "group.invariant_decomposition", None),
    ("radonmono.radon", "validate", "radon.validate", None),
    ("radonmono.radon", "radon_rank", "radon.radon_rank", None),
    ("radonmono.radon", "trafodat", "cocycle.trafodat", _trafodat_dims),
    ("radonmono.radon", "phibar", "cocycle.phibar", _phibar_letters),
    ("radonmono.radon", "act_on_tuple", "braid.act_on_tuple", None),
    ("radonmono.radon", "product_of", "linalg.product_of", None),
    ("radonmono.cocycle", "act_on_tuple", "braid.act_on_tuple", None),
    ("radonmono.cocycle", "kernel", "linalg.kernel", None),
    ("radonmono.cocycle", "image", "linalg.image", None),
    ("radonmono.cocycle", "intersect", "linalg.intersect", None),
    ("radonmono.cocycle", "extend_basis", "linalg.extend_basis", None),
    ("radonmono.group", "closure", "group.closure", _closure_order),
    ("radonmono.group", "spin", "group.spin", None),
    ("radonmono.group", "kernel", "linalg.kernel", None),
    ("radonmono.group", "image", "linalg.image", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, counters]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target for the duration of the block."""
        patched = []
        self.missing = []
        try:
            for module_name, attr, name, counter in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, original, counter))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    out = {rec[0]: rec[4] - rec[3] for rec in spans}
    for rec in spans:
        if rec[1] is not None:
            out[rec[1]] -= rec[4] - rec[3]
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) time, self time, counter sums.

    No traced function calls itself, so inclusive times do not double count.
    """
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for rec in spans:
        row = table[rec[2]]
        row["calls"] += 1
        row["self_s"] += selfs[rec[0]]
        row["total_s"] += rec[4] - rec[3]
        for key, value in (rec[5] or {}).items():
            row[key] = row.get(key, 0) + value
    return dict(table)


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: a child outside its parent, a bad parent id."""
    problems = []
    for rec in spans:
        sid, parent, name, start, end = rec[:5]
        if end is None or end < start:
            problems.append(f"span {sid} ({name}) has no valid end")
            continue
        if parent is None:
            continue
        if not 0 <= parent < sid:
            problems.append(f"span {sid} ({name}) has parent {parent} not before it")
            continue
        pstart, pend = spans[parent][3], spans[parent][4]
        if start < pstart or end > pend:
            problems.append(f"span {sid} ({name}) escapes its parent {parent}")
    return problems
