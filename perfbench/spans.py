"""Spans and counters recorded around calls into each ``dischar`` layer.

Wrappers are installed from the benchmark's side: every ``dischar.*``
module namespace that bound a traced function by name gets the wrapper in
its place, so calls between modules (``homology`` calling ``act``,
``filtration_oracle`` calling ``bwb_cohomology``) are seen as well.  The
program itself is not changed.

Functions called very often (``act``, ``partition``, ``bwb_cohomology``)
are only counted: a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (layer module, function) pairs that get a span named "<layer>.<function>"
TIMED = (
    ("rootdata", "build_root_system"),
    ("weyl", "generate"),
    ("realform", "weyl_k"),
    ("orbits", "enumerate_closed_orbits"),
    ("homology", "kostant_table"),
    ("homology", "kostant_via_bgg"),
    ("homology", "schmid_table"),
    ("homology", "schmid_via_trauber"),
    ("characters", "weyl_denominator"),
    ("characters", "weyl_numerator"),
    ("characters", "discrete_numerator"),
    ("characters", "freudenthal_character"),
    ("blattner", "ktype_table"),
    ("blattner", "blattner_multiplicity"),
    ("blattner", "filtration_oracle"),
    ("cli", "run"),
)
COUNTED = (
    ("weyl", "act"),
    ("blattner", "partition"),
    ("blattner", "bwb_cohomology"),
)
# functions whose first argument is the grading that owns the partition memo
MEMO_OWNERS = ("ktype_table", "blattner_multiplicity", "filtration_oracle")
# the largest value seen in a pass, recorded from return values and the memo
PEAKS = ("weyl.order", "realform.wk_order", "orbits.count", "blattner.partition_states")


class Tracer:
    """In-memory spans ``[id, parent, job, name, start, end]``, counts and peaks."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.job: int | str | None = None  # "setup" for a traced set-up
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self._oracle_nu = None

    def take(self) -> dict:
        """Return everything recorded since the last call and start afresh."""
        dump = {"spans": list(self.spans), "counts": dict(self.counts), "peaks": dict(self.peaks)}
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        return dump

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.job, name, time.perf_counter() - self.origin, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter() - self.origin
        self._stack.pop()

    def adopt(self, dump: dict) -> None:
        """Add a dump from another process under the span open here."""
        offset = len(self.spans)
        here = self._stack[-1] if self._stack else None
        for sid, parent, _job, name, start, end in dump["spans"]:
            self.spans.append(
                [sid + offset, here if parent is None else parent + offset,
                 self.job, name, start, end]
            )
        self.counts.update(dump["counts"])
        for name, value in dump["peaks"].items():
            self.peak(name, value)

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, 0))

    def _timed(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            if fn.__name__ == "filtration_oracle":
                self._oracle_nu = args[3] if len(args) > 3 else kwargs["nu"]
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self._observe(fn.__name__, args, result)
            return result

        return wrapper

    def _observe(self, fn_name: str, args: tuple, result) -> None:
        if fn_name == "generate":
            self.peak("weyl.order", result.order)
        elif fn_name == "weyl_k":
            self.peak("realform.wk_order", result.order)
        elif fn_name == "enumerate_closed_orbits":
            self.peak("orbits.count", len(result))
        elif fn_name in MEMO_OWNERS:
            memo = getattr(args[0], "_partition_cache", None)
            if memo is not None:
                self.peak("blattner.partition_states", len(memo))

    def _counted(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}.calls"
        counts = self.counts
        if fn.__name__ != "bwb_cohomology":
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def bwb_wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            # a hit is a twist whose lowest K-weight is the nu being tested
            if result is not None and result[1] == self._oracle_nu:
                counts["blattner.bwb_hits"] += 1
            return result

        return bwb_wrapper

    def _section(self, name: str, check):
        def wrapper(ctx):
            sid = self.open(f"verify.{name}")
            try:
                return check(ctx)
            finally:
                self.close(sid)

        return wrapper

    def install(self) -> None:
        """Replace every binding of a traced function in the dischar modules."""
        importlib.import_module("dischar.cli")  # imports every layer
        for layer, fn_name in TIMED + COUNTED:
            original = getattr(importlib.import_module(f"dischar.{layer}"), fn_name)
            if (layer, fn_name) in TIMED:
                wrapper = self._timed(layer, original)
            else:
                wrapper = self._counted(layer, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "dischar" and not mod_name.startswith("dischar."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        # run_verify reads SECTIONS at call time
        verify = importlib.import_module("dischar.verify")
        verify.SECTIONS = tuple(
            (name, self._section(name, check)) for name, check in verify.SECTIONS
        )


def span_self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    child_time = [0.0] * len(spans)
    for _sid, parent, _job, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[sid] for sid, _p, _j, _n, start, end in spans]


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, span_self_times(spans)):
        totals[span[3]] += own
    return dict(totals)
