"""Run one workload of the dischar benchmark and print its metrics.

    python3 perfbench/run.py --workload group-tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``dischar`` is imported from its ``src/``.
Every output is checked.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the per-layer metrics of a traced pass, and the
spans are written to ``.perfbench_out/``.  End-to-end times are scaled to
a reference (see ``REFERENCE_S``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checkout
import spans

SETUP_SECONDS = 0.5
# the highest percentile reported needs ten samples beyond it
P90_MIN_SAMPLES = 100
# The host's speed swings by up to 1.7x, in phases of seconds to minutes,
# and the share of slow time changes from run to run: unscaled wall_s of
# ten runs of the same code spread by up to 0.28 of its median.  So the
# run starts a bare interpreter (the reference, which touches nothing in
# the checkout) at least every REFERENCE_EVERY_S, and reports every time
# of a round (its set-ups and pass) scaled by REFERENCE_S over the round's
# median reference: seconds on a host where the reference takes
# REFERENCE_S.  Both numbers are fixed, so a change to the program moves
# the reported times as it moves the measured ones.
REFERENCE_S = 0.05
REFERENCE_EVERY_S = 0.25
REFERENCE_ARGV = (sys.executable, "-I", "-c", "pass")


class Host:
    """Reference samples of the current round and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        subprocess.run(REFERENCE_ARGV, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.last = time.perf_counter()
        self.samples.append(self.last - began)
        self.spent += self.last - began

    def due(self) -> None:
        """Take a sample if the last one ended ``REFERENCE_EVERY_S`` ago."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def take_scale(self) -> tuple[float, float]:
        """The round's scale and median reference; starts the next round."""
        median = statistics.median(self.samples)
        self.samples = []
        return REFERENCE_S / median, median


class Pass:
    """Job latencies and failures of one pass over a workload's job list."""

    def __init__(self, host: Host, tracer=None) -> None:
        self.host = host
        self.tracer = tracer
        self.durations: list[tuple[str, float]] = []
        self.failed: list[str] = []
        self.wall = 0.0
        self.setups: list[float] = []
        self.scale = 1.0
        self.reference = 0.0
        self.trace: dict | None = None

    def job(self, label: str, fn, check):
        """Time ``fn``, then count it failed if it raises or ``check`` rejects its output."""
        self.host.due()
        if self.tracer is not None:
            self.tracer.job = len(self.durations)
            sid = self.tracer.open("job")
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing job is counted and the pass goes on
            traceback.print_exc()
            result = None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.close(sid)
        self.durations.append((label, elapsed))
        try:
            ok = result is not None and bool(check(result))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed.append(label)
            print(f"perfbench: job {label!r} gave a wrong result", file=sys.stderr)
        return result


def timed_setup(workload) -> float:
    began = time.perf_counter()
    workload.setup()
    return time.perf_counter() - began


def run_passes(workload, seconds: float, tracer=None, setups: bool = False) -> list[Pass]:
    """Rounds of set-ups and one pass until another would overrun ``seconds``; at least one.

    With ``setups``, each pass starts with at least ``SETUP_SECONDS`` of
    timed set-ups, so the set-up samples spread over the whole run.  Traced
    in-process passes start with a traced set-up instead.  The pass's
    ``wall`` leaves out the time of reference samples.
    """
    host = Host()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        host.sample()
        current = Pass(host, tracer)
        if setups:
            while sum(current.setups) < SETUP_SECONDS:
                host.due()
                current.setups.append(timed_setup(workload))
        elif tracer is not None and not workload.subprocesses:
            tracer.job = "setup"
            workload.setup()
        began, spent = time.perf_counter(), host.spent
        workload.run_pass(current.job)
        current.wall = time.perf_counter() - began - (host.spent - spent)
        current.scale, current.reference = host.take_scale()
        if tracer is not None:
            current.trace = tracer.take()
        passes.append(current)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(workload, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    timed_setup(workload)  # warm-up: the first set-up also pays for imports
    workload.plan()
    passes = run_passes(workload, seconds, setups=True)

    setups = [d * p.scale for p in passes for d in p.setups]
    latencies = [d * p.scale for p in passes for _label, d in p.durations]
    who = resource.RUSAGE_CHILDREN if workload.subprocesses else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "jobs_per_s": (len(latencies) / sum(p.wall * p.scale for p in passes), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"samples: {len(passes)} passes, {len(latencies)} jobs, {len(setups)} set-ups",
        f"times are scaled to a {REFERENCE_S} s reference; the reference took "
        + ", ".join(f"{p.reference:.4f}" for p in passes) + " s (round medians)",
        f"unscaled medians: wall {statistics.median(p.wall for p in passes):.4f} s, "
        f"set-up {statistics.median(d for p in passes for d in p.setups):.4f} s",
    ]
    if len(latencies) < P90_MIN_SAMPLES:
        notes.append(f"job_p90_s rests on {len(latencies)} < {P90_MIN_SAMPLES} samples")
    if hasattr(workload, "rates"):
        durations: dict[str, list[float]] = {}
        for p in passes:
            for label, d in p.durations:
                durations.setdefault(label, []).append(d * p.scale)
        for name, value in workload.rates(durations).items():
            notes.append(f"{name} = {value:.6g} 1/s")
    return metrics, passes, notes


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (set-up included for in-process workloads)."""
    from dischar.verify import SECTIONS

    own = spans.self_times(dump["spans"])
    counts, peaks = dump["counts"], dump["peaks"]
    values: dict[str, float] = {}
    for layer, fn in spans.TIMED:
        values[f"{layer}.{fn}.s"] = own.get(f"{layer}.{fn}", 0.0)
    for name, _check in SECTIONS:
        values[f"verify.{name}.s"] = own.get(f"verify.{name}", 0.0)
    for name in spans.PEAKS:
        values[name] = peaks.get(name, 0)
    for layer, fn in spans.COUNTED:
        values[f"{layer}.{fn}.calls"] = counts.get(f"{layer}.{fn}.calls", 0)
    values["blattner.blattner_multiplicity.calls"] = sum(
        1 for span in dump["spans"] if span[3] == "blattner.blattner_multiplicity"
    )
    bwb = counts.get("blattner.bwb_cohomology.calls", 0)
    values["blattner.bwb_hit_ratio"] = counts.get("blattner.bwb_hits", 0) / bwb if bwb else 0.0
    # a command's job span minus the in-process cli.run under it
    own_times = spans.span_self_times(dump["spans"])
    commands = {span[1] for span in dump["spans"] if span[3] == "cli.run"}
    values["cli.startup_s"] = statistics.median(own_times[sid] for sid in commands)
    return values


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, list[Pass], list[str]]:
    workload.setup()
    workload.plan()
    untraced = run_passes(workload, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    workload.tracer = tracer
    traced = run_passes(workload, seconds / 2, tracer)

    per_pass = [layer_metrics(p.trace) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        if name.endswith("ratio"):
            unit = "ratio"
        metrics[name] = (statistics.median(values[name] for values in per_pass), unit)
    untraced_wall = statistics.median(p.wall * p.scale for p in untraced)
    traced_wall = statistics.median(p.wall * p.scale for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    notes = [
        f"samples: {len(untraced)} untraced and {len(traced)} traced passes",
        f"wall_s untraced {untraced_wall:.4f} s, traced {traced_wall:.4f} s",
    ]
    ran_blattner = any(values["blattner.blattner_multiplicity.calls"] for values in per_pass)
    if ran_blattner and not any("blattner.partition_states" in p.trace["peaks"] for p in traced):
        notes.append("blattner.partition_states: absent (the grading has no partition memo)")

    out_dir = checkout.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, p in enumerate(traced):
            for sid, parent, job, name, start, end in p.trace["spans"]:
                handle.write(json.dumps({"pass": index, "id": sid, "parent": parent, "job": job,
                                         "name": name, "start": start, "end": end}) + "\n")
            handle.write(json.dumps({"pass": index, "counts": p.trace["counts"],
                                     "peaks": p.trace["peaks"]}) + "\n")
    notes.append(f"spans written to {path.relative_to(checkout.ROOT)}")
    return metrics, untraced + traced, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("group-tables", "ktype-box", "cli-ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout.use_src()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, passes, notes = per_layer(workload, args.seconds, args.seed)
    else:
        metrics, passes, notes = end_to_end(workload, args.seconds)

    attempted = sum(len(p.durations) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"info: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"src non-blank lines {checkout.src_nonblank_lines()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
