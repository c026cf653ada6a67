#!/usr/bin/env python3
"""Benchmark harness for klocal.

    python3 perfbench/run.py --workload spread --seed 1 --seconds 36 --trace 0

Run from the root of a klocal checkout; the package is imported from
``src/`` and nothing needs installing.  Each workload (see
``workloads.py``) is a fixed batch of CLI subcommands and scripts, each
run in a fresh child process, sequentially, with BLAS pinned to one
thread.  Passes over the batch repeat while another pass fits in
``--seconds``.

``--trace 0`` reports the end-to-end metrics: median pass wall time,
peak RSS of the largest child (from ``os.wait4``), median set-up time
(writing the seeded specs through ``klocal.models``) and median
``import klocal`` time.  The harness pauses each child about once a
second to time ``probe.Probe`` on the same CPU, and scales every time
to the probe's reference speed; this takes out most of the drift in
speed of a shared machine (README.md).
``--trace 1`` runs every invocation twice, once plain and once under
``tracer.py``, requires byte-identical reports, and reports the
per-layer spans and counters plus the tracing overhead.  ``--workload
all`` runs every workload in turn.

Every report is checked (``workloads.check``); the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 on a completed run, 2 when the checkout lacks
klocal's sources.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import workloads  # noqa: E402  (after pinning BLAS threads for this process too)
from probe import Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_S_PER_PASS = 0.25
IMPORTS_PER_PASS = 3
RUN_DEADLINE_S = 170.0
SEGMENT_S = 1.0
# Median probe time on the reference machine (2-core KVM guest, Xeon at
# 2.1 GHz); end-to-end times are reported at that machine's speed.
PROBE_REF_S = 0.020

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "import_s": "s"}

CALLS_AND_SELF = (
    "pauli.commutator", "pauli.canonical", "pauli.prune", "truncation.hadamard",
    "oracle.to_dense", "oracle.eigh", "oracle.operator_norm_exact", "oracle.heisenberg_evolve",
    "oracle.spectral_norm", "oracle.pauli_coefficients", "oracle.energy_block_norm",
    "layers.verify", "models.load_spec", "models.structural_constants",
)
SELF_ONLY = (
    "concentration.observable", "concentration.evolve_state", "concentration.tail_profile",
    "concentration.band_matrix", "concentration.topo_error",
    "layers.discretize", "layers.pack_layers", "layers.reconstruct", "cli.render",
)
COUNTERS = {
    "pauli.commutator.pairs": "count", "pauli.commutator.out_terms": "count",
    "pauli.canonical.terms_in": "count", "pauli.prune.dropped_terms": "count",
    "pauli.prune.dropped_mass": "norm", "truncation.witness_terms": "count",
    "oracle.to_dense.terms": "count", "layers.units": "count", "layers.layer_count": "count",
    "models.load_spec.terms": "count",
}
COMMANDS = ("truncate", "verify", "concentrate", "decompose", "spreading_profile")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in CALLS_AND_SELF:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for span in SELF_ONLY:
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({
        "pauli.commutator.ns_per_pair": "ns", "pauli.commutator.yield": "ratio",
        "truncation.levels": "count", "truncation.max_level_terms": "count",
    })
    for command in COMMANDS:
        units[f"{'scripts' if command == 'spreading_profile' else 'cli'}.{command}.wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "threads": PINNED_THREADS,
    }


class Child:
    """Runs child processes, through ``launcher.py``, with pinned BLAS
    threads and a run-wide deadline.

    With a probe, a child is paused every ``SEGMENT_S`` seconds while the
    probe samples the machine's speed on the same CPU, and each segment's
    time is scaled by ``PROBE_REF_S`` over the mean probe time at its ends.
    """

    def __init__(self, deadline: float, probe: Probe | None = None):
        self.deadline = deadline
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def _event(self) -> dict:
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("launcher.py ended unexpectedly")
        return json.loads(line)

    def speed(self, before: float) -> tuple[float, float]:
        """(probe time now, scale for a stretch that began with probe time ``before``)."""
        after = self.probe.sample()
        return after, 2.0 * PROBE_REF_S / (before + after)

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """Return (exit code, wall s, scaled wall s, peak RSS MB) of one child."""
        probed = self.probe.sample() if self.probe else 0.0
        wall = scaled = 0.0
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT), "log": str(log)}
        self.launcher.stdin.write(json.dumps(request).encode() + b"\n")
        pid = self._event()["pid"]
        try:
            while True:
                began = time.perf_counter()
                limit = max(self.deadline - time.monotonic(), 0.0)
                ready, _, _ = select.select([self.launcher.stdout], [], [], min(limit, SEGMENT_S) if self.probe else limit)
                segment = time.perf_counter() - began
                wall += segment
                if not ready:
                    over = time.monotonic() >= self.deadline
                    try:
                        os.kill(pid, signal.SIGKILL if over else signal.SIGSTOP)
                    except ProcessLookupError:
                        pass  # ended meanwhile; its exit event follows
                event = self._event()
                if self.probe:
                    probed, scale = self.speed(probed)
                    scaled += segment * scale
                if "code" in event:
                    return event["code"], wall, scaled, event["maxrss_kb"] / 1024.0
                os.kill(pid, signal.SIGCONT)
        except BaseException:
            # Never leave a paused or running child behind.
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            raise

    def invoke(self, inv: workloads.Invocation, out: Path, trace: Path | None = None):
        entry = [inv.script] if inv.script else ["-m", "klocal.cli"]
        if trace is not None:
            entry = [str(HERE / "tracer.py"), str(trace), "script" if inv.script else "cli"] + (
                [inv.script] if inv.script else []
            )
        return self.run([sys.executable, *entry, *inv.argv(out)], out.with_suffix(".log"))


class Tally:
    """Attempted and failed checks, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:3])


def paced(seconds: float):
    """Yield once per pass while another pass as long as the longest so far fits in ``seconds``."""
    start = time.monotonic()
    longest = 0.0
    while longest == 0.0 or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        yield
        longest = max(longest, time.monotonic() - began)


def check_report(inv: workloads.Invocation, code: int, out: Path, first: dict[str, bytes]) -> list[str]:
    """Full check on an invocation's first report; later reports must equal it byte for byte."""
    report = out.read_bytes() if out.exists() else b""
    if inv.name not in first:
        first[inv.name] = report
        return workloads.check(inv, code, out)
    problems = [f"exit code {code}"] if code else []
    if report != first[inv.name]:
        problems.append("report differs from the first pass")
    return problems


def setup(workload: str, seed: int, work: Path, min_seconds: float) -> tuple[list, list[float]]:
    """Write the seeded specs at least once and for at least ``min_seconds``."""
    times: list[float] = []
    while not times or sum(times) < min_seconds:
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        invocations = workloads.write_specs(workload, seed, work)
        times.append(time.perf_counter() - start)
    return invocations, times


def measure(workload: str, seed: int, seconds: float, child: Child, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, with every time scaled to the probe's reference speed."""
    work = WORK / workload
    invocations, _ = setup(workload, seed, work, 0.0)
    import_argv = [sys.executable, "-c", "import klocal"]
    child.run(import_argv, work / "import.log")  # fills the bytecode cache
    samples: dict[str, list[float]] = {
        "wall_s": [], "peak_rss_mb": [], "setup_s": [], "import_s": [], "unscaled_wall_s": []
    }
    first: dict[str, bytes] = {}
    for _ in paced(seconds):
        probed = child.probe.sample()
        setup_times = setup(workload, seed, work, SETUP_S_PER_PASS)[1]
        _, scale = child.speed(probed)
        samples["setup_s"].extend(t * scale for t in setup_times)
        samples["import_s"].extend(child.run(import_argv, work / "import.log")[2] for _ in range(IMPORTS_PER_PASS))
        wall = scaled = largest = 0.0
        for inv in invocations:
            out = work / f"{inv.name}.out"
            code, inv_wall, inv_scaled, peak = child.invoke(inv, out)
            wall += inv_wall
            scaled += inv_scaled
            largest = max(largest, peak)
            tally.add(inv.name, check_report(inv, code, out, first))
        samples["wall_s"].append(scaled)
        samples["unscaled_wall_s"].append(wall)
        samples["peak_rss_mb"].append(largest)
    values = {k: statistics.median(samples[k]) for k in END_TO_END}
    return values, samples


def measure_traced(workload: str, seed: int, seconds: float, child: Child, tally: Tally) -> tuple[dict, dict]:
    work = WORK / workload
    invocations, _ = setup(workload, seed, work, 0.0)
    first: dict[str, bytes] = {}
    passes = []
    for _ in paced(seconds):
        plain_walls, traced_walls, traces = {}, {}, []
        for inv in invocations:
            out, traced_out = work / f"{inv.name}.out", work / f"{inv.name}.traced.out"
            trace_file = work / f"{inv.name}.trace.json"
            code, plain_walls[inv.name], _, _ = child.invoke(inv, out)
            tally.add(inv.name, check_report(inv, code, out, first))
            traced_code, traced_walls[inv.name], _, _ = child.invoke(inv, traced_out, trace_file)
            problems = [f"traced exit code {traced_code}"] if traced_code else []
            if not (out.exists() and traced_out.exists() and out.read_bytes() == traced_out.read_bytes()):
                problems.append("traced report is not byte-identical to the untraced one")
            try:
                traces.append(json.loads(trace_file.read_text()))
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
            tally.add(inv.name + ".traced", problems)
        passes.append(_layer_metrics(invocations, plain_walls, traced_walls, traces))
    for other in passes[1:]:
        moved = [k for k, v in other["counts"].items() if v != passes[0]["counts"][k]]
        tally.add("determinism", [f"counts changed between passes: {moved}"] if moved else [])
    tally.add("reference_counts", workloads.check_counts(workload, passes[0]["counts"], passes[0]["levels"]))
    samples = {name: [p["counts"].get(name, p["times"].get(name)) for p in passes] for name in per_layer_units()}
    # Counts repeat exactly (checked above); times are medians.
    return {**{k: statistics.median(v) for k, v in samples.items()}, **passes[0]["counts"]}, samples


def _layer_metrics(invocations, plain_walls, traced_walls, traces) -> dict:
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    levels: list[int] = []
    for trace in traces:
        for name, stat in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += stat["calls"]
            acc[1] += stat["self_s"]
        for name, value in trace["counters"].items():
            counters[name] += value
        levels.extend(trace["levels"])
    counts, times = {}, {}
    for span in CALLS_AND_SELF:
        counts[f"{span}.calls"] = spans.get(span, [0, 0.0])[0]
    for span in CALLS_AND_SELF + SELF_ONLY:
        times[f"{span}.self_s"] = spans.get(span, [0, 0.0])[1]
    counts.update(counters)
    counts["truncation.levels"] = len(levels)
    counts["truncation.max_level_terms"] = max(levels, default=0)
    pairs = counters["pauli.commutator.pairs"]
    times["pauli.commutator.ns_per_pair"] = 1e9 * times["pauli.commutator.self_s"] / pairs if pairs else 0.0
    counts["pauli.commutator.yield"] = counters["pauli.commutator.out_terms"] / pairs if pairs else 0.0
    for command in COMMANDS:
        prefix = "scripts" if command == "spreading_profile" else "cli"
        times[f"{prefix}.{command}.wall_s"] = sum(
            plain_walls[inv.name] for inv in invocations if inv.command == command
        )
    times["trace.overhead"] = sum(traced_walls.values()) / sum(plain_walls.values()) - 1.0
    return {"counts": counts, "times": times, "levels": levels}


def run_workload(workload: str, args, tally: Tally, probe: Probe) -> dict:
    with Child(time.monotonic() + RUN_DEADLINE_S, probe) as child:
        if args.trace:
            values, samples = measure_traced(workload, args.seed, args.seconds, child, tally)
            units = per_layer_units()
        else:
            values, samples = measure(workload, args.seed, args.seconds, child, tally)
            units = END_TO_END
    print(f"{workload} (seed {args.seed}, trace {args.trace}):")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>14.6g} {unit:6s} median of {len(samples[name])}")
    if "unscaled_wall_s" in samples:
        print(f"  times above are scaled to the reference machine speed; unscaled wall_s "
              f"{statistics.median(samples['unscaled_wall_s']):.6g} s")
    return {"values": values, "samples": samples, "units": units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full record (samples, environment) as JSONL")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/klocal/cli.py", "scripts/spreading_profile.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"run from the root of a klocal checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import klocal  # noqa: F401  (set-up timing excludes the first import)

    # Every process of the run shares one CPU, so that the speed probe
    # sees the speed of the CPU the measured children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    print("environment:", json.dumps(env))
    tally = Tally()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    probe = None if args.trace else Probe()
    results = {name: run_workload(name, args, tally, probe) for name in names}
    print(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} checks failed)")
    for problem in tally.problems[:20]:
        print("  FAIL", problem)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                                 "environment": env, "workloads": results}) + "\n")
    metrics = {
        (name if len(names) == 1 else f"{workload}.{name}"): {"value": value, "unit": res["units"][name]}
        for workload, res in results.items()
        for name, value in res["values"].items()
    }
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
