"""preflogic benchmark: one seeded workload, timed, checked, reported as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; preflogic is imported from its
``src`` directory.  Load is one client in one thread, as a closed loop:
each operation starts when the previous one returns.  Every output is
checked against ``oracle.py``, which does not use the package.

--trace 0 times whole operations for S seconds of operation time, and
prints the end-to-end metrics.  --trace 1 runs a fixed, seeded set of
blocks twice, wrapped and unwrapped, and prints per-layer calls, self
time and sizes, plus the cost of the wrappers.  The last line of stdout
is the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_RUNS = 31  # fresh processes timed for setup_s, after one untimed run that writes bytecode
SETUP_CODE = ("import time; t = time.perf_counter(); import preflogic; preflogic.load_catalog(); "
              "print(time.perf_counter() - t)")


class DeadlineMiss(BaseException):
    """Raised into an operation by the in-process interval timer.  A
    BaseException, so the package's own handlers cannot swallow it."""


class LatencySample:
    """Uniform subsample of operation latencies in fixed memory: every
    operation is kept until the buffer fills, then every other one is
    dropped and the keep-stride doubles."""

    def __init__(self, capacity: int = 1 << 17):
        self.buf = array("d", bytes(8 * capacity))
        self.size = 0
        self.stride = 1
        self.seen = 0

    def add(self, seconds: float):
        if self.seen % self.stride == 0:
            if self.size == len(self.buf):
                self.buf[: self.size // 2] = self.buf[0: self.size: 2]
                self.size //= 2
                self.stride *= 2
            if self.seen % self.stride == 0:
                self.buf[self.size] = seconds
                self.size += 1
        self.seen += 1

    def quantile(self, q: float) -> tuple[float, int]:
        """(q-quantile, samples beyond it)."""
        values = sorted(self.buf[: self.size])
        k = min(len(values) - 1, int(q * len(values)))
        return values[k], len(values) - 1 - k


class Loop:
    """Closed-loop runner: times each operation, then checks the block.
    Keeps, per block, (operations, their ns, loss values, their ns, median
    operation ns): medians over blocks are steady when other tenants of the
    machine slow part of a run."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.latency = LatencySample()
        self.attempted = self.failed = self.misses = self.mismatched = 0
        self.op_ns = self.eval_ns = self.evals = 0
        self.blocks: list[tuple[int, int, int, int, float]] = []
        self.failures: dict[str, int] = {}
        self.mismatches: list[str] = []
        self._armed = False
        if wl.deadline:
            signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self._armed:
            raise DeadlineMiss()

    def _mismatch(self, what: str):
        self.mismatched += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(what)

    def _fail(self, op, why: str):
        self.failed += 1
        key = f"{op[0]}: {why}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def block(self, index: int, counts):
        ops = self.wl.block(workloads.rng_for(self.seed, self.wl.name, index), index)
        results, lat = [], []
        op_ns, evals, eval_ns = self.op_ns, self.evals, self.eval_ns
        gc.collect()  # every block starts from the same collector state, untimed
        clock = time.perf_counter_ns
        deadline = self.wl.deadline
        for op in ops:
            outcome = error = None
            if deadline:
                self._armed = True
                signal.setitimer(signal.ITIMER_REAL, deadline)
            t0 = clock()
            try:
                try:
                    outcome = self.wl.run(op)
                finally:
                    self._armed = False  # an alarm before this line still lands below
            except DeadlineMiss:
                outcome, error = None, "deadline miss"
            except Exception as exc:  # any raised error fails the operation
                error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.op_ns += t1 - t0
            self.latency.add((t1 - t0) / 1e9)
            lat.append(t1 - t0)
            self.attempted += 1
            if outcome is None:
                self.misses += error == "deadline miss"
                self._fail(op, error)
                continue
            if outcome.evals:
                self.evals += outcome.evals
                self.eval_ns += (t1 - t0) if outcome.eval_ns is None else outcome.eval_ns
            results.append((op, outcome))
        self.blocks.append((len(ops), self.op_ns - op_ns, self.evals - evals, self.eval_ns - eval_ns,
                            statistics.median(lat)))
        for op, outcome in results:
            try:
                self.wl.check(op, outcome, counts)
            except Exception as exc:  # a mismatch or a malformed output
                self._fail(op, "oracle mismatch")
                self._mismatch(f"{type(exc).__name__}: {exc}")
        return len(ops)

    def run_for(self, seconds: float, counts, between_blocks):
        """Runs blocks for `seconds` of operation time; calls between_blocks
        with the share of that time done after each block."""
        index = 0
        while self.op_ns < seconds * 1e9 or index < self.wl.count_blocks:
            self.block(index, counts if index < self.wl.count_blocks else None)
            index += 1
            between_blocks(self.op_ns / (seconds * 1e9))
        return index

    def run_blocks(self, n: int):
        for index in range(n):
            self.block(index, None)


class SetupTimer:
    """Times set-up in fresh processes, one at a time.  The samples are taken
    between blocks, spread over the run, so that their median sees the
    machine as the whole run does, not as it was in one second of it."""

    def __init__(self):
        # an installed CLI starts from cached bytecode, so the children may write it
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._child()  # untimed: writes the bytecode
        self.times = []

    def _child(self) -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout)

    def keep_up(self, share: float):
        """Sample until the share of SETUP_RUNS taken matches the share of the run done."""
        while len(self.times) < SETUP_RUNS * min(share, 1.0):
            self.times.append(self._child())

    def median(self) -> float:
        self.keep_up(1.0)
        return statistics.median(self.times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, args, pl) -> dict:
    setup = SetupTimer()
    pl.load_catalog()  # setup_s reports the cold load; the loop runs warm
    counts = workloads.Counts()
    if hasattr(wl, "prepare"):
        wl.prepare(counts)
    loop = Loop(wl, args.seed)
    blocks = loop.run_for(args.seconds, counts, setup.keep_up)
    setup_s = setup.median()
    p99, beyond = loop.latency.quantile(0.99)
    ops_s = loop.op_ns / 1e9
    print(f"# {wl.name} seed {args.seed}: {blocks} blocks, {loop.attempted} operations in {ops_s:.2f} s, "
          f"{loop.latency.size} latency samples, {beyond} beyond p99, {loop.misses} deadline misses")
    for why, n in sorted(loop.failures.items()):
        print(f"#   failed {n}: {why}")
    for line in loop.mismatches:
        print(f"#   {line}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(statistics.median(b[4] for b in loop.blocks) / 1e6, "ms"),
        "op_p99_ms": metric(p99 * 1e3, "ms"),
        "ops_per_s": metric(statistics.median(b[0] / b[1] for b in loop.blocks) * 1e9, "1/s"),
        "evals_per_s": metric(statistics.median(b[2] / b[3] for b in loop.blocks if b[2]) * 1e9, "1/s"),
        "ok_ratio": metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "eq_terms": metric(counts.eq_terms, "count"),
        "formula_literals": metric(counts.formula_literals, "count"),
    }
    return {"correct": loop.mismatched == 0, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics}


def traced(wl, args, pl) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        pl.load_catalog()
        if hasattr(wl, "prepare"):
            wl.prepare(None)
        traced_loop = Loop(wl, args.seed)
        traced_loop.run_blocks(wl.trace_blocks)
    finally:
        tracer.uninstall()
    plain = Loop(wl, args.seed)
    plain.run_blocks(wl.trace_blocks)
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    traced_rate = traced_loop.attempted / (traced_loop.op_ns / 1e9)
    plain_rate = plain.attempted / (plain.op_ns / 1e9)
    metrics["trace.traced_ops_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = metric(plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = metric(plain_rate / traced_rate, "ratio")
    print(f"# {wl.name} seed {args.seed} traced: {wl.trace_blocks} blocks, {traced_loop.attempted} "
          f"operations, {traced_rate:.1f}/s traced, {plain_rate:.1f}/s untraced")
    for line in traced_loop.mismatches + plain.mismatches:
        print(f"#   {line}")
    return {"correct": traced_loop.mismatched + plain.mismatched == 0,
            "attempted": traced_loop.attempted + plain.attempted,
            "failed": traced_loop.failed + plain.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "preflogic", "__init__.py")):
        print(f"error: no preflogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import preflogic as pl
    import preflogic.cli  # noqa: F401  (workloads call pl.cli.main)
    if os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__))) != SRC:
        print(f"error: preflogic imported from {pl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](pl, WORKDIR)
    result = (traced if args.trace else untraced)(wl, args, pl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
