#!/usr/bin/env python3
"""Benchmark of rankmetric: three workloads, checked outputs, normalised op times.

    python3 bench/run.py --workload repair|towers|census --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Each run sets up SETUP_ROUNDS times and reports the median set-up time,
then measures whole cycles of the workload's op list for about S seconds
(at least one cycle; a census cycle alone takes about 35 s). Every op
runs with reference blocks interleaved (refblock.Meter) and its output
is checked outside the timed region. Times are reported at the fixed
reference speed refblock.BLOCK_S. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics.

With --trace 1 the run first measures one untraced cycle, then sets up
again with layer wrappers installed, measures one traced cycle and
reports the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 5


def die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


if not os.path.isfile(os.path.join(SRC, "rankmetric", "__init__.py")):
    die(f"no rankmetric package under {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import refblock  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def fresh_import():
    """Import rankmetric from ./src as a new process would, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "rankmetric" or n.startswith("rankmetric.")]:
        del sys.modules[name]
    rm = importlib.import_module("rankmetric")
    if not os.path.abspath(rm.__file__).startswith(SRC + os.sep):
        die(f"imported rankmetric from {rm.__file__}, not from {SRC}")
    return rm


class Tally:
    """Ops attempted and failed; an op fails if it raises or any check rejects it.

    ``wrong`` counts the failed ops that returned an output the checks
    rejected, as opposed to ops that raised.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[tuple[str, list[str]]] = []

    def record(self, op, out, error=None, corrupt=None) -> bool:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                rec = op.derive(out)
                if corrupt is not None:
                    corrupt(rec)
                problems = op.verify(rec)
            except Exception as exc:  # a check that cannot finish rejects the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            self.problems.append((op.label, problems))
        return not problems


def run_op(op):
    """Run one op: returns (output, error); an error is recorded, not fatal."""
    try:
        return op.run(), None
    except Exception as exc:  # the program failing an op counts as a failed op
        return None, exc


# ---------------------------------------------------------------------------
# workloads


class InProcess:
    """repair and towers: every op is a library call in this process."""

    def __init__(self, name: str, build_cycle):
        self.name = name
        self.build_cycle = build_cycle
        self.meter = refblock.Meter()

    def setup(self, seed: int, tracer=None):
        """Import, inputs and one warm-up op: returns (seconds, reference units, ops)."""
        self.meter.start()
        rm = fresh_import()
        if tracer is not None:
            tracing.install(tracer)
        ops = self.build_cycle(rm, seed)
        warm = min(ops, key=lambda op: (op.nominal_ms, op.label))
        out, err = run_op(warm)
        seconds, units = self.meter.stop()
        if not Tally().record(warm, out, err):
            die(f"warm-up op {warm.label} failed", 1)
        return seconds, units, ops

    def timed(self, op, samples: list):
        """The op with reference blocks interleaved: returns (output, error)."""
        gc.collect()
        self.meter.start()
        try:
            out, err = run_op(op)
        finally:
            op_s, units = self.meter.stop()
        samples.append((op.label, op_s, units))
        return out, err

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced_cycle(self, seed: int, tally: Tally, samples: list):
        tracer = tracing.Tracer()
        _, _, ops = self.setup(seed, tracer)
        tracer.mark()
        outputs = [(op, *self.timed(op, samples)) for op in ops]
        tracer.stop()
        for op, out, err in outputs:
            tally.record(op, out, err)
        path = os.path.join(OUT, f"trace-{self.name}.bin")
        tracer.save(path)
        return [tracing.summarize(*tracing.load(path))], {}


class Census:
    """census: every op is one rankmetric CLI process, run one at a time.

    The child meters itself (cli_child.py); this process only waits, so
    that no second process competes with the one doing the work.
    """

    def __init__(self):
        self.child = W.Child(ROOT, OUT)

    def setup(self, seed: int):
        """One warm-up CLI process: returns (seconds, reference units, ops)."""
        warm = W.census_warmup(self.child)
        warm_samples: list = []
        if not Tally().record(warm, *self.timed(warm, warm_samples)):
            die("warm-up op failed", 1)
        _, seconds, units = warm_samples[0]
        return seconds, units, W.census_cycle(self.child, seed)

    @staticmethod
    def sample(child: W.Child, op, samples: list):
        if child.last is None:
            return
        report, wall, _ = child.last
        op_s = wall - report["spent"]
        # process start before the child's meter and exit after it, in the child's units
        units = report["units"] + (op_s - report["op_s"]) / report["median_block"]
        samples.append((op.label, op_s, units))

    def timed(self, op, samples: list):
        gc.collect()
        out, err = run_op(op)
        self.sample(self.child, op, samples)
        return out, err

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def traced_cycle(self, seed: int, tally: Tally, samples: list):
        child = W.Child(ROOT, OUT, trace=True)
        parts = []
        extra = {"cli.start_s": 0.0, "cli.run_s": 0.0}
        warm = W.census_warmup(child)
        if not Tally().record(warm, *run_op(warm)):
            die("traced warm-up op failed", 1)
        parts.append(tracing.summarize(*tracing.load(child.last[2]), setup_only=True))
        for op in W.census_cycle(child, seed):
            out, err = run_op(op)
            self.sample(child, op, samples)
            tally.record(op, out, err)
            if child.last is not None:
                report, _, trace_path = child.last
                parts.append(tracing.summarize(*tracing.load(trace_path)))
                extra["cli.start_s"] += report["start_s"]
                extra["cli.run_s"] += report["run_s"]
        return parts, extra


WORKLOADS = {
    "repair": lambda: InProcess("repair", W.repair_cycle),
    "towers": lambda: InProcess("towers", W.towers_cycle),
    "census": Census,
}


def measure(work, ops, seconds: float, tally: Tally, samples: list) -> int:
    """Whole cycles, stopping at the cycle boundary nearest to `seconds` (at least one)."""
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in ops:
            tally.record(op, *work.timed(op, samples))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            return cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    work = WORKLOADS[args.workload]()

    setups = []
    for _ in range(SETUP_ROUNDS):
        seconds, units, ops = work.setup(args.seed)
        setups.append((seconds, units))

    tally = Tally()
    samples: list = []
    if args.trace:
        for op in ops:
            tally.record(op, *work.timed(op, samples))
        traced_samples: list = []
        parts, extra = work.traced_cycle(args.seed, tally, traced_samples)
        # overhead on the normalised op cost, which drifts less than raw time
        extra["trace.overhead"] = (sum(r for _, _, r in traced_samples)
                                   / sum(r for _, _, r in samples) - 1)
        samples += traced_samples
        cycles = 1
        metrics = tracing.layer_metrics(parts, 1, extra)
    else:
        cycles = measure(work, ops, args.seconds, tally, samples)
        if tracing.installed():
            die("layer wrappers are installed in an untraced run", 1)
        # times at the reference speed: reference units times refblock.BLOCK_S
        units = [u for _, _, u in samples]
        ref_s = [u * refblock.BLOCK_S for u in units]
        metrics = {
            "ops_per_s": {"value": (tally.attempted - tally.failed) / sum(ref_s),
                          "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ref_s) * 1000, "unit": "ms"},
            "op_cost_ref": {"value": statistics.fmean(units), "unit": "ref"},
            "setup_s": {"value": statistics.median(u for _, u in setups) * refblock.BLOCK_S,
                        "unit": "s"},
            "peak_rss_mb": {"value": work.peak_rss_mb(), "unit": "MB"},
        }

    for label, problems in tally.problems:
        print(f"FAILED {label}: {'; '.join(problems)}")
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "cycles": cycles, "setups": setups, "samples": samples,
           "problems": tally.problems}
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump(raw, fh)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
