#!/usr/bin/env python3
"""The toricbsato benchmark: one closed-loop caller, one thread.

    python3 perfbench/run.py --workload bfunction-elim --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
caller sends the next operation only after the previous one returned.  A
run makes whole passes over the workload's operation list until
``--seconds`` would be exceeded (but at least the workload's minimum number
of passes), then checks every output against references that do not come
from the package (see ``workloads.py``).

Every time is scaled to a reference host speed (see ``speed.py``).
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes untraced
passes for half the time and traced passes for the rest, and prints the
per-layer metrics (per pass) plus ``trace.overhead_ratio``; the spans are
written to ``.perfbench_out/``.  The last line of stdout is the JSON
result; diagnostics, raw times among them, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS, Session, check, digest  # noqa: E402

# Set-up is short (imports plus small semigroups), so it is repeated in
# fresh interpreters and the median is reported.
SETUP_PROBES = 7

TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75, 0.5)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("certified_frac", "ratio"),
)


def tail_level(n: int) -> float:
    """Highest level of ``TAIL_LEVELS`` with at least ten samples beyond it."""
    for q in TAIL_LEVELS:
        if n - math.ceil(q * n) >= 10:
            return q
    raise ValueError(f"{n} samples are too few for a tail percentile")


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_package():
    if not (SRC / "toricbsato" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'toricbsato'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import toricbsato
    import toricbsato.cli

    return toricbsato, toricbsato.cli


def new_workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, build, print the clock."""
    tb, cli = load_package()
    workdir = new_workdir()
    try:
        Session(tb, cli, WORKLOADS[workload], seed, str(workdir))
        done = time.time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(done))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of interpreter start to first op."""
    def probe():
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1]) - start

    return statistics.median(SpeedMeter.scale_around(probe) for _ in range(SETUP_PROBES))


def run_passes(session: Session, budget: float, min_passes: int, log: list):
    """Closed-loop passes; logs each op with its scaled latency and returns
    the scaled and the raw wall time of each pass."""
    scaled, raw = [], []
    clock = time.perf_counter
    begin = clock()
    with SpeedMeter() as meter:
        while len(raw) < min_passes or clock() - begin + raw[-1] <= budget:
            order = session.pass_order()
            start = clock()
            total = 0.0
            for op in order:
                meter.start()
                try:
                    result, error = session.run(op), None
                except Exception as exc:  # an op that raises is a failure, not a crash
                    result, error = None, f"{op.key}: raised {exc!r}"
                _, latency = meter.stop()
                total += latency
                log.append((op, latency, result, error))
            scaled.append(total)
            raw.append(clock() - start)
    return scaled, raw


def check_log(log: list, refs: dict):
    """Returns ``(failed, certified, certifiable, errors)`` over all ops."""
    verdicts = {}
    failed = certified = certifiable = 0
    errors = []
    for op, _, result, error in log:
        if error is None:
            key = (op.key, digest(op, result))
            if key not in verdicts:
                verdicts[key] = check(op, key[1], refs)
            errs, cert = verdicts[key]
        else:
            errs, cert = [error], False
        if errs:
            failed += 1
            errors.extend(e for e in errs if e not in errors)
        if op.kind != "guard":
            certifiable += 1
            certified += bool(cert) and not errs
    return failed, certified, certifiable, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="reference table (tests pass a corrupted copy)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    tb, cli = load_package()
    with open(args.expected, encoding="utf-8") as fh:
        refs = json.load(fh)
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    workdir = new_workdir()
    try:
        session = Session(tb, cli, workload, args.seed, str(workdir))
        log = []
        metrics = {}
        if args.trace:
            from tracing import Tracer

            plain, _ = run_passes(session, args.seconds / 2, 1, log)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_raw = run_passes(session, args.seconds / 2, 1, log)
            finally:
                tracer.uninstall()
            ratio = statistics.median(traced) / statistics.median(plain)
            metrics = tracer.metrics(len(traced), ratio)
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
            for name, calls, self_s, share in tracer.breakdown(sum(traced_raw)):
                print(f"  {name:46s} {calls / len(traced):>10.0f} calls/pass "
                      f"{self_s / len(traced):9.4f} s/pass {100 * share:6.2f} %", file=sys.stderr)
            print(f"  scaled pass: traced {statistics.median(traced):.3f} s, untraced {statistics.median(plain):.3f} s",
                  file=sys.stderr)
        else:
            walls, raw = run_passes(session, args.seconds, workload.min_passes, log)
            latencies = [lat for _, lat, _, _ in log]
            q = tail_level(workload.min_passes * len(workload.ops))
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "op_p50_s": statistics.median(latencies),
                "op_tail_s": nearest_rank(latencies, q),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(f"  {len(latencies)} ops; op_tail_s is p{100 * q:g}; scaled pass walls "
                  + " ".join(f"{w:.3f}" for w in walls) + "; raw " + " ".join(f"{w:.3f}" for w in raw),
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, certified, certifiable, errors = check_log(log, refs)
    for e in errors[:20]:
        print(f"  FAIL {e}", file=sys.stderr)
    if not args.trace:
        values["ok_frac"] = 1 - failed / len(log)
        values["certified_frac"] = certified / certifiable
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(log), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
