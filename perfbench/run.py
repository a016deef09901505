"""Run one workload of the polysteer benchmark and print its metrics.

    python3 perfbench/run.py --workload random_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload tensor_dd --seed 1 --seconds 20 --trace 1

Run from anywhere; the program is imported from the checkout's `src/`. One
process, one caller, no threads: the op list runs as a closed loop, in whole
passes, until `--seconds` have passed and at least two passes are done.
Times are scaled to a nominal host speed (see hostspeed.py). With
`--trace 1` the run instead makes one untraced and one traced pass and
reports per-layer metrics. The last line of standard output is the result
object; the line before it holds the details (environment, failures, tail
percentile, layer split).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import hostspeed  # noqa: E402  (sibling modules; the script's directory is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
# An untraced run makes at least this many passes, so every op's latency is
# the median of at least two runs.
MIN_PASSES = 2
# Within a timed pass an op shorter than REPEAT_S runs again, up to REPEATS
# times in all: the short ops set op_p50_ms and op_tail_ms, and a median of
# six runs of each holds steadier than one of two.
REPEAT_S = 0.6
REPEATS = 3
OP_LIMIT_S = 60
# No op starts later than this after measuring began, even mid-pass, so a
# run (set-up, then at most one more op of OP_LIMIT_S) ends within 180 s.
RUN_CAP_S = 100
# The layer each workload was chosen to load; the traced run checks it.
DOMINANT_LAYER = {"random_batch": "_kernel", "tensor_dd": "dd"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that overran OP_LIMIT_S.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def load_references(workload: str) -> dict:
    with open(os.path.join(HERE, "references", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(prog, seed: int) -> dict:
    return {
        "backend": prog._kernel.BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


class Run(NamedTuple):
    """One run of one op. Times exclude the host-speed bursts inside them."""

    key: str
    latency: float
    span: tuple[float, float]  # perf_counter times the latency was measured over
    # Time in the program's checkers, None when the op failed.
    checked: float | None
    check_span: tuple[float, float]


class Stats:
    def __init__(self):
        self.runs: list[Run] = []
        self.host = hostspeed.Sampler()
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.passes = 0
        self.report_bytes = 0
        self.truncated = False

    def times(self, checker: bool, scaled: bool) -> list[tuple[str, float]]:
        """(op key, latency), or (op key, checker time) if `checker`, of
        every run that has it, scaled to the nominal host if `scaled`.
        """
        out = []
        for run in self.runs:
            t, span = (run.checked, run.check_span) if checker else (run.latency, run.span)
            if t is not None:
                out.append((run.key, t * self.host.scale(*span) if scaled else t))
        return out

    def per_op(self, checker: bool, scaled: bool) -> list[float]:
        """Each op's median over its runs of `times(checker, scaled)`."""
        by_key = defaultdict(list)
        for key, t in self.times(checker, scaled):
            by_key[key].append(t)
        return [statistics.median(v) for v in by_key.values()]

    def op_s(self, scaled: bool = True) -> float:
        """Seconds spent in ops over every run, scaled or as measured."""
        return sum(t for _, t in self.times(False, scaled))


def run_op(op, reference, stats: Stats, rec=None) -> float:
    """Run one op under the time limit, then check it; tally into stats.

    Returns the op's latency.
    """
    problems = []
    result = None
    host = stats.host
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    spent = host.spent
    t0 = time.perf_counter()
    try:
        if rec is not None:
            rec.enabled = True
        result = op.run()
    except OpTimeout:
        problems.append(f"exceeded {OP_LIMIT_S} s")
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        latency = time.perf_counter() - t0 - (host.spent - spent)
        signal.setitimer(signal.ITIMER_REAL, 0)
        if rec is not None:
            rec.enabled = False
    t1 = time.perf_counter()
    stats.attempted += 1
    checked = None
    check_span = (t0, t1)
    if not problems:
        spent = host.spent
        c0 = time.perf_counter()
        problems += op.check(result)
        c1 = time.perf_counter()
        if not op.is_verify:
            checked, check_span = c1 - c0 - (host.spent - spent), (c0, c1)
        else:
            checked = latency
        if reference is None:
            problems.append("no stored reference")
        elif op.digest(result) != reference:
            problems.append("verdict or certificate differs from the stored reference")
        if op.reports:
            stats.report_bytes += len(result[1])
    stats.runs.append(Run(op.key, latency, (t0, t1), checked, check_span))
    if problems:
        stats.failed += 1
        if len(stats.failures) < 10:
            stats.failures.append(f"{op.key}: {'; '.join(problems)}")
    return latency


def run_passes(ops, refs, seconds: float, passes: int, stop_at: float, rec=None,
               timed: bool = False) -> Stats:
    """Whole passes over `ops` until `seconds` have passed and at least
    `passes` passes are done. No op starts after perf_counter time `stop_at`.

    Host speed is sampled before each op. In `timed` passes an op runs
    REPEATS times or until its runs add up to REPEAT_S, and host speed is
    also sampled inside ops. Other passes run each op once, so that counts
    repeat exactly, and take no bursts inside ops, where they would land in
    some span's self time.
    """
    stats = Stats()
    start = time.perf_counter()
    with stats.host.periodic(hostspeed.PERIOD_S if timed else 0):
        while True:
            for op in ops:
                stats.host.sample()
                spent = 0.0
                for _ in range(REPEATS if timed else 1):
                    if time.perf_counter() > stop_at:
                        stats.truncated = True
                        return stats
                    spent += run_op(op, refs.get(op.key), stats, rec)
                    if spent >= REPEAT_S:
                        break
            stats.passes += 1
            if stats.passes >= passes and time.perf_counter() - start >= seconds:
                return stats


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, and its value.

    Below 11 ops no percentile has 10 beyond it; the maximum stands in.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return 100.0, lat[-1]
    return 100.0 * (n - 10) / n, lat[n - 11]


def setup(workload: str, seed: int, workdir: str):
    """Time SETUP_REPEATS fresh set-ups; keep the last one's program and ops.

    Returns the median set-up time, scaled and as measured, and the program
    and ops.
    """
    host = hostspeed.Sampler()
    spans = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        prog = workloads.import_program()
        ops = workloads.build(prog, workload, seed, workdir)
        spans.append((t0, time.perf_counter()))
    host.sample()
    if not os.path.realpath(prog.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"polysteer was imported from {prog.cli.__file__}, not {SRC}")
    times = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * host.scale(t0, t1) for t0, t1 in spans]
    return (statistics.median(scaled), statistics.median(times)), prog, ops


def end_to_end(stats: Stats, setup_s: float, scaled: bool) -> tuple[dict, dict]:
    per_op = stats.per_op(False, scaled)
    pct, tail_s = tail(per_op)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "verify_s": sum(stats.per_op(True, scaled)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"percentile": pct, "samples": len(per_op)}


def untraced(workload, seconds, prog, ops, refs, setup_s) -> tuple[dict, Stats, dict]:
    stats = run_passes(ops, refs, seconds, MIN_PASSES, time.perf_counter() + RUN_CAP_S, timed=True)
    metrics, op_tail = end_to_end(stats, setup_s[0], scaled=True)
    measured, _ = end_to_end(stats, setup_s[1], scaled=False)
    detail = {
        "op_tail": op_tail,
        "as_measured": measured,
        "host_slowdown": statistics.median(stats.host.bursts) / hostspeed.NOMINAL_S,
    }
    return metrics, stats, detail


def traced(workload, seed, prog, ops, refs) -> tuple[dict, Stats, dict]:
    stop_at = time.perf_counter() + RUN_CAP_S
    plain = run_passes(ops, refs, 0, 1, stop_at)
    rec = tracing.Recorder()
    patched, unwrappable = tracing.install(prog, rec)
    stats = run_passes(ops, refs, 0, 1, stop_at, rec)
    stats.failed += plain.failed
    stats.attempted += plain.attempted
    stats.failures = plain.failures + stats.failures
    layer = tracing.layer_metrics(rec)
    layer["cli.report_bytes"] = stats.report_bytes
    layer["trace.overhead"] = stats.op_s() / plain.op_s()
    # Span times are as measured, so their shares are of measured op time.
    shares = tracing.layer_shares(rec, stats.op_s(scaled=False))
    detail = {
        "untraced_op_s": plain.op_s(),
        "traced_op_s": stats.op_s(),
        "layer_share": shares,
        "bindings_patched": len(patched),
        "unmeasured": {span: "compiled extension type; its methods cannot be wrapped"
                       for span in unwrappable},
    }
    expected = DOMINANT_LAYER.get(workload)
    if expected is not None:
        top = max(shares, key=shares.get)
        detail["split"] = {
            "expected": expected,
            "share": shares[expected],
            "largest": top,
            "holds": top == expected and shares[expected] > 0.5,
        }
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    path = os.path.join(WORK, "spans", f"{workload}-seed{seed}.tsv.gz")
    rec.write(path)
    detail["spans_file"] = os.path.relpath(path, ROOT)
    return layer, stats, detail


def metric_units(trace: int) -> dict:
    """Unit of every metric the run must print, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polysteer", "__init__.py")):
        print(f"error: no polysteer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        refs = load_references(args.workload)
        setup_s, prog, ops = setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics, stats, detail = traced(args.workload, args.seed, prog, ops, refs)
        else:
            metrics, stats, detail = untraced(args.workload, args.seconds, prog, ops, refs, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    detail.update(
        workload=args.workload,
        trace=args.trace,
        env=environment(prog, args.seed),
        passes=stats.passes,
        truncated=stats.truncated,
        failed_ratio=stats.failed / stats.attempted,
        failures=stats.failures,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
