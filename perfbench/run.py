"""Layered benchmark of the finfib command line.

    python3 perfbench/run.py --workload hurewicz-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one thread, one client in a closed loop: each op calls
``finfib.cli.main(argv)`` in-process on a JSON document written during
set-up, captures stdout, and only then starts the next op.  Output
checks run outside the timed region.  The loop makes whole passes over
the workload's instances (in a seeded order) until ``--seconds`` have
passed, so every instance is timed equally often.  Op times are scaled
by a reference computation timed after each op (see ``Reference``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports the per-layer ones from a traced run in which
every op runs once untraced and once with spans installed.  The last
line of stdout is one JSON object.  finfib is imported from ``src/``
next to this directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from order import random_dag  # noqa: E402
from spans import SPANS, STAGES, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3  # per-instance medians need a few samples; the traced run needs one
# fastest time of one Reference.run on a 2-core 2.1 GHz Xeon VM: converts
# op times measured in reference runs back to milliseconds
REF_MS = 0.4

# growth exponent -> (span, instance family it is fitted on)
GROWTH = {
    "stong.reduce.growth_exp": ("stong.reduce", "chain"),
    "posets.find_isomorphism.growth_exp": ("posets.find_isomorphism", "bundle"),
    "grothendieck.scan_lifts.growth_exp": ("grothendieck.scan_lifts", "product"),
}


class Op:
    __slots__ = ("inst", "argv", "verified")

    def __init__(self, inst: Instance, path: Path):
        self.inst = inst
        self.argv = inst.command + [str(path)]
        self.verified = None  # stdout already checked for this op


def import_cli():
    """(Re-)import finfib from the checkout's src/ and return finfib.cli."""
    for name in [m for m in sys.modules if m == "finfib" or m.startswith("finfib.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("finfib.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"finfib was found at {cli.__file__}, not under {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import finfib, generate the instances and write their documents."""
    t0 = perf_counter()
    cli = import_cli()
    instances = WORKLOADS[workload](random.Random(seed))
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, inst in enumerate(instances):
        path = workdir / f"{k:04d}.json"
        path.write_text(json.dumps(inst.doc))
        ops.append(Op(inst, path))
    return perf_counter() - t0, cli.main, ops


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # e.g. RecursionError escaping main: a failed op
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue()


def problem(op: Op, code, text: str):
    """Why the op's result is wrong, or None."""
    if code is None:
        return text
    if code != op.inst.code:
        return f"exit code {code}, expected {op.inst.code}"
    if text == op.verified:
        return None
    try:
        out = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    try:
        why = op.inst.check(out)
    except (KeyError, TypeError, ValueError, AttributeError, StopIteration) as exc:
        why = f"malformed output ({type(exc).__name__}: {exc})"
    if why is None:
        op.verified = text
    return why


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, op: Op, why) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"FAILED {op.inst.family} {' '.join(op.argv)}: {why}", file=sys.stderr)


def passes(ops: list[Op], seconds: float, rng: random.Random, min_passes: int):
    """Whole passes over the ops in a seeded order: at least min_passes, then until time is up."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    t_start = perf_counter()
    done = 0
    while done < min_passes or perf_counter() - t_start < seconds:
        for k in order:
            yield ops[k]
        done += 1


class Reference:
    """A fixed computation of the benchmark's own, timed right after every op.

    Other tenants of a shared machine slow whole stretches of a run, by
    10-50 % for seconds to minutes, and slow this computation alike.  An op's
    time divided by the median of the last five reference times cancels
    that slowdown; the same op's raw time varied five to eight times more
    from run to run than this ratio did.  Set-up times are scaled the same
    way.
    """

    def __init__(self):
        self.order = random_dag(random.Random(0), 40, 0.2, "r")
        self.recent: deque[float] = deque(maxlen=5)
        for _ in range(self.recent.maxlen):
            self.run()

    def run(self) -> float:
        """Run once; return the median of the recent reference times."""
        t0 = perf_counter()
        self.order.covers()
        self.order.shuffled(random.Random(1))
        self.recent.append(perf_counter() - t0)
        return statistics.median(self.recent)


def warm_up(main, ops: list[Op]) -> None:
    """One untimed op per instance family, so lazy set-up is done before timing."""
    seen = set()
    for op in ops:
        if op.inst.family not in seen:
            seen.add(op.inst.family)
            run_op(main, op.argv)


def end_to_end(main, ops, seconds, rng, tally, setup_s) -> dict:
    """Latency of an instance = median over passes of its reference-scaled time.

    Quantiles are over instances: every workload has at least 100, so ten
    or more lie beyond the 90th percentile.
    """
    ref = Reference()
    scaled: dict[Op, list[float]] = {op: [] for op in ops}
    for op in passes(ops, seconds, rng, MIN_PASSES):
        dt, code, text = run_op(main, op.argv)
        scaled[op].append(dt / ref.run() * REF_MS)
        tally.record(op, problem(op, code, text))
    lat_ms = [statistics.median(v) for v in scaled.values()]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "ops_per_s": (1e3 * len(lat_ms) / sum(lat_ms), "1/s"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median time) against log(size)."""
    by_size: dict[int, list[float]] = {}
    for size, t in points:
        if t > 0:
            by_size.setdefault(size, []).append(t)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(ts)) for ts in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(main, ops, seconds, rng, tally) -> dict:
    tracer = Tracer()
    traced_main = tracer.span("cli.main", main)
    plain_s = traced_s = 0.0
    n = 0
    samples: dict[str, list[tuple[str, int, float]]] = {span: [] for span, _ in GROWTH.values()}
    for op in passes(ops, seconds, rng, 1):
        dt, code, text = run_op(main, op.argv)
        tally.record(op, problem(op, code, text))
        before = {span: tracer.self_s[span] for span in samples}
        with tracer.patched():
            dt_traced, code, text = run_op(traced_main, op.argv)
        tally.record(op, problem(op, code, text))
        for span, rows in samples.items():
            rows.append((op.inst.family, op.inst.size, tracer.self_s[span] - before[span]))
        plain_s += dt
        traced_s += dt_traced
        n += 1
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_ms"] = (tracer.self_s[span] * 1e3 / n, "ms/op")
        metrics[f"{span}.calls"] = (tracer.calls[span] / n, "1/op")
    counts = tracer.counts
    iso_calls = tracer.calls["posets.find_isomorphism"]
    metrics["stong.reduce.removed"] = (counts["stong.reduce.removed"] / n, "1/op")
    metrics["grothendieck.scan_lifts.requests"] = (counts["grothendieck.scan_lifts.requests"] / n, "1/op")
    metrics["posets.find_isomorphism.found_ratio"] = (
        counts["posets.find_isomorphism.found"] / iso_calls if iso_calls else 0.0, "ratio")
    metrics["posets.find_isomorphism.budget_exhausted"] = (
        counts["posets.find_isomorphism.budget_exhausted"] / n, "1/op")
    for stage in STAGES:
        metrics[f"verdict.stage.{stage}"] = (counts[f"verdict.stage.{stage}"] / n, "1/op")
    metrics["trace.overhead_frac"] = (1 - plain_s / traced_s, "frac")
    for name, (span, family) in GROWTH.items():
        rows = samples[span]
        chosen = [r for r in rows if r[0] == family] or rows
        metrics[name] = (fit_exponent([(size, t) for _, size, t in chosen]), "exp")
    return metrics


def run_workload(args) -> int:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        ref = Reference()
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_s, main, ops = setup(args.workload, args.seed, workdir)
            for _ in range(ref.recent.maxlen):
                speed = ref.run()
            setups.append(setup_s / speed * REF_MS / 1e3)
        rng = random.Random(args.seed)
        tally = Tally()
        warm_up(main, ops)
        if args.trace:
            metrics = per_layer(main, ops, args.seconds, rng, tally)
        else:
            metrics = end_to_end(main, ops, args.seconds, rng, tally, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:45} {value:14.6g} {unit}")
    print(f"{args.workload:16} {'ops attempted':45} {tally.attempted:14d}")
    print(f"{args.workload:16} {'instances (quantile samples)':45} {len(ops):14d}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "finfib").is_dir():
        print(f"error: no finfib sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
