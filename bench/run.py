"""The bvq benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload reach_oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client in one process and one
thread.  An operation is one ``bvq`` command (``reach``, ``prove`` or
``standardize``) run in-process through ``bvq.cli.main`` with its output
captured, parsed from text and never replayed, with the default budget.
The seed draws the operations from the workload's frozen corpus
(``bench/corpus``); every output is checked after the timed loop.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layers (``bench/spans.py``), reports per-operation figures per
layer, and runs the same operations untraced in a fresh interpreter to
give the tracing overhead.  The last line of standard output is one JSON
object; the lines before it print each metric with its unit, the host
drift loop, the corpus and output digests and ``failed_frac``.  Details
(latencies, per-operation digests, spans) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import ops as opmod  # noqa: E402

GROUP = 4
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bvq.cli\n"
    "bvq.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

SELF_LAYERS = (
    "bench", "bench.op", "cli", "search", "search.bfs", "search.compose",
    "search.extract", "standardize", "standardize.commute_once", "calculus",
    "calculus.enumerate_instances", "calculus.apply_instance",
    "calculus.check_derivation", "structures", "structures.canon", "ccsr",
    "bridge",
)
CALL_LAYERS = ("structures.canon", "calculus.enumerate_instances",
               "calculus.apply_instance", "standardize.commute_once")


def drift_loop() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed,
    never used to scale a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i & 7
    return time.perf_counter() - t0


def import_bvq():
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import bvq.cli
    where = os.path.dirname(os.path.dirname(os.path.abspath(bvq.__file__)))
    if where != SRC:
        raise ImportError(f"bvq imported from {where}, not from {SRC}")


def measure_setup() -> float:
    """Median over fresh interpreters of the time to import the program
    and build its command-line parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _bit_reversed(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


def sample(ops: list[dict], seed: int, group: int = GROUP) -> list[dict]:
    """The seed's order over the corpus, a stratified systematic sample.

    Operations are ranked by the cost recorded for them in the corpus
    and cut into groups of ``group`` neighbours in rank; the seed
    shuffles each group.  Round r takes the r-th member of every group,
    visiting the groups in bit-reversed index order, so every prefix of
    the order spreads evenly over the ranks and a run's mix of cheap and
    costly operations hardly depends on the seed or on where the run
    stops, while the operations themselves do."""
    rng = random.Random(seed)
    ranked = sorted(ops, key=lambda o: (o["cost_ms"], o["id"]))
    groups = [ranked[i:i + group] for i in range(0, len(ranked), group)]
    for g in groups:
        rng.shuffle(g)
    bits = (len(groups) - 1).bit_length()
    visit = sorted(range(len(groups)), key=lambda i: _bit_reversed(i, bits))
    return [groups[i][r] for r in range(group) for i in visit
            if r < len(groups[i])]


class Deadline(BaseException):
    """Raised by the interval timer to end a timed loop mid-operation."""


def _deadline(signum, frame):
    raise Deadline


def timed_loop(order: list[dict], seconds: float) -> tuple[list, float]:
    """Closed loop over ``order`` for exactly ``seconds``: the operation
    running at the deadline is abandoned, so one long operation cannot
    stretch the run.  Returns the completed (op, result) pairs and the
    time of the last completion."""
    if seconds <= 0:
        raise ValueError("a timed loop needs a positive duration")
    done = []
    t0 = end = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        while True:
            op = order[len(done) % len(order)]
            res = opmod.execute(op)
            done.append((op, res))
            end = time.perf_counter()
    except Deadline:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return done, end - t0


def counted_loop(order: list[dict], count: int, tracer=None) -> tuple[list, float]:
    """Closed loop over the first ``count`` operations of ``order``, with
    the benchmark's own spans when traced.  Returns the (op, result)
    pairs and the wall time."""
    done = []
    t0 = time.perf_counter()
    root = tracer.enter("bench") if tracer else None
    for i in range(count):
        op = order[i % len(order)]
        frame = tracer.enter("bench.op") if tracer else None
        res = opmod.execute(op)
        if tracer:
            tracer.leave(frame)
        done.append((op, res))
    wall = time.perf_counter() - t0
    if tracer:
        tracer.leave(root)
    return done, wall


def check_all(workload: str, done) -> tuple[list[dict], list[str], int]:
    """Failures, output digests and how many outputs equal the corpus's
    reference output, checked after the timed loop."""
    failures, digests, matched = [], [], 0
    for op, res in done:
        problem = opmod.check(workload, op, res)
        if problem:
            failures.append({"id": op["id"], "problem": problem})
        d = opmod.output_digest(res.out)
        digests.append(d)
        matched += d == op["ref"]
    return failures, digests, matched


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (``statistics.quantiles`` with n=10)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def end_to_end(done, wall: float, setup_s: float) -> dict:
    lat = [res.seconds * 1000 for _, res in done]
    return {
        "ops_per_s": (len(done) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (quantile(lat, 9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(tracer, done, wall: float, untraced_wall: float) -> dict:
    """Per-operation figures for each layer of a traced pass."""
    n = len(done)
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    visited = steps = out_bytes = 0
    for _, res in done:
        out_bytes += len(res.out.encode())
        try:
            stats = json.loads(res.out).get("stats") or {}
        except (ValueError, AttributeError):
            stats = {}
        visited += stats.get("visited", 0)
        steps += stats.get("steps", 0)
    m = {"trace.ops": (n, "count")}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s/op")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0) / n, "1/op")
    canon = calls.get("structures.canon", 0)
    enum = calls.get("calculus.enumerate_instances", 0)
    m.update({
        "structures.canon.cache_hit_frac":
            (counters["canon_cache_hits"] / canon if canon else 0.0, "frac"),
        "calculus.instances_per_call":
            (counters["instances"] / enum if enum else 0.0, "count"),
        "search.states_visited": (visited / n, "1/op"),
        "search.steps": (steps / n, "1/op"),
        "search.new_state_frac": (visited / steps if steps else 0.0, "frac"),
        "cli.output_bytes": (out_bytes / n, "B/op"),
        "trace.self_sum_frac": (sum(self_s.values()) / wall, "frac"),
        "trace_overhead_frac": (wall / untraced_wall - 1.0, "frac"),
    })
    return m


def detail_path(workload: str, seed: int, kind: str) -> str:
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-{kind}.json")


def untraced_reference(workload: str, seed: int, seconds: float) -> tuple[int, float]:
    """A timed untraced run in a fresh interpreter: how many operations
    of the sample it completed, and in what wall time."""
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--reference"],
        stdout=subprocess.DEVNULL, timeout=seconds + 170, check=True)
    with open(detail_path(workload, seed, "reference"), encoding="utf-8") as fh:
        detail = json.load(fh)
    return len(detail["ops"]), detail["wall_s"]


def run_workload(args) -> int:
    workload, seed = args.workload, args.seed
    drift_before = drift_loop()
    timed = not args.trace
    setup_s = measure_setup() if timed and not args.reference else 0.0
    import_bvq()
    data = corpus.load(workload)
    order = sample(data["ops"], seed)

    if timed:
        done, wall = timed_loop(order, args.seconds)
    else:
        # untraced first, in its own interpreter, then the same
        # operations traced here: both start with cold caches
        count, untraced_wall = untraced_reference(workload, seed,
                                                  args.seconds / 2)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            done, wall = counted_loop(order, count, tracer)
        finally:
            tracer.uninstall()

    if not done:
        raise SystemExit("no operation completed")
    failures, digests, matched = check_all(workload, done)
    output_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    if timed:
        metrics = end_to_end(done, wall, setup_s)
    else:
        metrics = per_layer(tracer, done, wall, untraced_wall)
    drift_after = drift_loop()

    n = len(done)
    print(f"workload {workload}  seed {seed}  trace {args.trace}  "
          f"ops {n}  wall {wall:.3f} s")
    print(f"corpus {data['digest']}  ({len(data['ops'])} ops)")
    print(f"output {output_digest}  (reference outputs matched {matched}/{n})")
    print(f"host drift loop  before {drift_before:.4f} s  after {drift_after:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {len(failures) / n:14.6g} frac")
    for f in failures[:10]:
        print(f"  failed op {f['id']}: {f['problem']}")

    detail = {
        "workload": workload, "seed": seed, "trace": args.trace,
        "corpus_digest": data["digest"], "output_digest": output_digest,
        "reference_matched": matched, "drift_s": [drift_before, drift_after],
        "wall_s": wall, "failures": failures,
        "ops": [{"id": op["id"], "ms": res.seconds * 1000, "rc": res.rc,
                 "digest": d} for (op, res), d in zip(done, digests)],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if not timed:
        detail.update(tracer.dump())
    kind = "reference" if args.reference else f"trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(detail_path(workload, seed, kind), "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    summary = {}
    ok = True
    attempted = failed = 0
    for workload in corpus.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds + 600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            summary[f"{workload}/{k}"] = v
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bvq benchmark")
    ap.add_argument("--workload", required=True,
                    choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="the untraced half of a traced run: a timed run "
                         "that skips measuring set-up")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
