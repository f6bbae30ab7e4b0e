"""Run the benchmark in alternating pairs against another source tree.

Runs ``bench/run.py`` once in this checkout and once in ``--against DIR``
per pair, alternating which tree goes first, each run with the same
workload, seed and length.  Each tree runs its own ``bench/run.py`` on
its own ``src``.  For every metric of the runs' last output line it then
prints the parent's and the change's median and quartiles and the
change's win count (ties count for neither side), with the direction and
bound that ``BENCHMARK.json`` gives the metric.  The verdict column says
``gain`` when the change won at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range, and
``worse`` when the change's median is worse than the parent's by more
than the metric's bound.

    python3 tools/bench_pairs.py --against ../parent --workload prove_closure \\
        --pairs 10 --seconds 30 --seed 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_specs(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    """Metric name -> its ``BENCHMARK.json`` entry (``better``, ``bound``)."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], specs: dict) -> list[str]:
    """One line per metric of ``(parent result, change result)`` pairs,
    each result the JSON object a ``bench/run.py`` run prints last.
    Metrics of ``--workload all`` are named ``workload/metric``; the
    part after the slash is looked up in ``specs``."""
    lines = [f"{'metric':44s} {'parent q1/median/q3':>32s} "
             f"{'change q1/median/q3':>32s} {'wins':>6s}  verdict"]
    names = [n for n in pairs[0][0]["metrics"]
             if all(n in p["metrics"] and n in c["metrics"] for p, c in pairs)]
    for name in names:
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        spec = specs.get(name.rsplit("/", 1)[-1], {})
        sign = {"higher": 1, "lower": -1}.get(spec.get("better"), 0)
        q_old, q_new = _quartiles(old), _quartiles(new)
        cells = [f"{name:44s}",
                 "/".join(f"{q:.4g}" for q in q_old).rjust(32),
                 "/".join(f"{q:.4g}" for q in q_new).rjust(32)]
        if not sign:
            lines.append(" ".join(cells))
            continue
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        verdict = ""
        gap = sign * (q_new[1] - q_old[1])
        if wins * 10 >= 9 * len(pairs) and gap > q_old[2] - q_old[0]:
            verdict = "gain"
        elif "bound" in spec and -gap > spec["bound"] * abs(q_old[1]):
            verdict = "worse"
        lines.append(" ".join(cells) + f" {wins:>3d}/{len(pairs):<2d}  {verdict}")
    failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
    lines.append(f"failed ops: parent {failed[0]}, change {failed[1]}")
    return lines


def run_once(tree: str, args) -> dict:
    """The last output line of one ``bench/run.py`` run in ``tree``."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark failed in {tree}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True,
                    help="source tree of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs <= 0 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    against = os.path.abspath(args.against)
    pairs = []
    for i in range(args.pairs):
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        got = {}
        for side in order:
            got[side] = run_once(ROOT if side == "change" else against, args)
            print(f"pair {i + 1}: {side} done", file=sys.stderr, flush=True)
        pairs.append((got["parent"], got["change"]))
        print(json.dumps({"pair": i + 1, "first": order[0],
                          "parent": got["parent"]["metrics"],
                          "change": got["change"]["metrics"]}), flush=True)
    print("\n".join(summarize(pairs, metric_specs())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
