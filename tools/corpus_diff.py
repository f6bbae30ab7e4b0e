"""Compare two source trees on the frozen benchmark corpus.

Runs every operation of ``bench/corpus`` (or every k-th) under this
checkout's ``src`` and under the ``src`` of ``--against DIR``, each tree
in one subprocess of its own, the two side by side.  Both run the
operations with this checkout's ``bench/ops.py`` and read this
checkout's corpus files, so only the code under test differs.  Reports
every operation whose exit code, output digest (``ops.output_digest``:
the output without its ``stats``) or ``stats.steps``/``stats.visited``
differ, and exits 1 on any difference, 0 when every operation agrees.
When a digest differs, the report also names the top-level output
fields that differ (such as ``proof``) and gives a count per field.  It
ends with each workload's total ``stats.steps`` and ``stats.visited``
under both trees (0 for operations that print no search stats).

With ``standardize_battery``, two groups of random proofs are run
through ``bvq standardize`` as well: ``criterion_5``, the 200 proofs of
acceptance criterion 5 (``random.Random(20260808)``, 12 atoms, 8
steps), and ``random_proofs``, a fixed sweep of 1,000 (five draws from
``random.Random(seed)`` for each seed 0-99, at 12 atoms/8 steps and at
8 atoms/6 steps).  They are drawn once, with this checkout's ``bvq``,
and handed to both trees.  With ``reach_oracle``, the group ``merges``
is run through ``bvq reach`` as well: 24 judgments whose witnesses merge
sibling restrictions of one name (``merge_group``), which no corpus
witness does.  So is the group ``lts``, which runs the transition-system
oracle and the process translation (``bvq lts`` and ``bvq compile``),
whose printed steps and witnesses no corpus operation prints
(``lts_group``), communications beside a third parallel component
included.

    python3 tools/corpus_diff.py --against ../parent
    python3 tools/corpus_diff.py --against ../parent --workload reach_oracle --every 4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("reach_oracle", "prove_closure", "standardize_battery")
FIELDS = ("rc", "digest", "steps", "visited")


def random_proof_groups() -> list[tuple[str, list[dict]]]:
    """The groups ``criterion_5`` and ``random_proofs`` as ``bvq
    standardize`` operations, drawn with this checkout's ``bvq``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bvq.calculus import derivation_to_dict
    from bvq.selftest import random_proof

    def draws(rng: random.Random, n: int, atoms: int, steps: int):
        return [random_proof(rng, max_atoms=atoms, max_steps=steps)
                for _ in range(n)]

    criterion_5 = draws(random.Random(20260808), 200, 12, 8)
    sweep = [d for atoms, steps in ((12, 8), (8, 6)) for seed in range(100)
             for d in draws(random.Random(seed), 5, atoms, steps)]
    return [(name, [{"id": k, "argv": ["standardize", "-"],
                     "stdin": json.dumps(derivation_to_dict(d))}
                    for k, d in enumerate(proofs)])
            for name, proofs in (("criterion_5", criterion_5),
                                 ("random_proofs", sweep))]


def merge_group() -> tuple[str, list[dict]]:
    """The group ``merges`` as ``bvq reach`` operations: two or three
    sibling restrictions of one name that merge on their own, after a
    communication on the name or after a visible firing, each bare,
    beside a free component and under another restriction, each with two
    pairs of bodies."""
    meets = [("nu a.{P}|nu a.{Q}", "nu a.({P}|{Q})", "tau"),
             ("nu a.{P}|nu a.{Q}|nu a.a.0", "nu a.({P}|{Q}|a.0)", "tau"),
             ("nu a.a.{P}|nu a.~a.0|{Q}", "nu a.{P}|{Q}", "tau"),
             ("x.nu a.{P}|nu a.{Q}", "nu a.({P}|{Q})", "x")]
    contexts = ["{}", "c.0|{}", "nu b.(b.0|{})"]
    bodies = [("a.0", "a.0"), ("a.0", "b.0")]
    judgments = [(ctx.format(e.format(P=p, Q=q)), ctx.format(f.format(P=p, Q=q)),
                  alpha)
                 for e, f, alpha in meets for ctx in contexts for p, q in bodies]
    return "merges", [{"id": k, "argv": ["reach", e, f, alpha, "--json"]}
                      for k, (e, f, alpha) in enumerate(judgments)]


def lts_group() -> tuple[str, list[dict]]:
    """The group ``lts``: 40 processes drawn by ``random_process`` (at
    most 16 symbols) from ``random.Random(2323)`` with this checkout's
    ``bvq``, each run through ``bvq lts E``, ``bvq compile E`` and ``bvq
    lts E F alpha`` on the last pair the oracle reaches within three
    steps; then ``bvq lts E F alpha`` on each judgment of ``merges`` and
    on ten judgments that fire a communication beside a third parallel
    component, which no draw does.  Every ``lts`` operation runs with and
    without ``--milner``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bvq.ccsr import enumerate_reachable, print_actions, print_process
    from bvq.selftest import random_process

    rng = random.Random(2323)
    steps, compiles, pairs = [], [], []
    for _ in range(40):
        e = random_process(rng, 16)
        f, alpha, _ = enumerate_reachable(e, 3)[-1]
        et = print_process(e)
        steps.append(["lts", et])
        compiles.append(["compile", et])
        pairs.append(["lts", et, print_process(f), print_actions(alpha)])
    pairs += [["lts", *op["argv"][1:4]] for op in merge_group()[1]]
    pairs += [["lts", e, f, alpha] for e, f, alpha in (
        ("e.0|~e.0|~a.0", "~a.0", "tau"),
        ("a.0|b.0|~a.0", "b.0", "tau"),
        ("a.b.0|~a.0|~b.0", "0", "tau"),
        ("a.b.0|~a.0|~b.0|c.0", "c.0", "tau"),
        ("a.0|~a.0|b.0|~b.0", "0", "tau"),
        ("a.0|~a.b.0|c.0", "c.0", "b"),
        ("x.a.0|~a.0|y.0", "y.0", "x"),
        ("c.(a.0|~a.0|b.0)", "b.0", "c"),
        ("nu a.(a.0|~a.0|b.0)", "nu a.b.0", "tau"),
        ("nu b.(a.0|b.0)|~a.0|c.0", "nu b.b.0|c.0", "tau"))]
    argvs = [a + ["--json"] + m for a in steps for m in ([], ["--milner"])]
    argvs += [a + ["--json"] for a in compiles]
    argvs += [a + ["--json"] + m for a in pairs for m in ([], ["--milner"])]
    return "lts", [{"id": k, "argv": argv} for k, argv in enumerate(argvs)]


def run_ops(workloads: list[str], every: int,
            extra: list[tuple[str, list[dict]]]) -> None:
    """Worker: run the selected operations, then the ``extra`` groups,
    with whatever ``bvq`` is on the path and print one JSON line per
    operation."""
    sys.path.insert(0, BENCH)
    import corpus
    import ops

    groups = [(w, corpus.load(w)["ops"]) for w in workloads]
    for w, group in groups + extra:
        for op in group[::every]:
            res = ops.execute(op)
            try:
                payload = json.loads(res.out)
            except ValueError:
                payload = None
            if not isinstance(payload, dict):
                payload = {}
            stats = payload.pop("stats", None) or {}
            fields = {k: hashlib.sha256(json.dumps(v, sort_keys=True).encode())
                      .hexdigest() for k, v in payload.items()}
            print(json.dumps({"workload": w, "id": op["id"], "rc": res.rc,
                              "digest": ops.output_digest(res.out),
                              "steps": stats.get("steps"),
                              "visited": stats.get("visited"),
                              "fields": fields}), flush=True)


def _spawn(tree: str, workloads: list[str], every: int, extra: str,
           out) -> subprocess.Popen:
    """Start the worker under ``tree``'s ``src``, reading the ``extra``
    operations' JSON from its standard input and writing to the file
    ``out`` (files, not pipes, so neither worker waits for the other)."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isdir(os.path.join(src, "bvq")):
        raise SystemExit(f"corpus_diff: no src/bvq under {tree}")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--every", str(every), "--workload", *workloads]
    with tempfile.TemporaryFile("w+") as inp:
        inp.write(extra)
        inp.seek(0)
        return subprocess.Popen(cmd, stdin=inp, stdout=out, env=env, text=True)


def _records(proc: subprocess.Popen, out, tree: str) -> dict:
    if proc.wait() != 0:
        raise SystemExit(f"corpus_diff: the run under {tree} failed "
                         f"(exit {proc.returncode})")
    out.seek(0)
    recs = (json.loads(line) for line in out)
    return {(r["workload"], r["id"]): r for r in recs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", help="root of the tree to compare with")
    ap.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS,
                    help="workloads to run (repeatable; default: all)")
    ap.add_argument("--every", type=int, default=1,
                    help="run every k-th operation of each corpus")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # set here, not as the default: ``extend`` would append to a default
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    if args.every < 1:
        ap.error("--every must be positive")
    if args.worker:
        run_ops(args.workload, args.every, json.load(sys.stdin))
        return 0
    if not args.against:
        ap.error("--against is required")
    trees = (ROOT, args.against)
    extra = [merge_group(), lts_group()] if "reach_oracle" in args.workload else []
    if "standardize_battery" in args.workload:
        extra += random_proof_groups()
    with tempfile.TemporaryFile("w+") as a, tempfile.TemporaryFile("w+") as b:
        procs = [_spawn(t, args.workload, args.every, json.dumps(extra), f)
                 for t, f in zip(trees, (a, b))]
        here, there = (_records(p, f, t) for p, f, t in zip(procs, (a, b), trees))
    differ = 0
    per_field: dict[str, int] = {}
    for key in sorted(here):
        a, b = here[key], there[key]
        diffs = [f"{f} {a[f]} (here) vs {b[f]}" for f in FIELDS if a[f] != b[f]]
        if a["digest"] != b["digest"]:
            fa, fb = a["fields"], b["fields"]
            moved = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
            for k in moved:
                per_field[k] = per_field.get(k, 0) + 1
            diffs.append("output fields " + (", ".join(moved)
                                             or "(not a JSON object)"))
        if diffs:
            differ += 1
            print(f"{key[0]} {key[1]}: " + "; ".join(diffs))
    for k, n in sorted(per_field.items()):
        print(f"field {k} differs in {n} ops")
    print(f"{len(here)} ops compared, {differ} differ")
    for w in dict.fromkeys(w for w, _ in here):
        sums = [sum(recs[k][f] or 0 for k in recs if k[0] == w)
                for f in ("steps", "visited") for recs in (here, there)]
        print(f"total {w}: steps {sums[0]} (here) vs {sums[1]}; "
              f"visited {sums[2]} (here) vs {sums[3]}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
