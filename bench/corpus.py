"""The benchmark's frozen input corpus.

Each workload's inputs are drawn from a seed with bvq's own generators
(the ones the acceptance criteria use), printed to text and stored, with
their expected verdicts, in ``bench/corpus/<workload>.json``.  The files
carry a SHA-256 digest of their operations, so the benchmark runs on the
same inputs even after a change to the code under test would make the
generators produce different ones.

Besides its input text and expected verdict, each operation records the
digest of its output and the time it took when the corpus was frozen
(the fastest of three runs);
the benchmark ranks operations by that cost to draw samples whose mix of
cheap and costly operations does not depend on the seed.

Regenerate (slow: every operation is run once; run it on a quiet host)::

    python3 bench/corpus.py [--seed 2026] [--workload NAME]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
DEFAULT_SEED = 2026

WORKLOADS = ("reach_oracle", "prove_closure", "standardize_battery")

# generation sizes; the pools are several times what one run consumes
REACH_PROCESSES = 500
REACH_DEPTH = 6
REACH_MAX_SIZE = 8
REACH_NEGATIVES = 3
PROVE_GOALS = 300
PROVE_MAX_ATOMS = 6
STANDARDIZE_PROOFS = 600
STANDARDIZE_MAX_ATOMS = 8
STANDARDIZE_MAX_STEPS = 8

# An operation that took longer than a tenth of a 30-s run when the
# corpus was frozen is left out of the runs (and listed under "excluded"
# in the corpus file): a single one would decide a run's figures.
MAX_COST_MS = 3000
# an operation's recorded cost is the fastest of this many runs, each
# after a full garbage collection, so that a collection or a busy moment
# of the host does not misplace it in the cost ranking
COST_REPEATS = 3


def ops_digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_path(workload: str) -> str:
    return os.path.join(CORPUS_DIR, f"{workload}.json")


def load(workload: str) -> dict:
    """Read a workload's corpus and verify its digest."""
    with open(corpus_path(workload), encoding="utf-8") as fh:
        data = json.load(fh)
    if ops_digest(data["ops"]) != data["digest"]:
        raise ValueError(f"corpus digest mismatch for {workload}")
    return data


# ---------------------------------------------------------------------------
# generation (calls bvq; only needed to rebuild the frozen files)
# ---------------------------------------------------------------------------

def _reach_inputs(rng: random.Random) -> list[dict]:
    """Judgments drawn as acceptance criterion 6 draws them, except that
    negative candidates are ordered by their printed form before the
    seeded shuffle, so the sample does not depend on string hashing."""
    from bvq.ccsr import (
        enumerate_reachable, is_simple_process, print_actions, print_process,
        process_key,
    )
    from bvq.selftest import random_process

    ops: list[dict] = []
    for _ in range(REACH_PROCESSES):
        e = random_process(rng, REACH_MAX_SIZE)
        keys: set[tuple[str, str]] = set()
        simple = []
        labels: dict[str, object] = {}
        for f, alpha, _ in enumerate_reachable(e, REACH_DEPTH):
            labels[print_actions(alpha)] = alpha
            if not is_simple_process(f):
                continue
            key = (process_key(f), print_actions(alpha))
            if key not in keys:
                keys.add(key)
                simple.append((f, alpha))
        et = print_process(e)
        for f, alpha in simple:
            ops.append({"argv": ["reach", et, print_process(f),
                                 print_actions(alpha), "--json"],
                        "expect": "proved"})
        candidates = sorted(
            (print_process(f), la)
            for f, _ in simple for la in labels
            if (process_key(f), la) not in keys)
        rng.shuffle(candidates)
        for ft, la in candidates[:REACH_NEGATIVES]:
            ops.append({"argv": ["reach", et, ft, la, "--json"],
                        "expect": "not_found"})
    return ops


def _erase_one_atom(rng: random.Random, goal):
    from bvq.structures import ONE, canonicalize, iter_atom_paths, replace_at

    paths = [p for p, _ in iter_atom_paths(goal)]
    return canonicalize(replace_at(goal, rng.choice(paths), ONE))


def _prove_inputs(rng: random.Random) -> list[dict]:
    """Conclusions of random Tensor-free proofs (provable by
    construction), each followed by the same goal with one atom
    occurrence erased (odd atom count, so unprovable)."""
    from bvq.selftest import random_proof
    from bvq.structures import print_structure, strip_ids

    ops: list[dict] = []
    seen: set[str] = set()
    while len(ops) < 2 * PROVE_GOALS:
        goal = strip_ids(random_proof(rng, max_atoms=PROVE_MAX_ATOMS).conclusion)
        text = print_structure(goal)
        if text in seen or text == "1":
            continue
        seen.add(text)
        ops.append({"argv": ["prove", text, "--json"], "expect": "proved"})
        ops.append({"argv": ["prove", print_structure(_erase_one_atom(rng, goal)),
                             "--json"],
                    "expect": "not_found"})
    return ops


def _standardize_inputs(rng: random.Random) -> list[dict]:
    """Derivation JSON of random proofs drawn as acceptance criterion 5
    draws them, with at most 8 atoms instead of 12: at 12 a proof takes
    0.57 s on average, too few per run for a 90th percentile."""
    from bvq.calculus import derivation_to_dict
    from bvq.selftest import random_proof

    ops: list[dict] = []
    seen: set[str] = set()
    while len(ops) < STANDARDIZE_PROOFS:
        d = random_proof(rng, max_atoms=STANDARDIZE_MAX_ATOMS,
                         max_steps=STANDARDIZE_MAX_STEPS)
        text = json.dumps(derivation_to_dict(d), sort_keys=True)
        if text in seen:
            continue
        seen.add(text)
        ops.append({"argv": ["standardize", "-"], "stdin": text,
                    "expect": "standard"})
    return ops


GENERATORS = {
    "reach_oracle": _reach_inputs,
    "prove_closure": _prove_inputs,
    "standardize_battery": _standardize_inputs,
}


def generate_inputs(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(seed))


def build(workload: str, seed: int) -> dict:
    """Generate the inputs, run each operation to record its reference
    output digest and its cost, and check that none fails.  Operations
    that cost more than ``MAX_COST_MS`` are set aside."""
    import ops as opmod

    kept, excluded = [], []
    for i, op in enumerate(generate_inputs(workload, seed)):
        op["id"] = i
        gc.collect()
        res = opmod.execute(op)
        problem = opmod.check(workload, op, res)
        if problem:
            raise SystemExit(f"{workload} op {i} fails at generation: {problem}")
        op["ref"] = opmod.output_digest(res.out)
        cost = res.seconds
        for _ in range(COST_REPEATS - 1):
            if cost * 1000 > MAX_COST_MS:
                break
            gc.collect()
            cost = min(cost, opmod.execute(op).seconds)
        op["cost_ms"] = round(cost * 1000, 1)
        (kept if op["cost_ms"] <= MAX_COST_MS else excluded).append(op)
    return {"workload": workload, "seed": seed, "max_cost_ms": MAX_COST_MS,
            "ops": kept, "digest": ops_digest(kept), "excluded": excluded}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    os.makedirs(CORPUS_DIR, exist_ok=True)
    for workload in args.workload or WORKLOADS:
        t0 = time.perf_counter()
        data = build(workload, args.seed)
        with open(corpus_path(workload), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(data['ops'])} ops, digest {data['digest'][:16]}, "
              f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    raise SystemExit(main())
