"""Tests for the benchmark itself: ``python3 -m pytest bench/tests``."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for p in (BENCH, SRC):
    if p not in sys.path:
        sys.path.insert(0, p)

import corpus  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_CORPUS = """
import hashlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import corpus
corpus.REACH_PROCESSES, corpus.PROVE_GOALS, corpus.STANDARDIZE_PROOFS = 25, 6, 6
print(json.dumps({w: corpus.ops_digest(corpus.generate_inputs(w, 2026))
                  for w in corpus.WORKLOADS}))
"""


def _small_corpus_digests(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", SMALL_CORPUS, BENCH, SRC],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=600)
    return json.loads(out.stdout)


def test_corpus_is_independent_of_string_hashing():
    assert _small_corpus_digests("1") == _small_corpus_digests("2")


def test_frozen_corpora_carry_valid_digests():
    for workload in corpus.WORKLOADS:
        data = corpus.load(workload)
        assert data["ops"] and data["seed"] == corpus.DEFAULT_SEED


def test_sample_is_seeded_and_spread_over_work_ranks():
    ops = corpus.load("prove_closure")["ops"]
    a, b = run.sample(ops, 1), run.sample(ops, 2)
    assert a == run.sample(ops, 1)
    assert a != b
    assert sorted(o["id"] for o in a) == sorted(o["id"] for o in ops)
    # half a round already spans the cost ranks from end to end
    ranks = {o["id"]: r for r, o in enumerate(
        sorted(ops, key=lambda o: (o["cost_ms"], o["id"])))}
    first = [ranks[o["id"]] for o in a[:len(ops) // (2 * run.GROUP)]]
    assert min(first) < 0.1 * len(ops) and max(first) > 0.9 * len(ops)


def _some_ops(workload: str, count: int) -> list[dict]:
    ops = sorted(corpus.load(workload)["ops"], key=lambda o: o["cost_ms"])
    return ops[:count]


def test_wrong_expected_verdict_counts_as_failed():
    run.import_bvq()
    good = _some_ops("prove_closure", 4)
    wrong = dict(good[0], expect="not_found" if good[0]["expect"] == "proved"
                 else "proved")
    done, _ = run.counted_loop(good + [wrong], len(good) + 1)
    failures, digests, matched = run.check_all("prove_closure", done)
    assert [f["id"] for f in failures] == [wrong["id"]]
    assert matched == len(good) + 1 and len(digests) == len(good) + 1


def test_traced_self_times_account_for_traced_wall_time():
    run.import_bvq()
    order = _some_ops("reach_oracle", 30)
    tracer = Tracer()
    tracer.install()
    try:
        done, wall = run.counted_loop(order, len(order), tracer)
    finally:
        tracer.uninstall()
    total = sum(tracer.self_s.values())
    assert abs(total - wall) <= 0.01 * wall
    assert tracer.calls["structures.canon"] > 0
    assert tracer.calls["search.bfs"] == len(order)
    assert {s[1] for s in tracer.spans} >= {"bench", "bench.op", "cli",
                                           "search.bfs"}
    failures, _, _ = run.check_all("reach_oracle", done)
    assert not failures


def test_uninstall_restores_every_function():
    import bvq.calculus
    import bvq.search

    before = (bvq.search.canonical_key, bvq.calculus.apply_instance,
              bvq.search._search)
    tracer = Tracer()
    tracer.install()
    assert bvq.search.canonical_key is not before[0]
    tracer.uninstall()
    assert (bvq.search.canonical_key, bvq.calculus.apply_instance,
            bvq.search._search) == before
