"""Certificate bytes: every 20th operation of the ``prove_closure`` and
``standardize_battery`` benchmark corpora reproduces the exit code and the
output digest frozen with its corpus.  The reach corpus is left out: part
of its references predate printing Par components in structure-key
order."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import ops  # noqa: E402

SAMPLED = [(w, op) for w in ("prove_closure", "standardize_battery")
           for op in corpus.load(w)["ops"][::20]]


@pytest.mark.parametrize("op", [op for _, op in SAMPLED],
                         ids=[f"{w}-{op['id']}" for w, op in SAMPLED])
def test_output_matches_frozen_reference(op):
    res = ops.execute(op)
    assert res.rc == (1 if op["expect"] == "not_found" else 0), res.error
    assert ops.output_digest(res.out) == op["ref"]
