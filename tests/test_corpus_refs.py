"""Frozen benchmark corpora as regression references.

Every 20th operation of the ``prove_closure`` and ``standardize_battery``
corpora reproduces the exit code and the output digest frozen with its
corpus.  Every 20th ``reach_oracle`` operation is run and checked the
way the benchmark checks it (``bench/ops.py``), so its verdict agrees
with the transition-system oracle; the standard derivation and the
transition-system witness of a proved judgment are then read back from
its output and checked again.  The composed proof is checked inside
``reach`` only: its printed occurrence ids follow the numbering of the
standard derivation, not the left-to-right numbering that
``derivation_from_dict`` assigns, so it does not always read back.
Reach outputs are not compared by digest, because part of the reach
references predate printing Par components in structure-key order."""

import json
import os
import sys

import pytest

from bvq.bridge import to_structure
from bvq.calculus import check_derivation, derivation_from_dict
from bvq.ccsr import (
    actions_normalize, check_lts_derivation, lts_from_dict, parse_actions,
    parse_process, process_congruent,
)
from bvq.standardize import is_standard
from bvq.structures import canonical_key

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import ops  # noqa: E402

SAMPLED = [(w, op) for w in ("prove_closure", "standardize_battery")
           for op in corpus.load(w)["ops"][::20]]
REACH = corpus.load("reach_oracle")["ops"][::20]


@pytest.mark.parametrize("op", [op for _, op in SAMPLED],
                         ids=[f"{w}-{op['id']}" for w, op in SAMPLED])
def test_output_matches_frozen_reference(op):
    res = ops.execute(op)
    assert res.rc == (1 if op["expect"] == "not_found" else 0), res.error
    assert ops.output_digest(res.out) == op["ref"]


@pytest.mark.parametrize("op", REACH, ids=[f"reach_oracle-{op['id']}" for op in REACH])
def test_reach_verdict_and_certificates_check(op):
    res = ops.execute(op)
    assert ops.check("reach_oracle", op, res) is None
    if res.rc != 0:
        return
    payload = json.loads(res.out)
    _, e_t, f_t, a_t, *_ = op["argv"]
    e, f, alpha = parse_process(e_t), parse_process(f_t), parse_actions(a_t)
    standard = derivation_from_dict(payload["standardDerivation"])
    assert check_derivation(standard) and is_standard(standard)
    assert canonical_key(standard.premise) == canonical_key(to_structure(f))
    witness = lts_from_dict(payload["ltsWitness"])
    assert check_lts_derivation(witness)
    assert process_congruent(witness.source, e)
    assert process_congruent(witness.target, f)
    assert actions_normalize(witness.label) == actions_normalize(alpha)
