"""Frozen benchmark corpora as regression references.

Every 20th operation of the ``prove_closure`` and ``standardize_battery``
corpora reproduces the exit code and the output digest frozen with its
corpus.  Every 20th ``reach_oracle`` operation is run and checked the
way the benchmark checks it (``bench/ops.py``), so its verdict agrees
with the transition-system oracle; the standard derivation and the
transition-system witness of a proved judgment are then read back from
its output and checked again, and so is the composed proof, whose
conclusion must be ``[<E>; ~<F>; R]`` for the environment ``R`` of the
judgment and whose premise must be the unit.  The search's
``stats.steps`` and ``stats.visited`` of each sampled reach operation
are pinned, and so is which of them the search refutes because its start
is a dead end (``calculus.pairable``).  Every sampled operation is run
once more with the dead-end test patched out: it reaches the same
verdict (a refuted one by closing its state space), and its counts,
those of the search before the test, stay pinned.  Reach outputs are not
compared by digest, because part of the reach references predate
printing Par components in structure-key order."""

import json
import os
import sys

import pytest

from bvq import search
from bvq.bridge import actions_to_env
from bvq.calculus import check_derivation, derivation_from_dict
from bvq.ccsr import (
    actions_normalize, check_lts_derivation, lts_from_dict, parse_actions,
    parse_process,
)
from bvq.standardize import is_standard
from bvq.structures import canonical_key, congruent, mk_par, negate

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import ops  # noqa: E402

SAMPLED = [(w, op) for w in ("prove_closure", "standardize_battery")
           for op in corpus.load(w)["ops"][::20]]
REACH = corpus.load("reach_oracle")["ops"][::20]
# stats.steps and stats.visited of each sampled reach operation, by id,
# when the search is run without the dead-end test: a change to the
# state space the search generates changes these
REACH_STATS = {
    0: (0, 1), 20: (497, 140), 40: (511, 142), 60: (0, 1), 80: (3, 4),
    100: (0, 1), 120: (4194, 822), 140: (0, 1), 160: (0, 1), 180: (0, 1),
    200: (3, 4), 220: (3, 4), 240: (495, 140), 260: (1, 2), 280: (0, 1),
    300: (0, 1), 320: (6, 7), 340: (1, 2), 360: (0, 1), 380: (0, 1),
    400: (9, 7), 420: (9, 7), 440: (0, 1), 460: (9, 7), 480: (37, 20),
    500: (0, 1), 520: (37, 20), 540: (923, 256), 560: (175, 63),
    580: (497, 140), 600: (9, 7), 620: (205, 63), 640: (497, 140),
    660: (314, 91), 687: (0, 1), 707: (0, 1), 727: (18, 11), 747: (0, 1),
    767: (0, 1), 787: (1, 2), 807: (0, 1), 827: (1422, 589), 853: (0, 1),
    873: (9, 7), 893: (130, 48), 913: (45, 22), 933: (543, 203), 953: (3, 4),
    973: (0, 1), 993: (7, 7), 1017: (3, 4), 1037: (1, 2), 1057: (0, 1),
    1077: (0, 1), 1097: (0, 1), 1117: (45, 22), 1137: (1, 2), 1157: (0, 1),
    1177: (3, 4), 1197: (0, 1), 1217: (3, 4), 1237: (1, 2), 1257: (21, 11),
    1277: (0, 1), 1297: (1, 2), 1317: (807, 205), 1337: (37, 20),
    1357: (45, 22), 1377: (0, 1), 1397: (0, 1), 1417: (37, 20),
    1437: (893, 260), 1457: (0, 1), 1477: (9, 7), 1497: (0, 1), 1517: (7, 7),
    1537: (126, 48), 1557: (1457, 338), 1577: (0, 1), 1597: (495, 140),
}
# the same counts, for the sampled operations the search does not
# refute, when it does not expand a dead-end state
# (``calculus.pairable``)
REACH_PRUNED = {
    0: (0, 1), 20: (53, 52), 120: (300, 238), 160: (0, 1), 240: (53, 52),
    260: (1, 2), 300: (0, 1), 320: (5, 6), 340: (1, 2), 380: (0, 1),
    480: (13, 14), 500: (0, 1), 520: (13, 14), 540: (151, 114),
    560: (43, 37), 580: (53, 52), 640: (53, 52), 687: (0, 1), 707: (0, 1),
    747: (0, 1), 787: (1, 2), 807: (0, 1), 827: (580, 393), 853: (0, 1),
    893: (34, 30), 933: (179, 139), 993: (5, 6), 1037: (1, 2), 1057: (0, 1),
    1137: (1, 2), 1237: (1, 2), 1297: (1, 2), 1317: (186, 123),
    1337: (13, 14), 1377: (0, 1), 1397: (0, 1), 1417: (13, 14),
    1437: (150, 115), 1457: (0, 1), 1517: (5, 6), 1537: (34, 30),
    1597: (53, 52),
}
# the sampled operations whose start is a dead end: the search refutes
# them at (0, 1) before generating a state, and the search with the
# pruning patched out closes their state space without a derivation
REFUTED = {
    40, 60, 80, 100, 140, 180, 200, 220, 280, 360, 400, 420, 440, 460, 600,
    620, 660, 727, 767, 873, 913, 953, 973, 1017, 1077, 1097, 1117, 1157,
    1177, 1197, 1217, 1257, 1277, 1357, 1477, 1497, 1557, 1577,
}


@pytest.mark.parametrize("op", [op for _, op in SAMPLED],
                         ids=[f"{w}-{op['id']}" for w, op in SAMPLED])
def test_output_matches_frozen_reference(op):
    res = ops.execute(op)
    assert res.rc == (1 if op["expect"] == "not_found" else 0), res.error
    assert ops.output_digest(res.out) == op["ref"]


def _run_reach(op: dict) -> dict:
    """Run and check the operation with ``--timings``, which adds the
    search's stop reason to its stats; returns the output."""
    res = ops.execute(dict(op, argv=[*op["argv"], "--timings"]))
    assert ops.check("reach_oracle", op, res) is None
    return json.loads(res.out)


@pytest.mark.parametrize("op", REACH, ids=[f"reach_oracle-{op['id']}" for op in REACH])
def test_reach_verdict_and_certificates_check(op, monkeypatch):
    payload = _run_reach(op)
    stats = payload["stats"]
    if op["id"] in REFUTED:
        assert (stats["stoppedBy"], stats["steps"], stats["visited"]) == (
            "refuted", 0, 1)
    else:
        assert stats["stoppedBy"] != "refuted"
        assert (stats["steps"], stats["visited"]) == REACH_PRUNED[op["id"]]
    monkeypatch.setattr(search, "pairable", lambda *args: True)
    unpruned = _run_reach(op)
    assert unpruned["status"] == payload["status"]
    closed = "closed" if op["id"] in REFUTED else stats["stoppedBy"]
    assert (unpruned["stats"]["stoppedBy"], unpruned["stats"]["pruned"]) == (
        closed, 0)
    assert (unpruned["stats"]["steps"], unpruned["stats"]["visited"]) == \
        REACH_STATS[op["id"]]
    if payload["status"] != "proved":
        return
    _, e_t, f_t, a_t, *_ = op["argv"]
    e, f, alpha = parse_process(e_t), parse_process(f_t), parse_actions(a_t)
    standard = derivation_from_dict(payload["standardDerivation"])
    assert check_derivation(standard) and is_standard(standard)
    assert canonical_key(standard.premise) == canonical_key(f)
    proof = derivation_from_dict(payload["proof"])
    assert check_derivation(proof) and canonical_key(proof.premise) == "1"
    goal = mk_par([e, negate(f), actions_to_env(alpha)])
    assert canonical_key(proof.conclusion) == canonical_key(goal)
    witness = lts_from_dict(payload["ltsWitness"])
    assert check_lts_derivation(witness)
    assert congruent(witness.source, e)
    assert congruent(witness.target, f)
    assert actions_normalize(witness.label) == actions_normalize(alpha)
