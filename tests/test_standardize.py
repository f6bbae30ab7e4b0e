import json
import random

import pytest

from bvq.calculus import (
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, check_derivation, derivation_from_dict,
    enumerate_instances, extend, replay, start_derivation,
)
from bvq.standardize import (
    StandardizationError, commute_once, is_right_context, is_standard,
    relabel, seq_number, seq_numbers, standardize,
)
from bvq.structures import (
    canonical_key, congruent, iter_atoms, parse_structure, print_structure,
    strip_ids,
)
from bvq.search import derive
from bvq.selftest import random_proof, random_trivial_derivation


def test_right_context_examples():
    host = parse_structure("[a; fo c.[b;<x;~c;d>]]")
    first = (("par", 1), ("fo", 0), ("par", 1), ("seq", 0))
    second = (("par", 1), ("fo", 0), ("par", 1), ("seq", 1))
    assert is_right_context(host, first)
    assert not is_right_context(host, second)
    assert is_right_context(parse_structure("x"), ())
    assert not is_right_context(parse_structure("<[a;~a];x>"), (("seq", 1),))


def test_right_context_ignores_unit_lefts():
    host = parse_structure("<1;x>")
    assert is_right_context(host, (("seq", 1),))


def test_seq_number_counts():
    host = parse_structure("<t;x>")
    assert seq_number(host, (("seq", 1),)) == 1
    host2 = parse_structure("<t;<u;x>>")
    assert seq_number(host2, (("seq", 1),)) == 1
    nested = parse_structure("<t;<u;x>>")
    # non-flattened hosts keep their nesting for path purposes
    assert seq_number(nested, (("seq", 1), ("seq", 1))) == 2
    assert seq_number(parse_structure("[x;y]"), (("par", 0),)) == 0


def _ai_step(d, blocked=None):
    insts = enumerate_instances(d.premise, frozenset({AI_DOWN}))
    if blocked is not None:
        insts = [i for i in insts
                 if (seq_number(d.premise, i.path) > 0) == blocked]
    return extend(d, insts[0])


def test_is_standard_tracing_example():
    concl = parse_structure("[<a;r>;<~b;t>;<~a;b>]")
    out = derive(concl, parse_structure("[r;t]"), "standard")
    assert out.found and is_standard(out.derivation)


def test_is_standard_rejects_blocked_interaction():
    # an interaction in the right slot of <[a;~a]; _> is not standard
    d = start_derivation(parse_structure("<[a;~a];[b;~b]>"))
    insts = enumerate_instances(d.premise, frozenset({AI_DOWN}))
    blocked = [i for i in insts if i.consumed[0].name.base == "b"]
    d = extend(d, blocked[0])
    assert check_derivation(d)
    assert not is_standard(d)
    assert seq_numbers(d) == [(0, 1)]


def test_rule_free_derivation_is_standard():
    d = start_derivation(parse_structure("[a;b]"))
    assert is_standard(d)


def test_relabel_marks_right_interactions():
    d = start_derivation(parse_structure("[a;~a]"))
    d = _ai_step(d)
    out = relabel(d)
    assert out.rules() == ["ai_down_left"]
    assert check_derivation(out)


def test_commute_once_relabels_when_already_right():
    d = start_derivation(parse_structure("[a;~a;b]"))
    d = _ai_step(d)
    out = commute_once(d, 0)
    assert out.rules() == ["ai_down_left"]


def test_conversion_inserts_quantifier_and_seq_moves():
    # proof of [a; fo b.<~a;[b;~b]>] whose inner pair was introduced right
    # of a Seq; the standard form inserts a quantifier move and a Seq move
    d = start_derivation(parse_structure("[a; fo b.<~a;[b;~b]>]"))
    d = _ai_step(d, blocked=True)
    d = _ai_step(d)
    assert canonical_key(d.premise) == "1"
    assert not is_standard(d)
    out = standardize(d)
    assert check_derivation(out) and is_standard(out)
    assert congruent(out.conclusion, d.conclusion)
    assert canonical_key(out.premise) == "1"
    assert out.rules() == ["u_down", "q_down", "ai_down_left", "ai_down_left"]


def test_commute_once_exchanges_disjoint_interactions():
    d = start_derivation(parse_structure("[<x;[a;~a]>;~x]"))
    d = _ai_step(d, blocked=True)   # the pair right of x
    d = _ai_step(d)                 # then x against ~x
    assert canonical_key(d.premise) == "1"
    out = commute_once(d, 0)
    assert check_derivation(out)
    assert congruent(out.conclusion, d.conclusion)
    # the blocked interaction moved upward past the other one
    blocked = [i for i, n in seq_numbers(out) if n > 0]
    assert blocked == [] or min(blocked) > 0


def test_standardize_random_proofs():
    rng = random.Random(2)
    for _ in range(40):
        d = random_proof(rng, max_atoms=10, max_steps=6)
        out = standardize(d)
        assert check_derivation(out)
        assert is_standard(out)
        assert congruent(out.conclusion, d.conclusion)
        assert congruent(out.premise, d.premise)


# the 10th draw of random_proof(random.Random(51), max_atoms=12, max_steps=8)
REJECTED_PROOF = json.loads("""
{"conclusion": "[~a;b;~b;<[a;a;~a];[b;<~b;[a;~a];[a;~a]>]>]", "premise": "1",
 "steps": [
  {"rule": "ai_down", "path": [["par", 3], ["seq", 1], ["par", 1], ["seq", 1]],
   "redexBefore": "[a;~a]", "redexAfter": "1", "consumedIds": [8, 9]},
  {"rule": "ai_down", "path": [["par", 3], ["seq", 1], ["par", 1], ["seq", 1]],
   "redexBefore": "[a;~a]", "redexAfter": "1", "consumedIds": [10, 11]},
  {"rule": "ai_down", "path": [["par", 3], ["seq", 0]],
   "redexBefore": "[a;~a]", "redexAfter": "1", "consumedIds": [3, 5]},
  {"rule": "ai_down", "path": [["par", 3], ["seq", 1]],
   "redexBefore": "[b;~b]", "redexAfter": "1", "consumedIds": [6, 7]},
  {"rule": "ai_down", "path": [],
   "redexBefore": "[a;~a]", "redexAfter": "1", "consumedIds": [0, 4]},
  {"rule": "ai_down", "path": [],
   "redexBefore": "[b;~b]", "redexAfter": "1", "consumedIds": [1, 2]}]}
""")


def test_rejected_goal_has_a_standard_proof():
    premises = [
        (Q_DOWN, "[b;~b;<[~a;a;a;~a];[b;<~b;[a;~a];[a;~a]>]>]"),
        (AI_DOWN_LEFT, "[b;~b;<[a;~a];[b;<~b;[a;~a];[a;~a]>]>]"),
        (AI_DOWN_LEFT, "[b;~b;b;<~b;[a;~a];[a;~a]>]"),
        (AI_DOWN_LEFT, "[b;<~b;[a;~a];[a;~a]>]"),
        (Q_DOWN, "<[b;~b];[a;~a];[a;~a]>"),
        (AI_DOWN_LEFT, "<[a;~a];[a;~a]>"),
        (AI_DOWN_LEFT, "[a;~a]"),
        (AI_DOWN_LEFT, "1"),
    ]
    goal = parse_structure(REJECTED_PROOF["conclusion"])
    d = replay(start_derivation(goal),
               [(rule, canonical_key(parse_structure(p)), None)
                for rule, p in premises])
    assert d is not None and check_derivation(d) and is_standard(d)
    assert relabel(d).rules() == [rule for rule, _ in premises]


@pytest.mark.xfail(strict=True, raises=StandardizationError,
                   reason="commute_once finds no commuting conversion for "
                          "one blocked interaction of this proof")
def test_standardize_six_step_proof_with_a_standard_form():
    d = derivation_from_dict(REJECTED_PROOF)
    assert check_derivation(d) and len(d.steps) == 6
    out = standardize(d)
    assert check_derivation(out) and is_standard(out)


def test_unstandardizable_derivation_reports():
    d = start_derivation(parse_structure("<c;[a;~a]>"))
    d = _ai_step(d)
    assert check_derivation(d)
    with pytest.raises(StandardizationError):
        standardize(d)


def test_topmost_interaction_of_proofs_is_left():
    # searched proofs always close with a left interaction
    from bvq.search import prove
    for goal in ["[<a;b>;<~a;~b>]", "[a;~a;b;~b]", "fo a.[a;~a]"]:
        out = prove(parse_structure(goal))
        assert out.found
        ai_steps = [(i, st) for i, st in enumerate(out.derivation.steps)
                    if st.rule == AI_DOWN]
        top_index = max(i for i, _ in ai_steps)
        host = out.derivation.steps[top_index - 1].result if top_index else \
            out.derivation.conclusion
        assert seq_number(host, out.derivation.steps[top_index].instance.path) == 0


def test_preserving_right_contexts_along_trivial_derivations():
    # tracking one atom occurrence up a quantifier/Seq-only derivation:
    # once blocked, always blocked (reading upward)
    rng = random.Random(13)
    from bvq.selftest import random_process
    from bvq.bridge import to_structure
    from bvq.structures import assign_ids, find_uid_path
    checked = 0
    for _ in range(60):
        e = random_process(rng, 8)
        base, _ = assign_ids(
            parse_structure(print_structure(strip_ids(to_structure(e)))))
        d = random_trivial_derivation(rng, base, keep_process_premise=False)
        chain = list(d.structures())
        for uid in sorted(a.uid for a in iter_atoms(base) if a.uid is not None):
            verdicts = []
            for s in chain:
                path = find_uid_path(s, uid)
                if path is None:
                    break
                verdicts.append(is_right_context(s, path))
            # reading upward from the conclusion: a non-right position
            # never becomes right again
            for lower, upper in zip(verdicts, verdicts[1:]):
                checked += 1
                if not lower:
                    assert not upper
    assert checked > 0
