import random

import pytest
from hypothesis import given, settings, strategies as st

from bvq.calculus import (
    AI_DOWN, AI_DOWN_LEFT, AI_UP, DOWN_FRAGMENT, Derivation, Q_DOWN,
    RuleInstance, Step, SWITCH, U_DOWN, apply_instance, check_derivation,
    check_derivation_detail, concat, derivation_from_dict, derivation_length,
    derivation_to_dict, enumerate_instances, extend, replay, start_derivation,
)
from bvq.structures import (
    ONE, canonical_key, canonicalize, negate, parse_structure, size,
    strip_ids, uid_set,
)


def structure(text):
    return canonicalize(parse_structure(text))


def find_instance(s, rule, premise_text):
    want = canonical_key(parse_structure(premise_text))
    for inst in enumerate_instances(s, frozenset({rule})):
        if canonical_key(apply_instance(s, inst)) == want:
            return inst
    return None


def test_q_down_internal_communication_instance():
    s = structure("[<a;e>;<~a;f>]")
    assert find_instance(s, Q_DOWN, "<[a;~a];[e;f]>") is not None


def test_ai_down_root_instance():
    s = structure("[a;~a]")
    insts = enumerate_instances(s, frozenset({AI_DOWN}))
    assert len(insts) == 1
    assert canonical_key(apply_instance(s, insts[0])) == "1"


def test_u_down_hiding_instance():
    s = structure("[fo a.<a;e>; fo a.<~a;f>]")
    assert find_instance(s, U_DOWN, "fo a.[<a;e>;<~a;f>]") is not None


def test_u_down_degenerate_scope_wrap():
    # [fo a.R; T] matches when the binder is not free in T
    s = structure("[fo a.<a;b>; ~b]")
    assert find_instance(s, U_DOWN, "fo a.[<a;b>;~b]") is not None


def test_switch_instance():
    s = structure("[(a;b);~a]")
    assert find_instance(s, SWITCH, "([a;~a];b)") is not None


def _internal_comm_derivation():
    d = start_derivation(parse_structure("[<a;e>;<~a;f>]"))
    d = extend(d, find_instance(d.premise, Q_DOWN, "<[a;~a];[e;f]>"))
    d = extend(d, enumerate_instances(d.premise, frozenset({AI_DOWN}))[0])
    return d


def test_check_derivation_internal_communication():
    d = _internal_comm_derivation()
    assert check_derivation(d)
    assert derivation_length(d) == 2
    assert canonical_key(d.premise) == canonical_key(parse_structure("[e;f]"))


def test_check_rejects_misplaced_path():
    d = _internal_comm_derivation()
    bad_inst = RuleInstance(AI_DOWN, (), d.steps[1].instance.consumed, ONE,
                            d.steps[1].instance.consumed_ids)
    bad = Derivation(d.conclusion, (d.steps[0], Step(bad_inst, d.steps[1].result)))
    ok, msg = check_derivation_detail(bad)
    assert not ok and "step 1" in msg


def test_check_rejects_wrong_premise():
    d = _internal_comm_derivation()
    tampered = Derivation(d.conclusion,
                          (d.steps[0],
                           Step(d.steps[1].instance, structure("[e;e]"))))
    assert not check_derivation(tampered)


def test_trivial_derivation_checks():
    # quantifier moves only: no interaction happens
    d = start_derivation(parse_structure("[fo a.<a;b>; fo a.~a]"))
    inst = find_instance(d.premise, U_DOWN, "fo a.[<a;b>;~a]")
    d = extend(d, inst)
    assert check_derivation(d)
    assert derivation_length(d) == 2 - 1


def test_concat_lengths():
    d = _internal_comm_derivation()
    empty = Derivation(d.premise)
    assert derivation_length(concat(d, empty)) == derivation_length(d)


def test_instance_size_accounting():
    rng = random.Random(3)
    from bvq.selftest import random_proof
    hosts = [structure("[(a;b);~a;<c;~c>]")]  # include a switch redex
    for _ in range(15):
        d = random_proof(rng, max_atoms=8, max_steps=4)
        hosts.extend(d.structures())
    rules_seen = set()
    for s in hosts:
        for inst in enumerate_instances(s):
            rules_seen.add(inst.rule)
            got = apply_instance(s, inst)
            if inst.rule in (AI_DOWN, AI_DOWN_LEFT):
                assert size(got) == size(s) - 2
            else:
                assert size(got) == size(s)
    assert SWITCH in rules_seen and Q_DOWN in rules_seen


def test_every_instance_yields_checking_step():
    rng = random.Random(9)
    from bvq.selftest import random_proof
    for _ in range(10):
        d = random_proof(rng, max_atoms=8, max_steps=4)
        s = d.conclusion
        for inst in enumerate_instances(s)[:20]:
            one = extend(Derivation(s), inst)
            assert check_derivation(one)


def test_up_rule_duality():
    # an up step is valid iff negating and swapping yields a down step
    d = _internal_comm_derivation()
    for st in d.steps:
        lower = canonicalize(negate(strip_ids(st.result)))
        upper_struct = st.result
        dual_rule = {AI_DOWN: "ai_up", Q_DOWN: "q_up", U_DOWN: "u_up"}[
            st.rule if st.rule != AI_DOWN_LEFT else AI_DOWN]
        up = Derivation(
            start_derivation(lower, number=False).conclusion,
            (Step(RuleInstance(dual_rule, (), (), ONE, frozenset()),
                  canonicalize(negate(strip_ids(
                      d.conclusion if st is d.steps[0] else d.steps[0].result)))),))
        # endpoints negated and swapped must validate in the full system
        assert check_derivation(up, system="full")


def test_full_system_rejects_an_up_step_no_down_step_mirrors():
    def up_step(upper):
        inst = RuleInstance(AI_UP, (), (), ONE, frozenset())
        return Derivation(structure("b"), (Step(inst, structure(upper)),))

    assert check_derivation_detail(up_step("[b;(a;~c)]"), system="full") == \
        (False, "step 0: invalid ai_up instance")
    assert check_derivation_detail(up_step("[b;(a;~a)]"), system="full") == \
        (True, "ok")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_replaying_a_proofs_own_recipe_rebuilds_it(seed):
    from bvq.selftest import random_proof
    d = random_proof(random.Random(seed), max_atoms=8, max_steps=5)
    recipe = [(s.rule, canonical_key(s.result), uid_set(s.result)) for s in d.steps]
    again = replay(Derivation(d.conclusion), recipe)
    assert again is not None and check_derivation(again)
    assert [(s.rule, canonical_key(s.result), uid_set(s.result))
            for s in again.steps] == recipe
    loose = replay(Derivation(d.conclusion), [(r, k, None) for r, k, _ in recipe])
    assert loose is not None and canonical_key(loose.premise) == "1"
    # nothing lies above the unit, and no premise carries a foreign id
    assert replay(Derivation(d.conclusion), recipe + [(AI_DOWN, "1", None)]) is None
    rule, key, ids = recipe[0]
    assert replay(Derivation(d.conclusion), [(rule, key, ids | {-7})]) is None


def test_enumeration_is_deterministic():
    s = structure("[<a;b>;<~a;~b>;fo c.c]")
    first = [i.sort_key() for i in enumerate_instances(s)]
    second = [i.sort_key() for i in enumerate_instances(s)]
    assert first == second == sorted(first)


def test_json_roundtrip():
    d = _internal_comm_derivation()
    data = derivation_to_dict(d)
    d2 = derivation_from_dict(data)
    assert check_derivation(d2)
    assert canonical_key(d2.premise) == canonical_key(d.premise)
    assert derivation_to_dict(d2) == data


def test_fragment_restriction():
    with pytest.raises(Exception):
        enumerate_instances(structure("[a;~a]"), frozenset({"ai_up"}))
    assert frozenset({AI_DOWN, AI_DOWN_LEFT, SWITCH, Q_DOWN, U_DOWN}) == DOWN_FRAGMENT
