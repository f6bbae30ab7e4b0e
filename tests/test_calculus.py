import random

import pytest
from hypothesis import given, settings, strategies as st

from bvq import calculus
from bvq.calculus import (
    AI_DOWN, AI_DOWN_LEFT, AI_UP, DOWN_FRAGMENT, Derivation, Q_DOWN,
    RuleInstance, Step, SWITCH, U_DOWN, apply_instance, breadth_first,
    check_derivation, check_derivation_detail, concat, derivation_from_dict,
    derivation_length, derivation_to_dict, enumerate_instances, extend,
    replay, start_derivation,
)
from bvq.structures import (
    Atom, CoPar, Name, ONE, Par, Sdq, Seq, assign_ids, canonical_key,
    canonicalize, free_bases, iter_atoms, mk_par, mk_seq, negate,
    parse_structure, print_structure, size, strip_ids, uid_set,
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


def _reference_instances(s):
    """Reference enumeration over ordered pairs, with no symmetry pruned:
    every non-interaction instance is applied, and no-ops and duplicates
    are dropped only after canonicalizing."""
    out, seen = [], set()
    root_key = canonical_key(s)
    for path, node in calculus._par_nodes(s):
        parts, n = node.parts, len(node.parts)
        insts = list(calculus._node_instances(node, path, frozenset({AI_DOWN, SWITCH})))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for h1, t1 in calculus._splits(parts[i]):
                    for h2, t2 in calculus._splits(parts[j]):
                        repl = mk_seq([mk_par([h1, h2]), mk_par([t1, t2])])
                        insts.append(RuleInstance(Q_DOWN, path, (parts[i], parts[j]),
                                                  repl, frozenset()))
        for i in range(n):
            if not isinstance(parts[i], Sdq):
                continue
            binder = parts[i].binder
            for j in range(n):
                if i == j:
                    continue
                other = parts[j]
                if isinstance(other, Sdq):
                    if other.binder != binder:
                        continue
                    body = mk_par([parts[i].body, other.body])
                elif binder.base not in free_bases(other):
                    body = mk_par([parts[i].body, other])
                else:
                    continue
                insts.append(RuleInstance(U_DOWN, path, (parts[i], other),
                                          Sdq(binder, body), frozenset()))
        for inst in insts:
            if inst.rule == AI_DOWN:
                out.append(inst)
                continue
            pk = canonical_key(apply_instance(s, inst))
            if pk == root_key:
                continue
            dedup = (inst.rule, inst.path, pk, inst.consumed_uids())
            if dedup in seen:
                continue
            seen.add(dedup)
            out.append(inst)
    out.sort(key=RuleInstance.sort_key)
    return out


def _described(inst):
    return (inst.rule, inst.path,
            tuple((print_structure(c), tuple(a.uid for a in iter_atoms(c)))
                  for c in inst.consumed),
            print_structure(inst.replacement), inst.consumed_ids)


_names = st.builds(Name, st.sampled_from("abc"), st.booleans())
_raw = st.recursive(
    st.builds(Atom, _names),
    lambda sub: st.one_of(
        st.builds(Seq, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Par, st.lists(sub, min_size=2, max_size=4).map(tuple)),
        st.builds(CoPar, st.lists(sub, min_size=2, max_size=2).map(tuple)),
        st.builds(Sdq, st.builds(Name, st.sampled_from("ab")), sub),
    ),
    max_leaves=7,
)


@settings(max_examples=200, deadline=None)
@given(_raw, st.booleans())
def test_enumeration_equals_the_ordered_pair_reference(raw, numbered):
    s = canonicalize(raw)
    if numbered:
        s, _ = assign_ids(s)
    assert [_described(i) for i in enumerate_instances(s)] == \
        [_described(i) for i in _reference_instances(s)]


@pytest.mark.parametrize("text, calls", [
    ("[<a;b>;<~a;~b>;c]", 15),                 # 42 with ordered pairs
    ("[<a;b;c>;<~a;~b>;[d;<e;f>]]", 41),       # 106
    ("[fo a.<a;b>;fo a.<~a;c>;d]", 9),         # 28
])
def test_enumeration_applies_only_instances_it_keeps(monkeypatch, text, calls):
    applied = []

    def counting(s, inst):
        applied.append(inst)
        return apply_instance(s, inst)

    monkeypatch.setattr(calculus, "apply_instance", counting)
    kept = enumerate_instances(structure(text))
    assert len(applied) == len(kept) == calls


def test_json_roundtrip():
    d = _internal_comm_derivation()
    data = derivation_to_dict(d)
    d2 = derivation_from_dict(data)
    assert check_derivation(d2)
    assert canonical_key(d2.premise) == canonical_key(d.premise)
    assert derivation_to_dict(d2) == data


def test_json_step_may_list_a_pair_in_mirrored_order():
    d = _internal_comm_derivation()
    data = derivation_to_dict(d)
    data["steps"][0].update(redexBefore="[<~a;f>;<a;e>]",
                            redexAfter="<[~a;a];[f;e]>")
    assert derivation_to_dict(derivation_from_dict(data)) == derivation_to_dict(d)


def test_fragment_restriction():
    with pytest.raises(Exception):
        enumerate_instances(structure("[a;~a]"), frozenset({"ai_up"}))
    assert frozenset({AI_DOWN, AI_DOWN_LEFT, SWITCH, Q_DOWN, U_DOWN}) == DOWN_FRAGMENT


def test_breadth_first_goal_test_and_budgets():
    # n -> 2n, 2n+1 below 4: breadth-first order 1, 2, 3, 4, 5, 6, 7
    def succ(n):
        return [("2n", 2 * n), ("2n+1", 2 * n + 1)] if n < 4 else []

    def run(goal, max_steps=100, max_visited=100):
        return breadth_first(1, lambda n: n, succ, lambda k: k == goal,
                             max_steps, max_visited)

    assert run(1) == ([], False, 0, 1)
    assert run(6) == ([("2n+1", 3), ("2n", 6)], False, 5, 6)
    assert run(9) == (None, False, 6, 7)          # closed state space
    assert run(6, max_steps=4) == (None, True, 5, 5)
    assert run(6, max_visited=4) == (None, True, 4, 5)
    # a goal is returned when generated, before the visited bound is checked
    assert run(5, max_visited=4) == ([("2n", 2), ("2n+1", 5)], False, 4, 5)
