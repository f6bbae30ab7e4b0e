import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bvq import calculus
from bvq.calculus import (
    AI_DOWN, AI_DOWN_LEFT, DOWN_FRAGMENT, Derivation, DerivationError, Q_DOWN,
    RuleInstance, Step, SWITCH, U_DOWN, apply_instance,
    breadth_first, pairable, check_derivation, check_derivation_detail, derivation_from_dict,
    derivation_to_dict, enumerate_instances, replay, start_derivation,
)
from bvq.structures import (
    Atom, CoPar, Name, ONE, Par, Sdq, Seq, assign_ids, canonical_key,
    canonicalize, free_bases, iter_atoms, mk_par, mk_seq, negate,
    parse_structure, print_structure, size, uid_set,
)

from helpers import extend


def structure(text):
    return canonicalize(parse_structure(text))


def instances(s, fragment=DOWN_FRAGMENT):
    return [inst for inst, _ in enumerate_instances(s, fragment)]


def find_instance(s, rule, premise_text):
    want = canonical_key(parse_structure(premise_text))
    for inst, _ in enumerate_instances(s, frozenset({rule})):
        if canonical_key(apply_instance(s, inst)) == want:
            return inst
    return None


def test_q_down_internal_communication_instance():
    s = structure("[<a;e>;<~a;f>]")
    assert find_instance(s, Q_DOWN, "<[a;~a];[e;f]>") is not None


def test_ai_down_root_instance():
    s = structure("[a;~a]")
    insts = instances(s, frozenset({AI_DOWN}))
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
    d = extend(d, instances(d.premise, frozenset({AI_DOWN}))[0])
    return d


def test_check_derivation_internal_communication():
    d = _internal_comm_derivation()
    assert check_derivation(d)
    assert len(d.steps) == 2
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
    assert len(d.steps) == 2 - 1


def test_instance_size_accounting():
    rng = random.Random(3)
    from bvq.selftest import random_proof
    hosts = [structure("[(a;b);~a;<c;~c>]")]  # include a switch redex
    for _ in range(15):
        d = random_proof(rng, max_atoms=8, max_steps=4)
        hosts.extend(d.structures())
    rules_seen = set()
    for s in hosts:
        for inst, _ in enumerate_instances(s):
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
        for inst in instances(s)[:20]:
            one = extend(Derivation(s), inst)
            assert check_derivation(one)


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


_RULE_ORDER = {AI_DOWN: 0, Q_DOWN: 1, U_DOWN: 2, SWITCH: 3}


def _state_order(inst):
    """The order the enumeration once sorted all instances of a state by:
    rule, path, consumed keys, replacement key, consumed occurrence ids."""
    return (_RULE_ORDER[inst.rule], inst.path,
            tuple(map(canonical_key, inst.consumed)),
            canonical_key(inst.replacement), inst.consumed_uids())


def test_enumeration_is_deterministic():
    s = structure("[<a;b>;<~a;~b>;fo c.c]")
    first = [_state_order(i) for i in instances(s)]
    second = [_state_order(i) for i in instances(s)]
    assert first == second == sorted(first)


def _reference_instances(s):
    """Reference enumeration over ordered pairs, with no symmetry pruned:
    every non-interaction instance is applied, no-ops and duplicates are
    dropped only after canonicalizing, and all instances of the state are
    sorted at once."""
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
    out.sort(key=_state_order)
    return out


def _described(inst):
    return (inst.rule, inst.path,
            tuple((print_structure(c), tuple(a.uid for a in iter_atoms(c)))
                  for c in inst.consumed),
            print_structure(inst.replacement), inst.consumed_ids,
            inst.consumed_uids())


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
    pairs = list(enumerate_instances(s))
    assert [_described(i) for i, _ in pairs] == \
        [_described(i) for i in _reference_instances(s)]
    # each instance comes with the state rewritten at it
    assert all(print_structure(tree) == print_structure(calculus._rewrite(s, i))
               for i, tree in pairs)


@pytest.mark.parametrize("text, calls", [
    ("[<a;b>;<~a;~b>;c]", 15),                 # 42 with ordered pairs
    ("[<a;b;c>;<~a;~b>;[d;<e;f>]]", 41),       # 106
    ("[fo a.<a;b>;fo a.<~a;c>;d]", 9),         # 28
])
def test_enumeration_applies_only_instances_it_keeps(monkeypatch, text, calls):
    # the filters key the rewritten trees, so no premise is built or
    # canonicalized to key it, with or without a quantifier
    applied, rewritten, canonicalized = [], [], []
    rewrite = calculus._rewrite

    def counting_apply(s, inst):
        applied.append(inst)
        return apply_instance(s, inst)

    def counting_rewrite(s, inst):
        rewritten.append(inst)
        return rewrite(s, inst)

    def counting_canonicalize(s):
        canonicalized.append(s)
        return canonicalize(s)

    monkeypatch.setattr(calculus, "apply_instance", counting_apply)
    monkeypatch.setattr(calculus, "_rewrite", counting_rewrite)
    monkeypatch.setattr(calculus, "canonicalize", counting_canonicalize)
    kept = instances(structure(text))
    assert {id(i) for i in applied} <= {id(i) for i in kept}
    assert len(rewritten) == len(kept) == calls
    assert applied == [] and canonicalized == []


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


# the composed proof of `bvq reach 'c.(~c.~c.0|nu a.0)' '~c.0' 'c;~c'`:
# step 2's q_down matches two instances that take either of two identical
# c atoms, and only the second lets step 3's consumed ids match
TWO_MATCHING_C = {
    "conclusion": "[c;<c;~c;~c>;<~c;c>]", "premise": "1",
    "steps": [
        {"rule": "q_down", "path": [], "consumedIds": [],
         "redexBefore": "[<c;~c;~c>;<~c;c>]", "redexAfter": "<[c;~c];[<~c;~c>;c]>"},
        {"rule": "ai_down", "path": [["par", 1], ["seq", 0]], "consumedIds": [1, 4],
         "redexBefore": "[c;~c]", "redexAfter": "1"},
        {"rule": "q_down", "path": [], "consumedIds": [],
         "redexBefore": "[c;<~c;~c>]", "redexAfter": "<[c;~c];[1;~c]>"},
        {"rule": "ai_down", "path": [["par", 1], ["seq", 0]], "consumedIds": [2, 5],
         "redexBefore": "[c;~c]", "redexAfter": "1"},
        {"rule": "ai_down", "path": [], "consumedIds": [0, 3],
         "redexBefore": "[c;~c]", "redexAfter": "1"}]}


def test_json_read_back_backtracks_over_identical_atoms():
    d = derivation_from_dict(TWO_MATCHING_C)
    assert check_derivation(d) and canonical_key(d.premise) == "1"
    assert derivation_to_dict(d) == TWO_MATCHING_C
    data = json.loads(json.dumps(TWO_MATCHING_C))
    data["steps"][4]["consumedIds"] = [0, 9]
    with pytest.raises(DerivationError, match="step 4: no matching ai_down instance"):
        derivation_from_dict(data)


def test_fragment_restriction():
    with pytest.raises(Exception):
        list(enumerate_instances(structure("[a;~a]"), frozenset({"ai_up"})))
    assert frozenset({AI_DOWN, AI_DOWN_LEFT, SWITCH, Q_DOWN, U_DOWN}) == DOWN_FRAGMENT


def test_breadth_first_goal_test_and_budgets():
    # n -> 2n, 2n+1 below 4: breadth-first order 1, 2, 3, 4, 5, 6, 7
    def succ(n):
        return [("2n", 2 * n, 2 * n), ("2n+1", 2 * n + 1, 2 * n + 1)] if n < 4 else []

    def run(goal, max_steps=100, max_visited=100):
        return breadth_first(1, 1, succ, lambda k: k == goal,
                             max_steps, max_visited)

    assert run(1) == ([], "goal", 0, 1)
    assert run(6) == ([("2n+1", 3), ("2n", 6)], "goal", 5, 6)
    assert run(9) == (None, "closed", 6, 7)
    assert run(6, max_steps=4) == (None, "steps", 5, 5)
    assert run(6, max_visited=4) == (None, "visited", 4, 5)
    # a goal is returned when generated, before the visited bound is checked
    assert run(5, max_visited=4) == ([("2n", 2), ("2n+1", 5)], "goal", 4, 5)


def against(premise):
    """The canonical negation of ``premise``: the ``nf`` of ``pairable``."""
    return canonicalize(negate(parse_structure(premise)))


def test_pairable_counts_free_bases_and_bound_occurrences_apart():
    # a matching pairs off each class, so a premise whose positive minus
    # negative count differs in some class is refuted
    s = parse_structure("[a;~a;<b;b>]")
    assert pairable(s, against("<b;b>"))
    assert not pairable(s) and not pairable(s, against("b"))
    # bound occurrences of every binder form one class
    s = parse_structure("[fo a.[a;b]; ~a; fo c.<~c;~c>; fo b.[b;b]]")
    assert pairable(s, against("[fo d.d; ~a; b]"))
    assert not pairable(s, against("[d; ~a; b]"))
    assert not pairable(s, against("[fo d.d; ~a]"))
    # a vacuous binder binds nothing
    assert pairable(parse_structure("fo a.~b"), against("~b"))
    assert not pairable(parse_structure("fo a.~b"), against("fo b.~b"))


def numbered(text):
    """``text`` parsed as written, its atoms numbered left to right."""
    return assign_ids(parse_structure(text))[0]


def test_pairable_needs_par_related_complements():
    assert pairable(numbered("[a;~a]"))
    assert pairable(numbered("[<a;b>;<~a;~b>]"))
    # Seq- and CoPar-related complements never interact
    assert not pairable(numbered("<a;~a>"))
    assert not pairable(numbered("(a;~a)"))
    assert not pairable(numbered("[<a;b>;<~a;~b>;<c;~c>]"))
    # every atom needs a partner of its own: two a's cannot share one ~a,
    # and one a cannot serve two ~a's
    assert not pairable(numbered("[<a;a>;~a]"))
    assert not pairable(numbered("[a;~a;~a]"))
    # the second a pairs only with the first ~a, which the first a must
    # then leave for it: a matching, not a greedy choice
    assert pairable(numbered("[a;~a;<a;~a>]"))
    assert pairable(ONE)


def test_pairable_puts_bound_atoms_of_every_binder_in_one_class():
    # u_down may merge the two binders, so their atoms may still meet
    assert pairable(numbered("[fo a.a; fo b.~b]"))
    assert pairable(numbered("fo a.[a; fo b.~b]"))
    assert not pairable(numbered("fo a.<a; fo b.~b>"))
    # a bound atom never pairs with a free one of the same base
    assert not pairable(numbered("[fo a.a; ~a]"))


def test_pairable_keeps_environment_atoms_off_the_negated_premise():
    # ~a(0) a(1) in Seq, beside a twin a(2): toward the premise a, one
    # a survives to meet the premise's negation, and it can only be a(1)
    s = numbered("[<~a;a>; a]")
    assert not pairable(s)
    assert pairable(s, against("a")) and pairable(s, against("a"), {0, 2})
    # an environment atom must die before the premise is reached
    assert not pairable(s, against("a"), {1})
    assert not pairable(s, against("a"), {1, 2})
    # the negated premise is told apart by its place, not by its ids:
    # its ~a carries id 0, an environment id, and still meets a(1)
    assert pairable(s, numbered("~a"), {0, 2})


def test_remove_children_takes_the_very_object_before_a_congruent_one(
        monkeypatch):
    first, second = Atom(Name("a")), Atom(Name("a"))
    # congruent and without ids, the two have the same occurrences
    monkeypatch.setattr(calculus, "same_occurrences", lambda a, b: False)
    rest = calculus._remove_children((first, second), (second,))
    assert len(rest) == 1 and rest[0] is first
    monkeypatch.undo()
    # an absent object is matched by its occurrences
    rest = calculus._remove_children((first, second), (Atom(Name("a")),))
    assert len(rest) == 1 and rest[0] is second
    assert calculus._remove_children((first,), (Atom(Name("b")),)) is None
