import random

import pytest

from bvq.ccsr import (
    LtsNode, PNu, PPar, ProcessError, RULE_ACT, RULE_COM, RULE_REFL, SILENT,
    ZERO, actions_congruent, actions_normalize, check_lts_derivation,
    check_lts_detail, enumerate_reachable, hide_actions, is_simple_process,
    lts_from_dict, lts_reachable, lts_steps, lts_to_dict, parse_actions,
    parse_process, print_actions, print_process, process_congruent,
    process_size, tran_node,
)


def proc(text):
    return parse_process(text)


def test_parse_examples():
    p = proc("nu a.(a.b.0 | ~a.0)")
    assert isinstance(p, PNu)
    assert isinstance(p.body, PPar)
    assert proc("0") == ZERO
    with pytest.raises(ProcessError):
        proc("nu ~a.0")
    with pytest.raises(ProcessError):
        proc("a.")


def test_parse_rejects_deep_nesting_with_its_own_error():
    with pytest.raises(ProcessError, match="^input nests too deeply$"):
        proc("a." * 1500 + "0")


def test_parse_top_level_parallel():
    p = proc("(nu a.a.b.0)|(nu a.~a.0)")
    assert isinstance(p, PPar)


def test_print_parse_roundtrip():
    for text in ["0", "a.0", "~a.b.0", "(a.0|b.0)", "nu a.(a.0|~a.0)"]:
        assert process_congruent(proc(print_process(proc(text))), proc(text))


def test_process_congruence():
    assert process_congruent(proc("a.0|0"), proc("a.0"))
    assert process_congruent(proc("nu a.a.0"), proc("nu b.b.0"))
    assert process_congruent(proc("a.0|b.0"), proc("b.0|a.0"))
    assert process_congruent(proc("nu a.0"), ZERO)
    assert process_congruent(proc("nu a.nu b.(a.0|b.0)"),
                             proc("nu b.nu a.(b.0|a.0)"))
    assert not process_congruent(proc("a.b.0"), proc("b.a.0"))


def test_actions_normalize():
    a1 = parse_actions("a1;~a1;tau;tau")
    assert print_actions(actions_normalize(a1)) == "a1;~a1"
    assert actions_normalize(parse_actions("tau")) == SILENT
    assert print_actions(actions_normalize(parse_actions("tau;b"))) == "b"
    assert actions_congruent(parse_actions("a;tau"), parse_actions("a"))


def test_hide_actions():
    assert hide_actions(parse_actions("a;b;~a"), "a") == parse_actions("b")
    assert hide_actions(parse_actions("a"), "a") == SILENT


def test_process_size():
    assert process_size(ZERO) == 1
    assert process_size(proc("a.0")) == 2
    assert process_size(proc("nu a.(a.0|~a.0)")) == 6


def test_lts_steps_com():
    succs = {(print_process(t), print_actions(l))
             for t, l, _ in lts_steps(proc("a.0|~a.0"))}
    assert ("0", "tau") in succs


def test_lts_steps_under_restriction():
    succs = {(print_process(t), print_actions(l))
             for t, l, n in lts_steps(proc("nu a.(a.b.0|~a.0)"))}
    # nu a.(b.0|0) is congruent to b.0
    assert ("b.0", "tau") in succs


def test_lts_steps_merge_restrictions():
    steps = lts_steps(proc("(nu a.a.b.0)|(nu a.~a.0)"))
    succs = {(print_process(t), print_actions(l)) for t, l, _ in steps}
    assert ("b.0", "tau") in succs
    for _, _, node in steps:
        assert check_lts_derivation(node)


def test_milner_mode_blocks_merge():
    steps = lts_steps(proc("(nu a.a.b.0)|(nu a.~a.0)"), milner_mode=True)
    assert [(print_process(t), print_actions(l)) for t, l, _ in steps] == \
        [("(nu a.~a.0|nu a.a.b.0)", "tau")]


def test_milner_results_subset_of_default():
    rng = random.Random(17)
    from bvq.selftest import random_process
    for _ in range(40):
        e = random_process(rng, 8)
        default = {(print_process(t), print_actions(l))
                   for t, l, _ in enumerate_reachable(e, 3)}
        milner = {(print_process(t), print_actions(l))
                  for t, l, _ in enumerate_reachable(e, 3, milner_mode=True)}
        assert milner <= default


def test_lts_reachable_examples():
    f = proc("nu a.(0|0)")
    w = lts_reachable(proc("nu a.(a.b.0|~a.0)"), f, parse_actions("b"), 4)
    assert w is not None and check_lts_derivation(w)
    w2 = lts_reachable(proc("(nu a.a.b.0)|(nu a.~a.0)"), f, parse_actions("b"), 4)
    assert w2 is not None and check_lts_derivation(w2)
    assert lts_reachable(proc("(nu a.a.b.0)|(nu a.~a.0)"), f,
                         parse_actions("b"), 4, milner_mode=True) is None
    assert lts_reachable(proc("a.0"), ZERO, parse_actions("b"), 4) is None


def test_lts_reachable_reflexive():
    for text in ["0", "a.0", "nu a.(a.0|b.0)"]:
        w = lts_reachable(proc(text), proc(text), parse_actions("tau"), 0)
        assert w is not None and w.rule == RULE_REFL


def test_lts_reachable_congruence_invariant():
    e1, e2 = proc("a.0|b.0"), proc("b.0|(a.0|0)")
    f = proc("b.0")
    for milner in (False, True):
        w1 = lts_reachable(e1, f, parse_actions("a"), 3, milner)
        w2 = lts_reachable(e2, f, parse_actions("a"), 3, milner)
        assert (w1 is None) == (w2 is None)


def test_every_step_witness_checks():
    rng = random.Random(29)
    from bvq.selftest import random_process
    for _ in range(30):
        e = random_process(rng, 8)
        for _, _, node in lts_steps(e):
            assert check_lts_derivation(node)


def test_checker_rejects_bad_nodes():
    bad_refl = LtsNode(RULE_REFL, proc("a.0"), proc("b.0"), SILENT)
    ok, msg = check_lts_detail(bad_refl)
    assert not ok and "refl" in msg
    a1 = LtsNode(RULE_ACT, proc("a.0"), ZERO, parse_actions("a"))
    a2 = LtsNode(RULE_ACT, proc("b.0"), ZERO, parse_actions("b"))
    bad_com = LtsNode(RULE_COM, proc("a.0|b.0"), proc("0|0"), SILENT, (a1, a2))
    ok, msg = check_lts_detail(bad_com)
    assert not ok and "complementary" in msg


def test_checker_accepts_solo_hide_nodes():
    # the checker also admits the unary hiding reading of restriction,
    # which hand-built certificates may use
    inner = LtsNode(RULE_ACT, proc("b.0"), ZERO, parse_actions("b"))
    node = LtsNode("res_hide", proc("nu b.b.0"), proc("nu b.0"), SILENT, (inner,))
    assert check_lts_derivation(node)


def test_simple_processes():
    assert is_simple_process(proc("a.0|~b.0"))
    assert not is_simple_process(proc("a.0|~a.0"))
    assert not is_simple_process(proc("a.b.0"))
    assert is_simple_process(ZERO)
    assert is_simple_process(proc("nu a.(a.0|b.0)"))
    # the same prefix may repeat
    assert is_simple_process(proc("a.0|(nu b.(a.0|b.0))"))


def test_lts_json_roundtrip():
    w = lts_reachable(proc("nu a.(a.b.0|~a.0)"), proc("0"), parse_actions("b"), 4)
    data = lts_to_dict(w)
    again = lts_from_dict(data)
    assert check_lts_derivation(again)
    assert lts_to_dict(again) == data


def test_tran_composition_labels():
    a = LtsNode(RULE_ACT, proc("a.b.0"), proc("b.0"), parse_actions("a"))
    b = LtsNode(RULE_ACT, proc("b.0"), ZERO, parse_actions("b"))
    t = tran_node(a, b)
    assert print_actions(t.label) == "a;b"
    assert check_lts_derivation(t)
