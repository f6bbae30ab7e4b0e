import json
import random

import pytest

from bvq.ccsr import (
    LtsNode, ProcessError, RULE_ACT, RULE_COM, RULE_REFL, RULE_RES_MERGE,
    SILENT, ZERO, actions_normalize, check_lts_derivation, check_lts_detail,
    enumerate_reachable, hide_actions, is_simple_process, lts_from_dict,
    lts_reachable, lts_steps, lts_to_dict, par_of, parse_actions,
    parse_process, prefix, print_actions, print_process, tran_node,
)
from bvq.structures import Atom, Name, ONE, Par, Sdq, Seq, congruent


def proc(text):
    return parse_process(text)


def actions_congruent(a, b):
    return actions_normalize(a) == actions_normalize(b)


def process_size(p):
    """Prefixes, parallel compositions, restrictions and zeros in the
    process ``p`` as parsed."""
    if p is ONE:
        return 1
    if isinstance(p, Seq):
        return 1 + process_size(p.parts[1])
    if isinstance(p, Sdq):
        return 1 + process_size(p.body)
    if isinstance(p, Par):
        return 1 + sum(process_size(q) for q in p.parts)
    raise TypeError(f"not a process: {p!r}")


def test_parse_examples():
    p = proc("nu a.(a.b.0 | ~a.0)")
    assert isinstance(p, Sdq)
    assert isinstance(p.body, Par)
    assert proc("0") == ZERO == ONE
    with pytest.raises(ProcessError):
        proc("nu ~a.0")
    with pytest.raises(ProcessError):
        proc("a.")


def test_parse_rejects_deep_nesting_with_its_own_error():
    with pytest.raises(ProcessError, match="^input nests too deeply$"):
        proc("a." * 1500 + "0")


def test_parse_top_level_parallel():
    p = proc("(nu a.a.b.0)|(nu a.~a.0)")
    assert isinstance(p, Par)


def test_parse_builds_the_image_as_written():
    a, b = Atom(Name("a")), Atom(Name("b", False))
    assert proc("a.~b.0|0") == Par((Seq((a, Seq((b, ONE)))), ONE))
    assert proc("a.0|~b.0|0") == Par((Par((prefix(a.name, ONE),
                                           prefix(b.name, ONE))), ONE))
    assert proc("nu a.0") == Sdq(Name("a"), ONE)


def test_print_nests_par_to_the_left_and_ends_prefixes_in_zero():
    for text in ["0", "a.0", "(0|a.0)", "((a.0|b.0)|~c.0)", "(a.0|(b.0|c.0))",
                 "nu a.a.~b.(a.0|0)", "a.nu b.b.0"]:
        assert print_process(proc(text)) == text
    assert print_process(Par((Atom(Name("a")), ONE, Seq(tuple(
        Atom(Name(x)) for x in "bcd"))))) == "((a.0|0)|b.c.d.0)"


def test_print_parse_roundtrip():
    for text in ["0", "a.0", "~a.b.0", "(a.0|b.0)", "nu a.(a.0|~a.0)"]:
        assert congruent(proc(print_process(proc(text))), proc(text))


def test_process_congruence():
    assert congruent(proc("a.0|0"), proc("a.0"))
    assert congruent(proc("nu a.a.0"), proc("nu b.b.0"))
    assert congruent(proc("a.0|b.0"), proc("b.0|a.0"))
    assert congruent(proc("nu a.0"), ZERO)
    assert congruent(proc("nu a.nu b.(a.0|b.0)"),
                             proc("nu b.nu a.(b.0|a.0)"))
    assert not congruent(proc("a.b.0"), proc("b.a.0"))


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


def test_a_communication_beside_other_components_is_framed(capsys, tmp_path):
    # com joins the two communicating components only; cntxp frames the
    # third around it
    from bvq.cli import main
    assert main(["lts", "e.0|~e.0|~a.0", "~a.0", "tau", "--json"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert [witness["rule"], witness["children"][0]["rule"]] == ["cntxp", "com"]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    assert main(["check", "--lts", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_oracle_witnesses_in_wide_parallels_check():
    # Pars of three or four small processes: every witness within two
    # steps, with and without Milner's restriction
    from bvq.selftest import random_process
    rng = random.Random(11)
    for _ in range(80):
        e = par_of([random_process(rng, 5) for _ in range(rng.randint(3, 4))])
        for milner in (False, True):
            for _, _, w in enumerate_reachable(e, 2, milner_mode=milner):
                assert check_lts_detail(w) == (True, "ok"), print_process(e)


def test_checker_rejects_bad_nodes():
    bad_refl = LtsNode(RULE_REFL, proc("a.0"), proc("b.0"), SILENT)
    ok, msg = check_lts_detail(bad_refl)
    assert not ok and "refl" in msg
    a1 = LtsNode(RULE_ACT, proc("a.0"), ZERO, parse_actions("a"))
    a2 = LtsNode(RULE_ACT, proc("b.0"), ZERO, parse_actions("b"))
    bad_com = LtsNode(RULE_COM, proc("a.0|b.0"), proc("0|0"), SILENT, (a1, a2))
    ok, msg = check_lts_detail(bad_com)
    assert not ok and "complementary" in msg


def test_checker_rejects_a_restriction_hiding_its_own_action():
    # nu b.b.0 has no step at all: neither a unary hiding of the
    # restriction's own action nor a merge with nothing beside it reads
    # the firing of b.0 as one
    inner = LtsNode(RULE_ACT, proc("b.0"), ZERO, parse_actions("b"))
    assert check_lts_derivation(inner)
    for rule in ("res_hide", RULE_RES_MERGE):
        node = LtsNode(rule, proc("nu b.b.0"), proc("nu b.0"), SILENT, (inner,))
        ok, msg = check_lts_detail(node)
        assert not ok and msg.startswith(rule + ": ")
    assert lts_reachable(proc("nu b.b.0"), ZERO, SILENT, 4) is None


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
