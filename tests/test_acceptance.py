"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Criteria and tolerances are fixed here; nothing is calibrated at
run time."""

import random
import time

from bvq.bridge import classify_structure
from bvq.calculus import AI_DOWN, AI_DOWN_LEFT, U_DOWN, Q_DOWN, check_derivation
from bvq.ccsr import (
    check_lts_derivation, lts_reachable, parse_actions, parse_process,
    print_actions,
)
from bvq.search import reach, prove, reduce
from bvq.selftest import compare_with_oracle, random_proof
from bvq.standardize import is_standard, standardize
from bvq.structures import (
    canonical_key, canonicalize, congruent, parse_structure, print_structure,
    size,
)

from helpers import random_trivial_derivation


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    v = reach(parse_process("nu a.(a.b.0|~a.0)"), parse_process("nu a.(0|0)"),
              parse_actions("b"))
    elapsed = time.perf_counter() - t0
    ok = v.proved
    # the environment structure carries the complementary label, so the
    # worked conclusion reads [fo a.[<a;b>;~a]; ~b]
    want = parse_structure("[fo a.[<a;b>;~a]; ~b]")
    ok = ok and congruent(v.standard.conclusion, want)
    ok = ok and check_lts_derivation(v.witness)
    ok = ok and print_actions(v.witness.label) == "b"
    ok = ok and elapsed < 1.0
    _report("criterion 1: worked-example reproduction", ok,
            f"{elapsed * 1000:.0f} ms")


def test_criterion_2_milner_contrast():
    e = parse_process("(nu a.a.b.0)|(nu a.~a.0)")
    f = parse_process("nu a.(0|0)")
    alpha = parse_actions("b")
    default_ok = lts_reachable(e, f, alpha, 6) is not None
    milner_ok = lts_reachable(e, f, alpha, 6, milner_mode=True) is not None
    proved = reach(e, f, alpha).proved
    pair = (default_ok, milner_ok)
    _report("criterion 2: milner contrast", pair == (True, False) and proved,
            f"pair={pair}, reach={'proved' if proved else 'not found'}")


def test_criterion_3_size_triple():
    sizes = (size(parse_structure("[a;~a]")),
             size(parse_structure("fo b.[a;~a]")),
             size(parse_structure("fo a.[a;~a]")))
    _report("criterion 3: size triple", sizes == (2, 2, 3), f"sizes={sizes}")


def test_criterion_4_canonicalization_suite():
    # right-recursive grouping is written explicitly in this grammar
    pairs = [
        ("[[~a;~b]; fo c.~c]", "[~a;~b;fo c.~c]"),
        ("[a;1]", "a"),
        ("~[a;(1;b)]", "(~a;~b)"),
        ("[~a;(~b;fo d.~c)]", "[~a;(~b;~c)]"),
    ]
    ok = True
    for text, want in pairs:
        got1 = print_structure(canonicalize(parse_structure(text)))
        got2 = print_structure(canonicalize(parse_structure(text)))
        ok = ok and got1 == want == got2
    _report("criterion 4: canonicalization suite", ok)


def test_criterion_5_standardization_suite():
    rng = random.Random(20260808)
    total = 200
    good = 0
    for _ in range(total):
        d = random_proof(rng, max_atoms=12, max_steps=8)
        out = standardize(d)
        if check_derivation(out) and is_standard(out) and \
                congruent(out.conclusion, d.conclusion) and \
                congruent(out.premise, d.premise):
            good += 1
    nested = prove(parse_structure("[a; fo b.<~a;[b;~b]>]"))
    nested_ok = nested.found
    if nested_ok:
        std = standardize(nested.derivation)
        nested_ok = is_standard(std) and check_derivation(std) and \
            congruent(std.conclusion, nested.derivation.conclusion) and \
            canonical_key(std.premise) == "1"
    _report("criterion 5: standardization suite",
            good == total and nested_ok, f"{good}/{total} random proofs")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    report = compare_with_oracle(random.Random(2026), processes=500, depth=6)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 300
    _report("criterion 6: oracle equivalence", ok,
            f"{report.judgments} judgments, "
            f"{len(report.completeness_failures)} completeness failures, "
            f"{len(report.soundness_failures)} soundness failures, "
            f"{len(report.refutation_failures)} refutation failures, "
            f"{elapsed:.0f} s")
    for msg in (report.completeness_failures + report.soundness_failures
                + report.refutation_failures):
        print("   disagreement:", msg)


def test_criterion_7_fact_suites():
    rng = random.Random(77)
    violations = []
    # (a) reduction keeps process endpoints and standardness
    reduced = 0
    from bvq.selftest import random_process
    from bvq.ccsr import lts_steps, is_simple_process
    for _ in range(40):
        e = random_process(rng, 8)
        for f, alpha, _ in lts_steps(e)[1:3]:
            if not is_simple_process(f):
                continue
            v = reach(e, f, alpha)
            if not v.proved:
                continue
            if not any(st.rule in (AI_DOWN, AI_DOWN_LEFT)
                       for st in v.standard.steps):
                continue
            red = reduce(v.standard)
            reduced += 1
            if not classify_structure(red.conclusion).is_process or \
                    not classify_structure(red.premise).is_process:
                violations.append("reduce endpoints")
            if any(st.rule in (AI_DOWN, AI_DOWN_LEFT) for st in red.steps) \
                    and not is_standard(red):
                violations.append("reduce standardness")
    # (b) trivial derivations with process endpoints: quantifier merges and
    # the restricted Seq moves only
    trivial_cases = 0
    for _ in range(80):
        e = random_process(rng, 8)
        d = random_trivial_derivation(rng, canonicalize(e))
        if not classify_structure(d.premise).is_process:
            continue
        trivial_cases += 1
        for st in d.steps:
            if st.rule not in (Q_DOWN, U_DOWN):
                violations.append("trivial rule set")
    # (c) trivial derivations from a simple premise: merges only
    from bvq.calculus import Derivation
    from bvq.ccsr import ZERO, Name
    from bvq.structures import Par, Sdq
    simple_cases = 0
    for _ in range(80):
        comps = []
        for _ in range(rng.randrange(2, 4)):
            base = rng.choice("abc")
            leaf = ZERO if rng.random() < 0.2 else parse_process(f"{base}.0")
            if rng.random() < 0.7:
                leaf = Sdq(Name(base), leaf)
            comps.append(leaf)
        e = comps[0]
        for c in comps[1:]:
            e = Par((e, c))
        d = random_trivial_derivation(rng, canonicalize(e),
                                      keep_process_premise=False)
        for k in range(1, len(d.steps) + 1):
            prefix = Derivation(d.conclusion, d.steps[:k])
            if not classify_structure(prefix.premise).is_simple:
                continue
            simple_cases += 1
            if any(st.rule != U_DOWN for st in prefix.steps):
                violations.append("simple premise rule set")
            if not classify_structure(prefix.conclusion).is_simple:
                violations.append("simple premise conclusion")
    ok = not violations and reduced > 0 and trivial_cases > 0 and simple_cases > 0
    _report("criterion 7: fact suites", ok,
            f"{reduced} reductions, {trivial_cases} trivial, "
            f"{simple_cases} simple, {len(violations)} violations")


def test_criterion_8_negative_proof_search():
    a = prove(parse_structure("[<a;b>;<~b;~a>]"))
    b = prove(parse_structure("[a;a]"))
    ok = (not a.found and not a.exhausted and
          not b.found and not b.exhausted)
    _report("criterion 8: negative proof search", ok,
            f"{a.stopped_by} after {a.visited} states, "
            f"{b.stopped_by} after {b.visited}")
