import random

import pytest

from bvq.bridge import (
    BridgeError, actions_to_env, classify_structure, env_to_actions,
)
from bvq.calculus import Q_DOWN, U_DOWN, check_derivation
from bvq.ccsr import (
    SILENT, parse_actions, parse_process, print_actions, print_process,
)
from bvq.selftest import random_process
from bvq.structures import (
    ONE, Par, Sdq, Seq, canonicalize, congruent, parse_structure, print_structure,
    strip_ids,
)

from helpers import random_trivial_derivation


def test_to_structure_map():
    # the process map is the parse itself
    assert print_structure(parse_process("a.b.0|~a.0")) == "[<a;<b;1>>;<~a;1>]"
    assert parse_process("0") == ONE
    s = parse_process("nu a.(a.0|b.0)")
    assert isinstance(s, Sdq)


def test_from_structure_inverse():
    # and its inverse is the printer, on process-shaped structures
    s = canonicalize(parse_structure("[<a;b>;~a]"))
    assert print_process(s) == "(~a.0|a.b.0)"
    assert congruent(parse_process(print_process(s)), parse_process("a.b.0|~a.0"))
    assert print_process(ONE) == "0"
    s = parse_structure("(a;b)")
    assert not classify_structure(s).is_process
    with pytest.raises(TypeError):
        print_process(s)


def test_round_trip_random_processes():
    rng = random.Random(3)
    for _ in range(60):
        e = random_process(rng, 8)
        assert parse_process(print_process(e)) == e
        s = canonicalize(e)
        assert classify_structure(s).is_process
        assert congruent(parse_process(print_process(s)), s)


def test_classifier_examples():
    k = classify_structure(parse_structure("<~a;b>"))
    assert k.is_environment and k.is_process and not k.is_simple
    k = classify_structure(parse_structure("[a;~b]"))
    assert k.is_simple and k.is_process and k.is_tensor_free
    k = classify_structure(parse_structure("(~a;b)"))
    assert not k.is_tensor_free
    # a unit inside disqualifies an environment candidate once enforced
    # non-canonically; the canonical form here is a plain list again
    k = classify_structure(parse_structure("[a; fo b.[fo d.[a;~c];b]; a]"))
    assert k.is_simple
    k = classify_structure(parse_structure("<a;(b;c)>"))
    assert not k.is_environment and not k.is_process


def test_simple_process_matches_simple_structure():
    rng = random.Random(19)
    from bvq.ccsr import is_simple_process
    for _ in range(80):
        e = random_process(rng, 8)
        flag = classify_structure(e).is_simple
        assert flag == is_simple_process(e)


def test_env_to_actions_reads_complements():
    # a free label contributes the complementary action; bound ones are
    # silent (here both b1 and b2 are internal)
    s = parse_structure("<a1; fo b2.<~a1; fo b1.<b2;b1>>>")
    assert print_actions(env_to_actions(s)) == "~a1;a1"
    assert env_to_actions(ONE) == SILENT
    assert print_actions(env_to_actions(parse_structure("~b"))) == "b"


def test_env_to_actions_rejects_non_environment():
    with pytest.raises(BridgeError):
        env_to_actions(parse_structure("[a;b]"))


def test_actions_to_env():
    assert print_structure(actions_to_env(parse_actions("b"))) == "~b"
    assert print_structure(actions_to_env(parse_actions("a;b"))) == "<~a;~b>"
    assert actions_to_env(parse_actions("tau")) == ONE
    assert print_structure(actions_to_env(parse_actions("tau;~b"))) == "b"


def test_env_actions_round_trip():
    rng = random.Random(7)
    pool = ["a", "~a", "b", "~b", "c"]
    for _ in range(60):
        alpha = parse_actions(";".join(rng.choice(pool + ["tau"])
                                       for _ in range(rng.randrange(1, 5))))
        env = actions_to_env(parse_actions("tau")) if all(
            x == "tau" for x in print_actions(alpha).split(";")) else None
        env = actions_to_env(alpha)
        got = env_to_actions(env)
        assert print_actions(got) == print_actions(
            __import__("bvq.ccsr", fromlist=["actions_normalize"])
            .actions_normalize(alpha))


def test_trivial_derivations_on_process_structures_are_restricted():
    # quantifier merges and the two degenerate Seq shapes only
    rng = random.Random(23)
    seen_q = 0
    for _ in range(120):
        e = random_process(rng, 8)
        d = random_trivial_derivation(rng, canonicalize(e))
        if not classify_structure(d.premise).is_process:
            continue
        assert check_derivation(d)
        for i, st in enumerate(d.steps):
            assert st.rule in (Q_DOWN, U_DOWN)
            if st.rule == Q_DOWN:
                seen_q += 1
                repl = canonicalize(strip_ids(st.instance.replacement))
                assert isinstance(repl, Seq)
                head = repl.parts[0]
                from bvq.structures import Atom
                # head is a single label or the whole first component
                assert isinstance(head, Atom) or len(repl.parts) == 2
    assert seen_q >= 0


def _random_simple_process(rng):
    from bvq.ccsr import ZERO, Name, prefix
    comps = []
    for _ in range(rng.randrange(2, 4)):
        base = rng.choice("abc")
        leaf = ZERO if rng.random() < 0.2 else prefix(Name(base), ZERO)
        if rng.random() < 0.7:
            leaf = Sdq(Name(base), leaf)  # binds the prefix it wraps
        comps.append(leaf)
    out = comps[0]
    for c in comps[1:]:
        out = Par((out, c))
    return out


def test_trivial_derivations_from_simple_premise_use_only_merges():
    from bvq.calculus import Derivation
    rng = random.Random(29)
    hits = 0
    for _ in range(120):
        e = _random_simple_process(rng)
        d = random_trivial_derivation(rng, canonicalize(e),
                                      max_steps=4, keep_process_premise=False)
        for k in range(1, len(d.steps) + 1):
            prefix = Derivation(d.conclusion, d.steps[:k])
            if not classify_structure(prefix.premise).is_simple:
                continue
            hits += 1
            assert all(st.rule == U_DOWN for st in prefix.steps)
            assert classify_structure(prefix.conclusion).is_simple
    assert hits > 0
