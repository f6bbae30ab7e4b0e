"""Property tests for congruence, which processes share with structures
through the bridge image, and for the scanner both grammars share."""

import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from bvq.ccsr import (
    PNu, PPar, PPrefix, ProcessError, ZERO, parse_process, print_process,
    process_congruent, process_key,
)
from bvq.structures import (
    Atom, CoPar, Name, Not, ONE, Par, Sdq, Seq, StructureError, congruent,
    parse_structure, print_structure,
)
from bvq.bridge import to_structure

BASES = ["a", "b", "c", "d"]

names = st.builds(Name, st.sampled_from(BASES), st.booleans())

processes = st.recursive(
    st.just(ZERO),
    lambda sub: st.one_of(
        st.builds(PPrefix, names, sub),
        st.builds(PPar, sub, sub),
        st.builds(PNu, st.builds(Name, st.sampled_from(BASES)), sub),
    ),
    max_leaves=8,
)


def _parts(items):
    return st.lists(items, min_size=2, max_size=3).map(tuple)


structures = st.recursive(
    st.one_of(st.just(ONE), st.builds(Atom, names)),
    lambda sub: st.one_of(
        st.builds(Seq, _parts(sub)),
        st.builds(Par, _parts(sub)),
        st.builds(CoPar, _parts(sub)),
        st.builds(Not, st.one_of(st.builds(Seq, _parts(sub)),
                                 st.builds(Par, _parts(sub)))),
        st.builds(Sdq, st.builds(Name, st.sampled_from(BASES)), sub),
    ),
    max_leaves=8,
)


def _longest_chain(p) -> int:
    if isinstance(p, PNu):
        n, q = 0, p
        while isinstance(q, PNu):
            n, q = n + 1, q.body
        return max(n, _longest_chain(q))
    if isinstance(p, PPrefix):
        return _longest_chain(p.body)
    if isinstance(p, PPar):
        return max(_longest_chain(p.left), _longest_chain(p.right))
    return 0


def _par_items(p) -> list:
    if isinstance(p, PPar):
        return _par_items(p.left) + _par_items(p.right)
    return [p]


def _nest(items: list, rng: random.Random):
    if len(items) == 1:
        return items[0]
    cut = rng.randrange(1, len(items))
    return PPar(_nest(items[:cut], rng), _nest(items[cut:], rng))


def scramble(p, rng: random.Random, env=None, fresh=None):
    """A congruent variant: every binder gets a fresh name, restriction
    chains are permuted and parallel components are shuffled and
    regrouped."""
    env = {} if env is None else env
    fresh = iter(f"x{i}" for i in range(10_000)) if fresh is None else fresh
    if isinstance(p, PPrefix):
        base = env.get(p.label.base, p.label.base)
        return PPrefix(Name(base, p.label.positive), scramble(p.body, rng, env, fresh))
    if isinstance(p, PPar):
        items = [scramble(q, rng, env, fresh) for q in _par_items(p)]
        rng.shuffle(items)
        return _nest(items, rng)
    if isinstance(p, PNu):
        chain, q = [], p
        inner = dict(env)
        while isinstance(q, PNu):
            new = next(fresh)
            inner[q.name.base] = new
            chain.append(new)
            q = q.body
        body = scramble(q, rng, inner, fresh)
        rng.shuffle(chain)
        for new in reversed(chain):
            body = PNu(Name(new), body)
        return body
    return p


@settings(max_examples=150, deadline=None)
@given(processes, processes, st.randoms(use_true_random=False), st.booleans())
def test_process_congruence_is_structure_congruence(p, q, rng, related):
    if related:
        q = scramble(p, rng)
    assert process_congruent(p, q) == congruent(to_structure(p), to_structure(q))


@settings(max_examples=200, deadline=None)
@given(processes, st.randoms(use_true_random=False))
def test_process_key_invariant_under_renaming_and_reordering(p, rng):
    assume(_longest_chain(p) <= 6)
    assert process_key(scramble(p, rng)) == process_key(p)


@settings(max_examples=200, deadline=None)
@given(processes)
def test_process_print_parse_round_trip(p):
    assert parse_process(print_process(p)) == p


@settings(max_examples=200, deadline=None)
@given(structures)
def test_structure_print_parse_round_trip(s):
    assert parse_structure(print_structure(s)) == s


_POSITION = re.compile(r" at position (\d+)$")


@settings(max_examples=200, deadline=None)
@given(st.one_of(processes.map(lambda p: ("process", print_process(p))),
                 structures.map(lambda s: ("structure", print_structure(s)))),
       st.data())
def test_parse_errors_keep_class_and_position(case, data):
    grammar, text = case
    cut = data.draw(st.integers(0, len(text)))
    junk = data.draw(st.sampled_from(["", ")", "]", ">", "|", ";", "~", "!", "."]))
    broken = text[:cut] + junk
    parse, error_cls = ((parse_process, ProcessError) if grammar == "process"
                        else (parse_structure, StructureError))
    try:
        parse(broken)
    except ValueError as exc:
        assert type(exc) is error_cls
        m = _POSITION.search(str(exc))
        assert m is not None, str(exc)
        assert 0 <= int(m.group(1)) <= len(broken)


@pytest.mark.xfail(strict=True, reason="ROADMAP open item 3: congruence "
                   "keeps the given binder order on chains longer than 6")
def test_seven_binder_chain_congruent_to_its_reversal():
    bases = "abcdefg"
    body = "<" + ";".join(bases) + ">"
    forward = "".join(f"fo {b}." for b in bases) + body
    backward = "".join(f"fo {b}." for b in reversed(bases)) + body
    prefixes = "".join(f"{b}." for b in bases) + "0"
    forward_p = "".join(f"nu {b}." for b in bases) + prefixes
    backward_p = "".join(f"nu {b}." for b in reversed(bases)) + prefixes
    verdicts = (
        congruent(parse_structure(forward), parse_structure(backward)),
        process_congruent(parse_process(forward_p), parse_process(backward_p)),
    )
    assert verdicts == (True, True)
