"""Property tests for congruence, which processes share with structures
as structures themselves, for the canonicalization kernel against a
reference copy, for the key read from flattened views, for the marked
key and the reach search key, for the dead-end test the search refutes
and prunes by, and for the scanner both grammars share."""

import math
import random
import re
from itertools import islice, permutations
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bvq import search
from bvq.ccsr import (
    ProcessError, ZERO, enumerate_reachable, is_simple_process,
    lts_reachable, parse_actions, parse_process, prefix, print_process,
    process_key,
)
from bvq.calculus import (
    _rewrite, apply_instance, enumerate_instances, format_derivation,
    pairable,
)
from bvq.structures import (
    Atom, CoPar, Name, ONE, One, Par, Sdq, Seq, StructureError,
    assign_ids, canonical_key, canonicalize, congruent, iter_atoms,
    map_atoms, marked_key, mk_par, negate, parse_structure, print_structure,
    uid_set,
)

BASES = ["a", "b", "c", "d"]

names = st.builds(Name, st.sampled_from(BASES), st.booleans())

def _par2(left, right):
    return Par((left, right))


processes = st.recursive(
    st.just(ZERO),
    lambda sub: st.one_of(
        st.builds(prefix, names, sub),
        st.builds(_par2, sub, sub),
        st.builds(Sdq, st.builds(Name, st.sampled_from(BASES)), sub),
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
        st.builds(negate, st.one_of(st.builds(Seq, _parts(sub)),
                                    st.builds(Par, _parts(sub)))),
        st.builds(Sdq, st.builds(Name, st.sampled_from(BASES)), sub),
    ),
    max_leaves=8,
)


def _longest_chain(p) -> int:
    if isinstance(p, Sdq):
        n, q = 0, p
        while isinstance(q, Sdq):
            n, q = n + 1, q.body
        return max(n, _longest_chain(q))
    if isinstance(p, Seq):
        return _longest_chain(p.parts[1])
    if isinstance(p, Par):
        return max(_longest_chain(q) for q in p.parts)
    return 0


def _par_items(p) -> list:
    if isinstance(p, Par):
        return [r for q in p.parts for r in _par_items(q)]
    return [p]


def _nest(items: list, rng: random.Random):
    if len(items) == 1:
        return items[0]
    cut = rng.randrange(1, len(items))
    return Par((_nest(items[:cut], rng), _nest(items[cut:], rng)))


def scramble(p, rng: random.Random, env=None, fresh=None):
    """A congruent variant: every binder gets a fresh name, restriction
    chains are permuted and parallel components are shuffled and
    regrouped."""
    env = {} if env is None else env
    fresh = iter(f"x{i}" for i in range(10_000)) if fresh is None else fresh
    if isinstance(p, Seq):
        label, body = p.parts[0].name, p.parts[1]
        base = env.get(label.base, label.base)
        return prefix(Name(base, label.positive), scramble(body, rng, env, fresh))
    if isinstance(p, Par):
        items = [scramble(q, rng, env, fresh) for q in _par_items(p)]
        rng.shuffle(items)
        return _nest(items, rng)
    if isinstance(p, Sdq):
        chain, q = [], p
        inner = dict(env)
        while isinstance(q, Sdq):
            new = next(fresh)
            inner[q.binder.base] = new
            chain.append(new)
            q = q.body
        body = scramble(q, rng, inner, fresh)
        rng.shuffle(chain)
        for new in reversed(chain):
            body = Sdq(Name(new), body)
        return body
    return p


@settings(max_examples=150, deadline=None)
@given(processes, processes, st.randoms(use_true_random=False), st.booleans())
def test_process_congruence_is_structure_congruence(p, q, rng, related):
    # a process is its structure: its canonical form, printed as a process
    # and read back, is congruent to exactly what the process is
    if related:
        q = scramble(p, rng)
        assert congruent(p, q) or _longest_chain(p) > 6
    back = parse_process(print_process(canonicalize(p)))
    assert congruent(back, q) == congruent(p, q)


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


@settings(max_examples=200, deadline=None)
@given(structures)
def test_negation_is_an_involution_and_the_parsed_tilde(s):
    assert negate(negate(s)) == s
    assert parse_structure("~" + print_structure(s)) == negate(s)


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
        congruent(parse_process(forward_p), parse_process(backward_p)),
    )
    assert verdicts == (True, True)


# ---------------------------------------------------------------------------
# the canonicalization kernel against a reference copy
# ---------------------------------------------------------------------------
# The reference is the straightforward form of the kernel in
# ``bvq.structures``: isinstance dispatch, a frozenset of free names per
# node and three passes over the children.  The kernel must agree with
# it on keys, canonical structures and where every occurrence id lands.

_REF_BIG = 1 << 60


def _ref_prepare(s):
    if isinstance(s, One):
        return ONE, frozenset(), 0
    if isinstance(s, Atom):
        return s, frozenset((s.name.base,)), 0
    if isinstance(s, (Seq, Par, CoPar)):
        cls = type(s)
        parts, frees, count = [], set(), 0
        for p in s.parts:
            q, f, c = _ref_prepare(p)
            frees |= f
            count += c
            if isinstance(q, One):
                continue
            if isinstance(q, cls):
                parts.extend(q.parts)
            else:
                parts.append(q)
        if not parts:
            return ONE, frozenset(frees), count
        if len(parts) == 1:
            return parts[0], frozenset(frees), count
        return cls(tuple(parts)), frozenset(frees), count
    body, frees, count = _ref_prepare(s.body)
    if s.binder.base not in frees:
        return body, frees, count
    return Sdq(s.binder, body), frees - {s.binder.base}, count + 1


def _ref_candidates(frees, count):
    out, i = [], 0
    while len(out) < count:
        q, r = divmod(i, 26)
        cand = chr(ord("a") + r) + (str(q) if q else "")
        i += 1
        if cand not in frees:
            out.append(cand)
    return out


def _ref_canon(s, scope, depth, cands):
    if isinstance(s, One):
        return "1", ONE, _REF_BIG
    if isinstance(s, Atom):
        uid = s.uid if s.uid is not None else _REF_BIG
        sign = "+" if s.name.positive else "-"
        for i in range(len(scope) - 1, -1, -1):
            if scope[i][0] == s.name.base:
                dist = len(scope) - 1 - i
                return (f"Ab{dist}{sign}",
                        Atom(Name(scope[i][1], s.name.positive), s.uid), uid)
        return f"Af{s.name.base}{sign}", s, uid
    if isinstance(s, Seq):
        triples = [_ref_canon(p, scope, depth, cands) for p in s.parts]
        key = "S<" + ";".join(k for k, _, _ in triples) + ">"
        return (key, Seq(tuple(t for _, t, _ in triples)),
                min(u for _, _, u in triples))
    if isinstance(s, (Par, CoPar)):
        triples = [_ref_canon(p, scope, depth, cands) for p in s.parts]
        triples.sort(key=lambda kt: (kt[0], kt[2]))
        open_, close = ("P[", "]") if isinstance(s, Par) else ("C(", ")")
        key = open_ + ";".join(k for k, _, _ in triples) + close
        cls = Par if isinstance(s, Par) else CoPar
        return (key, cls(tuple(t for _, t, _ in triples)),
                min(u for _, _, u in triples))
    chain, body = [], s
    while isinstance(body, Sdq):
        chain.append(body.binder.base)
        body = body.body
    k = len(chain)
    orders = permutations(chain) if 1 < k <= 6 else iter([tuple(chain)])
    best: Optional[tuple] = None
    for order in orders:
        inner = scope + tuple((b, cands[depth + i]) for i, b in enumerate(order))
        got = _ref_canon(body, inner, depth + k, cands)
        if best is None or got[0] < best[0]:
            best = got
    out = best[1]
    for i in range(k - 1, -1, -1):
        out = Sdq(Name(cands[depth + i]), out)
    return f"Q{k}({best[0]})", out, best[2]


def _ref_canonical(s):
    core, frees, count = _ref_prepare(s)
    key, out, _ = _ref_canon(core, (), 0, _ref_candidates(frees, count))
    return key, out


def _chain(binders, body):
    for b in reversed(binders):
        body = Sdq(Name(b), body)
    return body


def _permutation_work(s) -> int:
    """Bodies the kernel canonicalizes for ``s``: chains of up to six
    binders are tried in every order, nested chains multiply."""
    if isinstance(s, Sdq):
        k, body = 0, s
        while isinstance(body, Sdq):
            k, body = k + 1, body.body
        orders = math.factorial(k) if k <= 6 else 1
        return orders * _permutation_work(body)
    if isinstance(s, (Seq, Par, CoPar)):
        return sum(_permutation_work(p) for p in s.parts)
    return 1


chained = st.builds(_chain, st.lists(st.sampled_from(BASES), min_size=1,
                                     max_size=6), structures)
kernel_inputs = st.one_of(
    structures, chained,
    st.builds(Par, _parts(st.one_of(structures, chained))),
    st.builds(negate, st.builds(Seq, _parts(st.one_of(structures, chained)))),
).filter(lambda s: _permutation_work(s) <= 5000).map(lambda s: assign_ids(s)[0])


def _shuffle_commutative(s, rng):
    """Numbered input whose commutative children are out of id order, so
    that ties between equal keys are broken by the smallest id."""
    if isinstance(s, (Par, CoPar)):
        parts = [_shuffle_commutative(p, rng) for p in s.parts]
        rng.shuffle(parts)
        return type(s)(tuple(parts))
    if isinstance(s, Seq):
        return Seq(tuple(_shuffle_commutative(p, rng) for p in s.parts))
    if isinstance(s, Sdq):
        return Sdq(s.binder, _shuffle_commutative(s.body, rng))
    return s


@settings(max_examples=300, deadline=None)
@given(kernel_inputs, st.randoms(use_true_random=False))
def test_kernel_agrees_with_reference_copy(s, rng):
    s = _shuffle_commutative(s, rng)
    key, out = _ref_canonical(s)
    assert canonical_key(s) == key
    got = canonicalize(s)
    assert print_structure(got) == print_structure(out)
    assert [a.uid for a in iter_atoms(got)] == [a.uid for a in iter_atoms(out)]


@settings(max_examples=300, deadline=None)
@given(structures)
# a vacuous quantifier's body flattens into the parent: keyed as [a;c;d]
@example(parse_structure("[a; fo b.[c;d]]"))
def test_canonical_key_agrees_with_the_reference_key(s):
    # the key is read from flattened views, a quantifier keyed whole
    assert canonical_key(s) == _ref_canonical(s)[0]
    # again from the views cached on the subterms, now inside a parent
    parent = Par((s, Atom(Name("a"))))
    assert canonical_key(parent) == _ref_canonical(parent)[0]


@settings(max_examples=150, deadline=None)
@given(structures, st.sampled_from(["raw", "canonical", "numbered"]))
def test_each_yielded_tree_keys_as_the_applied_premise(s, form):
    if form != "raw":
        s = canonicalize(s)
    if form == "numbered":
        s, _ = assign_ids(s)
    for inst, tree in enumerate_instances(s):
        want = canonical_key(canonicalize(_rewrite(s, inst)))
        assert canonical_key(tree) == want
        assert canonical_key(apply_instance(s, inst)) == want


# ---------------------------------------------------------------------------
# the reach search key
# ---------------------------------------------------------------------------

def _reference_mark(s, ids):
    """``s`` with the names of the atoms whose uid is in ``ids`` tagged by a
    character no parsed name has: the marked copy the reach key was once
    read from."""
    return map_atoms(s, lambda a: a if a.uid not in ids else
                     Atom(Name(a.name.base + "\x00env", a.name.positive), a.uid))


@settings(max_examples=300, deadline=None)
@given(structures, st.frozensets(st.integers(min_value=0, max_value=8)))
# the b under the quantifier is marked, so the quantifier is keyed by a
# marked copy of itself
@example(parse_structure("[b; fo a.<a;b>]"), frozenset({2}))
def test_marked_key_is_the_key_of_the_marked_copy(s, ids):
    s, n = assign_ids(s)
    got = marked_key(s, ids)
    assert got == canonical_key(_reference_mark(s, ids))
    assert (got != canonical_key(s)) == bool(ids & uid_set(s))
    # again from the marked views cached on the subterms, inside a parent
    parent = Par((s, Atom(Name("b"), n)))
    assert marked_key(parent, ids) == canonical_key(_reference_mark(parent, ids))
    # the same objects under other ids are not served the cached views
    other = uid_set(parent) - ids
    assert marked_key(s, other) == canonical_key(_reference_mark(s, other))
    assert marked_key(parent, other) == canonical_key(_reference_mark(parent, other))


def _marked_key(s, env_ids):
    """The search key that marks live environment atoms in every state."""
    live = env_ids & uid_set(s)
    if not live:
        return canonical_key(s), ()
    return canonical_key(_reference_mark(s, live)), tuple(sorted(live))


twin_names = st.builds(Name, st.sampled_from(["a", "b"]), st.booleans())
twin_processes = st.recursive(
    st.just(ZERO),
    lambda sub: st.one_of(
        st.builds(prefix, twin_names, sub),
        st.builds(_par2, sub, sub),
        st.builds(Sdq, st.just(Name("b")), sub),
    ),
    max_leaves=5,
)


def _labels(p) -> list:
    return [a.name for a in iter_atoms(p)]


def _has_twins(s, env_ids):
    """Whether an atom outside the live environment of ``s`` has the name
    of a live one, read by walking the state."""
    live_names = {a.name for a in iter_atoms(s) if a.uid in env_ids}
    return any(a.name in live_names for a in iter_atoms(s)
               if a.uid not in env_ids)


def _check_reach_keys(e, f, alpha) -> list:
    """Decide ``e -> f with alpha`` recording every state each search
    keys and the key it takes; check each state's carried live ids
    against a walk of its structure, built as the search builds it
    (the premise of its instance applied to its parent), and that the
    keys split the states as the always-marked key does.  The
    dead-end test is patched out, so a refuted judgment is searched too.
    Returns the ``(structure, environment ids)`` pair of every recorded
    state."""
    calls = []  # (environment ids, [(state, key), ...]) per search
    real_bfs, real_search = search.breadth_first, search._search
    real_pairable = search.pairable

    def recording_search(start, fragment, budget, goal, env_ids=frozenset()):
        calls.append((env_ids, []))
        return real_search(start, fragment, budget, goal, env_ids)

    def recording_bfs(start, start_key, successors, *rest):
        seen = calls[-1][1]
        seen.append((start, start_key))

        def keyed(state):
            for edge, nxt, k in successors(state):
                seen.append((nxt, k))
                yield edge, nxt, k
        return real_bfs(start, start_key, keyed, *rest)

    search.breadth_first, search._search = recording_bfs, recording_search
    search.pairable = lambda *args: True
    try:
        search.reach(e, f, alpha, search.SearchBudget(3000, 1500))
    finally:
        search.breadth_first, search._search = real_bfs, real_search
        search.pairable = real_pairable
    assert calls and calls[0][1]
    structures = []  # (structure, environment ids) per keyed state
    for env_ids, seen in calls:
        pairs = set()
        for state, k in seen:
            parent, inst, live = state
            s = parent if inst is None else apply_instance(parent, inst)
            assert live == tuple(sorted(env_ids & uid_set(s)))
            pairs.add((k, _marked_key(s, env_ids)))
            structures.append((s, env_ids))
        assert len({new for new, _ in pairs}) == len(pairs)
        assert len({old for _, old in pairs}) == len(pairs)
    return structures


@settings(max_examples=60, deadline=None)
@given(twin_processes, st.data())
def test_reach_key_splits_states_as_the_marked_key(e, data):
    # observing labels the process also carries puts twins of the
    # environment atoms into the states
    labels = _labels(e)
    assume(labels)
    alpha = tuple(data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                     max_size=2)))
    targets = [ZERO] + [f for f, _, _ in enumerate_reachable(e, 2)
                        if is_simple_process(f)]
    f = data.draw(st.sampled_from(targets))
    _check_reach_keys(e, f, alpha)


def test_reach_key_on_a_judgment_with_twin_states():
    states = _check_reach_keys(parse_process("~e.e.~a.0"), parse_process("~a.0"),
                               parse_actions("~e;e;~a"))
    assert any(_has_twins(s, env_ids) for s, env_ids in states)


# ---------------------------------------------------------------------------
# the dead-end test
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(structures)
@example(parse_structure("[fo a.[a;~a;b]; fo a.<~a;c>; fo b.(b;~b); ~b; a]"))
@example(parse_structure("[(a;~b); fo a.[~a;<a;b>]; fo a.~a; [b;~b]]"))
def test_every_rule_instance_keeps_the_atom_balance(s):
    # one step derives the conclusion from its premise, so the conclusion
    # pairs against the premise's negation; the matching pairs off the
    # atoms of each class, so the two balance
    s = canonicalize(s)
    for _, tree in enumerate_instances(s):
        assert pairable(s, canonicalize(negate(tree)))


@settings(max_examples=150, deadline=None)
@given(processes, st.data())
@example(parse_process("a.a.0"), None)
def test_a_refuted_judgment_is_unreachable_for_the_oracle(e, data):
    if data is None:  # the explicit example: one label short
        f, alpha = ZERO, parse_actions("a")
    else:
        reached = [(ZERO, parse_actions("tau"))] + [
            (g, a) for g, a, _ in enumerate_reachable(e, 2) if is_simple_process(g)]
        f, alpha = data.draw(st.sampled_from(reached))
        alpha = data.draw(st.one_of(
            st.just(alpha), st.lists(names, min_size=1, max_size=3).map(tuple)))
    # a budget of one step: a judgment whose start is not a dead end
    # stops at once, and one whose start is is refuted before any step
    v = search.reach(e, f, alpha, search.SearchBudget(1, 1))
    if v.stopped_by == "refuted":
        assert not v.proved and (v.stats.steps, v.stats.visited) == (0, 1)
        depth = len(_labels(e))  # each transition fires a prefix
        assert lts_reachable(e, f, alpha, depth) is None


# ---------------------------------------------------------------------------
# the Par relation and the pruning of dead-end states
# ---------------------------------------------------------------------------

def _par_pairs(s) -> set:
    """The pairs of atom ids whose lowest common bracket is a Par."""
    pairs: set = set()

    def walk(t) -> list:
        if isinstance(t, Atom):
            return [t.uid]
        if isinstance(t, Sdq):
            return walk(t.body)
        if isinstance(t, One):
            return []
        below: list = []
        for p in t.parts:
            got = walk(p)
            if isinstance(t, Par):
                pairs.update(frozenset((u, v)) for u in got for v in below)
            below += got
        return below

    walk(s)
    return pairs


@settings(max_examples=300, deadline=None)
@given(structures)
@example(parse_structure("[<a;b>;<~a;~b>;(c;[d;~c])]"))
@example(parse_structure("[fo a.<a;b>; fo b.(b;~a); <~b;a>]"))
def test_no_rule_instance_makes_two_atoms_par_related(s):
    s, _ = assign_ids(canonicalize(s))
    before = _par_pairs(s)
    for _, tree in enumerate_instances(s):
        assert _par_pairs(canonicalize(tree)) <= before


def _unpruned(run):
    """``run()`` with every state pairable: the search prunes nothing."""
    with mock.patch.object(search, "pairable", lambda *args: True):
        return run()


def _same_search(run):
    """``run()`` with and without the dead-end test: when the unpruned
    search finishes, the pruned one finishes in no more steps and finds
    the same derivation.  (When both run out of a budget, their counts
    say nothing: each spends it on other states.)  A dead start is
    refuted where the unpruned search closes its state space."""
    out, ref = run(), _unpruned(run)
    if ref.exhausted:
        return
    assert not out.exhausted
    assert out.steps <= ref.steps and out.visited <= ref.visited
    assert out.stopped_by == ref.stopped_by or (
        out.stopped_by, ref.stopped_by) == ("refuted", "closed")
    assert out.found == ref.found
    if out.found:
        assert format_derivation(out.derivation) == format_derivation(ref.derivation)


def _premises_above(goal) -> list:
    """Structures one or two rule instances above ``goal``, the unit left
    out: premises that ``goal`` is often derived from."""
    one = [canonicalize(t) for _, t in islice(enumerate_instances(canonicalize(goal)), 6)]
    two = [canonicalize(t) for s in one[:3] for _, t in islice(enumerate_instances(s), 3)]
    return [p for p in one + two if canonical_key(p) != "1"]


_PRUNE_BUDGET = search.SearchBudget(4000, 1500)
small_structures = st.recursive(
    st.builds(Atom, names),
    lambda sub: st.one_of(st.builds(Seq, _parts(sub)), st.builds(Par, _parts(sub)),
                          st.builds(CoPar, _parts(sub)),
                          st.builds(Sdq, st.builds(Name, st.sampled_from(BASES)), sub)),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(structures, small_structures.map(lambda s: mk_par([s, negate(s)])),
                 st.tuples(small_structures, small_structures).map(
                     lambda p: mk_par([p[0], negate(p[1])]))), st.data())
@example(parse_structure("[<a;b>;<~b;~a>]"), None)
@example(parse_structure("[fo a.<a;b>; fo b.[~a;~b]]"), None)
def test_pruning_keeps_every_proof_search_certificate(goal, data):
    _same_search(lambda: search.prove(goal, budget=_PRUNE_BUDGET))
    if data is None:
        return
    # and a derivation to a premise other than the unit: one a step or
    # two above the goal, or any small structure
    above = _premises_above(goal)
    premise = data.draw(st.one_of(small_structures, st.sampled_from(above))
                        if above else small_structures)
    assume(canonical_key(canonicalize(premise)) != "1")
    _same_search(lambda: search.derive(goal, premise, budget=_PRUNE_BUDGET))


@settings(max_examples=100, deadline=None)
@given(processes, st.data())
@example(parse_process("a.~b.0|c.0"), None)
def test_pruning_keeps_every_reach_certificate(e, data):
    if data is None:  # the explicit example: a target that keeps atoms
        f, alpha = parse_process("~b.0|c.0"), parse_actions("a")
    else:
        # judgments that observe labels, when there are any: the others
        # have no environment atoms to prune by
        reached = [(g, a) for g, a, _ in enumerate_reachable(e, 3)
                   if is_simple_process(g) and a] or [(ZERO, parse_actions("tau"))]
        f, alpha = data.draw(st.sampled_from(reached))
        # the labels in another order: balanced, and often unreachable
        alpha = tuple(data.draw(st.permutations(alpha)))
    v = search.reach(e, f, alpha, _PRUNE_BUDGET)
    ref = _unpruned(lambda: search.reach(e, f, alpha, _PRUNE_BUDGET))
    if ref.exhausted:
        return
    assert not v.exhausted
    assert v.stats.steps <= ref.stats.steps and v.stats.visited <= ref.stats.visited
    assert v.status == ref.status
    assert v.stopped_by == ref.stopped_by or (
        v.stopped_by, ref.stopped_by) == ("refuted", "closed")
    got, want = search.verdict_to_dict(v), search.verdict_to_dict(ref)
    del got["stats"], want["stats"]
    assert got == want
