"""Seeded random generators and the oracle-comparison harness.

Everything here is deterministic given the seed.  The generators produce
random processes, random Tensor-free proofs (built by forward rule
application from the unit premise), and random trivial derivations over
process structures; the harness cross-checks the proof-search pipeline
against the brute-force transition-system oracle in both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .calculus import (
    AI_DOWN, Derivation, Q_DOWN, RecipeEntry, U_DOWN, apply_instance,
    check_derivation, enumerate_instances, extend, replay, start_derivation,
)
from .ccsr import (
    Name, PNu, PPar, PPrefix, Process, ZERO, enumerate_reachable,
    is_simple_process, lts_reachable, print_actions, print_process,
    process_key,
)
from .bridge import classify_structure
from .search import SearchBudget, DEFAULT_BUDGET, reach
from .standardize import is_standard, standardize
from .structures import (
    Atom, ONE, Par, Sdq, Seq, Structure, canonical_key, canonicalize,
    free_bases, mk_par, mk_seq, replace_at, size, subterm_at,
)

_BASES = ["a", "b", "c", "d", "e"]


def random_process(rng: random.Random, max_size: int = 8) -> Process:
    """A random process of at most ``max_size`` symbols."""

    def go(budget: int) -> tuple[Process, int]:
        if budget <= 1:
            return ZERO, 1
        kind = rng.random()
        if kind < 0.3:
            return ZERO, 1
        if kind < 0.65:
            nm = Name(rng.choice(_BASES), rng.random() < 0.6)
            body, used = go(budget - 2)
            return PPrefix(nm, body), used + 1
        if kind < 0.85 and budget >= 3:
            left, u1 = go(budget - 2)
            right, u2 = go(budget - 1 - u1)
            return PPar(left, right), u1 + u2 + 1
        body, used = go(budget - 2)
        return PNu(Name(rng.choice(_BASES)), body), used + 1

    p, _ = go(max_size)
    return p


# ---------------------------------------------------------------------------
# random Tensor-free proofs (forward rule application from the unit)
# ---------------------------------------------------------------------------

def _all_paths(s: Structure, prefix=()):
    yield prefix
    if isinstance(s, (Seq, Par)):
        op = "seq" if isinstance(s, Seq) else "par"
        for i, p in enumerate(s.parts):
            yield from _all_paths(p, prefix + ((op, i),))
    elif isinstance(s, Sdq):
        yield from _all_paths(s.body, prefix + (("fo", 0),))


def _weave_pair(rng: random.Random, s: Structure) -> Structure:
    pool = sorted(free_bases(s)) or _BASES
    base = rng.choice(pool if rng.random() < 0.6 else _BASES)
    a, na = Atom(Name(base)), Atom(Name(base, False))
    pair = Par((a, na))
    paths = list(_all_paths(s))
    path = rng.choice(paths)
    sub = subterm_at(s, path)
    mode = rng.randrange(3)
    if mode == 0:
        new = mk_par([sub, pair])
    elif mode == 1:
        new = mk_seq([pair, sub])
    else:
        new = mk_seq([sub, pair])
    return canonicalize(replace_at(s, path, new))


def _unapply_q(rng: random.Random, s: Structure) -> Structure | None:
    seqs = [p for p in _all_paths(s) if isinstance(subterm_at(s, p), Seq)]
    if not seqs:
        return None
    path = rng.choice(seqs)
    node = subterm_at(s, path)
    assert isinstance(node, Seq)
    cut = rng.randrange(1, len(node.parts))
    h, k = mk_seq(node.parts[:cut]), mk_seq(node.parts[cut:])

    def par_split(x: Structure) -> tuple[Structure, Structure]:
        if isinstance(x, Par) and rng.random() < 0.7:
            m = rng.randrange(0, len(x.parts) + 1)
            return mk_par(x.parts[:m]), mk_par(x.parts[m:])
        return (x, ONE) if rng.random() < 0.5 else (ONE, x)

    r, u = par_split(h)
    t, v = par_split(k)
    new = mk_par([mk_seq([r, t]), mk_seq([u, v])])
    return canonicalize(replace_at(s, path, new))


def _unapply_u(rng: random.Random, s: Structure) -> Structure | None:
    sdqs = [p for p in _all_paths(s) if isinstance(subterm_at(s, p), Sdq)]
    if not sdqs:
        return None
    path = rng.choice(sdqs)
    node = subterm_at(s, path)
    assert isinstance(node, Sdq)
    body = node.body
    parts = body.parts if isinstance(body, Par) else (body,)
    if len(parts) < 2:
        return None
    m = rng.randrange(1, len(parts))
    left, right = mk_par(parts[:m]), mk_par(parts[m:])
    if rng.random() < 0.5 and node.binder.base not in free_bases(right):
        new = mk_par([Sdq(node.binder, left), right])
    else:
        new = mk_par([Sdq(node.binder, left), Sdq(node.binder, right)])
    return canonicalize(replace_at(s, path, new))


def random_proof(rng: random.Random, max_atoms: int = 12,
                 max_steps: int = 8) -> Derivation:
    """A random Tensor-free proof built by forward rule application: the
    premise is the unit and each move extends the conclusion downward."""
    chain: list[RecipeEntry] = []  # the moves, bottom-most last
    cur: Structure = ONE
    steps = rng.randrange(1, max_steps + 1)
    guard = 0
    while len(chain) < steps and guard < 200:
        guard += 1
        roll = rng.random()
        if roll < 0.55 or not chain:
            if size(cur) + 2 > max_atoms:
                break
            new = _weave_pair(rng, cur)
            rule = AI_DOWN
        elif roll < 0.8:
            got = _unapply_q(rng, cur)
            if got is None:
                continue
            new, rule = got, Q_DOWN
        else:
            got = _unapply_u(rng, cur)
            if got is None:
                continue
            new, rule = got, U_DOWN
        move = (rule, canonical_key(cur), None)
        if replay(Derivation(new), [move]) is None:
            continue
        chain.append(move)
        cur = new
    d = replay(start_derivation(cur), chain[::-1])
    if d is None:
        raise AssertionError("recorded moves stopped replaying")
    assert canonical_key(d.premise) == "1"
    return d


# ---------------------------------------------------------------------------
# random trivial derivations over process structures
# ---------------------------------------------------------------------------

def random_trivial_derivation(rng: random.Random, start: Structure,
                              max_steps: int = 5,
                              keep_process_premise: bool = True) -> Derivation:
    """Random bottom-up quantifier/Seq moves from ``start``; when asked,
    only moves that keep the premise a process structure are taken."""
    d = start_derivation(start)
    for _ in range(max_steps):
        insts = enumerate_instances(d.premise, frozenset({Q_DOWN, U_DOWN}))
        if keep_process_premise:
            insts = [i for i in insts if classify_structure(
                apply_instance(d.premise, i)).is_process]
        if not insts:
            break
        d = extend(d, rng.choice(insts))
    return d


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OracleReport:
    processes: int = 0
    judgments: int = 0
    positives: int = 0
    negatives: int = 0
    completeness_failures: list[str] = field(default_factory=list)
    soundness_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.completeness_failures and not self.soundness_failures


def compare_with_oracle(rng: random.Random, processes: int = 500,
                        depth: int = 6, max_size: int = 8,
                        budget: SearchBudget = DEFAULT_BUDGET,
                        negatives_per_process: int = 3) -> OracleReport:
    """Cross-check reach against the transition-system oracle.

    Every (target, labels) pair the oracle finds must be proved, and a
    sample of pairs the oracle rejects must come back not-found."""
    report = OracleReport()
    for _ in range(processes):
        e = random_process(rng, max_size)
        report.processes += 1
        reachable = enumerate_reachable(e, depth)
        keys = set()
        simple_pairs = []
        labels_seen = set()
        for f, alpha, _ in reachable:
            labels_seen.add(alpha)
            if not is_simple_process(f):
                continue
            key = (process_key(f), print_actions(alpha))
            if key in keys:
                continue
            keys.add(key)
            simple_pairs.append((f, alpha))
        for f, alpha in simple_pairs:
            report.judgments += 1
            report.positives += 1
            v = reach(e, f, alpha, budget)
            if not v.proved:
                report.completeness_failures.append(
                    f"{print_process(e)} -> {print_process(f)} "
                    f"with {print_actions(alpha)}")
        # negative samples: unreached combinations of seen targets/labels
        candidates = []
        for f, _ in simple_pairs:
            for alpha in sorted(labels_seen, key=print_actions):
                if (process_key(f), print_actions(alpha)) not in keys:
                    candidates.append((f, alpha))
        rng.shuffle(candidates)
        for f, alpha in candidates[:negatives_per_process]:
            report.judgments += 1
            report.negatives += 1
            v = reach(e, f, alpha, budget)
            if v.proved:
                confirm = lts_reachable(e, f, alpha,
                                        max(depth, 2 * len(v.standard.steps) + 2))
                if confirm is None:
                    report.soundness_failures.append(
                        f"{print_process(e)} -> {print_process(f)} "
                        f"with {print_actions(alpha)}")
    return report


def run_selftest(seed: int = 0, processes: int = 40, depth: int = 5,
                 proofs: int = 50) -> tuple[bool, str]:
    """A condensed deterministic battery used by the command line."""
    rng = random.Random(seed)
    lines = []
    ok = True
    good = 0
    for _ in range(proofs):
        d = random_proof(rng)
        e = standardize(d)
        if check_derivation(e) and is_standard(e) and \
                canonical_key(e.premise) == canonical_key(d.premise) and \
                canonical_key(e.conclusion) == canonical_key(d.conclusion):
            good += 1
    lines.append(f"standardize: {good}/{proofs} random proofs")
    ok &= good == proofs
    report = compare_with_oracle(rng, processes=processes, depth=depth)
    lines.append(
        f"oracle: {report.processes} processes, {report.judgments} judgments "
        f"({report.positives} positive, {report.negatives} negative), "
        f"{len(report.completeness_failures)} completeness failures, "
        f"{len(report.soundness_failures)} soundness failures")
    for msg in report.completeness_failures[:5] + report.soundness_failures[:5]:
        lines.append(f"  failure: {msg}")
    ok &= report.ok
    lines.append("selftest: " + ("PASS" if ok else "FAIL"))
    return ok, "\n".join(lines)
