"""Bottom-up proof and derivation search, reduction of standard
derivations, environment consumption, splitting and inversion, witness
extraction, and the end-to-end reachability pipeline.

Search is a breadth-first closure over canonical forms: no down rule
grows a structure going up, so the reachable state space of a goal is
finite and emptying the frontier decides provability.  The reachability
pipeline compiles ``E -> F with alpha`` into deriving ``<F>`` from
``[<E>; R]`` in the standard fragment, where ``R`` is the environment
structure of ``alpha``.  Consumption of ``R`` is tracked inside the
search state, so a returned derivation always annihilates every
environment atom.  From that derivation a transition-system witness is
extracted by repeatedly peeling the lowest interaction and reducing: an
interaction between two process atoms becomes a silent communication
step, an interaction with the environment head becomes a visible firing,
and the trivial residue becomes restriction merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .calculus import (
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, SWITCH, U_DOWN, Derivation, RecipeEntry,
    Step, _remove_children, apply_instance, breadth_first, check_derivation,
    derivation_to_dict, enumerate_instances, replay, same_occurrences,
    seq_number, start_derivation,
)
from .ccsr import (
    BridgeError, LtsNode, Process, PZero, RULE_ACT, RULE_CNTXP, RULE_COM,
    RULE_RES_MERGE, RULE_RES_PASS, SILENT, ActionSeq, actions_normalize,
    canonical_process, chain_nodes, check_lts_derivation, from_structure,
    is_simple_process, lts_to_dict, process_congruent, refl_node, tran_node,
    to_structure,
)
from .bridge import actions_to_env, classify_structure, env_to_actions
from .standardize import is_standard
from .structures import (
    Atom, CoPar, Name, ONE, One, Par, Sdq, Seq, Structure, assign_ids,
    canonical_key, canonicalize, erase_atoms, is_tensor_free, iter_atoms,
    mk_copar, mk_par, mk_seq, negate, replace_at, strip_ids, subterm_at,
    uid_set,
)


class SearchError(ValueError):
    pass


class ExtractionError(SearchError):
    pass


@dataclass(frozen=True, slots=True)
class SearchBudget:
    max_steps: int = 400_000
    max_visited: int = 100_000

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_visited <= 0:
            raise SearchError("budget bounds must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(slots=True)
class SearchOutcome:
    derivation: Optional[Derivation]
    exhausted: bool
    steps: int
    visited: int

    @property
    def found(self) -> bool:
        return self.derivation is not None


_SEARCH_RULES = frozenset({AI_DOWN, Q_DOWN, U_DOWN, SWITCH})


_ENV_MARK = "\x00env"


def _mark_env(s: Structure, live: frozenset[int]) -> Structure:
    """Tag the names of live environment atoms so the canonical key
    distinguishes states that only differ in which twin occurrence the
    environment still owns (those futures genuinely differ)."""
    if isinstance(s, Atom):
        if s.uid in live:
            return Atom(Name(s.name.base + _ENV_MARK, s.name.positive), s.uid)
        return s
    if isinstance(s, (Seq, Par, CoPar)):
        return type(s)(tuple(_mark_env(p, live) for p in s.parts))
    if isinstance(s, Sdq):
        return Sdq(s.binder, _mark_env(s.body, live))
    return s


def _search(start: Structure, fragment: str, budget: SearchBudget,
            goal_key: Optional[str], env_ids: frozenset[int] = frozenset()
            ) -> SearchOutcome:
    """Breadth-first bottom-up closure from a canonical annotated start.
    The goal is any state matching ``goal_key`` (the unit when None)
    whose tracked environment atoms have all been consumed."""
    if fragment not in ("down", "standard"):
        raise SearchError("fragment must be 'down' or 'standard'")
    if fragment == "standard" and not is_tensor_free(start):
        raise SearchError("the standard fragment handles Tensor-free goals only")
    want = goal_key if goal_key is not None else "1"

    def state_key(s: Structure) -> tuple[str, tuple[int, ...]]:
        live = env_ids & uid_set(s)
        if not live:
            return canonical_key(s), ()
        return canonical_key(_mark_env(s, live)), tuple(sorted(live))

    def successors(s: Structure):
        for inst in enumerate_instances(s, _SEARCH_RULES):
            if fragment == "standard" and inst.rule == AI_DOWN:
                if seq_number(s, inst.path) != 0:
                    continue
                inst = replace(inst, rule=AI_DOWN_LEFT)
            yield inst, apply_instance(s, inst)

    path, exhausted, steps, visited = breadth_first(
        start, state_key, successors, lambda k: k[0] == want and not k[1],
        budget.max_steps, budget.max_visited)
    d = None if path is None else \
        Derivation(start, tuple(Step(inst, s) for inst, s in path))
    return SearchOutcome(d, exhausted, steps, visited)


def prove(goal: Structure, fragment: str = "down",
          budget: SearchBudget = DEFAULT_BUDGET) -> SearchOutcome:
    """Search a cut-free proof: a derivation whose premise is the unit."""
    start = start_derivation(goal).conclusion
    return _search(start, fragment, budget, None)


def derive(conclusion: Structure, premise: Structure, fragment: str = "down",
           budget: SearchBudget = DEFAULT_BUDGET) -> SearchOutcome:
    """Search a derivation of ``conclusion`` from ``premise``."""
    start = start_derivation(conclusion).conclusion
    return _search(start, fragment, budget, canonical_key(premise))


def consumes(d: Derivation, env_ids: Iterable[int]) -> bool:
    """True when every marked environment atom is annihilated by some
    interaction step of the derivation."""
    env_ids = frozenset(env_ids)
    if not env_ids <= uid_set(d.conclusion):
        raise SearchError("environment ids not present in the conclusion")
    eaten: frozenset[int] = frozenset()
    for st in d.steps:
        eaten |= st.instance.consumed_ids
    return env_ids <= eaten


# ---------------------------------------------------------------------------
# reduction of standard derivations
# ---------------------------------------------------------------------------

def _lowest_interaction(d: Derivation) -> Optional[int]:
    for i, st in enumerate(d.steps):
        if st.rule in (AI_DOWN, AI_DOWN_LEFT):
            return i
    return None


def _erase(s: Structure, ids: frozenset[int]) -> Structure:
    return canonicalize(erase_atoms(s, ids))


def reduce(d: Derivation) -> Derivation:
    """Erase the two atoms annihilated by the lowest interaction from the
    part of the derivation below it, drop that interaction together with
    every step the erasure made vacuous, and keep the rest."""
    k = _lowest_interaction(d)
    if k is None:
        raise SearchError("reduction needs a non-trivial derivation")
    if not is_standard(d):
        raise SearchError("reduction is defined on standard derivations")
    ids = d.steps[k].instance.consumed_ids
    below = _erase(d.conclusion, ids)
    recipe: list[RecipeEntry] = []
    cur = below
    for st in d.steps[:k]:
        target = _erase(st.result, ids)
        if not same_occurrences(cur, target):  # else the erasure made it vacuous
            recipe.append((st.rule, canonical_key(target), uid_set(target)))
        cur = target
    rebuilt = replay(Derivation(below), recipe)
    if rebuilt is None:
        raise SearchError("cannot replay the erased steps")
    if not same_occurrences(rebuilt.premise, d.steps[k].result):
        raise SearchError("erased derivation does not rejoin above the interaction")
    out = Derivation(below, rebuilt.steps + d.steps[k + 1:])
    if not check_derivation(out):
        raise SearchError("reduction produced an invalid derivation")
    return out


# ---------------------------------------------------------------------------
# splitting and inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SplitResult:
    pieces: tuple[Structure, ...]   # the synthesized components
    derivation: Derivation          # the promised context derivation
    proofs: tuple[Derivation, ...]  # proofs of the component goals


def _sub_structures(s: Structure) -> list[Structure]:
    """Candidate pool for split components: canonical subterms and their
    contiguous slices, plus the unit."""
    seen: dict[str, Structure] = {"1": ONE}

    def note(t: Structure) -> None:
        u = canonicalize(strip_ids(t))
        seen.setdefault(canonical_key(u), u)

    def walk(t: Structure) -> None:
        note(t)
        if isinstance(t, (Seq, Par)):
            for i in range(len(t.parts)):
                for j in range(i + 1, len(t.parts) + 1):
                    note(type(t)(t.parts[i:j]) if j - i > 1 else t.parts[i])
            for p in t.parts:
                walk(p)
        elif isinstance(t, Sdq):
            walk(t.body)

    walk(canonicalize(strip_ids(s)))
    out = list(seen.values())
    out.sort(key=lambda t: (len(canonical_key(t)), canonical_key(t)))
    return out


def _piece_budget(budget: SearchBudget) -> SearchBudget:
    return SearchBudget(max(2000, budget.max_steps // 50),
                        max(1000, budget.max_visited // 50))


def split(proof: Derivation, shape: str, parts: tuple[Structure, ...],
          budget: SearchBudget = DEFAULT_BUDGET) -> SplitResult:
    """Realize one case of shallow splitting by bounded search.

    For a proof of ``[<R;T>; P]`` (shape ``seq``) finds P1, P2 with a
    derivation of P from ``<P1;P2>`` and proofs of ``[R;P1]``, ``[T;P2]``;
    ``copar`` is the same with ``[P1;P2]``; ``atom`` (parts R0, R1, P)
    finds a derivation of ``[R0;P]`` from ``negate(R1)``; ``fo`` (parts
    binder, R, P) finds T with a derivation of P from ``fo a.T`` and a
    proof of ``[R;T]``."""
    if canonical_key(proof.premise) != "1":
        raise SearchError("splitting applies to proofs")
    small = _piece_budget(budget)
    if shape in ("seq", "copar"):
        r, t, p = parts
        cands = _sub_structures(p)
        for p1 in cands:
            pr1 = prove(canonicalize(mk_par([r, p1])), "down", small)
            if not pr1.found:
                continue
            for p2 in cands:
                pr2 = prove(canonicalize(mk_par([t, p2])), "down", small)
                if not pr2.found:
                    continue
                ctx = mk_seq([p1, p2]) if shape == "seq" else mk_par([p1, p2])
                dv = derive(p, canonicalize(ctx), "down", small)
                if dv.found:
                    return SplitResult((p1, p2), dv.derivation,
                                       (pr1.derivation, pr2.derivation))
        raise SearchError("split search exhausted its budget")
    if shape == "atom":
        r0, r1, p = parts
        goal = canonicalize(mk_par([r0, p]))
        dv = derive(goal, canonicalize(negate(r1)), "down", budget)
        if not dv.found:
            raise SearchError("split search exhausted its budget")
        return SplitResult((canonicalize(negate(r1)),), dv.derivation, ())
    if shape == "fo":
        binder, r, p = parts
        if not isinstance(binder, Atom) or not binder.name.positive:
            raise SearchError("fo split needs a positive binder name")
        a = binder.name
        for t in _sub_structures(p):
            pr = prove(canonicalize(mk_par([r, t])), "down", small)
            if not pr.found:
                continue
            dv = derive(p, canonicalize(Sdq(a, t)), "down", small)
            if dv.found:
                return SplitResult((t,), dv.derivation, (pr.derivation,))
        raise SearchError("split search exhausted its budget")
    raise SearchError(f"unknown split shape {shape!r}")


def _replay(start: Derivation, recipe: list[RecipeEntry]) -> Derivation:
    out = replay(start, recipe)
    if out is None:
        raise SearchError("could not replay the assembled derivation")
    return out


def _recipe(d: Derivation, embed: Callable[[Structure], Structure] = lambda s: s
            ) -> list[RecipeEntry]:
    """The steps of ``d`` as a recipe whose premises are keyed inside the
    context ``embed``; ids are not compared."""
    return [(st.rule, canonical_key(canonicalize(embed(st.result))), None)
            for st in d.steps]


def _strip_from_par(whole: Structure, piece: Structure) -> Structure:
    """Remove the Par material congruent to ``piece`` and return the rest."""
    parts = list(whole.parts) if isinstance(whole, Par) else [whole]
    want = canonical_key(piece)
    if want == "1":
        return canonicalize(mk_par(parts))
    for i, c in enumerate(parts):
        if canonical_key(c) == want:
            del parts[i]
            return canonicalize(mk_par(parts))
    if isinstance(piece, Par):  # spread over several components
        rest = list(parts)
        for sub in piece.parts:
            for i, c in enumerate(rest):
                if canonical_key(c) == canonical_key(sub):
                    del rest[i]
                    break
            else:
                raise SearchError("the proof does not prove [negate(t); P]")
        return canonicalize(mk_par(rest))
    raise SearchError("the proof does not prove [negate(t); P]")


def invert(t: Structure, proof: Derivation,
           budget: SearchBudget = DEFAULT_BUDGET) -> Derivation:
    """Turn a proof of ``[negate(t); P]`` into a derivation of ``P`` from
    the co-invertible ``t`` by recursion on the shape of ``negate(t)``,
    delegating component discovery to ``split``."""
    nt = canonicalize(negate(strip_ids(t)))
    if not classify_structure(nt).is_invertible:
        raise SearchError("the negation of the target is not invertible")
    p = _strip_from_par(canonicalize(strip_ids(proof.conclusion)), nt)
    recipe = _invert_recipe(nt, p, proof, budget)
    out = _replay(start_derivation(p), recipe)
    if canonical_key(out.premise) != canonical_key(canonicalize(negate(nt))):
        raise SearchError("inversion assembled mismatched endpoints")
    return out


def _invert_recipe(nt: Structure, p: Structure, proof: Derivation,
                   budget: SearchBudget) -> list[RecipeEntry]:
    """Step recipe for a derivation of ``p`` from ``negate(nt)``."""
    if canonical_key(nt) == "1":
        # the proof of [1; p] is already a derivation of p from the unit
        return _recipe(proof)
    if isinstance(nt, Atom) or (isinstance(nt, Par)
                                and all(isinstance(x, Atom) for x in nt.parts)):
        res = split(proof, "atom", (ONE, nt, p), budget)
        return _recipe(res.derivation)
    if isinstance(nt, CoPar):
        r1 = canonicalize(nt.parts[0])
        r2 = canonicalize(mk_copar(nt.parts[1:]))
        res = split(proof, "copar", (r1, r2, p), budget)
        p1, p2 = res.pieces
        sub1 = _invert_recipe(r1, p1, res.proofs[0], budget)
        sub2 = _invert_recipe(r2, p2, res.proofs[1], budget)
        neg1 = canonicalize(negate(r1))
        recipe = _recipe(res.derivation)
        recipe += _recipe(_replay(start_derivation(p1), sub1),
                          lambda s: mk_par([s, p2]))
        recipe += _recipe(_replay(start_derivation(p2), sub2),
                          lambda s: mk_par([s, neg1]))
        return recipe
    if isinstance(nt, Sdq):
        res = split(proof, "fo", (Atom(nt.binder), canonicalize(nt.body), p),
                    budget)
        t_piece = res.pieces[0]
        sub = _invert_recipe(canonicalize(nt.body), t_piece, res.proofs[0], budget)
        recipe = _recipe(res.derivation)
        recipe += _recipe(_replay(start_derivation(t_piece), sub),
                          lambda s: Sdq(nt.binder, s))
        return recipe
    raise SearchError("the negation of the target is not invertible")


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------

def _proc_of(s: Structure) -> Process:
    """The canonical process read from a canonical process structure."""
    return canonical_process(from_structure(strip_ids(s)))


def _split_conclusion(concl: Structure, env_ids: frozenset[int]
                      ) -> tuple[Structure, Structure]:
    """Split a conclusion into its process part and environment part."""
    live = env_ids & uid_set(concl)
    if not live:
        return concl, ONE
    if isinstance(concl, Par):
        env_parts, proc_parts = [], []
        for p in concl.parts:
            (env_parts if uid_set(p) & live else proc_parts).append(p)
        if any(uid_set(p) - env_ids for p in env_parts):
            raise ExtractionError("environment atoms are entangled with the process")
        return canonicalize(mk_par(proc_parts)), canonicalize(mk_par(env_parts))
    if uid_set(concl) <= env_ids:
        return ONE, concl
    raise ExtractionError("environment atoms are entangled with the process")


def _single_fire(s: Structure, uid: int) -> tuple[LtsNode, Optional[Name], Structure]:
    """Fire the prefix holding atom ``uid``; returns the step tree, the
    visible label (None when a restriction hid it) and the fired
    structure."""
    if isinstance(s, Atom):
        if s.uid != uid:
            raise ExtractionError("atom does not match the firing occurrence")
        return (LtsNode(RULE_ACT, _proc_of(s), PZero(), (s.name,)),
                s.name, ONE)
    if isinstance(s, Seq):
        head = s.parts[0]
        if not (isinstance(head, Atom) and head.uid == uid):
            raise ExtractionError("a fired atom must head its prefix chain")
        rest = canonicalize(mk_seq(s.parts[1:]))
        return (LtsNode(RULE_ACT, _proc_of(s), _proc_of(rest), (head.name,)),
                head.name, rest)
    if isinstance(s, Par):
        for i, p in enumerate(s.parts):
            if uid in uid_set(p):
                node, label, erased = _single_fire(p, uid)
                out = canonicalize(mk_par(s.parts[:i] + (erased,) + s.parts[i + 1:]))
                lbl: ActionSeq = (label,) if label is not None else SILENT
                return (LtsNode(RULE_CNTXP, _proc_of(s), _proc_of(out), lbl, (node,)),
                        label, out)
        raise ExtractionError("occurrence not found")
    if isinstance(s, Sdq):
        node, label, erased = _single_fire(s.body, uid)
        out = canonicalize(Sdq(s.binder, erased))
        if label is not None and label.base == s.binder.base:
            # the restriction absorbs its own action: read the source as
            # merged with a vacuous restriction of the same name
            return (LtsNode(RULE_RES_MERGE, _proc_of(s), _proc_of(out),
                            SILENT, (node,)), None, out)
        lbl = (label,) if label is not None else SILENT
        return (LtsNode(RULE_RES_PASS, _proc_of(s), _proc_of(out), lbl, (node,)),
                label, out)
    raise ExtractionError("cannot fire inside this structure")


def _pair_base(s: Structure, i: int, j: int) -> str:
    for a in iter_atoms(s):
        if a.uid == i:
            return a.name.base
    raise ExtractionError("interaction pair not found in the process part")


def _pair_fire(s: Structure, i: int, j: int) -> tuple[LtsNode, Structure]:
    """Build the silent step annihilating atoms ``i`` and ``j`` inside the
    process structure ``s`` and return it with the erased structure."""
    if isinstance(s, Sdq):
        node, erased = _pair_fire(s.body, i, j)
        out = canonicalize(Sdq(s.binder, erased))
        return (LtsNode(RULE_RES_PASS, _proc_of(s), _proc_of(out), SILENT, (node,)),
                out)
    if isinstance(s, Par):
        holders = [k for k, p in enumerate(s.parts) if uid_set(p) & {i, j}]
        if len(holders) == 1:
            k = holders[0]
            node, erased = _pair_fire(s.parts[k], i, j)
            out = canonicalize(mk_par(s.parts[:k] + (erased,) + s.parts[k + 1:]))
            return (LtsNode(RULE_CNTXP, _proc_of(s), _proc_of(out), SILENT, (node,)),
                    out)
        if len(holders) != 2:
            raise ExtractionError("interaction pair not found in the process part")
        ka, kb = holders
        ca, cb = s.parts[ka], s.parts[kb]
        base = _pair_base(s, i, j)
        if isinstance(ca, Sdq) and isinstance(cb, Sdq) and \
                ca.binder == cb.binder and ca.binder.base == base:
            # communication on the restricted name: merge the scopes
            inner = canonicalize(mk_par([ca.body, cb.body]))
            node, erased_inner = _pair_fire(inner, i, j)
            merged = canonicalize(Sdq(ca.binder, erased_inner))
            core = LtsNode(RULE_RES_MERGE,
                           _proc_of(canonicalize(mk_par([ca, cb]))),
                           _proc_of(merged), SILENT, (node,))
            rest = [s.parts[k] for k in range(len(s.parts)) if k not in (ka, kb)]
            out = canonicalize(mk_par([merged] + rest))
            if rest:
                core = LtsNode(RULE_CNTXP, _proc_of(s), _proc_of(out), SILENT, (core,))
            return core, out
        ua = i if i in uid_set(ca) else j
        ub = j if ua == i else i
        na, la, ea = _single_fire(ca, ua)
        nb, lb, eb = _single_fire(cb, ub)
        if la is None or lb is None or la != lb.complement():
            raise ExtractionError("interaction pair does not expose "
                                  "complementary actions")
        parts = list(s.parts)
        parts[ka], parts[kb] = ea, eb
        out = canonicalize(mk_par(parts))
        core = LtsNode(RULE_COM, _proc_of(canonicalize(mk_par([ca, cb]))),
                       _proc_of(canonicalize(mk_par([ea, eb]))), SILENT, (na, nb))
        if len(s.parts) > 2:
            core = LtsNode(RULE_CNTXP, _proc_of(s), _proc_of(out), SILENT, (core,))
        return core, out
    raise ExtractionError("interaction pair sits under a prefix")


def _advance_through(d: Derivation, want: Process, env_ids: frozenset[int]
                     ) -> Optional[Derivation]:
    """Absorb leading quantifier/Seq moves of a derivation until its
    conclusion reads as the process ``want``; None when it never does."""
    for _ in range(len(d.steps) + 1):
        proc_part, _ = _split_conclusion(d.conclusion, env_ids)
        try:
            got = _proc_of(proc_part)
        except BridgeError:
            got = None
        if got is not None and process_congruent(got, want):
            return d
        if not d.steps or d.steps[0].rule not in (Q_DOWN, U_DOWN):
            return None
        d = Derivation(d.steps[0].result, d.steps[1:])
    return None


def _trivial_tree(d: Derivation, e: Process, f: Process) -> LtsNode:
    """Witness for a trivial residue between simple endpoints: one
    restriction merge per quantifier step, chained silently."""
    nodes: list[LtsNode] = []
    cur = d.conclusion
    for st in d.steps:
        if st.rule != U_DOWN:
            raise ExtractionError(
                "a trivial residue from a simple premise may only merge "
                f"restrictions, found {st.rule}")
        inst = st.instance
        c1, c2 = inst.consumed
        binder = c1.binder if isinstance(c1, Sdq) else c2.binder  # type: ignore[union-attr]
        body1 = c1.body if isinstance(c1, Sdq) else c1
        body2 = c2.body if isinstance(c2, Sdq) else c2
        inner_struct = canonicalize(mk_par([body1, body2]))
        merged = canonicalize(Sdq(binder, inner_struct))
        node = LtsNode(RULE_RES_MERGE,
                       _proc_of(canonicalize(mk_par([c1, c2]))),
                       _proc_of(merged), SILENT,
                       (refl_node(_proc_of(inner_struct)),))
        # wrap outward along the redex path
        new_sub: Structure = merged
        spine: list[tuple[Structure, tuple[str, int]]] = []
        walk = cur
        for op, idx in inst.path:
            spine.append((walk, (op, idx)))
            walk = subterm_at(walk, ((op, idx),))
        redex_node = walk
        if isinstance(redex_node, Par) and len(redex_node.parts) > 2:
            rest = _remove_children(redex_node.parts, (c1, c2))
            if rest is None:
                raise ExtractionError("merged restrictions not found at the redex")
            whole = canonicalize(mk_par([merged] + rest))
            node = LtsNode(RULE_CNTXP, _proc_of(redex_node), _proc_of(whole),
                           SILENT, (node,))
            new_sub = whole
        for host, (op, idx) in reversed(spine):
            if op not in ("par", "fo"):
                raise ExtractionError("quantifier step below a prefix")
            after = canonicalize(replace_at(host, ((op, idx),), new_sub))
            rule = RULE_CNTXP if op == "par" else RULE_RES_PASS
            node = LtsNode(rule, _proc_of(host), _proc_of(after), SILENT, (node,))
            new_sub = after
        nodes.append(LtsNode(node.rule, _proc_of(cur), _proc_of(st.result),
                             SILENT, node.children))
        cur = st.result
    if not nodes:
        return refl_node(canonical_process(e), canonical_process(f))
    tree = chain_nodes(nodes)
    return LtsNode(tree.rule, canonical_process(e), canonical_process(f),
                   tree.label, tree.children)


def _locate_env_ids(concl: Structure, env: Structure) -> frozenset[int]:
    want = canonical_key(env)
    if want == "1":
        return frozenset()
    if isinstance(concl, Par):
        for p in concl.parts:
            if canonical_key(p) == want:
                return uid_set(p)
        for mask in range(1, 1 << len(concl.parts)):
            sel = [p for k, p in enumerate(concl.parts) if mask >> k & 1]
            if canonical_key(canonicalize(mk_par(sel))) == want:
                out: frozenset[int] = frozenset()
                for p in sel:
                    out |= uid_set(p)
                return out
    if canonical_key(concl) == want:
        return uid_set(concl)
    raise ExtractionError("environment part not found in the conclusion")


def extract_lts(d: Derivation, e: Process, f: Process,
                env: "Structure | frozenset[int]") -> LtsNode:
    """Extract a transition-system witness for the judgment certified by a
    standard derivation of ``[<e>; env]`` from ``<f>`` consuming ``env``."""
    env_ids = env if isinstance(env, frozenset) else _locate_env_ids(d.conclusion, env)
    if not is_standard(d):
        raise ExtractionError("extraction needs a standard derivation")
    if not consumes(d, env_ids & uid_set(d.conclusion)):
        raise ExtractionError("the derivation does not consume the environment")
    return _extract(d, canonical_process(e), canonical_process(f), env_ids)


def _extract(d: Derivation, e: Process, f: Process,
             env_ids: frozenset[int]) -> LtsNode:
    k = _lowest_interaction(d)
    proc_part, _env_part = _split_conclusion(d.conclusion, env_ids)
    if k is None:
        if env_ids & uid_set(d.conclusion):
            raise ExtractionError("a trivial residue cannot consume environment atoms")
        return _trivial_tree(d, e, f)
    inst = d.steps[k].instance
    pair = tuple(sorted(inst.consumed_ids))
    env_hits = [u for u in pair if u in env_ids]
    if len(env_hits) == 2:
        raise ExtractionError("environment atoms may not annihilate each other")
    reduced = reduce(d)
    if len(env_hits) == 1:
        env_atom = env_hits[0]
        remaining = env_ids & uid_set(d.conclusion)
        if env_atom != min(remaining):
            raise ExtractionError("the environment must be consumed from the left")
        proc_atom = pair[0] if pair[1] == env_atom else pair[1]
        step_node, label, fired = _single_fire(proc_part, proc_atom)
        lbl: ActionSeq = (label,) if label is not None else SILENT
        g = _proc_of(fired)
        step_node = LtsNode(step_node.rule, e, g, lbl, step_node.children)
        nxt = _advance_through(reduced, g, env_ids)
        if nxt is None:
            raise ExtractionError("the reduced derivation does not rejoin the step")
        rest = _extract(nxt, g, f, env_ids)
        out = tran_node(step_node, rest)
        return LtsNode(out.rule, e, f, out.label, out.children)
    step_node, end_struct = _pair_fire(proc_part, pair[0], pair[1])
    g = _proc_of(end_struct)
    step_node = LtsNode(step_node.rule, e, g, SILENT, step_node.children)
    nxt = _advance_through(reduced, g, env_ids)
    if nxt is None:
        raise ExtractionError("the reduced derivation does not rejoin the step")
    rest = _extract(nxt, g, f, env_ids)
    out = tran_node(step_node, rest)
    return LtsNode(out.rule, e, f, out.label, out.children)


# ---------------------------------------------------------------------------
# the reachability pipeline
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ReachStats:
    steps: int = 0
    visited: int = 0
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        return {"steps": self.steps, "visited": self.visited,
                "elapsed_ms": round(self.elapsed_ms, 3)}


@dataclass(slots=True)
class ReachVerdict:
    status: str                         # "proved" | "not_found"
    proof: Optional[Derivation] = None
    standard: Optional[Derivation] = None
    witness: Optional[LtsNode] = None
    exhausted: bool = False
    stats: ReachStats = field(default_factory=ReachStats)

    @property
    def proved(self) -> bool:
        return self.status == "proved"


def _interaction_recipe(x: Structure, nx: Structure, embed) -> list[RecipeEntry]:
    """Step recipe proving ``[x; nx]`` (with ``nx`` the negation of ``x``)
    inside the context ``embed``: the usual recursion that interacts one
    layer at a time."""
    def key_of(piece: Structure) -> str:
        return canonical_key(canonicalize(embed(piece)))

    if isinstance(x, CoPar) or (isinstance(nx, Par) and not isinstance(x, Par)):
        x, nx = nx, x
    if isinstance(x, One):
        return []
    if isinstance(x, Atom):
        return [(AI_DOWN, key_of(ONE), None)]
    if isinstance(x, Seq):
        a, b = x.parts[0], mk_seq(x.parts[1:])
        na, nb = negate(a), negate(b)
        after_q = mk_seq([mk_par([a, na]), mk_par([b, nb])])
        steps = [(Q_DOWN, key_of(after_q), None)]
        steps += _interaction_recipe(
            a, na, lambda h: embed(mk_seq([h, mk_par([b, nb])])))
        steps += _interaction_recipe(b, nb, embed)
        return steps
    if isinstance(x, Par):
        a, b = x.parts[0], mk_par(x.parts[1:])
        na, nb = negate(a), negate(b)
        if canonical_key(b) == "1":
            return _interaction_recipe(a, na, embed)
        after_s = mk_par([mk_copar([mk_par([a, na]), nb]), b])
        steps = [(SWITCH, key_of(after_s), None)]
        steps += _interaction_recipe(
            a, na, lambda h: embed(mk_par([mk_copar([h, nb]), b])))
        steps += _interaction_recipe(b, nb, embed)
        return steps
    if isinstance(x, Sdq):
        body = x.body
        nbody = negate(body)
        after_u = Sdq(x.binder, mk_par([body, nbody]))
        steps = [(U_DOWN, key_of(after_u), None)]
        steps += _interaction_recipe(
            body, nbody, lambda h: embed(Sdq(x.binder, h)))
        return steps
    raise SearchError("cannot build an interaction proof for this shape")


@lru_cache(maxsize=256)  # reused across judgments, bounded per process
def _interaction_proof(x: Structure, budget: SearchBudget) -> Derivation:
    """A proof of ``[x; negate(x)]`` for a canonical ``x`` without ids,
    built by the interaction recursion and replayed into a checked
    derivation."""
    goal = canonicalize(mk_par([x, negate(x)]))
    recipe = _interaction_recipe(x, canonicalize(negate(x)), lambda h: h)
    proof = replay(start_derivation(goal), recipe)
    if proof is None:
        out = prove(goal, "down", budget)
        if not out.found:
            raise SearchError("interaction proof not found within budget")
        proof = out.derivation
    return proof


def _compose_proof(standard: Derivation, f_struct: Structure,
                   budget: SearchBudget) -> Derivation:
    """Extend a standard derivation of ``[<e>; R]`` from ``<f>`` into a
    proof of ``[<e>; negate(<f>); R]`` by annihilating the target against
    its negation."""
    nf = canonicalize(negate(strip_ids(f_struct)))
    if canonical_key(nf) == "1":
        return standard
    base = max(uid_set(standard.conclusion), default=-1) + 1
    nf_ids, _ = assign_ids(nf, base)
    # the standard derivation again, with the numbered negated target
    # standing beside it in Par
    beside = [(st.rule, canonical_key(canonicalize(mk_par([st.result, nf_ids]))),
               uid_set(st.result) | uid_set(nf_ids)) for st in standard.steps]
    lower = replay(Derivation(canonicalize(mk_par([standard.conclusion, nf_ids]))),
                   beside)
    if lower is None:
        raise SearchError("could not replay a step in context")
    inter = _interaction_proof(canonicalize(strip_ids(f_struct)), budget)
    if canonical_key(inter.conclusion) != canonical_key(lower.premise):
        raise SearchError("replay target is not congruent to the conclusion")
    return _replay(lower, _recipe(inter))


def reach(e: Process, f: Process, alpha: ActionSeq,
          budget: SearchBudget = DEFAULT_BUDGET,
          via_inversion: bool = False) -> ReachVerdict:
    """Decide the reachability judgment ``e -> f with alpha`` by proof
    search and return fully checked certificates on success."""
    t0 = time.perf_counter()
    if not is_simple_process(f):
        raise SearchError("the target process must be simple")
    alpha = actions_normalize(alpha)
    env = actions_to_env(alpha)
    e_struct = canonicalize(to_structure(e))
    f_struct = canonicalize(to_structure(f))
    concl, _ = assign_ids(canonicalize(mk_par([e_struct, env])))
    env_ids = _locate_env_ids(concl, env)
    out = _search(concl, "standard", budget, canonical_key(f_struct), env_ids)
    stats = ReachStats(out.steps, out.visited, (time.perf_counter() - t0) * 1000)
    if not out.found:
        return ReachVerdict("not_found", exhausted=out.exhausted, stats=stats)
    standard = out.derivation
    if via_inversion:
        goal = canonicalize(mk_par([strip_ids(e_struct),
                                    negate(strip_ids(f_struct)),
                                    strip_ids(env)]))
        pr = prove(goal, "down", budget)
        if not pr.found:
            raise SearchError("inversion path: no proof of the compiled goal")
        proof = pr.derivation
        inverted = invert(f_struct, proof, budget)
        if canonical_key(inverted.premise) != canonical_key(f_struct) or \
                not check_derivation(inverted):
            raise SearchError("inversion returned mismatched endpoints")
    else:
        proof = _compose_proof(standard, f_struct, budget)
    witness = extract_lts(standard, e, f, env_ids)
    if actions_normalize(witness.label) != actions_normalize(env_to_actions(env)):
        raise ExtractionError("extracted witness carries the wrong label")
    if not check_lts_derivation(witness):
        raise ExtractionError("extracted witness failed validation")
    if not check_derivation(proof) or canonical_key(proof.premise) != "1":
        raise SearchError("composed proof failed validation")
    stats.elapsed_ms = (time.perf_counter() - t0) * 1000
    return ReachVerdict("proved", proof, standard, witness, stats=stats)


def verdict_to_dict(v: ReachVerdict) -> dict:
    out: dict = {"status": v.status, "stats": v.stats.as_dict()}
    if v.proved:
        out["proof"] = derivation_to_dict(v.proof)
        out["standardDerivation"] = derivation_to_dict(v.standard)
        out["ltsWitness"] = lts_to_dict(v.witness)
    else:
        out["exhausted"] = v.exhausted
    return out
