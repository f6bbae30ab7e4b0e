"""Bottom-up proof and derivation search, reduction of standard
derivations, environment consumption, witness extraction, and the
end-to-end reachability pipeline.

Search is a breadth-first closure over canonical forms: no down rule
grows a structure going up, so the reachable state space of a goal is
finite and emptying the frontier decides provability.  The reachability
pipeline compiles ``E -> F with alpha`` into deriving ``<F>`` from
``[<E>; R]`` in the standard fragment, where ``R`` is the environment
structure of ``alpha``.  Consumption of ``R`` is tracked inside the
search state, so a returned derivation always annihilates every
environment atom.  A transition-system witness is read off that
derivation in one pass over its interactions, from the bottom up: each
fires on the process part of the conclusion with the atoms fired so far
erased.  An interaction between two process atoms becomes a silent
communication step, and one with the environment head a visible
firing.  The steps left once every fired atom is erased, replayed once,
become restriction merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .calculus import (
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, SWITCH, U_DOWN, Derivation, RecipeEntry,
    Step, _remove_children, apply_instance, atom_balance, breadth_first,
    check_derivation, derivation_to_dict, enumerate_instances, replay,
    same_occurrences, seq_number, start_derivation,
)
from .ccsr import (
    LtsNode, Process, PZero, RULE_ACT, RULE_CNTXP, RULE_COM, RULE_RES_MERGE,
    RULE_RES_PASS, SILENT, ActionSeq, actions_normalize, canonical_process,
    chain_nodes, check_lts_derivation, from_structure, is_simple_process,
    lts_to_dict, process_congruent, refl_node, tran_node, to_structure,
)
from .bridge import actions_to_env, classify_structure, env_to_actions
from .standardize import is_standard
from .structures import (
    Atom, CoPar, Name, ONE, One, Par, Sdq, Seq, Structure, assign_ids,
    canonical_key, canonicalize, erase_atoms, is_tensor_free,
    iter_atoms, map_atoms, marked_key, mk_copar, mk_par, mk_seq, negate,
    replace_at, subterm_at, uid_set,
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
    stopped_by: str  # "goal", "steps", "visited", "closed" or "refuted"
    steps: int
    visited: int

    @property
    def found(self) -> bool:
        return self.derivation is not None

    @property
    def exhausted(self) -> bool:
        """Stopped by a budget, not by a goal or a decided negative."""
        return self.stopped_by in ("steps", "visited")


_SEARCH_RULES = frozenset({AI_DOWN, Q_DOWN, U_DOWN, SWITCH})


def _search(start: Structure, fragment: str, budget: SearchBudget,
            goal: Structure, env_ids: frozenset[int] = frozenset()
            ) -> SearchOutcome:
    """Breadth-first bottom-up closure from a canonical annotated start.
    The goal is any state congruent to ``goal`` whose tracked environment
    atoms have all been consumed.  A goal whose atom balance is not the
    start's is refuted before any state is generated: no derivation
    changes the balance (``calculus.atom_balance``).

    A search state is ``(parent, instance, live ids)``: the structure is
    the premise of the instance applied to the parent structure (the
    start is ``(start, None, live ids)``), and the live ids are the
    sorted ids of the environment atoms it still holds.  A state's
    structure is built only when the search expands the state or returns
    it on the path.  Every successor is keyed from the parent rewritten
    at its instance, the tree ``enumerate_instances`` yields with it,
    which is congruent to the premise and carries the same ids; most
    successors are then dropped as already visited without being built.
    No rule creates an occurrence, and only an interaction deletes any,
    so an interaction successor's live ids are its parent's minus the
    consumed pair and every other successor keeps its parent's.

    The key is the canonical key of the structure and the live ids.
    States that differ
    only in which of two twin occurrences the environment still owns
    have different futures; a twin is an atom outside the live set with
    the name (base and polarity) of a live one.  So the key must split
    states as the canonical key with every live atom keyed under a
    marked name (``structures.marked_key``) does.  When the start has no
    twins, the plain key already does:

    * no state has twins either.  Free atoms keep their names, and bound
      atoms stay bound under canonical names that avoid every free base;
      live environment atoms are free, because ``u_down`` refuses a
      capture.  So a twin in a state would be one in the start;
    * the live ids fix the live names, so two states with the same live
      ids undergo the same marking, and without twins it is an injective
      renaming of free names (marked names carry a character no parsed
      name has);
    * on canonical states such a renaming preserves and reflects
      congruence (units, associativity, commutativity and binder
      renaming and reordering never compare two different free names;
      up to the chain cap of ``structures._MAX_CHAIN_PERms``).

    Whether states are keyed with marks is therefore decided once, from
    the start: exactly when the start has twins.  Such a judgment keys
    the rewritten tree with ``marked_key``.  It marks the atoms of the
    judgment's ``env_ids``, not of the state's live ids, and the two are
    the same atoms: no rule creates an occurrence, and an environment
    atom leaves the live set only when an interaction deletes it, so the
    environment atoms a state holds are exactly its live ones.  Marking
    every state by the one ``env_ids`` object lets it reuse the marked
    views cached on the subterms it shares with its parent, so keying a
    successor walks its rebuilt path alone.
    """
    if fragment not in ("down", "standard"):
        raise SearchError("fragment must be 'down' or 'standard'")
    if fragment == "standard" and not is_tensor_free(start):
        raise SearchError("the standard fragment handles Tensor-free goals only")
    if atom_balance(start) != atom_balance(goal):
        # one state, the start, as ``breadth_first`` counts a start that
        # is the goal
        return SearchOutcome(None, "refuted", 0, 1)
    want = canonical_key(goal)
    live_names = {a.name for a in iter_atoms(start) if a.uid in env_ids}
    marked = any(a.name in live_names for a in iter_atoms(start)
                 if a.uid not in env_ids)

    def key(s: Structure, live: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        if marked and live:
            return marked_key(s, env_ids), live
        return canonical_key(s), live

    def successors(state):
        parent, inst, live = state
        s = parent if inst is None else apply_instance(parent, inst)
        for inst, tree in enumerate_instances(s, _SEARCH_RULES):
            after = live
            if inst.rule == AI_DOWN:
                if fragment == "standard":
                    if seq_number(s, inst.path) != 0:
                        continue
                    inst = replace(inst, rule=AI_DOWN_LEFT)
                after = tuple(u for u in live if u not in inst.consumed_ids)
            yield inst, (s, inst, after), key(tree, after)

    live = tuple(sorted(env_ids & uid_set(start)))
    path, stopped_by, steps, visited = breadth_first(
        (start, None, live), key(start, live), successors,
        lambda k: k[0] == want and not k[1], budget.max_steps, budget.max_visited)
    d = None if path is None else Derivation(
        start, tuple(Step(inst, apply_instance(st[0], inst)) for inst, st in path))
    return SearchOutcome(d, stopped_by, steps, visited)


def prove(goal: Structure, fragment: str = "down",
          budget: SearchBudget = DEFAULT_BUDGET) -> SearchOutcome:
    """Search a cut-free proof: a derivation whose premise is the unit."""
    start = start_derivation(goal).conclusion
    return _search(start, fragment, budget, ONE)


def derive(conclusion: Structure, premise: Structure, fragment: str = "down",
           budget: SearchBudget = DEFAULT_BUDGET) -> SearchOutcome:
    """Search a derivation of ``conclusion`` from ``premise``."""
    start = start_derivation(conclusion).conclusion
    return _search(start, fragment, budget, premise)


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

def _erase(s: Structure, ids: frozenset[int]) -> Structure:
    return canonicalize(erase_atoms(s, ids))


def _erase_replay(conclusion: Structure, steps: Iterable[Step],
                  ids: frozenset[int]) -> Derivation:
    """Replay ``steps`` upward from ``conclusion`` with the atoms ``ids``
    erased throughout, dropping every step the erasure made vacuous."""
    below = _erase(conclusion, ids)
    recipe: list[RecipeEntry] = []
    cur = below
    for st in steps:
        target = _erase(st.result, ids)
        if not same_occurrences(cur, target):
            recipe.append((st.rule, canonical_key(target), uid_set(target)))
        cur = target
    rebuilt = replay(Derivation(below), recipe)
    if rebuilt is None:
        raise SearchError("cannot replay the erased steps")
    return rebuilt


def reduce(d: Derivation) -> Derivation:
    """Erase the two atoms annihilated by the lowest interaction from the
    part of the derivation below it, drop that interaction together with
    every step the erasure made vacuous, and keep the rest."""
    k = next((i for i, st in enumerate(d.steps)
              if st.rule in (AI_DOWN, AI_DOWN_LEFT)), None)
    if k is None:
        raise SearchError("reduction needs a non-trivial derivation")
    if not is_standard(d):
        raise SearchError("reduction is defined on standard derivations")
    rebuilt = _erase_replay(d.conclusion, d.steps[:k],
                            d.steps[k].instance.consumed_ids)
    if not same_occurrences(rebuilt.premise, d.steps[k].result):
        raise SearchError("erased derivation does not rejoin above the interaction")
    out = Derivation(rebuilt.conclusion, rebuilt.steps + d.steps[k + 1:])
    if not check_derivation(out):
        raise SearchError("reduction produced an invalid derivation")
    return out


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------

def _proc_of(s: Structure) -> Process:
    """The canonical process read from a canonical process structure."""
    return canonical_process(from_structure(s))


def _process_part(concl: Structure, env_ids: frozenset[int]) -> Structure:
    """The process part of a conclusion: its Par components without
    environment atoms."""
    live = env_ids & uid_set(concl)
    if not live:
        return concl
    if isinstance(concl, Par):
        proc_parts = []
        for p in concl.parts:
            if not uid_set(p) & live:
                proc_parts.append(p)
            elif uid_set(p) - env_ids:
                raise ExtractionError("environment atoms are entangled with the process")
        return canonicalize(mk_par(proc_parts))
    if uid_set(concl) <= env_ids:
        return ONE
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


def _pair_base(s: Structure, i: int) -> str:
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
        base = _pair_base(s, i)
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
    """The ids of the Par component of ``concl`` congruent to ``env``;
    an environment structure is never a Par, so it is one component."""
    if not classify_structure(env).is_environment:
        raise ExtractionError("not an environment structure")
    want = canonical_key(env)
    if want == "1":
        return frozenset()
    for p in concl.parts if isinstance(concl, Par) else (concl,):
        if canonical_key(p) == want:
            return uid_set(p)
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
    """Fire the interactions of ``d`` from the bottom up, each on the
    process part of the conclusion with the atoms fired so far erased,
    and chain the steps with the restriction merges of the residue: the
    remaining steps replayed with every fired atom erased."""
    nodes: list[LtsNode] = []
    fired: frozenset[int] = frozenset()
    live = env_ids & uid_set(d.conclusion)
    proc_part = _process_part(d.conclusion, env_ids)
    src = e
    for st in d.steps:
        if st.rule not in (AI_DOWN, AI_DOWN_LEFT):
            continue
        pair = tuple(sorted(st.instance.consumed_ids))
        env_hits = [u for u in pair if u in env_ids]
        if len(env_hits) == 2:
            raise ExtractionError("environment atoms may not annihilate each other")
        if env_hits:
            if env_hits[0] != min(live - fired):
                raise ExtractionError("the environment must be consumed from the left")
            proc_atom = pair[0] if pair[1] == env_hits[0] else pair[1]
            node, label, after = _single_fire(proc_part, proc_atom)
            lbl: ActionSeq = (label,) if label is not None else SILENT
        else:
            node, after = _pair_fire(proc_part, *pair)
            lbl = SILENT
        g = _proc_of(after)
        nodes.append(LtsNode(node.rule, src, g, lbl, node.children))
        fired |= st.instance.consumed_ids
        proc_part = _process_part(_erase(d.conclusion, fired), env_ids)
        if not process_congruent(_proc_of(proc_part), g):
            raise ExtractionError("the erased conclusion does not read as the step")
        src = g
    tree = _trivial_tree(_erase_replay(d.conclusion, d.steps, fired)
                         if fired else d, src, f)
    for node in reversed(nodes):
        tree = tran_node(node, tree)
    return tree


# ---------------------------------------------------------------------------
# the reachability pipeline
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ReachStats:
    steps: int = 0
    visited: int = 0
    elapsed_ms: float = 0.0
    stopped_by: str = "goal"            # as in ``SearchOutcome``

    def as_dict(self) -> dict:
        return {"steps": self.steps, "visited": self.visited,
                "elapsed_ms": round(self.elapsed_ms, 3),
                "stoppedBy": self.stopped_by}


@dataclass(slots=True)
class ReachVerdict:
    status: str                         # "proved" | "not_found"
    proof: Optional[Derivation] = None
    standard: Optional[Derivation] = None
    witness: Optional[LtsNode] = None
    stats: ReachStats = field(default_factory=ReachStats)

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    @property
    def stopped_by(self) -> str:
        return self.stats.stopped_by

    @property
    def exhausted(self) -> bool:
        """Stopped by a budget, not by a goal or a decided negative."""
        return self.stopped_by in ("steps", "visited")


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


def _compose_proof(standard: Derivation, f_struct: Structure) -> Derivation:
    """Extend a standard derivation of ``[<e>; R]`` from ``<f>`` into a
    proof of ``[<e>; negate(<f>); R]`` by annihilating the target against
    its negation.  The proof's conclusion is numbered left to right, as
    ``derivation_from_dict`` numbers it, so the printed proof reads back."""
    nf = canonicalize(negate(f_struct))
    if canonical_key(nf) == "1":
        return standard
    base = max(uid_set(standard.conclusion), default=-1) + 1
    nf_ids, _ = assign_ids(nf, base)
    concl = canonicalize(mk_par([standard.conclusion, nf_ids]))
    rank = {a.uid: i for i, a in enumerate(iter_atoms(concl))}
    # the standard derivation again, with the numbered negated target
    # standing beside it in Par, its ids renumbered through ``rank``
    beside = [(st.rule, canonical_key(canonicalize(mk_par([st.result, nf_ids]))),
               frozenset(rank[u] for u in uid_set(st.result) | uid_set(nf_ids)))
              for st in standard.steps]
    lower = replay(Derivation(map_atoms(concl, lambda a: Atom(a.name, rank[a.uid]))),
                   beside)
    if lower is None:
        raise SearchError("could not replay a step in context")
    # then the target against its negation, replayed on ``lower``'s
    # premise, which is congruent to ``[f; nf]``.  No search is tried
    # when a step does not replay (a binder-order case of ``u_down``): on
    # every such target measured, ``prove`` found no proof either
    proof = replay(lower, _interaction_recipe(f_struct, nf, lambda h: h))
    if proof is None:
        raise SearchError("the target's interaction proof does not replay")
    return proof


def reach(e: Process, f: Process, alpha: ActionSeq,
          budget: SearchBudget = DEFAULT_BUDGET) -> ReachVerdict:
    """Decide the reachability judgment ``e -> f with alpha`` by proof
    search and return fully checked certificates on success.

    The verdict is that of one search in the standard fragment for a
    derivation of ``[<e>; R]`` from ``<f>`` that consumes the
    environment ``R``.  On success the witness is extracted from that
    derivation, and the proof of the compiled goal
    ``[<e>; negate(<f>); R]`` is composed from it (``_compose_proof``)."""
    t0 = time.perf_counter()
    if not is_simple_process(f):
        raise SearchError("the target process must be simple")
    alpha = actions_normalize(alpha)
    env = actions_to_env(alpha)
    e_struct = canonicalize(to_structure(e))
    f_struct = canonicalize(to_structure(f))
    concl, _ = assign_ids(canonicalize(mk_par([e_struct, env])))
    env_ids = _locate_env_ids(concl, env)
    out = _search(concl, "standard", budget, f_struct, env_ids)
    stats = ReachStats(out.steps, out.visited, (time.perf_counter() - t0) * 1000,
                       out.stopped_by)
    if not out.found:
        return ReachVerdict("not_found", stats=stats)
    standard = out.derivation
    proof = _compose_proof(standard, f_struct)
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
