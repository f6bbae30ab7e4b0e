"""Inference rules of the quantified system, instance enumeration,
replay of step recipes, right-contexts, and derivation checking.

All rules are read bottom-up: an instance rewrites a redex inside the
conclusion into the premise.  The down fragment is ``ai_down`` (and its
right-context relabeling ``ai_down_left``), ``switch``, ``q_down`` and
``u_down``, the only rules a derivation may use.

Every redex lives at a Par node (the whole structure counts as a Par of
one part when needed); an instance records the Par-node path, the
children it consumes and the structure that replaces them.  Enumeration
works on canonical forms and matches modulo congruence by trying the
unit-degenerate readings of each child, so e.g. ``[<l;R>;T]`` has a
``q_down`` instance with premise ``<l;[R;T]>``.  Enumeration is lazy and
yields each instance with the structure rewritten at it, so a search
keys a successor from that tree and stops generating instances when its
budget runs out.  ``replay`` is the one way to rebuild a derivation from
a recipe of (rule, premise key, premise ids) steps, and
``breadth_first`` is the one breadth-first search loop over derivation
states, each successor keyed by the search that generates it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Container, Iterable, Iterator, Optional

from .structures import (
    _TOO_DEEP, Atom, CoPar, Context, ONE, Par, Sdq, Seq, Structure, StructureError,
    assign_ids, canonical_key, canonicalize, free_bases, iter_atoms,
    mk_copar, mk_par, mk_seq, parse_structure, print_structure,
    replace_at, json_field, subterm_at, uid_set,
)

AI_DOWN = "ai_down"
AI_DOWN_LEFT = "ai_down_left"
SWITCH = "switch"
Q_DOWN = "q_down"
U_DOWN = "u_down"

DOWN_FRAGMENT = frozenset({AI_DOWN, AI_DOWN_LEFT, SWITCH, Q_DOWN, U_DOWN})

# the rule classes in the order ``enumerate_instances`` yields them
_RULE_CLASSES = (frozenset({AI_DOWN, AI_DOWN_LEFT}), frozenset({Q_DOWN}),
                 frozenset({U_DOWN}), frozenset({SWITCH}))


class DerivationError(ValueError):
    pass


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    path: Context                      # Par node holding the redex
    consumed: tuple[Structure, ...]    # children removed from that node
    replacement: Structure             # structure spliced in (may be the unit)
    consumed_ids: frozenset[int]       # nonempty only for atomic interaction

    @property
    def conclusion_redex(self) -> Structure:
        return mk_par(self.consumed) if len(self.consumed) != 1 else self.consumed[0]

    def consumed_uids(self) -> tuple[int, ...]:
        """Sorted occurrence ids of every consumed atom, -1 for unnumbered;
        computed once per instance, or once per ``q_down`` pair and
        shared by its instances."""
        got = getattr(self, "_uids", None)
        if got is None:
            got = _occurrence_ids(self.consumed)
            object.__setattr__(self, "_uids", got)
        return got

    def sort_key(self):
        """Order among the instances of one rule at one Par node."""
        return (tuple(map(canonical_key, self.consumed)),
                canonical_key(self.replacement), self.consumed_uids())


def _occurrence_ids(structures: tuple[Structure, ...]) -> tuple[int, ...]:
    return tuple(sorted(a.uid if a.uid is not None else -1
                        for c in structures for a in iter_atoms(c)))


@dataclass(frozen=True, slots=True)
class Step:
    instance: RuleInstance
    result: Structure  # canonical premise-side structure after this step

    @property
    def rule(self) -> str:
        return self.instance.rule


@dataclass(frozen=True, slots=True)
class Derivation:
    """Bottom-to-top list of steps over canonical annotated structures."""

    conclusion: Structure
    steps: tuple[Step, ...] = ()

    @property
    def premise(self) -> Structure:
        return self.steps[-1].result if self.steps else self.conclusion

    def structures(self) -> Iterator[Structure]:
        yield self.conclusion
        for st in self.steps:
            yield st.result

    def rules(self) -> list[str]:
        return [st.rule for st in self.steps]


def start_derivation(s: Structure) -> Derivation:
    s, _ = assign_ids(canonicalize(s))
    return Derivation(s)


def same_occurrences(a: Structure, b: Structure) -> bool:
    """Congruent and carrying the same atom-occurrence ids."""
    return canonical_key(a) == canonical_key(b) and uid_set(a) == uid_set(b)


def pairable(s: Structure, nf: Structure = ONE,
             env_ids: Container[int] = frozenset()) -> bool:
    """Whether every atom of ``[s; nf]`` can be matched to a distinct
    complementary atom it is Par-related to (their lowest common bracket
    a Par), with no atom of ``s`` whose id is in ``env_ids`` matched to
    an atom of ``nf``.  Complementary atoms have the other polarity and
    the same class: a free atom's base, or one class for every bound
    atom.  ``nf`` is told apart from ``s`` by its place in the walk, not
    by its ids.

    Going up, no down rule makes two atoms Par-related, and no atom
    changes class:

    * ``q_down`` turns ``[<R;T>;<U;V>]`` into ``<[R;U];[T;V]>``, moving
      R-V and T-U from Par into Seq; ``switch`` turns ``[(R;T);U]``
      into ``([R;U];T)``, moving T-U from Par into CoPar; every other
      pair keeps its relation, as under ``u_down``;
    * canonicalization only flattens brackets, removes units and
      vacuous binders, and renames and reorders binders;
    * an interaction deletes two atoms that are children of one Par, so
      both are free or both are bound;
    * ``u_down`` refuses a capture, and binder names avoid every free
      base.

    Let ``nf`` be the canonical negation of a goal ``g`` and suppose
    some derivation from ``g`` has conclusion ``s`` and deletes every
    atom of ``env_ids``.  Its interactions pair atoms of ``s`` that are
    complementary and Par-related in ``s``.  The atoms it keeps are
    those of a structure congruent to ``g``; each is complementary to
    its dual in ``nf``, and every atom of ``s`` is Par-related to every
    atom of ``nf``.  Together these pairs match every atom of ``[s; nf]``,
    and no environment atom survives to be matched into ``nf``.  So a
    structure that fails the test has no such derivation.  The matching
    pairs off the positive and negative atoms of each class, so the test
    fails whenever ``s`` and ``g`` differ in some class's count of
    positive minus negative atoms, a count no derivation changes.

    The graph is bipartite, positives against negatives; with as many
    of each, a matching covering the positives covers every atom, so
    one augmenting-path (Kuhn) search decides it."""
    cls: list[Optional[str]] = []          # class of each atom, by index
    adj: list[list[int]] = []              # complementary Par-related atoms
    pos: list[bool] = []
    ids: list[Optional[int]] = []

    def link(got: list[int], below: list[int]) -> None:
        for i in got:
            for j in below:
                if cls[i] == cls[j] and pos[i] != pos[j]:
                    adj[i].append(j)
                    adj[j].append(i)

    def walk(t: Structure, bound: frozenset[str]) -> list[int]:
        if isinstance(t, Atom):
            i = len(cls)
            cls.append(None if t.name.base in bound else t.name.base)
            pos.append(t.name.positive)
            adj.append([])
            ids.append(t.uid)
            return [i]
        if isinstance(t, Sdq):
            return walk(t.body, bound | {t.binder.base})
        if not isinstance(t, (Seq, Par, CoPar)):
            return []
        below: list[int] = []
        for p in t.parts:
            got = walk(p, bound)
            if isinstance(t, Par):
                link(got, below)
            below += got
        return below

    try:
        process = [i for i in walk(s, frozenset()) if ids[i] not in env_ids]
        link(walk(nf, frozenset()), process)
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None
    side = [i for i in range(len(cls)) if pos[i]]
    if 2 * len(side) != len(cls):
        return False
    mate: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if j not in mate or augment(mate[j], seen):
                    mate[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in side)


# ---------------------------------------------------------------------------
# instance enumeration
# ---------------------------------------------------------------------------

def _splits(s: Structure) -> list[tuple[Structure, Structure]]:
    """Readings of ``s`` as a Seq pair ``<head; tail>`` modulo units."""
    out: list[tuple[Structure, Structure]] = [(s, ONE), (ONE, s)]
    if isinstance(s, Seq):
        for i in range(1, len(s.parts)):
            out.append((mk_seq(s.parts[:i]), mk_seq(s.parts[i:])))
    return out


def _par_nodes(s: Structure, prefix: Context = ()) -> Iterator[tuple[Context, Par]]:
    try:
        if isinstance(s, Par):
            yield prefix, s
            for i, p in enumerate(s.parts):
                yield from _par_nodes(p, prefix + (("par", i),))
        elif isinstance(s, (Seq, CoPar)):
            op = "seq" if isinstance(s, Seq) else "copar"
            for i, p in enumerate(s.parts):
                yield from _par_nodes(p, prefix + ((op, i),))
        elif isinstance(s, Sdq):
            yield from _par_nodes(s.body, prefix + (("fo", 0),))
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def _subsets(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    n = len(items)
    for mask in range(1, 1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


def _atom_id(a: Atom) -> frozenset[int]:
    return frozenset() if a.uid is None else frozenset({a.uid})


def _node_instances(node: Par, path: Context, fragment: frozenset[str]) -> Iterator[RuleInstance]:
    parts = node.parts
    n = len(parts)
    if AI_DOWN in fragment or AI_DOWN_LEFT in fragment:
        for i in range(n):
            for j in range(i + 1, n):
                a, b = parts[i], parts[j]
                if isinstance(a, Atom) and isinstance(b, Atom) and \
                        a.name == b.name.complement():
                    yield RuleInstance(AI_DOWN, path, (a, b), ONE,
                                       _atom_id(a) | _atom_id(b))
    if Q_DOWN in fragment:
        splits = [_splits(p) for p in parts]
        for i in range(n):
            for j in range(i + 1, n):
                pair = (parts[i], parts[j])
                uids = _occurrence_ids(pair)
                for h1, t1 in splits[i]:
                    for h2, t2 in splits[j]:
                        if h1 is h2 is ONE or t1 is t2 is ONE:
                            continue
                        repl = mk_seq([mk_par([h1, h2]), mk_par([t1, t2])])
                        inst = RuleInstance(Q_DOWN, path, pair, repl, frozenset())
                        object.__setattr__(inst, "_uids", uids)
                        yield inst
    if U_DOWN in fragment:
        for i in range(n):
            if not isinstance(parts[i], Sdq):
                continue
            binder = parts[i].binder
            for j in range(n):
                if i == j:
                    continue
                other = parts[j]
                if isinstance(other, Sdq):
                    # canonical siblings share binder names; (j, i)
                    # would mirror (i, j)
                    if other.binder != binder or j < i:
                        continue
                    body = mk_par([parts[i].body, other.body])
                elif binder.base not in free_bases(other):
                    body = mk_par([parts[i].body, other])
                else:
                    continue
                yield RuleInstance(U_DOWN, path, (parts[i], other),
                                   Sdq(binder, body), frozenset())
    if SWITCH in fragment:
        for i in range(n):
            cp = parts[i]
            if not isinstance(cp, CoPar):
                continue
            others = tuple(k for k in range(n) if k != i)
            idxs = tuple(range(len(cp.parts)))
            for rsel in _subsets(idxs):
                if len(rsel) == len(idxs):
                    continue
                r = mk_copar([cp.parts[k] for k in rsel])
                t = mk_copar([cp.parts[k] for k in idxs if k not in rsel])
                for usel in _subsets(others):
                    u = [parts[k] for k in usel]
                    repl = mk_copar([mk_par([r] + u), t])
                    yield RuleInstance(SWITCH, path, (cp, *u), repl, frozenset())


def enumerate_instances(s: Structure, fragment: Iterable[str] = DOWN_FRAGMENT
                        ) -> Iterator[tuple[RuleInstance, Structure]]:
    """Yield ``(instance, rewritten)`` for every down-rule instance whose
    conclusion matches ``s`` (canonical), where ``rewritten`` is ``s``
    rewritten at the instance (``_rewrite``, not canonicalized).  Pairs
    come rule class by rule class (``_RULE_CLASSES``), then Par node by
    Par node in pre-order, which is sorted path order, each node's
    instances sorted by ``RuleInstance.sort_key``.  So a caller that stops
    early has generated the instances of the classes and nodes it reached
    only.  Instances whose premise is congruent to the conclusion are
    dropped as no-ops, and of the instances with the same rule, path,
    premise and consumed ids only the first is kept.  Both filters key
    the rewritten tree, which caches its flattened views, so a caller
    keys or canonicalizes it without walking it again.

    ``_node_instances`` never generates two kinds of instance that these
    filters would drop anyway, so none is rewritten:

    * the mirror ``(j, i)`` of a ``q_down`` pair, or of a ``u_down`` pair
      of two quantifiers: it consumes the same children as ``(i, j)``
      into a congruent premise, and ``(i, j)`` comes first, so it was
      only ever dropped as a duplicate;
    * a ``q_down`` split whose two heads, or two tails, are both the
      unit: its premise ``[R;T]`` is the conclusion, a no-op.

    Duplicates from congruent siblings remain, and the filters drop them.
    The filters read the plain key even in a twin judgment, which
    ``search._search`` keys by the marked key: there they drop some
    successors that the marked key tells apart (a no-op or a duplicate
    only up to which twin is marked).
    """
    fragment = frozenset(fragment)
    if not fragment <= DOWN_FRAGMENT:
        raise DerivationError("search fragments may only contain down rules")
    root_key = canonical_key(s)
    nodes = list(_par_nodes(s))
    for rules in _RULE_CLASSES:
        rules &= fragment
        if not rules:
            continue
        for path, node in nodes:
            kept: list[tuple[RuleInstance, Structure]] = []
            seen: set[tuple] = set()
            for inst in _node_instances(node, path, rules):
                tree = _rewrite(s, inst)
                # interactions strictly shrink and distinct pairs never
                # coincide, so they skip the no-op/duplicate filtering
                if inst.rule != AI_DOWN:
                    dedup = (canonical_key(tree), inst.consumed_uids())
                    if dedup[0] == root_key or dedup in seen:
                        continue
                    seen.add(dedup)
                kept.append((inst, tree))
            kept.sort(key=lambda pair: pair[0].sort_key())
            yield from kept


def _remove_children(parts: tuple[Structure, ...], consumed: tuple[Structure, ...]
                     ) -> Optional[list[Structure]]:
    """``parts`` without the ``consumed`` children: each the very object
    when it is there, as it is for every instance ``enumerate_instances``
    makes, else the first child with the same occurrences."""
    rest = list(parts)
    for want in consumed:
        for i, c in enumerate(rest):
            if c is want:
                break
        else:
            for i, c in enumerate(rest):
                if same_occurrences(c, want):
                    break
            else:
                return None
        del rest[i]
    return rest


def _rewrite(s: Structure, inst: RuleInstance) -> Structure:
    """``s`` rewritten at the instance, not canonicalized."""
    node = subterm_at(s, inst.path)
    if not isinstance(node, Par):
        raise DerivationError("rule instance path must address a Par node")
    rest = _remove_children(node.parts, inst.consumed)
    if rest is None:
        raise DerivationError("instance does not match the structure")
    return replace_at(s, inst.path, mk_par(rest + [inst.replacement]))


def apply_instance(s: Structure, inst: RuleInstance) -> Structure:
    """Rewrite ``s`` at the instance and return the canonical premise."""
    cached = getattr(inst, "_applied", None)
    if cached is not None and cached[0] is s:
        return cached[1]
    out = canonicalize(_rewrite(s, inst))
    object.__setattr__(inst, "_applied", (s, out))
    return out


# a recipe entry: (rule, canonical key of its premise, occurrence ids of
# its premise or None when ids are not compared)
RecipeEntry = tuple[str, str, Optional[frozenset[int]]]


def _backtrack(start: Derivation, entries: list, candidates: Callable) -> tuple:
    """Extend ``start`` by one step per entry, backtracking depth first
    over the ``(instance, premise)`` pairs ``candidates(cur, entry)``
    yields, so the first choices that reach the end win.  Returns the
    derivation, or None and the deepest entry no choice got past."""
    steps: list[Step] = []
    choices: list[Iterator] = []
    deepest = 0
    while len(steps) < len(entries):
        if len(choices) == len(steps):
            cur = steps[-1].result if steps else start.premise
            choices.append(iter(candidates(cur, entries[len(steps)])))
            deepest = max(deepest, len(steps))
        got = next(choices[-1], None)
        if got is not None:
            steps.append(Step(*got))
        elif len(choices) == 1:
            return None, deepest
        else:
            choices.pop()
            steps.pop()
    return Derivation(start.conclusion, start.steps + tuple(steps)), deepest


def _recipe_candidates(cur: Structure, entry: RecipeEntry) -> Iterator[tuple]:
    rule, want, ids = entry
    base = AI_DOWN if rule == AI_DOWN_LEFT else rule
    gone = None if ids is None else uid_set(cur) - ids
    for inst, tree in enumerate_instances(cur, frozenset({base})):
        # an interaction must eat exactly the ids that disappear; the id
        # check below implies this, testing it first only saves the
        # canonicalization
        if gone is not None and inst.rule == AI_DOWN and inst.consumed_ids != gone:
            continue
        nxt = canonicalize(tree)
        if canonical_key(nxt) == want and (ids is None or uid_set(nxt) == ids):
            yield inst, nxt


def replay(start: Derivation, recipe: list[RecipeEntry]) -> Optional[Derivation]:
    """Extend ``start`` by one step per recipe entry, each an instance of
    the entry's rule (``ai_down_left`` read as ``ai_down``) whose premise
    has the entry's key and, when given, its ids.  Backtracks over
    instance choices, so the first matches win; None when no choice
    reaches the end of the recipe."""
    return _backtrack(start, recipe, _recipe_candidates)[0]


def breadth_first(start, start_key, successors: Callable, is_goal: Callable,
                  max_steps: float, max_visited: float
                  ) -> tuple[Optional[list[tuple]], str, int, int]:
    """Breadth-first search from ``start``, whose key is ``start_key``;
    ``successors(state)`` yields ``(edge, state, key)`` triples, and a
    state whose key was seen is dropped.  The goal is tested on each new
    key when it is generated.  Every successor counts one step, checked
    after its generator keyed it; the count of distinct states is
    checked after each new state that is not a goal.
    Returns ``(path, stopped_by, steps, visited)``: ``path`` lists the
    ``(edge, state)`` pairs up to the goal or is None, and ``stopped_by``
    says why the search stopped: ``"goal"``, the ``"steps"`` or the
    ``"visited"`` budget, or a ``"closed"`` state space."""
    if is_goal(start_key):
        return [], "goal", 0, 1
    parents: dict = {start_key: (None, None, start)}  # key -> (parent key, edge, state)
    queue = deque([start_key])
    steps = 0
    while queue:
        k = queue.popleft()
        for edge, nxt, nk in successors(parents[k][2]):
            steps += 1
            if steps > max_steps:
                return None, "steps", steps, len(parents)
            if nk in parents:
                continue
            parents[nk] = (k, edge, nxt)
            if is_goal(nk):
                path = []
                while parents[nk][0] is not None:
                    nk, edge, nxt = parents[nk]
                    path.append((edge, nxt))
                return path[::-1], "goal", steps, len(parents)
            if len(parents) > max_visited:
                return None, "visited", steps, len(parents)
            queue.append(nk)
    return None, "closed", steps, len(parents)


# ---------------------------------------------------------------------------
# derivation checking
# ---------------------------------------------------------------------------

def seq_number(host: Structure, path: Context) -> int:
    """Seq ancestors with non-unit material left of the path."""
    cur = host
    n = 0
    for op, idx in path:
        if op == "seq":
            if not isinstance(cur, Seq):
                raise StructureError("path does not match the host")
            if any(canonical_key(p) != "1" for p in cur.parts[:idx]):
                n += 1
        cur = subterm_at(cur, ((op, idx),))
    return n


def is_right_context(host: Structure, path: Context) -> bool:
    """True when the hole at ``path`` never sits right of non-unit Seq
    material and never under CoPar."""
    return all(op != "copar" for op, _ in path) and seq_number(host, path) == 0


def _schema_ok(cur: Structure, inst: RuleInstance) -> bool:
    cons = inst.consumed
    repl = inst.replacement
    if inst.rule in (AI_DOWN, AI_DOWN_LEFT):
        if len(cons) != 2 or not all(isinstance(c, Atom) for c in cons):
            return False
        a, b = cons
        if a.name != b.name.complement() or canonical_key(repl) != "1":
            return False
        if inst.rule == AI_DOWN_LEFT and not is_right_context(cur, inst.path):
            return False
        return True
    if inst.rule == Q_DOWN:
        if len(cons) != 2:
            return False
        want = canonical_key(repl)
        for h1, t1 in _splits(cons[0]):
            for h2, t2 in _splits(cons[1]):
                cand = mk_seq([mk_par([h1, h2]), mk_par([t1, t2])])
                if canonical_key(cand) == want:
                    return True
        return False
    if inst.rule == U_DOWN:
        if len(cons) != 2:
            return False
        for a, b in (cons, cons[::-1]):
            if not isinstance(a, Sdq):
                continue
            if isinstance(b, Sdq) and b.binder == a.binder:
                body = mk_par([a.body, b.body])
            elif not isinstance(b, Sdq) and a.binder.base not in free_bases(b):
                body = mk_par([a.body, b])
            else:
                continue
            if canonical_key(Sdq(a.binder, body)) == canonical_key(repl):
                return True
        return False
    if inst.rule == SWITCH:
        if not cons or not isinstance(cons[0], CoPar):
            return False
        cp, us = cons[0], list(cons[1:])
        idxs = tuple(range(len(cp.parts)))
        want = canonical_key(repl)
        for rsel in _subsets(idxs):
            if len(rsel) == len(idxs):
                continue
            r = mk_copar([cp.parts[k] for k in rsel])
            t = mk_copar([cp.parts[k] for k in idxs if k not in rsel])
            cand = mk_copar([mk_par([r] + us), t])
            if canonical_key(cand) == want:
                return True
        return False
    return False


def check_derivation_detail(d: Derivation) -> tuple[bool, str]:
    """Validate every step at its recorded path; returns (ok, reason)."""
    cur = d.conclusion
    if canonical_key(cur) != canonical_key(canonicalize(cur)):
        return False, "conclusion is not canonical"
    for i, st in enumerate(d.steps):
        inst = st.instance
        if inst.rule not in DOWN_FRAGMENT:
            return False, f"step {i}: unknown rule {inst.rule!r}"
        try:
            node = subterm_at(cur, inst.path)
        except StructureError:
            return False, f"step {i}: path does not resolve"
        if not isinstance(node, Par):
            return False, f"step {i}: path does not address a Par node"
        if _remove_children(node.parts, inst.consumed) is None:
            return False, f"step {i}: redex not found at path"
        if not _schema_ok(cur, inst):
            return False, f"step {i}: redex does not match the {inst.rule} schema"
        try:
            got = apply_instance(cur, inst)
        except DerivationError as e:
            return False, f"step {i}: {e}"
        if canonical_key(got) != canonical_key(st.result):
            return False, f"step {i}: premise mismatch"
        if uid_set(got) != uid_set(st.result):
            return False, f"step {i}: inconsistent occurrence ids"
        if inst.rule in (AI_DOWN, AI_DOWN_LEFT):
            if inst.consumed_ids and uid_set(cur) - uid_set(st.result) != inst.consumed_ids:
                return False, f"step {i}: consumed ids do not match"
        cur = st.result
    return True, "ok"


def check_derivation(d: Derivation) -> bool:
    return check_derivation_detail(d)[0]


# ---------------------------------------------------------------------------
# JSON round-tripping
# ---------------------------------------------------------------------------

def derivation_to_dict(d: Derivation) -> dict:
    return {
        "conclusion": print_structure(d.conclusion),
        "premise": print_structure(d.premise),
        "steps": [
            {
                "rule": st.rule,
                "path": [[op, idx] for op, idx in st.instance.path],
                "redexBefore": print_structure(st.instance.conclusion_redex),
                "redexAfter": print_structure(st.instance.replacement),
                "consumedIds": sorted(st.instance.consumed_ids),
            }
            for st in d.steps
        ],
    }


def _json_candidates(cur: Structure, sd: dict) -> Iterator[tuple]:
    rule = sd["rule"]
    path = tuple((op, idx) for op, idx in sd["path"])
    want_ids = frozenset(sd.get("consumedIds", ()))
    before = canonical_key(parse_structure(sd["redexBefore"]))
    after = canonical_key(parse_structure(sd["redexAfter"]))
    base = AI_DOWN if rule in (AI_DOWN, AI_DOWN_LEFT) else rule
    for inst, tree in enumerate_instances(cur, frozenset({base})):
        if inst.path != path or canonical_key(inst.conclusion_redex) != before \
                or canonical_key(inst.replacement) != after \
                or want_ids and inst.consumed_ids != want_ids:
            continue
        if rule == AI_DOWN_LEFT:
            inst = replace(inst, rule=AI_DOWN_LEFT)
        yield inst, canonicalize(tree)


def derivation_from_dict(data: dict) -> Derivation:
    """Rebuild a derivation from its JSON form.

    Occurrence ids are re-assigned on the canonical conclusion (the same
    left-to-right numbering used when the derivation was emitted), and
    every step is re-located by matching rule, path and redex prints.
    Where several instances match a step (two identical atoms, say), the
    choice is backtracked until the later steps match as well.  A rule
    outside the down fragment is rejected before any step is replayed.
    """
    conclusion = json_field(data, "conclusion", str, "derivation")
    steps = json_field(data, "steps", list, "derivation")
    prem = json_field(data, "premise", str, "derivation", None)
    for i, sd in enumerate(steps):
        where = f"step {i}"
        for name in ("rule", "redexBefore", "redexAfter"):
            json_field(sd, name, str, where)
        json_field(sd, "consumedIds", list, where, [], item=int)
        if not all(len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], int)
                   for p in json_field(sd, "path", list, where, item=list)):
            raise ValueError(f"{where}: field 'path' is not a list of "
                             "[operator, index] pairs")
        if sd["rule"] not in DOWN_FRAGMENT:
            raise DerivationError(f"{where}: unknown rule {sd['rule']!r}")
    d, deepest = _backtrack(start_derivation(parse_structure(conclusion)),
                            steps, _json_candidates)
    if d is None:
        raise DerivationError(f"step {deepest}: no matching "
                              f"{steps[deepest]['rule']} instance")
    if prem is not None and canonical_key(parse_structure(prem)) != canonical_key(d.premise):
        raise DerivationError("premise does not match the replayed steps")
    return d


def format_derivation(d: Derivation) -> str:
    """Human-readable bottom-up listing (premise on top)."""
    lines = [print_structure(d.premise)]
    lower = list(d.structures())[:-1]
    for st, below in zip(reversed(d.steps), reversed(lower)):
        inst = st.instance
        pth = "".join(f".{op}{idx}" for op, idx in inst.path) or ".root"
        lines.append(f"--{inst.rule} @{pth}  "
                     f"{print_structure(inst.conclusion_redex)}"
                     f" ~> {print_structure(inst.replacement)}")
        lines.append(print_structure(below))
    return "\n".join(lines)
