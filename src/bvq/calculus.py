"""Inference rules of the quantified system, instance enumeration,
replay of step recipes, right-contexts, and derivation checking.

All rules are read bottom-up: an instance rewrites a redex inside the
conclusion into the premise.  The down fragment is ``ai_down`` (and its
right-context relabeling ``ai_down_left``), ``switch``, ``q_down`` and
``u_down``; the up rules exist only for the checker, which validates an
up step by checking that negating and swapping its endpoints yields a
valid down step.

Every redex lives at a Par node (the whole structure counts as a Par of
one part when needed); an instance records the Par-node path, the
children it consumes and the structure that replaces them.  Enumeration
works on canonical forms and matches modulo congruence by trying the
unit-degenerate readings of each child, so e.g. ``[<l;R>;T]`` has a
``q_down`` instance with premise ``<l;[R;T]>``.  ``replay`` is the one
way to rebuild a derivation from a recipe of (rule, premise key, premise
ids) steps, and ``breadth_first`` is the one breadth-first search loop
over derivation states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .structures import (
    Atom, CoPar, Context, ONE, Par, Sdq, Seq, Structure, StructureError,
    assign_ids, canonical_key, canonicalize, free_bases, iter_atoms, mk_copar,
    mk_par, mk_seq, parse_structure, print_structure, negate, replace_at,
    strip_ids, subterm_at, uid_set,
)

AI_DOWN = "ai_down"
AI_DOWN_LEFT = "ai_down_left"
SWITCH = "switch"
Q_DOWN = "q_down"
U_DOWN = "u_down"
AI_UP = "ai_up"
Q_UP = "q_up"
U_UP = "u_up"

DOWN_FRAGMENT = frozenset({AI_DOWN, AI_DOWN_LEFT, SWITCH, Q_DOWN, U_DOWN})
UP_RULES = frozenset({AI_UP, Q_UP, U_UP})
_DUAL = {AI_UP: AI_DOWN, Q_UP: Q_DOWN, U_UP: U_DOWN}

_RULE_ORDER = {AI_DOWN: 0, AI_DOWN_LEFT: 0, Q_DOWN: 1, U_DOWN: 2, SWITCH: 3}


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
        """Sorted occurrence ids of every consumed atom, -1 for unnumbered."""
        return tuple(sorted(a.uid if a.uid is not None else -1
                            for c in self.consumed for a in iter_atoms(c)))

    def sort_key(self):
        return (_RULE_ORDER.get(self.rule, 9), self.path,
                tuple(canonical_key(c) for c in self.consumed),
                canonical_key(self.replacement), self.consumed_uids())


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


def derivation_length(d: Derivation) -> int:
    return len(d.steps)


def start_derivation(s: Structure, number: bool = True) -> Derivation:
    s = canonicalize(s)
    if number:
        s, _ = assign_ids(s)
    return Derivation(s)


def same_occurrences(a: Structure, b: Structure) -> bool:
    """Congruent and carrying the same atom-occurrence ids."""
    return canonical_key(a) == canonical_key(b) and uid_set(a) == uid_set(b)


def concat(lower: Derivation, upper: Derivation) -> Derivation:
    """Chain two derivations; the upper one must start where the lower
    one ends (same canonical form and occurrence ids)."""
    if not same_occurrences(lower.premise, upper.conclusion):
        raise DerivationError("derivations do not chain")
    return Derivation(lower.conclusion, lower.steps + upper.steps)


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
        for i in range(n):
            for j in range(i + 1, n):
                for h1, t1 in _splits(parts[i]):
                    for h2, t2 in _splits(parts[j]):
                        if h1 is h2 is ONE or t1 is t2 is ONE:
                            continue
                        repl = mk_seq([mk_par([h1, h2]), mk_par([t1, t2])])
                        yield RuleInstance(Q_DOWN, path, (parts[i], parts[j]),
                                           repl, frozenset())
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
                        ) -> list[RuleInstance]:
    """All down-rule instances whose conclusion matches ``s`` (canonical),
    deterministically ordered.  Instances whose premise is congruent to
    the conclusion are dropped as no-ops, and of the instances with the
    same rule, path, premise and consumed ids only the first is kept.

    ``_node_instances`` never generates two kinds of instance that these
    filters would drop anyway, so none is applied and canonicalized:

    * the mirror ``(j, i)`` of a ``q_down`` pair, or of a ``u_down`` pair
      of two quantifiers: it consumes the same children as ``(i, j)``
      into a congruent premise, and ``(i, j)`` comes first, so it was
      only ever dropped as a duplicate;
    * a ``q_down`` split whose two heads, or two tails, are both the
      unit: its premise ``[R;T]`` is the conclusion, a no-op.

    Duplicates from congruent siblings remain, and the filters drop them.
    """
    fragment = frozenset(fragment)
    if not fragment <= DOWN_FRAGMENT:
        raise DerivationError("search fragments may only contain down rules")
    out: list[RuleInstance] = []
    seen: set[tuple] = set()
    root_key = canonical_key(s)
    for path, node in _par_nodes(s):
        for inst in _node_instances(node, path, fragment):
            if inst.rule in (AI_DOWN, AI_DOWN_LEFT):
                # interactions strictly shrink and distinct pairs never
                # coincide, so skip the no-op/duplicate filtering
                out.append(inst)
                continue
            premise = apply_instance(s, inst)
            pk = canonical_key(premise)
            if pk == root_key:
                continue
            dedup = (inst.rule, inst.path, pk, inst.consumed_uids())
            if dedup in seen:
                continue
            seen.add(dedup)
            out.append(inst)
    out.sort(key=RuleInstance.sort_key)
    return out


def _remove_children(parts: tuple[Structure, ...], consumed: tuple[Structure, ...]
                     ) -> Optional[list[Structure]]:
    rest = list(parts)
    for want in consumed:
        for i, c in enumerate(rest):
            if c is want or same_occurrences(c, want):
                del rest[i]
                break
        else:
            return None
    return rest


def apply_instance(s: Structure, inst: RuleInstance) -> Structure:
    """Rewrite ``s`` at the instance and return the canonical premise."""
    cached = getattr(inst, "_applied", None)
    if cached is not None and cached[0] is s:
        return cached[1]
    node = subterm_at(s, inst.path)
    if not isinstance(node, Par):
        raise DerivationError("rule instance path must address a Par node")
    rest = _remove_children(node.parts, inst.consumed)
    if rest is None:
        raise DerivationError("instance does not match the structure")
    new_node = mk_par(rest + [inst.replacement])
    out = canonicalize(replace_at(s, inst.path, new_node))
    object.__setattr__(inst, "_applied", (s, out))
    return out


def extend(d: Derivation, inst: RuleInstance) -> Derivation:
    result = apply_instance(d.premise, inst)
    return Derivation(d.conclusion, d.steps + (Step(inst, result),))


# a recipe entry: (rule, canonical key of its premise, occurrence ids of
# its premise or None when ids are not compared)
RecipeEntry = tuple[str, str, Optional[frozenset[int]]]


def replay(start: Derivation, recipe: list[RecipeEntry]) -> Optional[Derivation]:
    """Extend ``start`` by one step per recipe entry, each an instance of
    the entry's rule (``ai_down_left`` read as ``ai_down``) whose premise
    has the entry's key and, when given, its ids.  Backtracks over
    instance choices, so the first matches win; None when no choice
    reaches the end of the recipe."""
    if not recipe:
        return start
    (rule, want, ids), cur = recipe[0], start.premise
    base = AI_DOWN if rule == AI_DOWN_LEFT else rule
    gone = None if ids is None else uid_set(cur) - ids
    for inst in enumerate_instances(cur, frozenset({base})):
        # an interaction must eat exactly the ids that disappear; the id
        # check below implies this, testing it first only saves the apply
        if gone is not None and inst.rule == AI_DOWN and inst.consumed_ids != gone:
            continue
        nxt = apply_instance(cur, inst)
        if canonical_key(nxt) != want or (ids is not None and uid_set(nxt) != ids):
            continue
        got = replay(Derivation(start.conclusion, start.steps + (Step(inst, nxt),)),
                     recipe[1:])
        if got is not None:
            return got
    return None


def breadth_first(start, key: Callable, successors: Callable, is_goal: Callable,
                  max_steps: float, max_visited: float
                  ) -> tuple[Optional[list[tuple]], bool, int, int]:
    """Breadth-first search from ``start``; ``successors(state)`` yields
    ``(edge, state)`` pairs and a state whose ``key`` was seen is dropped.
    The goal is tested on each new key when it is generated.  Every
    successor counts one step, checked before it is keyed; the count of
    distinct states is checked after each new state that is not a goal.
    Returns ``(path, exhausted, steps, visited)``: ``path`` lists the
    ``(edge, state)`` pairs up to the goal or is None, and ``exhausted``
    tells a budget stop from a closed state space."""
    k0 = key(start)
    if is_goal(k0):
        return [], False, 0, 1
    parents: dict = {k0: (None, None, start)}  # key -> (parent key, edge, state)
    queue = deque([k0])
    steps = 0
    while queue:
        k = queue.popleft()
        for edge, nxt in successors(parents[k][2]):
            steps += 1
            if steps > max_steps:
                return None, True, steps, len(parents)
            nk = key(nxt)
            if nk in parents:
                continue
            parents[nk] = (k, edge, nxt)
            if is_goal(nk):
                path = []
                while parents[nk][0] is not None:
                    nk, edge, nxt = parents[nk]
                    path.append((edge, nxt))
                return path[::-1], False, steps, len(parents)
            if len(parents) > max_visited:
                return None, True, steps, len(parents)
            queue.append(nk)
    return None, False, steps, len(parents)


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
    material and never under CoPar or negation."""
    return all(op not in ("copar", "not") for op, _ in path) and \
        seq_number(host, path) == 0


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


def _check_up_step(cur: Structure, result: Structure, rule: str) -> bool:
    concl = canonicalize(negate(strip_ids(result)))
    want = canonical_key(canonicalize(negate(strip_ids(cur))))
    return replay(Derivation(concl), [(_DUAL[rule], want, None)]) is not None


def check_derivation_detail(d: Derivation, system: str = "down") -> tuple[bool, str]:
    """Validate every step at its recorded path; returns (ok, reason)."""
    if system not in ("down", "full"):
        raise DerivationError("system must be 'down' or 'full'")
    cur = d.conclusion
    if canonical_key(cur) != canonical_key(canonicalize(cur)):
        return False, "conclusion is not canonical"
    for i, st in enumerate(d.steps):
        inst = st.instance
        if inst.rule in UP_RULES:
            if system != "full":
                return False, f"step {i}: up rule {inst.rule} outside full system"
            ids_cur, ids_res = uid_set(cur), uid_set(st.result)
            if inst.rule == AI_UP:
                if not (ids_cur <= ids_res):
                    return False, f"step {i}: inconsistent occurrence ids"
            elif ids_cur != ids_res:
                return False, f"step {i}: inconsistent occurrence ids"
            if not _check_up_step(cur, st.result, inst.rule):
                return False, f"step {i}: invalid {inst.rule} instance"
            cur = st.result
            continue
        if inst.rule not in DOWN_FRAGMENT:
            return False, f"step {i}: unknown rule {inst.rule}"
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


def check_derivation(d: Derivation, system: str = "down") -> bool:
    return check_derivation_detail(d, system)[0]


# ---------------------------------------------------------------------------
# JSON round-tripping
# ---------------------------------------------------------------------------

def derivation_to_dict(d: Derivation) -> dict:
    return {
        "conclusion": print_structure(strip_ids(d.conclusion)),
        "premise": print_structure(strip_ids(d.premise)),
        "steps": [
            {
                "rule": st.rule,
                "path": [[op, idx] for op, idx in st.instance.path],
                "redexBefore": print_structure(strip_ids(st.instance.conclusion_redex)),
                "redexAfter": print_structure(strip_ids(st.instance.replacement)),
                "consumedIds": sorted(st.instance.consumed_ids),
            }
            for st in d.steps
        ],
    }


def derivation_from_dict(data: dict) -> Derivation:
    """Rebuild a derivation from its JSON form.

    Occurrence ids are re-assigned on the canonical conclusion (the same
    left-to-right numbering used when the derivation was emitted), and
    every step is re-located by matching rule, path and redex prints.
    """
    d = start_derivation(parse_structure(data["conclusion"]))
    for i, sd in enumerate(data["steps"]):
        rule = sd["rule"]
        path = tuple((op, idx) for op, idx in sd["path"])
        want_ids = frozenset(sd.get("consumedIds", ()))
        before = canonical_key(parse_structure(sd["redexBefore"]))
        after = canonical_key(parse_structure(sd["redexAfter"]))
        base = AI_DOWN if rule in (AI_DOWN, AI_DOWN_LEFT) else rule
        found = None
        for inst in enumerate_instances(d.premise, frozenset({base})):
            if inst.path != path:
                continue
            if canonical_key(inst.conclusion_redex) != before:
                continue
            if canonical_key(inst.replacement) != after:
                continue
            if want_ids and inst.consumed_ids != want_ids:
                continue
            found = inst
            break
        if found is None:
            raise DerivationError(f"step {i}: no matching {rule} instance")
        if rule == AI_DOWN_LEFT:
            found = replace(found, rule=AI_DOWN_LEFT)
        d = extend(d, found)
    prem = data.get("premise")
    if prem is not None and canonical_key(parse_structure(prem)) != canonical_key(d.premise):
        raise DerivationError("premise does not match the replayed steps")
    return d


def format_derivation(d: Derivation) -> str:
    """Human-readable bottom-up listing (premise on top)."""
    lines = [print_structure(strip_ids(d.premise))]
    for st in reversed(d.steps):
        inst = st.instance
        pth = "".join(f".{op}{idx}" for op, idx in inst.path) or ".root"
        lines.append(f"--{inst.rule} @{pth}  "
                     f"{print_structure(strip_ids(inst.conclusion_redex))}"
                     f" ~> {print_structure(strip_ids(inst.replacement))}")
        below = d.conclusion
        idx = d.steps.index(st)
        if idx > 0:
            below = d.steps[idx - 1].result
        lines.append(print_structure(strip_ids(below)))
    return "\n".join(lines)
