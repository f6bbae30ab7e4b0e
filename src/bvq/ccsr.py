"""The process calculus: processes, structural congruence, action
sequences, the labeled transition system, a derivation checker for it,
and a brute-force reachability oracle.

A process is its structure: the inactive process is the unit, a prefix
``l.P`` is the Seq ``<l;P>``, parallel composition is Par and
restriction the quantifier.  ``parse_process`` builds that image
directly and ``print_process`` prints a process-shaped structure in
process syntax, so processes share the one canonicalizer and the one
congruence of ``structures``.

Restriction here is logic-driven: beside the usual pass-through rule,
two restrictions of the same name standing side by side may merge while
their bodies communicate (``res_merge``), which is strictly more
permissive than Milner-style restriction.  ``milner_mode`` switches the
merge rule off so the contrast can be observed.

The transition relation is explored over congruence classes: states are
canonical forms, and the canonical key is the quotient key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .structures import (
    _IDENT_START, Atom, Name, ONE, One, Par, Sdq, Seq, Structure, _Scanner,
    canonical_key, canonicalize, congruent, json_field, mk_seq, names,
)

TAU = None  # the silent action; an ActionSeq is a tuple over Name | TAU
Action = Optional[Name]
ActionSeq = tuple[Action, ...]

SILENT: ActionSeq = (TAU,)

Process = Structure  # a process-shaped structure
ZERO = ONE


class ProcessError(ValueError):
    pass


def prefix(label: Name, body: Process) -> Process:
    return Seq((Atom(label), body))


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

_RESERVED = {"fo", "nu", "tau"}


def _action(sc: _Scanner) -> Action:
    """Read ``tau`` or a label ``[~]name`` whose name is not reserved."""
    positive = sc.peek() != "~"
    if not positive:
        sc.pos += 1
    word = sc.ident()
    if positive and word == "tau":
        return TAU
    if word in _RESERVED:
        sc.error(f"{word!r} is reserved")
    return Name(word, positive)


def _parse_term(sc: _Scanner) -> Process:
    ch = sc.peek()
    if ch == "0":
        sc.pos += 1
        return ZERO
    if ch == "(":
        sc.pos += 1
        p = _parse_par(sc)
        sc.expect(")")
        return p
    if ch == "~":
        label = _action(sc)
        sc.expect(".")
        return prefix(label, _parse_term(sc))
    if ch in _IDENT_START:
        word = sc.ident()
        if word == "nu":
            neg = sc.peek() == "~"
            if neg:
                sc.pos += 1
                sc.ident()
                sc.error("restriction binds a positive name")
            base = sc.ident()
            sc.expect(".")
            return Sdq(Name(base), _parse_term(sc))
        if word in _RESERVED:
            sc.error(f"{word!r} is reserved")
        sc.expect(".")
        return prefix(Name(word), _parse_term(sc))
    sc.error(f"unexpected character {ch!r}")


def _parse_par(sc: _Scanner) -> Process:
    p = _parse_term(sc)
    while sc.peek() == "|":
        sc.pos += 1
        p = Par((p, _parse_term(sc)))
    return p


def parse_process(text: str) -> Process:
    """The structure a process denotes, as written: ``0`` is the unit,
    ``l.P`` the Seq ``<l;P>``, ``P|Q`` a binary Par and ``nu a.P`` the
    quantifier."""
    sc = _Scanner(text, ProcessError)
    try:
        p = _parse_par(sc)
    except RecursionError:
        raise ProcessError("input nests too deeply") from None
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return p


def print_process(p: Process) -> str:
    """A process-shaped structure in process syntax; an n-ary Par prints
    left-nested, as ``par_of`` nests it."""
    if isinstance(p, One):
        return "0"
    if isinstance(p, Atom):
        return f"{p.name}.0"
    if isinstance(p, Seq) and all(isinstance(h, Atom) for h in p.parts[:-1]):
        heads = "".join(f"{h.name}." for h in p.parts[:-1])
        return heads + print_process(p.parts[-1])
    if isinstance(p, Par):
        out = print_process(p.parts[0])
        for q in p.parts[1:]:
            out = f"({out}|{print_process(q)})"
        return out
    if isinstance(p, Sdq):
        return f"nu {p.binder.base}.{print_process(p.body)}"
    raise TypeError(f"not a process: {p!r}")


def parse_actions(text: str) -> ActionSeq:
    sc = _Scanner(text, ProcessError)
    items: list[Action] = []
    while True:
        if sc.peek() in (";", ""):
            sc.error("empty action in sequence")
        items.append(_action(sc))
        if sc.peek() == "":
            return tuple(items)
        sc.expect(";")


def print_actions(alpha: ActionSeq) -> str:
    if not alpha:
        alpha = SILENT
    return ";".join("tau" if a is TAU else str(a) for a in alpha)


def actions_normalize(alpha: ActionSeq) -> ActionSeq:
    """Absorb silent actions; the all-silent sequence collapses to one tau."""
    out = tuple(a for a in alpha if a is not TAU)
    return out if out else SILENT


def hide_actions(alpha: ActionSeq, base: str) -> ActionSeq:
    return actions_normalize(tuple(
        TAU if (x is not TAU and x.base == base) else x for x in alpha))


# ---------------------------------------------------------------------------
# components, simple processes
# ---------------------------------------------------------------------------

def _components(p: Process) -> list[Process]:
    """The Par components of the canonical form of ``p``."""
    c = canonicalize(p)
    return list(c.parts) if isinstance(c, Par) else [c]


def par_of(items: list[Process]) -> Process:
    """The left-nested binary Par of ``items`` without the units."""
    items = [q for q in items if not isinstance(q, One)]
    if not items:
        return ZERO
    out = items[0]
    for q in items[1:]:
        out = Par((out, q))
    return out


process_key = canonical_key


def is_simple_process(e: Process) -> bool:
    """Parallel compositions and restrictions of the inactive process and
    single prefixes, with no prefix occurring next to its complement.
    Decided on the canonical form, so the notion respects congruence."""
    prefixes: set[Name] = set()

    def shape(s: Structure) -> bool:
        if isinstance(s, Atom):
            prefixes.add(s.name)
            return True
        if isinstance(s, Par):
            return all(shape(p) for p in s.parts)
        if isinstance(s, Sdq):
            return shape(s.body)
        return isinstance(s, One)

    return shape(canonicalize(e)) and \
        not any(l.complement() in prefixes for l in prefixes)


# ---------------------------------------------------------------------------
# the labeled transition system
# ---------------------------------------------------------------------------

RULE_ACT = "act"
RULE_COM = "com"
RULE_CNTXP = "cntxp"
RULE_RES_PASS = "res_pass"
RULE_RES_MERGE = "res_merge"
RULE_REFL = "refl"
RULE_TRAN = "tran"


@dataclass(frozen=True, slots=True)
class LtsNode:
    rule: str
    source: Process
    target: Process
    label: ActionSeq
    children: tuple["LtsNode", ...] = ()


def refl_node(e: Process, f: Optional[Process] = None) -> LtsNode:
    return LtsNode(RULE_REFL, e, e if f is None else f, SILENT)


def tran_node(first: LtsNode, second: LtsNode) -> LtsNode:
    label = actions_normalize(first.label + second.label)
    return LtsNode(RULE_TRAN, first.source, second.target, label, (first, second))


def chain_nodes(nodes: list[LtsNode]) -> LtsNode:
    out = nodes[0]
    for n in nodes[1:]:
        out = tran_node(out, n)
    return out


def _steps_raw(e: Process, milner: bool) -> Iterator[tuple[Process, Action, LtsNode]]:
    """One-step successors of a canonical process, without refl."""
    if isinstance(e, (Atom, Seq)):
        head = e if isinstance(e, Atom) else e.parts[0]
        t = ONE if head is e else mk_seq(e.parts[1:])
        yield t, head.name, LtsNode(RULE_ACT, e, t, (head.name,))
        return
    if isinstance(e, Sdq):
        a = e.binder
        for t, act, node in _steps_raw(e.body, milner):
            if act is not TAU and act.base == a.base:
                continue  # restricted actions cannot pass
            succ = Sdq(a, t)
            lbl: ActionSeq = (act,)
            yield succ, act, LtsNode(RULE_RES_PASS, e, succ, lbl, (node,))
        return
    if isinstance(e, Par):
        comps = list(e.parts)
        n = len(comps)
        moves = [list(_steps_raw(c, milner)) for c in comps]
        for i in range(n):
            for t, act, node in moves[i]:
                succ = par_of(comps[:i] + [t] + comps[i + 1:])
                yield succ, act, LtsNode(RULE_CNTXP, e, succ, (act,), (node,))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for t1, a1, n1 in moves[i]:
                    if a1 is TAU:
                        continue
                    for t2, a2, n2 in moves[j]:
                        if a2 is TAU or a1 != a2.complement():
                            continue
                        succ = par_of([t1 if k == i else t2 if k == j else comps[k]
                                       for k in range(n)])
                        top = LtsNode(RULE_COM, par_of([comps[i], comps[j]]),
                                      par_of([t1, t2]), SILENT, (n1, n2))
                        if n > 2:
                            top = LtsNode(RULE_CNTXP, e, succ, SILENT, (top,))
                        yield succ, TAU, top
        if not milner:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    ci, cj = comps[i], comps[j]
                    if not (isinstance(ci, Sdq) and isinstance(cj, Sdq)):
                        continue
                    if ci.binder != cj.binder:
                        continue  # canonical names agree when mergeable
                    a = ci.binder
                    inner = Par((ci.body, cj.body))
                    for t, act, node in _steps_raw(canonicalize(inner), milner):
                        if act is not TAU and act.base == a.base:
                            # a restricted action may only vanish by
                            # communicating inside the merged scope
                            continue
                        lbl = hide_actions((act,), a.base)
                        merged = Sdq(a, t)
                        rest = [comps[k] for k in range(n) if k not in (i, j)]
                        succ = par_of([merged] + rest)
                        top = LtsNode(RULE_RES_MERGE,
                                      par_of([ci, cj]), merged, lbl, (node,))
                        if rest:
                            top = LtsNode(RULE_CNTXP, e, succ, lbl, (top,))
                        yield succ, (TAU if lbl == SILENT else lbl[0]), top
        return
    return  # the unit: no moves


def lts_steps(e: Process, milner_mode: bool = False
              ) -> list[tuple[Process, ActionSeq, LtsNode]]:
    """One-step successors up to congruence, deterministically ordered,
    including the reflexive silent step."""
    e = canonicalize(e)
    out: list[tuple[Process, ActionSeq, LtsNode]] = [(e, SILENT, refl_node(e))]
    seen = {(canonical_key(e), print_actions(SILENT))}
    found: list[tuple[str, str, Process, ActionSeq, LtsNode]] = []
    for t, act, node in _steps_raw(e, milner_mode):
        tc = canonicalize(t)
        lbl: ActionSeq = actions_normalize((act,))
        key = (canonical_key(tc), print_actions(lbl))
        if key in seen:
            continue
        seen.add(key)
        found.append((key[1], key[0], tc, lbl, node))
    found.sort(key=lambda x: (x[0], x[1]))
    out.extend((tc, lbl, node) for _, _, tc, lbl, node in found)
    return out


def _bfs(e: Process, depth: int, milner_mode: bool
         ) -> Iterator[tuple[tuple[str, str], tuple[Process, ActionSeq, LtsNode]]]:
    """Breadth-first search over (congruence class, normalized action
    sequence) pairs within ``depth`` composed steps.  Yields each pair's
    key on first reaching it, with the state, the sequence and a checking
    witness; the start state comes first."""
    e0 = canonicalize(e)
    start = (e0, SILENT, refl_node(e0))
    key0 = (canonical_key(e0), print_actions(SILENT))
    yield key0, start
    frontier = [start]
    seen = {key0}
    for _ in range(depth):
        nxt: list[tuple[Process, ActionSeq, LtsNode]] = []
        for state, labels, node in frontier:
            for succ, lbl, step in lts_steps(state, milner_mode)[1:]:
                seq = actions_normalize(labels + lbl)
                key = (canonical_key(succ), print_actions(seq))
                if key in seen:
                    continue
                seen.add(key)
                witness = step if node.rule == RULE_REFL and labels == SILENT \
                    else tran_node(node, step)
                entry = (succ, seq, witness)
                yield key, entry
                nxt.append(entry)
        frontier = nxt
        if not frontier:
            break


MAX_STATES = 100_000  # the exploration cap of ``enumerate_reachable``


def enumerate_reachable(e: Process, depth: int, milner_mode: bool = False
                        ) -> list[tuple[Process, ActionSeq, LtsNode]]:
    """Everything reachable within ``depth`` composed steps, with the
    normalized action sequence and a checking witness for each."""
    out = []
    for _, entry in _bfs(e, depth, milner_mode):
        out.append(entry)
        if len(out) > MAX_STATES:
            raise ProcessError("state space exceeded the exploration cap")
    return out


def lts_reachable(e: Process, f: Process, alpha: ActionSeq, depth: int,
                  milner_mode: bool = False) -> Optional[LtsNode]:
    """Breadth-first reachability over congruence classes; returns a
    checking derivation tree or None."""
    want = (canonical_key(f), print_actions(actions_normalize(alpha)))
    for key, (_, _, witness) in _bfs(e, depth, milner_mode):
        if key == want:
            return witness
    return None


# ---------------------------------------------------------------------------
# checking LTS derivations
# ---------------------------------------------------------------------------

def _single_label(alpha: ActionSeq) -> Optional[Name]:
    norm = actions_normalize(alpha)
    if len(norm) == 1 and norm[0] is not TAU:
        return norm[0]
    return None


def _splits_two(items: list[Process]) -> Iterator[tuple[Process, Process]]:
    n = len(items)
    for mask in range(1, 1 << n):
        if mask == (1 << n) - 1:
            continue
        left = [items[i] for i in range(n) if mask >> i & 1]
        right = [items[i] for i in range(n) if not mask >> i & 1]
        yield par_of(left), par_of(right)


def _binder_cands(*procs: Process) -> list[str]:
    bases = {n.base for p in procs for n in names(p)[0]}
    for p in procs:
        q = canonicalize(p)
        while isinstance(q, Sdq):
            bases.add(q.binder.base)
            q = q.body
    pool = sorted(bases) + [f"z{i}" for i in range(3)]
    return pool


def check_lts_detail(t: LtsNode) -> tuple[bool, str]:
    for child in t.children:
        ok, msg = check_lts_detail(child)
        if not ok:
            return ok, msg

    def fail(msg: str) -> tuple[bool, str]:
        return False, f"{t.rule}: {msg}"

    if t.rule == RULE_REFL:
        if t.children:
            return fail("must be a leaf")
        if not congruent(t.source, t.target):
            return fail("endpoints differ")
        if actions_normalize(t.label) != SILENT:
            return fail("label must be silent")
        return True, "ok"
    if t.rule == RULE_ACT:
        if t.children:
            return fail("must be a leaf")
        l = _single_label(t.label)
        if l is None:
            return fail("label must be a single action")
        if not congruent(t.source, prefix(l, t.target)):
            return fail("source is not the labeled prefix of the target")
        return True, "ok"
    if t.rule == RULE_TRAN:
        if len(t.children) != 2:
            return fail("needs two premises")
        a, b = t.children
        if not congruent(a.target, b.source):
            return fail("premises do not chain")
        if not congruent(t.source, a.source) or \
                not congruent(t.target, b.target):
            return fail("endpoints do not match the premises")
        if actions_normalize(t.label) != actions_normalize(a.label + b.label):
            return fail("label is not the composition of the premise labels")
        return True, "ok"
    if t.rule == RULE_COM:
        if len(t.children) != 2:
            return fail("needs two premises")
        a, b = t.children
        la, lb = _single_label(a.label), _single_label(b.label)
        if la is None or lb is None or la != lb.complement():
            return fail("premises must fire complementary actions")
        if actions_normalize(t.label) != SILENT:
            return fail("conclusion must be silent")
        if not congruent(t.source, Par((a.source, b.source))):
            return fail("source is not the parallel of the premise sources")
        if not congruent(t.target, Par((a.target, b.target))):
            return fail("target is not the parallel of the premise targets")
        return True, "ok"
    if t.rule == RULE_CNTXP:
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        if actions_normalize(t.label) != actions_normalize(c.label):
            return fail("label must be inherited")
        for keep, rest in _splits_two(_components(t.source)):
            if congruent(keep, c.source) and \
                    congruent(t.target, Par((c.target, rest))):
                return True, "ok"
        # degenerate framing against the inactive process
        if congruent(t.source, c.source) and \
                congruent(t.target, c.target):
            return True, "ok"
        return fail("no parallel decomposition matches the premise")
    if t.rule == RULE_RES_PASS:
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        inner = actions_normalize(c.label)
        for base in _binder_cands(t.source, c.source):
            a = Name(base)
            if not congruent(t.source, Sdq(a, c.source)):
                continue
            if not congruent(t.target, Sdq(a, c.target)):
                continue
            if any(x is not TAU and x.base == base for x in inner):
                continue
            if actions_normalize(t.label) != inner:
                continue
            return True, "ok"
        return fail("no restricted reading matches the premise")
    if t.rule == RULE_RES_MERGE:
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        comps = _components(c.source)
        for base in _binder_cands(t.source, c.source):
            a = Name(base)
            for left, right in _splits_two(comps):
                if not congruent(t.source, Par((Sdq(a, left), Sdq(a, right)))):
                    continue
                if not congruent(t.target, Sdq(a, c.target)):
                    continue
                if actions_normalize(t.label) != hide_actions(c.label, base):
                    continue
                return True, "ok"
        return fail("no merged-restriction reading matches the premise")
    return fail("unknown rule")


def check_lts_derivation(t: LtsNode) -> bool:
    return check_lts_detail(t)[0]


def lts_to_dict(t: LtsNode) -> dict:
    return {
        "rule": t.rule,
        "judgment": {
            "from": print_process(t.source),
            "to": print_process(t.target),
            "label": print_actions(t.label),
        },
        "children": [lts_to_dict(c) for c in t.children],
    }


def lts_from_dict(data: dict) -> LtsNode:
    j = json_field(data, "judgment", dict, "LTS node")
    return LtsNode(
        json_field(data, "rule", str, "LTS node"),
        parse_process(json_field(j, "from", str, "judgment")),
        parse_process(json_field(j, "to", str, "judgment")),
        parse_actions(json_field(j, "label", str, "judgment")),
        tuple(lts_from_dict(c)
              for c in json_field(data, "children", list, "LTS node", [])),
    )
