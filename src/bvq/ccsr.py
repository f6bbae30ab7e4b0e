"""The process calculus: terms, structural congruence, action sequences,
the labeled transition system, a derivation checker for it, and a
brute-force reachability oracle.

Restriction here is logic-driven: beside the usual pass-through rule,
two restrictions of the same name standing side by side may merge while
their bodies communicate (``res_merge``), which is strictly more
permissive than Milner-style restriction.  ``milner_mode`` switches the
merge rule off so the contrast can be observed.

The transition relation is explored over congruence classes: states are
canonical forms, and the canonical serialization is the quotient key.
Both come from the process's image under the process map
(``to_structure``), so processes share the one canonicalizer of
``structures``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .structures import (
    _IDENT_START, Atom, CoPar, Name, Not, ONE, One, Par, Sdq, Seq, Structure,
    _Scanner, canonical_key, canonicalize, mk_seq,
)

TAU = None  # the silent action; an ActionSeq is a tuple over Name | TAU
Action = Optional[Name]
ActionSeq = tuple[Action, ...]

SILENT: ActionSeq = (TAU,)


class ProcessError(ValueError):
    pass


@dataclass(frozen=True)
class PZero:
    pass


@dataclass(frozen=True)
class PPrefix:
    label: Name
    body: "Process"


@dataclass(frozen=True)
class PPar:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class PNu:
    name: Name  # positive
    body: "Process"


Process = Union[PZero, PPrefix, PPar, PNu]

ZERO = PZero()


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

_RESERVED = {"nu", "tau"}


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
        sc.pos += 1
        base = sc.ident()
        sc.expect(".")
        return PPrefix(Name(base, False), _parse_term(sc))
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
            return PNu(Name(base), _parse_term(sc))
        if word in _RESERVED:
            sc.error(f"{word!r} is reserved")
        sc.expect(".")
        return PPrefix(Name(word), _parse_term(sc))
    sc.error(f"unexpected character {ch!r}")


def _parse_par(sc: _Scanner) -> Process:
    p = _parse_term(sc)
    while sc.peek() == "|":
        sc.pos += 1
        p = PPar(p, _parse_term(sc))
    return p


def parse_process(text: str) -> Process:
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
    if isinstance(p, PZero):
        return "0"
    if isinstance(p, PPrefix):
        return f"{p.label}.{print_process(p.body)}"
    if isinstance(p, PPar):
        return f"({print_process(p.left)}|{print_process(p.right)})"
    if isinstance(p, PNu):
        return f"nu {p.name.base}.{print_process(p.body)}"
    raise TypeError(f"not a process: {p!r}")


def parse_actions(text: str) -> ActionSeq:
    items: list[Action] = []
    for raw in text.split(";"):
        tok = raw.strip()
        if not tok:
            raise ProcessError("empty action in sequence")
        if tok == "tau":
            items.append(TAU)
        elif tok.startswith("~"):
            items.append(Name(tok[1:], False))
        else:
            items.append(Name(tok))
    return tuple(items)


def print_actions(alpha: ActionSeq) -> str:
    if not alpha:
        alpha = SILENT
    return ";".join("tau" if a is TAU else str(a) for a in alpha)


def actions_normalize(alpha: ActionSeq) -> ActionSeq:
    """Absorb silent actions; the all-silent sequence collapses to one tau."""
    out = tuple(a for a in alpha if a is not TAU)
    return out if out else SILENT


def actions_congruent(a: ActionSeq, b: ActionSeq) -> bool:
    return actions_normalize(a) == actions_normalize(b)


def hide_actions(alpha: ActionSeq, base: str) -> ActionSeq:
    return actions_normalize(tuple(
        TAU if (x is not TAU and x.base == base) else x for x in alpha))


# ---------------------------------------------------------------------------
# size, names, congruence
# ---------------------------------------------------------------------------

def process_size(p: Process) -> int:
    if isinstance(p, PZero):
        return 1
    if isinstance(p, PPrefix):
        return 1 + process_size(p.body)
    if isinstance(p, PPar):
        return 1 + process_size(p.left) + process_size(p.right)
    if isinstance(p, PNu):
        return 1 + process_size(p.body)
    raise TypeError(f"not a process: {p!r}")


def free_names(p: Process) -> frozenset[Name]:
    if isinstance(p, PZero):
        return frozenset()
    if isinstance(p, PPrefix):
        return free_names(p.body) | {p.label}
    if isinstance(p, PPar):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, PNu):
        return frozenset(n for n in free_names(p.body) if n.base != p.name.base)
    raise TypeError(f"not a process: {p!r}")


def _par_list(p: Process) -> list[Process]:
    if isinstance(p, PPar):
        return _par_list(p.left) + _par_list(p.right)
    return [p]


def par_of(items: list[Process]) -> Process:
    items = [q for q in items if not isinstance(q, PZero)]
    if not items:
        return ZERO
    out = items[0]
    for q in items[1:]:
        out = PPar(out, q)
    return out


class BridgeError(ValueError):
    pass


def to_structure(e: Process) -> Structure:
    """The isomorphic image of a process; returned raw, not canonical."""
    if isinstance(e, PZero):
        return ONE
    if isinstance(e, PPrefix):
        return Seq((Atom(e.label), to_structure(e.body)))
    if isinstance(e, PPar):
        return Par((to_structure(e.left), to_structure(e.right)))
    if isinstance(e, PNu):
        return Sdq(e.name, to_structure(e.body))
    raise TypeError(f"not a process: {e!r}")


def from_structure(s: Structure) -> Process:
    """Inverse of the process map on process structures."""
    if isinstance(s, One):
        return ZERO
    if isinstance(s, Atom):
        return PPrefix(s.name, ZERO)
    if isinstance(s, Seq):
        head = s.parts[0]
        if not isinstance(head, Atom):
            raise BridgeError("a Seq in a process structure starts with a label")
        return PPrefix(head.name, from_structure(mk_seq(s.parts[1:])))
    if isinstance(s, Par):
        return par_of([from_structure(p) for p in s.parts])
    if isinstance(s, Sdq):
        return PNu(s.binder, from_structure(s.body))
    if isinstance(s, CoPar):
        raise BridgeError("CoPar does not occur in process structures")
    if isinstance(s, Not):
        raise BridgeError("negation does not occur in process structures")
    raise TypeError(f"not a structure: {s!r}")


def _proc_canonical(p: Process) -> tuple[str, Process]:
    """Congruence is decided on the structure image: the key is the
    image's canonical key and the canonical process reads back the
    image's canonical form, so Par components follow structure keys."""
    hit = getattr(p, "_cc", None)
    if hit is not None:
        return hit
    image = to_structure(p)
    out = from_structure(canonicalize(image))
    pair = (canonical_key(image), out)
    object.__setattr__(p, "_cc", pair)
    if out is not p:
        object.__setattr__(out, "_cc", pair)
    return pair


def canonical_process(p: Process) -> Process:
    return _proc_canonical(p)[1]


def process_key(p: Process) -> str:
    return _proc_canonical(p)[0]


def process_congruent(e: Process, f: Process) -> bool:
    return process_key(e) == process_key(f)


def is_simple_process(e: Process) -> bool:
    """Parallel compositions and restrictions of the inactive process and
    single prefixes, with no prefix occurring next to its complement.
    Decided on the canonical form, so the notion respects congruence."""
    prefixes: list[Name] = []

    def shape(p: Process) -> bool:
        if isinstance(p, PZero):
            return True
        if isinstance(p, PPrefix):
            prefixes.append(p.label)
            return isinstance(p.body, PZero)
        if isinstance(p, PPar):
            return shape(p.left) and shape(p.right)
        if isinstance(p, PNu):
            return shape(p.body)
        return False

    if not shape(canonical_process(e)):
        return False
    labels = set(prefixes)
    return not any(l.complement() in labels for l in labels)


# ---------------------------------------------------------------------------
# the labeled transition system
# ---------------------------------------------------------------------------

RULE_ACT = "act"
RULE_COM = "com"
RULE_CNTXP = "cntxp"
RULE_RES_PASS = "res_pass"
RULE_RES_HIDE = "res_hide"
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
    if isinstance(e, PPrefix):
        t = e.body
        yield t, e.label, LtsNode(RULE_ACT, e, t, (e.label,))
        return
    if isinstance(e, PNu):
        a = e.name
        for t, act, node in _steps_raw(e.body, milner):
            if act is not TAU and act.base == a.base:
                continue  # restricted actions cannot pass
            succ = PNu(a, t)
            lbl: ActionSeq = (act,)
            yield succ, act, LtsNode(RULE_RES_PASS, e, succ, lbl, (node,))
        return
    if isinstance(e, PPar):
        comps = _par_list(e)
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
                        yield succ, TAU, LtsNode(RULE_COM, e, succ, SILENT, (n1, n2))
        if not milner:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    ci, cj = comps[i], comps[j]
                    if not (isinstance(ci, PNu) and isinstance(cj, PNu)):
                        continue
                    if ci.name.base != cj.name.base:
                        continue  # canonical names agree when mergeable
                    a = ci.name
                    inner = PPar(ci.body, cj.body)
                    for t, act, node in _steps_raw(canonical_process(inner), milner):
                        if act is not TAU and act.base == a.base:
                            # a restricted action may only vanish by
                            # communicating inside the merged scope
                            continue
                        lbl = hide_actions((act,), a.base)
                        merged = PNu(a, t)
                        rest = [comps[k] for k in range(n) if k not in (i, j)]
                        succ = par_of([merged] + rest)
                        top = LtsNode(RULE_RES_MERGE,
                                      par_of([ci, cj]), merged, lbl, (node,))
                        if rest:
                            top = LtsNode(RULE_CNTXP, e, succ, lbl, (top,))
                        yield succ, (TAU if lbl == SILENT else lbl[0]), top
        return
    return  # PZero: no moves


def lts_steps(e: Process, milner_mode: bool = False
              ) -> list[tuple[Process, ActionSeq, LtsNode]]:
    """One-step successors up to congruence, deterministically ordered,
    including the reflexive silent step."""
    e = canonical_process(e)
    out: list[tuple[Process, ActionSeq, LtsNode]] = [(e, SILENT, refl_node(e))]
    seen = {(process_key(e), print_actions(SILENT))}
    found: list[tuple[str, str, Process, ActionSeq, LtsNode]] = []
    for t, act, node in _steps_raw(e, milner_mode):
        tc = canonical_process(t)
        lbl: ActionSeq = actions_normalize((act,))
        key = (process_key(tc), print_actions(lbl))
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
    e0 = canonical_process(e)
    start = (e0, SILENT, refl_node(e0))
    key0 = (process_key(e0), print_actions(SILENT))
    yield key0, start
    frontier = [start]
    seen = {key0}
    for _ in range(depth):
        nxt: list[tuple[Process, ActionSeq, LtsNode]] = []
        for state, labels, node in frontier:
            for succ, lbl, step in lts_steps(state, milner_mode)[1:]:
                seq = actions_normalize(labels + lbl)
                key = (process_key(succ), print_actions(seq))
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


def enumerate_reachable(e: Process, depth: int, milner_mode: bool = False,
                        max_states: int = 100_000
                        ) -> list[tuple[Process, ActionSeq, LtsNode]]:
    """Everything reachable within ``depth`` composed steps, with the
    normalized action sequence and a checking witness for each."""
    out = []
    for _, entry in _bfs(e, depth, milner_mode):
        out.append(entry)
        if len(out) > max_states:
            raise ProcessError("state space exceeded the exploration cap")
    return out


def lts_reachable(e: Process, f: Process, alpha: ActionSeq, depth: int,
                  milner_mode: bool = False) -> Optional[LtsNode]:
    """Breadth-first reachability over congruence classes; returns a
    checking derivation tree or None."""
    want = (process_key(f), print_actions(actions_normalize(alpha)))
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
    bases = {n.base for p in procs for n in free_names(p)}
    for p in procs:
        q = canonical_process(p)
        while isinstance(q, PNu):
            bases.add(q.name.base)
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
        if not process_congruent(t.source, t.target):
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
        if not process_congruent(t.source, PPrefix(l, t.target)):
            return fail("source is not the labeled prefix of the target")
        return True, "ok"
    if t.rule == RULE_TRAN:
        if len(t.children) != 2:
            return fail("needs two premises")
        a, b = t.children
        if not process_congruent(a.target, b.source):
            return fail("premises do not chain")
        if not process_congruent(t.source, a.source) or \
                not process_congruent(t.target, b.target):
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
        if not process_congruent(t.source, PPar(a.source, b.source)):
            return fail("source is not the parallel of the premise sources")
        if not process_congruent(t.target, PPar(a.target, b.target)):
            return fail("target is not the parallel of the premise targets")
        return True, "ok"
    if t.rule == RULE_CNTXP:
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        if actions_normalize(t.label) != actions_normalize(c.label):
            return fail("label must be inherited")
        comps = _par_list(canonical_process(t.source))
        for keep, rest in _splits_two(comps):
            if process_congruent(keep, c.source) and \
                    process_congruent(t.target, PPar(c.target, rest)):
                return True, "ok"
        # degenerate framing against the inactive process
        if process_congruent(t.source, c.source) and \
                process_congruent(t.target, c.target):
            return True, "ok"
        return fail("no parallel decomposition matches the premise")
    if t.rule in (RULE_RES_PASS, RULE_RES_HIDE):
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        inner = actions_normalize(c.label)
        for base in _binder_cands(t.source, c.source):
            a = Name(base)
            if not process_congruent(t.source, PNu(a, c.source)):
                continue
            if not process_congruent(t.target, PNu(a, c.target)):
                continue
            if t.rule == RULE_RES_PASS:
                if any(x is not TAU and x.base == base for x in inner):
                    continue
                if actions_normalize(t.label) != inner:
                    continue
            else:
                l = _single_label(c.label)
                if l is None or l.base != base:
                    continue
                if actions_normalize(t.label) != SILENT:
                    continue
            return True, "ok"
        return fail("no restricted reading matches the premise")
    if t.rule == RULE_RES_MERGE:
        if len(t.children) != 1:
            return fail("needs one premise")
        c = t.children[0]
        comps = _par_list(canonical_process(c.source))
        for base in _binder_cands(t.source, c.source):
            a = Name(base)
            for left, right in _splits_two(comps) if len(comps) > 1 else [(c.source, ZERO)]:
                src = PPar(PNu(a, left), PNu(a, right))
                if not process_congruent(t.source, src):
                    continue
                if not process_congruent(t.target, PNu(a, c.target)):
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
    j = data["judgment"]
    return LtsNode(
        data["rule"],
        parse_process(j["from"]),
        parse_process(j["to"]),
        parse_actions(j["label"]),
        tuple(lts_from_dict(c) for c in data.get("children", ())),
    )
