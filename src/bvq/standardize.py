"""Right-contexts, Seq-numbers, commuting conversions, standardization.

A derivation is standard when every atomic interaction happens in a
right-context: never to the right of a non-unit Seq part.  The
Seq-number of an interaction counts the Seq ancestors that block it; it
is zero exactly when the step can be relabeled as the left atomic
interaction.  Standardization repeatedly picks the topmost blocked
interaction and exchanges it with the rule above it until it lands in a
right-context.  Each exchange is realized by a small verified search for
a replacement window (at most four rules), which covers every case of
the commuting-conversion analysis, including the one that has to insert
a quantifier move and a Seq move.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .calculus import (
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, U_DOWN, Derivation, DerivationError,
    RuleInstance, Step, apply_instance, check_derivation, enumerate_instances,
    is_right_context,
)
from .structures import (
    Context, Seq, Structure, StructureError, canonical_key, is_tensor_free,
    subterm_at, uid_set,
)

_TF_RULES = frozenset({AI_DOWN, AI_DOWN_LEFT, Q_DOWN, U_DOWN})


class StandardizationError(DerivationError):
    pass


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


def _step_host(d: Derivation, i: int) -> Structure:
    return d.conclusion if i == 0 else d.steps[i - 1].result


def seq_number_of_step(d: Derivation, i: int) -> int:
    st = d.steps[i]
    if st.rule not in (AI_DOWN, AI_DOWN_LEFT):
        raise StandardizationError("Seq-numbers are defined for atomic interactions")
    return seq_number(_step_host(d, i), st.instance.path)


def seq_numbers(d: Derivation) -> list[tuple[int, int]]:
    return [(i, seq_number_of_step(d, i)) for i, st in enumerate(d.steps)
            if st.rule in (AI_DOWN, AI_DOWN_LEFT)]


def is_standard(d: Derivation) -> bool:
    return all(n == 0 for _, n in seq_numbers(d))


def relabel(d: Derivation) -> Derivation:
    """Rename every right-context interaction to the left atomic rule."""
    steps = []
    for i, st in enumerate(d.steps):
        inst = st.instance
        if st.rule == AI_DOWN and seq_number_of_step(d, i) == 0:
            inst = RuleInstance(AI_DOWN_LEFT, inst.path, inst.consumed,
                                inst.replacement, inst.consumed_ids)
        steps.append(Step(inst, st.result))
    return Derivation(d.conclusion, tuple(steps))


def _window_search(bottom: Structure, top: Structure, max_steps: int = 4,
                   relevant: Optional[frozenset[int]] = None,
                   loose: bool = False, cap: int = 6000
                   ) -> Optional[list[Step]]:
    """Find a short derivation from ``bottom`` up to ``top``; used to
    realize one commuting conversion.  In strict mode every rule must be
    standard; in loose mode the final rule may be a blocked interaction
    (which thereby moves one rule upward).  ``relevant`` restricts the
    quantifier/Seq moves tried to those touching the atoms the conversion
    is about; interactions may in any case only consume atoms that die
    inside the window."""
    from .structures import iter_atoms

    target = canonical_key(top)
    target_ids = uid_set(top)
    dead = uid_set(bottom) - target_ids
    queue: deque[tuple[Structure, tuple[Step, ...], bool]] = deque()
    queue.append((bottom, (), False))
    seen = {(canonical_key(bottom), uid_set(bottom), False)}
    while queue:
        cur, steps, dirty = queue.popleft()
        if canonical_key(cur) == target and uid_set(cur) == target_ids and steps:
            return list(steps)
        if len(steps) >= max_steps or dirty or len(seen) > cap:
            continue
        for inst in enumerate_instances(cur, frozenset({AI_DOWN, Q_DOWN, U_DOWN})):
            if inst.rule == AI_DOWN:
                if not inst.consumed_ids <= dead:
                    continue
            elif relevant is not None:
                touched = {a.uid for c in inst.consumed for a in iter_atoms(c)}
                if touched and not touched & relevant:
                    continue
            blocked = inst.rule == AI_DOWN and seq_number(cur, inst.path) > 0
            if blocked and not loose:
                continue
            nxt = apply_instance(cur, inst)
            key = (canonical_key(nxt), uid_set(nxt), blocked)
            if key in seen:
                continue
            seen.add(key)
            queue.append((nxt, steps + (Step(inst, nxt),), blocked))
    return None


def _blocked_indices(d: Derivation) -> list[int]:
    return [i for i, n in seq_numbers(d) if n > 0]


def _check_preconditions(d: Derivation) -> None:
    if not all(r in _TF_RULES for r in d.rules()):
        raise StandardizationError("standardization handles the Tensor-free fragment only")
    for s in d.structures():
        if not is_tensor_free(s):
            raise StandardizationError("derivation is not Tensor-free")


def commute_once(d: Derivation, i: int) -> Derivation:
    """Move the blocked interaction at step ``i`` one rule upward (or
    relabel it when its context is already right), returning a valid
    derivation with the same endpoints."""
    _check_preconditions(d)
    st = d.steps[i]
    if st.rule not in (AI_DOWN, AI_DOWN_LEFT):
        raise StandardizationError("only atomic interactions commute upward")
    if seq_number_of_step(d, i) == 0:
        return relabel(d)
    if i + 1 >= len(d.steps):
        raise StandardizationError("no rule above to commute with")
    bottom = _step_host(d, i)
    top = d.steps[i + 1].result
    relevant = uid_set(bottom) - uid_set(top)
    for other in (d.steps[i], d.steps[i + 1]):
        for c in other.instance.consumed:
            relevant |= uid_set(c)
    relevant = frozenset(relevant)
    window = None
    for rel, loose, depth, cap in (
            (relevant, True, 2, 2000),    # plain exchange, the common case
            (relevant, False, 3, 3000),   # conversions that insert one rule
            (relevant, False, 4, 8000),   # ... or two
            (relevant, True, 4, 8000),
            (None, False, 4, 50_000),
            (None, True, 4, 200_000)):
        window = _window_search(bottom, top, max_steps=depth, relevant=rel,
                                loose=loose, cap=cap)
        if window is not None:
            break
    if window is None:
        raise StandardizationError("no applicable commuting conversion")
    steps = d.steps[:i] + tuple(window) + d.steps[i + 2:]
    return Derivation(d.conclusion, steps)


def standardize(d: Derivation, max_rounds: Optional[int] = None) -> Derivation:
    """Reorganize a Tensor-free derivation into a standard one with the
    same premise and conclusion."""
    _check_preconditions(d)
    if max_rounds is None:
        max_rounds = 16 * (len(d.steps) + 1) ** 2 + 64
    rounds = 0
    while True:
        blocked = _blocked_indices(d)
        if not blocked:
            out = relabel(d)
            if not check_derivation(out):
                raise StandardizationError("standardization produced an invalid derivation")
            return out
        i = blocked[-1]  # topmost blocked interaction
        if i + 1 >= len(d.steps):
            raise StandardizationError(
                "blocked interaction reached the premise; no standard "
                "derivation shares these endpoints")
        rounds += 1
        if rounds > max_rounds:
            raise StandardizationError("standardization did not terminate")
        d = commute_once(d, i)
