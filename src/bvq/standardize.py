"""Seq-numbers of derivation steps, commuting conversions, standardization.

A derivation is standard when every atomic interaction happens in a
right-context: never to the right of a non-unit Seq part.  The
Seq-number of an interaction counts the Seq ancestors that block it; it
is zero exactly when the step can be relabeled as the left atomic
interaction.  Standardization repeatedly picks the topmost blocked
interaction and exchanges it with the rule above it until it lands in a
right-context.  Each exchange is realized by a small verified search for
a replacement window of at most four rules, which may insert rules such
as a quantifier move and a Seq move.  The windows miss some cases: a
derivation may be rejected although a standard one with the same
endpoints exists (see ``tests/test_standardize.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from .calculus import (
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, U_DOWN, Derivation, DerivationError, Step,
    apply_instance, breadth_first, check_derivation, enumerate_instances,
    is_right_context, seq_number,
)
from .structures import Structure, canonical_key, is_tensor_free, uid_set

_TF_RULES = frozenset({AI_DOWN, AI_DOWN_LEFT, Q_DOWN, U_DOWN})


class StandardizationError(DerivationError):
    pass


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
            inst = replace(inst, rule=AI_DOWN_LEFT)
        steps.append(Step(inst, st.result))
    return Derivation(d.conclusion, tuple(steps))


_WINDOW_RULES = frozenset({AI_DOWN, Q_DOWN, U_DOWN})


def _window_search(bottom: Structure, top: Structure, max_depth: int,
                   relevant: Optional[frozenset[int]], loose: bool,
                   max_visited: int) -> Optional[list[Step]]:
    """Find a derivation of at most ``max_depth`` rules from ``bottom`` up
    to ``top``, visiting at most ``max_visited`` states (a structure, its
    depth, and whether the rule that made it was blocked).  In strict
    mode every rule must be standard; in loose mode the final rule may be
    a blocked interaction.  ``relevant``, unless None, restricts the
    quantifier/Seq moves to those touching the atoms the conversion is
    about; interactions may only consume atoms that die in the window."""
    target = canonical_key(top)
    target_ids = uid_set(top)
    dead = uid_set(bottom) - target_ids

    def successors(state: tuple[Structure, int, bool]):
        cur, depth, dirty = state
        if dirty or depth >= max_depth:
            return
        for inst in enumerate_instances(cur, _WINDOW_RULES):
            if inst.rule == AI_DOWN:
                if not inst.consumed_ids <= dead:
                    continue
            elif relevant is not None:
                touched = inst.consumed_uids()
                if touched and relevant.isdisjoint(touched):
                    continue
            blocked = inst.rule == AI_DOWN and seq_number(cur, inst.path) > 0
            if blocked and not loose:
                continue
            yield inst, (apply_instance(cur, inst), depth + 1, blocked)

    path = breadth_first(
        (bottom, 0, False),
        lambda st: (canonical_key(st[0]), uid_set(st[0]), st[2]),
        successors, lambda k: k[0] == target and k[1] == target_ids,
        math.inf, max_visited)[0]
    return None if path is None else [Step(inst, st[0]) for inst, st in path]


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
    derivation with the same endpoints.

    The first tier of window searches that finds a window wins.  A strict
    tier of depth 3 is subsumed by the strict one of depth 4: goals are
    tested when generated, so both generate the same states in the same
    order up to the first goal of depth 3 or less, and the larger cap
    never gives up sooner."""
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
            (relevant, False, 4, 8000),   # conversions that insert rules
            (relevant, True, 4, 8000),
            (None, False, 4, 50_000),
            (None, True, 4, 200_000)):
        window = _window_search(bottom, top, depth, rel, loose, cap)
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
