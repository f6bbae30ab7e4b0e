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
    AI_DOWN, AI_DOWN_LEFT, Q_DOWN, U_DOWN, Derivation, DerivationError,
    RuleInstance, Step, apply_instance, breadth_first, check_derivation,
    enumerate_instances, seq_number,
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
_AI_ONLY = frozenset({AI_DOWN})
_WINDOW_DEPTH = 4
_WINDOW_VISITED = 50_000

# a window search state: the parent structure and the instance whose
# premise is the state's structure (None at the bottom), the ids that
# structure holds, its depth, and whether the instance was blocked
_WindowState = tuple[Structure, Optional[RuleInstance], frozenset[int], int, bool]


def _window_search(bottom: Structure, top: Structure,
                   relevant: frozenset[int]) -> Optional[list[Step]]:
    """Find a derivation of at most ``_WINDOW_DEPTH`` rules from ``bottom``
    up to ``top``, visiting at most ``_WINDOW_VISITED`` states (a
    structure, its depth, and whether the rule that made it was blocked).
    A state keeps its parent and its instance (``_WindowState``) and is
    keyed by the canonical key of the parent rewritten at the instance
    (the tree ``enumerate_instances`` yields with it) and by its ids, the
    parent's minus the ids the instance consumes; its structure is built
    only when the state is expanded or returned.
    Only the last rule may be a blocked interaction: a state it makes is
    not expanded.  ``relevant`` restricts the quantifier/Seq moves to
    those touching the atoms the conversion is about;
    interactions may only consume atoms that die in the window.

    The search is breadth-first and is run once per bound ``D``, from the
    interactions ``bottom`` owes up to ``_WINDOW_DEPTH``.  A state owes
    ``owed = |ids ∩ dead| / 2`` interactions: each allowed interaction
    eats two dead atoms, no other rule changes ids, and ``top`` holds no
    dead atom.  A run keeps only states with ``depth + owed <= D``: one
    with ``depth + owed == D`` is expanded with interactions alone, since
    any other rule would raise the sum past ``D``.

    The first window found is the one the search bounded by
    ``_WINDOW_DEPTH`` alone (the unbounded search) finds.  Along a path
    ``depth + owed`` never decreases (an interaction keeps it, any other
    rule raises it by one),
    and a goal owes nothing, so every state on a window of ``d <= D``
    rules is kept.  By induction on the unbounded search's queue, each
    state a run keeps is generated there too, at the same depth, from
    the same parent and in the same order: a state's first parent in the
    unbounded search lies at no greater depth than any other parent, so
    it is kept as well, and it is expanded with that edge.  So a run
    with ``D`` below the unbounded window's length finds nothing, and
    the first run with ``D`` at that length finds that window.  A run
    keeps a subset of the unbounded search's states in its order, so one
    that stops at ``_WINDOW_VISITED`` means the unbounded search would
    have stopped there too, and the search gives up.  Only the converse
    is not exact: where the unbounded search would pass its cap, a
    bounded run may still find a window."""
    target = canonical_key(top)
    target_ids = uid_set(top)
    dead = uid_set(bottom) - target_ids

    for bound in range(len(dead) // 2, _WINDOW_DEPTH + 1):
        def successors(state: _WindowState):
            parent, inst, ids, depth, dirty = state
            if dirty or depth >= bound:
                return
            cur = parent if inst is None else apply_instance(parent, inst)
            owed = len(ids & dead) // 2
            rules = _WINDOW_RULES if depth + owed < bound else _AI_ONLY
            for inst, tree in enumerate_instances(cur, rules):
                if inst.rule == AI_DOWN:
                    if not inst.consumed_ids <= dead:
                        continue
                else:
                    touched = inst.consumed_uids()
                    if touched and relevant.isdisjoint(touched):
                        continue
                blocked = inst.rule == AI_DOWN and seq_number(cur, inst.path) > 0
                after = ids - inst.consumed_ids
                yield (inst, (cur, inst, after, depth + 1, blocked),
                       (canonical_key(tree), after, blocked))

        path, stopped_by, _, _ = breadth_first(
            (bottom, None, uid_set(bottom), 0, False),
            (canonical_key(bottom), uid_set(bottom), False), successors,
            lambda k: k[0] == target and k[1] == target_ids,
            math.inf, _WINDOW_VISITED)
        if path is not None:
            return [Step(inst, apply_instance(st[0], inst)) for inst, st in path]
        if stopped_by == "visited":
            return None
    return None


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

    The window is searched once, with the relevance filter, by
    ``_window_search``: breadth first, deepened one rule at a time from
    the interactions the window still owes, and returning the window a
    plain breadth-first search of depth ``_WINDOW_DEPTH`` would.  Goals
    are tested when generated, and blocked states are leaves keyed apart
    from clean ones.  So the search finds the plain exchange (two rules)
    whenever a filtered search of depth 2 does; past that, its clean
    states are those of a strict filtered search of depth 4 in the same
    order, and it finds that search's window unless a window ending in a
    blocked interaction comes first.  Some proofs need such a window;
    ``tests/test_standardize.py`` pins one and compares this search with
    the two on random proofs.  All this holds while the search does not
    reach its visited cap."""
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
    window = _window_search(bottom, top, relevant)
    if window is None:
        raise StandardizationError("no applicable commuting conversion")
    steps = d.steps[:i] + tuple(window) + d.steps[i + 2:]
    return Derivation(d.conclusion, steps)


def standardize(d: Derivation) -> Derivation:
    """Reorganize a Tensor-free derivation into a standard one with the
    same premise and conclusion."""
    _check_preconditions(d)
    max_rounds = 16 * (len(d.steps) + 1) ** 2 + 64
    rounds = 0
    while True:
        blocked = [i for i, n in seq_numbers(d) if n > 0]
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
