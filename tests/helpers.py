"""Test-only builders: single atoms, one-step extensions of a derivation
and random trivial derivations over process structures."""

import random

from bvq.bridge import classify_structure
from bvq.calculus import (
    Derivation, Q_DOWN, RuleInstance, Step, U_DOWN, apply_instance,
    enumerate_instances, start_derivation,
)
from bvq.structures import Atom, Name, Structure


def atom(base: str, positive: bool = True, uid: int | None = None) -> Atom:
    return Atom(Name(base, positive), uid)


def extend(d: Derivation, inst: RuleInstance) -> Derivation:
    """``d`` with ``inst`` applied to its premise as one more step."""
    result = apply_instance(d.premise, inst)
    return Derivation(d.conclusion, d.steps + (Step(inst, result),))


def random_trivial_derivation(rng: random.Random, start: Structure,
                              max_steps: int = 5,
                              keep_process_premise: bool = True) -> Derivation:
    """Random bottom-up quantifier/Seq moves from ``start``; when asked,
    only moves that keep the premise a process structure are taken."""
    d = start_derivation(start)
    for _ in range(max_steps):
        pairs = list(enumerate_instances(d.premise, frozenset({Q_DOWN, U_DOWN})))
        if keep_process_premise:
            pairs = [p for p in pairs if classify_structure(p[1]).is_process]
        if not pairs:
            break
        d = extend(d, rng.choice(pairs)[0])
    return d
