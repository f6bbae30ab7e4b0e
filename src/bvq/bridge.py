"""Structure classifiers and the environment/action maps.

The process map is no function: ``ccsr`` parses a process as the
structure it denotes (the inactive process is the unit, a prefix a Seq,
parallel composition Par, restriction the quantifier), so the
classifiers read process structures directly.  An environment structure
is a canonical list of labels, possibly under quantifiers that scope
over suffixes of the list; it records the messages exchanged with the
environment.  Because an atom only ever annihilates against its
complement, the environment structure for an observable action carries
the complementary label: turning an action sequence into an environment
structure complements each label, and reading an environment structure
back complements again (bound labels read as silent).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ccsr import (
    TAU, Action, ActionSeq, SILENT, actions_normalize, is_simple_process,
)
from .structures import (
    Atom, Name, ONE, One, Par, Sdq, Seq, Structure, canonicalize,
    is_tensor_free, mk_seq,
)


class BridgeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# classifiers (all decided on the canonical form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StructureKinds:
    is_process: bool
    is_environment: bool
    is_simple: bool
    is_tensor_free: bool

    def as_dict(self) -> dict:
        return {
            "isProcess": self.is_process,
            "isEnvironment": self.is_environment,
            "isSimple": self.is_simple,
            "isTensorFree": self.is_tensor_free,
        }


def _is_process_shape(s: Structure) -> bool:
    if isinstance(s, (One, Atom)):
        return True
    if isinstance(s, Seq):
        return all(isinstance(p, Atom) for p in s.parts[:-1]) and \
            _is_process_shape(s.parts[-1])
    if isinstance(s, Par):
        return all(_is_process_shape(p) for p in s.parts)
    if isinstance(s, Sdq):
        return _is_process_shape(s.body)
    return False


def _is_env_shape(s: Structure) -> bool:
    if isinstance(s, Atom):
        return True
    if isinstance(s, Sdq):
        return _is_env_shape(s.body)
    if isinstance(s, Seq):
        return all(isinstance(p, Atom) for p in s.parts[:-1]) and \
            _is_env_shape(s.parts[-1])
    return False


def classify_structure(s: Structure) -> StructureKinds:
    c = canonicalize(s)
    return StructureKinds(
        is_process=_is_process_shape(c),
        is_environment=isinstance(c, One) or _is_env_shape(c),
        is_simple=is_simple_process(c),
        is_tensor_free=is_tensor_free(c),
    )


# ---------------------------------------------------------------------------
# environment structures <-> action sequences
# ---------------------------------------------------------------------------

def env_to_actions(s: Structure) -> ActionSeq:
    """Read an environment structure as the action sequence it lets the
    process perform: each free label contributes the complementary
    action, labels under a quantifier are silent."""
    c = canonicalize(s)
    if not (isinstance(c, One) or _is_env_shape(c)):
        raise BridgeError("not an environment structure")

    items: list[Action] = []

    def walk(t: Structure, hid: frozenset[Name]) -> None:
        if isinstance(t, One):
            items.append(TAU)
        elif isinstance(t, Atom):
            items.append(TAU if t.name in hid else t.name.complement())
        elif isinstance(t, Seq):
            for p in t.parts:
                walk(p, hid)
        elif isinstance(t, Sdq):
            walk(t.body, hid | {Name(t.binder.base, True),
                                Name(t.binder.base, False)})

    walk(c, frozenset())
    return actions_normalize(tuple(items))


def actions_to_env(alpha: ActionSeq) -> Structure:
    """The canonical environment structure whose reading is ``alpha``: the
    right-nested Seq of the complemented labels; silent collapses to the
    unit."""
    norm = actions_normalize(alpha)
    if norm == SILENT:
        return ONE
    if any(a is TAU for a in norm):
        raise BridgeError("normalize the action sequence first")
    return canonicalize(mk_seq([Atom(a.complement()) for a in norm]))

