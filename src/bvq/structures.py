"""Syntax of BVQ structures, the congruence on them, and canonical forms.

Structures are built from the unit, signed atoms, the non-commutative
Seq, the commutative Par and CoPar, negation, and the self-dual
quantifier ``fo`` (which only binds positive names).  Two structures are
congruent when they are equal modulo negation pushing, unit removal,
associativity, commutativity of Par/CoPar, and renaming/reordering of
quantifiers.  Congruence is decided by comparing canonical forms; the
canonical serialization produced here is the single source of structural
identity used by every other module (search visited sets, rule matching,
derivation checking).

Atoms optionally carry an occurrence id (``uid``).  Ids are ignored by
structural equality and by canonical keys, but every transformation in
this package preserves them, which is what lets derivations track which
atom occurrence annihilated where.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Optional, Union


@dataclass(frozen=True, slots=True)
class Name:
    """A propositional variable with a polarity."""

    base: str
    positive: bool = True

    def complement(self) -> "Name":
        return Name(self.base, not self.positive)

    def __str__(self) -> str:
        return self.base if self.positive else "~" + self.base


@dataclass(frozen=True)
class One:
    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class Atom:
    name: Name
    uid: Optional[int] = field(default=None, compare=False)

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True)
class Seq:
    parts: tuple["Structure", ...]


@dataclass(frozen=True)
class Par:
    parts: tuple["Structure", ...]


@dataclass(frozen=True)
class CoPar:
    parts: tuple["Structure", ...]


@dataclass(frozen=True)
class Not:
    body: "Structure"


@dataclass(frozen=True)
class Sdq:
    binder: Name  # always positive
    body: "Structure"


Structure = Union[One, Atom, Seq, Par, CoPar, Not, Sdq]

ONE = One()

# A context path: one (operator, child-index) step per tree level.
Context = tuple[tuple[str, int], ...]


class StructureError(ValueError):
    pass


def atom(base: str, positive: bool = True, uid: Optional[int] = None) -> Atom:
    return Atom(Name(base, positive), uid)


def _flatten(cls, parts) -> Iterator[Structure]:
    for p in parts:
        if isinstance(p, cls):
            yield from p.parts
        else:
            yield p


def mk_seq(parts) -> Structure:
    parts = tuple(_flatten(Seq, parts))
    if not parts:
        return ONE
    if len(parts) == 1:
        return parts[0]
    return Seq(parts)


def mk_par(parts) -> Structure:
    parts = tuple(_flatten(Par, parts))
    if not parts:
        return ONE
    if len(parts) == 1:
        return parts[0]
    return Par(parts)


def mk_copar(parts) -> Structure:
    parts = tuple(_flatten(CoPar, parts))
    if not parts:
        return ONE
    if len(parts) == 1:
        return parts[0]
    return CoPar(parts)


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

_BRACKETS = {"[": ("]", mk_par), "(": (")", mk_copar), "<": (">", mk_seq)}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz")
_IDENT_CONT = _IDENT_START | set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class _Scanner:
    """Tokenizer shared by the structure and process grammars; errors are
    raised as ``error_cls`` with the offending position."""

    def __init__(self, text: str, error_cls: type[ValueError] = StructureError):
        self.text = text
        self.pos = 0
        self.error_cls = error_cls

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        self.skip_ws()
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def error(self, msg: str):
        raise self.error_cls(f"{msg} at position {self.pos}")

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            self.error("expected a name")
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start:self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1


def _parse_struct(sc: _Scanner) -> Structure:
    ch = sc.peek()
    if ch == "":
        sc.error("unexpected end of input")
    if ch == "1":
        sc.take()
        return ONE
    if ch == "~":
        sc.take()
        body = _parse_struct(sc)
        if isinstance(body, Atom):
            return Atom(body.name.complement(), body.uid)
        return Not(body)
    if ch in _BRACKETS:
        close, build = _BRACKETS[ch]
        sc.take()
        items = [_parse_struct(sc)]
        while sc.peek() == ";":
            sc.take()
            items.append(_parse_struct(sc))
        sc.expect(close)
        if len(items) < 2:
            sc.error("bracketed structures need at least two items")
        cls = {mk_par: Par, mk_copar: CoPar, mk_seq: Seq}[build]
        return cls(tuple(items))
    if ch in _IDENT_START:
        word = sc.ident()
        if word == "fo":
            neg = sc.peek() == "~"
            if neg:
                sc.take()
            binder = sc.ident()
            if neg:
                sc.error("quantifier binder must be a positive name")
            sc.expect(".")
            return Sdq(Name(binder), _parse_struct(sc))
        return Atom(Name(word))
    sc.error(f"unexpected character {ch!r}")


def parse_structure(text: str) -> Structure:
    """Parse the text grammar.  ``fo`` is a reserved word."""
    sc = _Scanner(text)
    try:
        s = _parse_struct(sc)
    except RecursionError:
        raise StructureError("input nests too deeply") from None
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return s


def print_structure(s: Structure) -> str:
    if isinstance(s, One):
        return "1"
    if isinstance(s, Atom):
        return str(s.name)
    if isinstance(s, Seq):
        return "<" + ";".join(print_structure(p) for p in s.parts) + ">"
    if isinstance(s, Par):
        return "[" + ";".join(print_structure(p) for p in s.parts) + "]"
    if isinstance(s, CoPar):
        return "(" + ";".join(print_structure(p) for p in s.parts) + ")"
    if isinstance(s, Not):
        return "~" + print_structure(s.body)
    if isinstance(s, Sdq):
        return f"fo {s.binder.base}.{print_structure(s.body)}"
    raise TypeError(f"not a structure: {s!r}")


# ---------------------------------------------------------------------------
# names, size, negation
# ---------------------------------------------------------------------------

def nnf(s: Structure, neg: bool = False) -> Structure:
    """Push negation inward to the atoms (units and Seq are self-dual)."""
    if isinstance(s, One):
        return ONE
    if isinstance(s, Atom):
        return Atom(s.name.complement(), s.uid) if neg else s
    if isinstance(s, Not):
        return nnf(s.body, not neg)
    if isinstance(s, Seq):
        return Seq(tuple(nnf(p, neg) for p in s.parts))
    if isinstance(s, Par):
        cls = CoPar if neg else Par
        return cls(tuple(nnf(p, neg) for p in s.parts))
    if isinstance(s, CoPar):
        cls = Par if neg else CoPar
        return cls(tuple(nnf(p, neg) for p in s.parts))
    if isinstance(s, Sdq):
        return Sdq(s.binder, nnf(s.body, neg))
    raise TypeError(f"not a structure: {s!r}")


def negate(s: Structure) -> Structure:
    """De-Morgan normal negation: atoms flip, Par and CoPar swap,
    Seq and the quantifier stay in place with negated bodies."""
    return nnf(s, neg=True)


def names(s: Structure) -> tuple[frozenset[Name], frozenset[Name]]:
    """Free and bound name occurrences.  A binder on ``a`` captures both
    ``a`` and ``~a``."""
    free: set[Name] = set()
    bound: set[Name] = set()

    def walk(t: Structure, ctx: frozenset[str]) -> None:
        if isinstance(t, Atom):
            (bound if t.name.base in ctx else free).add(t.name)
        elif isinstance(t, (Seq, Par, CoPar)):
            for p in t.parts:
                walk(p, ctx)
        elif isinstance(t, Sdq):
            walk(t.body, ctx | {t.binder.base})
        elif isinstance(t, Not):
            walk(nnf(t), ctx)

    walk(nnf(s), frozenset())
    return frozenset(free), frozenset(bound)


def free_bases(s: Structure) -> frozenset[str]:
    return frozenset(n.base for n in names(s)[0])


def size(s: Structure) -> int:
    """Atom occurrences plus quantifiers that actually bind something."""
    if isinstance(s, One):
        return 0
    if isinstance(s, Atom):
        return 1
    if isinstance(s, Not):
        return size(s.body)
    if isinstance(s, (Seq, Par, CoPar)):
        return sum(size(p) for p in s.parts)
    if isinstance(s, Sdq):
        extra = 1 if s.binder.base in free_bases(s.body) else 0
        return size(s.body) + extra
    raise TypeError(f"not a structure: {s!r}")


def is_tensor_free(s: Structure) -> bool:
    if isinstance(s, CoPar):
        return False
    if isinstance(s, (Seq, Par)):
        return all(is_tensor_free(p) for p in s.parts)
    if isinstance(s, Sdq):
        return is_tensor_free(s.body)
    if isinstance(s, Not):
        return is_tensor_free(s.body)
    return True


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _prepare(s: Structure, neg: bool) -> tuple[Structure, frozenset[str], int]:
    """One fused pass: push negation to atoms, drop units, flatten
    associativity, drop vacuous quantifiers.  Returns the simplified
    structure with its free name bases and its quantifier count."""
    if isinstance(s, One):
        return ONE, frozenset(), 0
    if isinstance(s, Atom):
        out = Atom(s.name.complement(), s.uid) if neg else s
        return out, frozenset((out.name.base,)), 0
    if isinstance(s, Not):
        return _prepare(s.body, not neg)
    if isinstance(s, (Seq, Par, CoPar)):
        if isinstance(s, Seq):
            cls = Seq
        elif isinstance(s, Par):
            cls = CoPar if neg else Par
        else:
            cls = Par if neg else CoPar
        parts: list[Structure] = []
        frees: set[str] = set()
        count = 0
        for p in s.parts:
            q, f, c = _prepare(p, neg)
            frees |= f
            count += c
            if isinstance(q, One):
                continue
            if isinstance(q, cls):
                parts.extend(q.parts)
            else:
                parts.append(q)
        if not parts:
            return ONE, frozenset(frees), count
        if len(parts) == 1:
            return parts[0], frozenset(frees), count
        return cls(tuple(parts)), frozenset(frees), count
    if isinstance(s, Sdq):
        body, frees, count = _prepare(s.body, neg)
        if s.binder.base not in frees:
            return body, frees, count
        return Sdq(s.binder, body), frees - {s.binder.base}, count + 1
    raise TypeError(f"not a structure: {s!r}")


def _binder_candidates(frees: frozenset[str], count: int) -> list[str]:
    out: list[str] = []
    i = 0
    while len(out) < count:
        q, r = divmod(i, 26)
        cand = chr(ord("a") + r) + (str(q) if q else "")
        i += 1
        if cand not in frees:
            out.append(cand)
    return out


_MAX_CHAIN_PERms = 6  # chains longer than this keep their given order

_BIG = 1 << 60


def _canon(s: Structure, scope: tuple[tuple[str, str], ...], depth: int,
           cands: list[str]) -> tuple[str, Structure, int]:
    """Return the canonical key, the renamed canonical structure and the
    smallest occurrence id inside (for deterministic tie-breaking).

    ``scope`` maps enclosing binder bases to their canonical bases,
    innermost last; bound atoms are keyed by de-Bruijn distance so the
    key never depends on user-chosen binder names.
    """
    if isinstance(s, One):
        return "1", ONE, _BIG
    if isinstance(s, Atom):
        # Key tags are chosen so that sorted Par/CoPar children come out
        # atoms first (positive before negative), then CoPar, Par,
        # quantifier, Seq -- the order canonical forms are displayed in.
        uid = s.uid if s.uid is not None else _BIG
        sign = "+" if s.name.positive else "-"
        for i in range(len(scope) - 1, -1, -1):
            if scope[i][0] == s.name.base:
                dist = len(scope) - 1 - i
                return (f"Ab{dist}{sign}",
                        Atom(Name(scope[i][1], s.name.positive), s.uid), uid)
        return f"Af{s.name.base}{sign}", s, uid
    if isinstance(s, Seq):
        triples = [_canon(p, scope, depth, cands) for p in s.parts]
        key = "S<" + ";".join(k for k, _, _ in triples) + ">"
        return (key, Seq(tuple(t for _, t, _ in triples)),
                min(u for _, _, u in triples))
    if isinstance(s, (Par, CoPar)):
        triples = [_canon(p, scope, depth, cands) for p in s.parts]
        triples.sort(key=lambda kt: (kt[0], kt[2]))
        open_, close = ("P[", "]") if isinstance(s, Par) else ("C(", ")")
        key = open_ + ";".join(k for k, _, _ in triples) + close
        cls = Par if isinstance(s, Par) else CoPar
        return (key, cls(tuple(t for _, t, _ in triples)),
                min(u for _, _, u in triples))
    if isinstance(s, Sdq):
        chain = []
        body = s
        while isinstance(body, Sdq):
            chain.append(body.binder.base)
            body = body.body
        k = len(chain)
        orders = permutations(chain) if 1 < k <= _MAX_CHAIN_PERms \
            else iter([tuple(chain)])
        best: Optional[tuple[str, Structure, int]] = None
        for order in orders:
            inner = scope + tuple(
                (b, cands[depth + i]) for i, b in enumerate(order))
            got = _canon(body, inner, depth + k, cands)
            if best is None or got[0] < best[0]:
                best = got
        assert best is not None
        key = f"Q{k}({best[0]})"
        out: Structure = best[1]
        for i in range(k - 1, -1, -1):
            out = Sdq(Name(cands[depth + i]), out)
        return key, out, best[2]
    raise TypeError(f"unexpected node in canonicalization: {s!r}")


def _canonical(s: Structure) -> tuple[str, Structure]:
    """Canonical key and canonical structure, cached on the object."""
    hit = getattr(s, "_cc", None)
    if hit is not None:
        return hit
    core, frees, nsdq = _prepare(s, False)
    cands = _binder_candidates(frees, nsdq)
    key, out, _ = _canon(core, (), 0, cands)
    pair = (key, out)
    object.__setattr__(s, "_cc", pair)
    if out is not s:
        object.__setattr__(out, "_cc", (key, out))
    return pair


def canonicalize(s: Structure) -> Structure:
    """The unique representative of the congruence class of ``s``.

    Negations sit on atoms, no unit occurs (unless the whole structure is
    the unit), nesting is flattened, commutative children are sorted by
    canonical key, vacuous quantifiers are gone and the remaining binders
    carry deterministic names chosen to avoid every free name.
    Occurrence ids are preserved.  Idempotent.
    """
    return _canonical(s)[1]


def canonical_key(s: Structure) -> str:
    """Serialization of the canonical form; equal keys mean congruent
    structures.  Ignores occurrence ids."""
    return _canonical(s)[0]


KEY_ONE = "1"


def congruent(r: Structure, t: Structure) -> bool:
    return canonical_key(r) == canonical_key(t)


# ---------------------------------------------------------------------------
# paths and occurrence ids
# ---------------------------------------------------------------------------

def _step_into(s: Structure, op: str, idx: int) -> Structure:
    if op == "par" and isinstance(s, Par):
        return s.parts[idx]
    if op == "copar" and isinstance(s, CoPar):
        return s.parts[idx]
    if op == "seq" and isinstance(s, Seq):
        return s.parts[idx]
    if op == "fo" and isinstance(s, Sdq) and idx == 0:
        return s.body
    if op == "not" and isinstance(s, Not) and idx == 0:
        return s.body
    raise StructureError(f"path step ({op},{idx}) does not match {print_structure(s)}")


def subterm_at(s: Structure, path: Context) -> Structure:
    for op, idx in path:
        s = _step_into(s, op, idx)
    return s


def replace_at(s: Structure, path: Context, new: Structure) -> Structure:
    if not path:
        return new
    (op, idx), rest = path[0], path[1:]
    child = _step_into(s, op, idx)
    rebuilt = replace_at(child, rest, new)
    if isinstance(s, (Par, CoPar, Seq)):
        parts = s.parts[:idx] + (rebuilt,) + s.parts[idx + 1:]
        return type(s)(parts)
    if isinstance(s, Sdq):
        return Sdq(s.binder, rebuilt)
    if isinstance(s, Not):
        return Not(rebuilt)
    raise StructureError("malformed path")


def iter_atoms(s: Structure) -> Iterator[Atom]:
    if isinstance(s, Atom):
        yield s
    elif isinstance(s, (Seq, Par, CoPar)):
        for p in s.parts:
            yield from iter_atoms(p)
    elif isinstance(s, (Sdq, Not)):
        yield from iter_atoms(s.body)


def iter_atom_paths(s: Structure, prefix: Context = ()) -> Iterator[tuple[Context, Atom]]:
    if isinstance(s, Atom):
        yield prefix, s
    elif isinstance(s, (Seq, Par, CoPar)):
        op = {Seq: "seq", Par: "par", CoPar: "copar"}[type(s)]
        for i, p in enumerate(s.parts):
            yield from iter_atom_paths(p, prefix + ((op, i),))
    elif isinstance(s, Sdq):
        yield from iter_atom_paths(s.body, prefix + (("fo", 0),))
    elif isinstance(s, Not):
        yield from iter_atom_paths(s.body, prefix + (("not", 0),))


def assign_ids(s: Structure, start: int = 0) -> tuple[Structure, int]:
    """Number atom occurrences left to right.  Callers canonicalize first
    when the numbering should follow the canonical form."""
    counter = start

    def walk(t: Structure) -> Structure:
        nonlocal counter
        if isinstance(t, Atom):
            out = Atom(t.name, counter)
            counter += 1
            return out
        if isinstance(t, (Seq, Par, CoPar)):
            return type(t)(tuple(walk(p) for p in t.parts))
        if isinstance(t, Sdq):
            return Sdq(t.binder, walk(t.body))
        if isinstance(t, Not):
            return Not(walk(t.body))
        return t

    return walk(s), counter


def uid_set(s: Structure) -> frozenset[int]:
    return frozenset(a.uid for a in iter_atoms(s) if a.uid is not None)


def strip_ids(s: Structure) -> Structure:
    if isinstance(s, Atom):
        return Atom(s.name, None)
    if isinstance(s, (Seq, Par, CoPar)):
        return type(s)(tuple(strip_ids(p) for p in s.parts))
    if isinstance(s, Sdq):
        return Sdq(s.binder, strip_ids(s.body))
    if isinstance(s, Not):
        return Not(strip_ids(s.body))
    return s


def erase_atoms(s: Structure, kill: frozenset[int]) -> Structure:
    """Replace the atoms whose uid is in ``kill`` by the unit."""
    if isinstance(s, Atom):
        return ONE if s.uid in kill else s
    if isinstance(s, (Seq, Par, CoPar)):
        return type(s)(tuple(erase_atoms(p, kill) for p in s.parts))
    if isinstance(s, Sdq):
        return Sdq(s.binder, erase_atoms(s.body, kill))
    if isinstance(s, Not):
        return Not(erase_atoms(s.body, kill))
    return s


def find_uid_path(s: Structure, uid: int) -> Optional[Context]:
    for path, a in iter_atom_paths(s):
        if a.uid == uid:
            return path
    return None
