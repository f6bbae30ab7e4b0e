"""Syntax of BVQ structures, the congruence on them, and canonical forms.

Structures are built from the unit, signed atoms, the non-commutative
Seq, the commutative Par and CoPar, and the self-dual quantifier ``fo``
(which only binds positive names).  Negation is not a constructor: it
is defined on atoms and carried through the others by De Morgan
(``negate``), so every structure is in negation normal form.  Two
structures are congruent when they are equal modulo unit removal,
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
from itertools import count, permutations
from operator import is_
from typing import Callable, Iterator, Optional, Union


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
class Sdq:
    binder: Name  # always positive
    body: "Structure"


Structure = Union[One, Atom, Seq, Par, CoPar, Sdq]

ONE = One()

# A context path: one (operator, child-index) step per tree level.
Context = tuple[tuple[str, int], ...]


class StructureError(ValueError):
    pass


# the message parsing, canonicalization and the recursive walks below
# raise instead of a RecursionError
_TOO_DEEP = "input nests too deeply"


def _build(cls, parts) -> Structure:
    """A ``cls`` node of ``parts`` with same-type children flattened into
    it (units stay); the unit when nothing is left, the part when one is."""
    out: list[Structure] = []
    for p in parts:
        if type(p) is cls:
            out.extend(p.parts)
        else:
            out.append(p)
    if len(out) > 1:
        return cls(tuple(out))
    return out[0] if out else ONE


def mk_seq(parts) -> Structure:
    return _build(Seq, parts)


def mk_par(parts) -> Structure:
    return _build(Par, parts)


def mk_copar(parts) -> Structure:
    return _build(CoPar, parts)


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
        return negate(_parse_struct(sc))
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
        raise StructureError(_TOO_DEEP) from None
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return s


_JSON_KINDS = {str: ("a string", "strings"), int: ("an integer", "integers"),
               list: ("a list", "lists"), dict: ("an object", "objects")}


_REQUIRED = object()


def json_field(data, name: str, kind: type, where: str, default=_REQUIRED,
               item: Optional[type] = None):
    """``data[name]`` of a parsed JSON object, checked to be a ``kind``
    (a list of ``item``s, if ``item`` is given).  An absent field is
    ``default``; with no default it is an error, as is any other shape.
    Raises ``ValueError`` naming ``where`` and the field."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    if name not in data:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no field '{name}'")
        return default
    value = data[name]
    if item is None and not isinstance(value, kind):
        raise ValueError(f"{where}: field '{name}' is not {_JSON_KINDS[kind][0]}")
    if item is not None and not (isinstance(value, list)
                                 and all(isinstance(v, item) for v in value)):
        raise ValueError(f"{where}: field '{name}' is not a list of "
                         f"{_JSON_KINDS[item][1]}")
    return value


def print_structure(s: Structure) -> str:
    try:
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
        if isinstance(s, Sdq):
            return f"fo {s.binder.base}.{print_structure(s.body)}"
        raise TypeError(f"not a structure: {s!r}")
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


# ---------------------------------------------------------------------------
# names, size, negation
# ---------------------------------------------------------------------------

_DE_MORGAN = {Seq: Seq, Par: CoPar, CoPar: Par}


def negate(s: Structure) -> Structure:
    """De Morgan dual: atoms flip, Par and CoPar swap, the unit, Seq and
    the quantifier stay in place with negated bodies."""
    try:
        if isinstance(s, One):
            return ONE
        if isinstance(s, Atom):
            return Atom(s.name.complement(), s.uid)
        if isinstance(s, (Seq, Par, CoPar)):
            return _DE_MORGAN[type(s)](tuple(negate(p) for p in s.parts))
        if isinstance(s, Sdq):
            return Sdq(s.binder, negate(s.body))
        raise TypeError(f"not a structure: {s!r}")
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


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

    try:
        walk(s, frozenset())
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None
    return frozenset(free), frozenset(bound)


def free_bases(s: Structure) -> frozenset[str]:
    return frozenset(n.base for n in names(s)[0])


def size(s: Structure) -> int:
    """Atom occurrences plus quantifiers that actually bind something."""
    try:
        if isinstance(s, One):
            return 0
        if isinstance(s, Atom):
            return 1
        if isinstance(s, (Seq, Par, CoPar)):
            return sum(size(p) for p in s.parts)
        if isinstance(s, Sdq):
            extra = 1 if s.binder.base in free_bases(s.body) else 0
            return size(s.body) + extra
        raise TypeError(f"not a structure: {s!r}")
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def is_tensor_free(s: Structure) -> bool:
    try:
        if isinstance(s, CoPar):
            return False
        if isinstance(s, (Seq, Par)):
            return all(is_tensor_free(p) for p in s.parts)
        if isinstance(s, Sdq):
            return is_tensor_free(s.body)
        return True
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _prepare(s: Structure, frees: set[str], binders: list[str]) -> Structure:
    """One fused pass: drop units, flatten associativity, drop vacuous
    quantifiers.  Returns the simplified structure; adds its free name
    bases to ``frees`` and appends the base of every quantifier it keeps
    to ``binders``."""
    t = type(s)
    if t is Atom:
        frees.add(s.name.base)
        return s
    if t is Seq or t is Par or t is CoPar:
        parts: list[Structure] = []
        same = True  # s can be returned as it is
        for p in s.parts:
            # atom and unit children are handled inline, saving a call
            # for most children
            tp = type(p)
            if tp is Atom:
                frees.add(p.name.base)
                parts.append(p)
                continue
            if tp is One:
                same = False
                continue
            q = _prepare(p, frees, binders)
            tq = type(q)
            if tq is t:
                parts.extend(q.parts)
                same = False
            elif tq is not One:
                parts.append(q)
                same = same and q is p
            else:
                same = False
        if len(parts) > 1:
            return s if same else t(tuple(parts))
        return parts[0] if parts else ONE
    if t is Sdq:
        inner: set[str] = set()
        body = _prepare(s.body, inner, binders)
        base = s.binder.base
        if base in inner:
            inner.discard(base)
            body = s if body is s.body else Sdq(s.binder, body)
            binders.append(base)
        frees |= inner
        return body
    if t is One:
        return ONE
    raise TypeError(f"not a structure: {s!r}")


def _binder_candidates(frees: set[str], count: int) -> list[str]:
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


# Key tags of free atoms and of the bracket nodes, shared by ``_canon``
# and ``_flat``.  With bound atoms ``Ab``, quantifiers ``Q`` and the unit
# ``1`` they are chosen so that sorted Par/CoPar children come out atoms
# first (positive before negative), then CoPar, Par, quantifier, Seq --
# the order canonical forms are displayed in.
_FREE = "Af"
_BRACKET_TAGS = {Seq: ("S<", ">"), Par: ("P[", "]"), CoPar: ("C(", ")")}


def _key_uid(triple: tuple[str, Structure, int]) -> tuple[str, int]:
    return triple[0], triple[2]


def _canon(s: Structure, scope: tuple[tuple[str, str], ...], depth: int,
           cands: list[str]) -> tuple[str, Structure, int]:
    """Return the canonical key, the renamed canonical structure and the
    smallest occurrence id inside (for deterministic tie-breaking).

    ``scope`` maps enclosing binder bases to their canonical bases,
    innermost last; bound atoms are keyed by de-Bruijn distance so the
    key never depends on user-chosen binder names.
    """
    t = type(s)
    if t is Atom:
        name = s.name
        uid = s.uid
        if uid is None:
            uid = _BIG
        sign = "+" if name.positive else "-"
        base = name.base
        for i in range(len(scope) - 1, -1, -1):
            if scope[i][0] == base:
                if scope[i][1] != base:
                    s = Atom(Name(scope[i][1], name.positive), s.uid)
                return f"Ab{len(scope) - 1 - i}{sign}", s, uid
        return _FREE + base + sign, s, uid
    if t is Seq or t is Par or t is CoPar:
        triples = []
        for p in s.parts:
            if scope or type(p) is not Atom:
                triples.append(_canon(p, scope, depth, cands))
            else:  # a free atom, handled inline like in _prepare
                name = p.name
                triples.append((_FREE + name.base + ("+" if name.positive else "-"),
                                p, _BIG if p.uid is None else p.uid))
        if t is not Seq:
            triples.sort(key=_key_uid)
        keys, kids, uids = zip(*triples)
        opening, closing = _BRACKET_TAGS[t]
        key = opening + ";".join(keys) + closing
        if not all(map(is_, kids, s.parts)):  # else s is canonical
            s = t(kids)
        return key, s, min(uids)
    if t is Sdq:
        chain = []
        body = s
        while type(body) is Sdq:
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
        if out is body and chain == cands[depth:depth + k]:
            return key, s, best[2]
        for i in range(k - 1, -1, -1):
            out = Sdq(Name(cands[depth + i]), out)
        return key, out, best[2]
    if t is One:
        return "1", ONE, _BIG
    raise TypeError(f"unexpected node in canonicalization: {s!r}")


# the flattened view of the unit
_ONE_VIEW = (One, (), "1")

# appended to the base of a marked atom; no parsed name has this character
_MARK = "\x00env"


def _flat(s: Structure, ids: Optional[frozenset[int]] = None):
    """The flattened view ``(type, item keys, key)`` of ``s``: plain when
    ``ids`` is None, and marked otherwise, keying every atom whose uid is
    in ``ids`` under a marked name.  A bracket node's items are its
    children's after flattening (Par and CoPar items sorted); any other
    node is its own single item.  The plain view is cached on every
    subterm as ``_fv``, as ``_cc`` is, and its key is ``canonical_key(s)``;
    the marked view is cached as ``_mv = (ids, view)`` and served only for
    that same ``ids`` object.  A node with no marked atom below it shares
    its plain view.  The walk never enters a binder, so no key it builds
    depends on its context: a quantifier is keyed whole by ``_canonical``
    (of a marked copy of itself alone, if it holds a marked atom), and
    one whose binders are all vacuous takes the view of its canonical
    form, so its body still flattens into a parent.  A node reads its
    children's views, and an unchanged subterm costs one attribute
    read."""
    if ids is None or type(s) is Atom and s.uid not in ids:
        view = getattr(s, "_fv", None)
        if view is not None:
            return view
        ids = None  # an unmarked atom's marked view is its plain view
    else:
        hit = getattr(s, "_mv", None)
        if hit is not None and hit[0] is ids:
            return hit[1]
    t = type(s)
    if t is Atom:  # marked exactly when ids is given
        name = s.name
        base = name.base if ids is None else name.base + _MARK
        key = _FREE + base + ("+" if name.positive else "-")
        view = (Atom, (key,), key)
    elif t is Seq or t is Par or t is CoPar:
        items: list[str] = []
        last = _ONE_VIEW  # the view of the last child with any item
        for p in s.parts:
            if ids is None:
                got = getattr(p, "_fv", None) or _flat(p)  # cached: no call
            else:
                got = _flat(p, ids)
            tp = got[0]
            if tp is t:  # a child of type t spreads its items into the node
                items.extend(got[1])
            elif tp is not One:
                items.append(got[2])
            else:
                continue
            last = got
        if len(items) > 1:
            if t is not Seq:
                items.sort()
            opening, closing = _BRACKET_TAGS[t]
            view = (t, tuple(items), opening + ";".join(items) + closing)
        else:
            view = last  # at most one child left an item, and it is not a t
    elif t is Sdq:
        if ids is not None and any(a.uid in ids for a in iter_atoms(s)):
            view = _flat(map_atoms(s, lambda a: a if a.uid not in ids else Atom(
                Name(a.name.base + _MARK, a.name.positive), a.uid)))
        else:
            key, out = _canonical(s)
            view = (Sdq, (key,), key) if type(out) is Sdq else _flat(out)
    elif t is One:
        view = _ONE_VIEW
    else:
        raise TypeError(f"not a structure: {s!r}")
    if ids is None:
        object.__setattr__(s, "_fv", view)
        return view
    if _MARK not in view[2]:  # no marked atom: the plain view, shared
        plain = getattr(s, "_fv", None)
        if plain is None:
            object.__setattr__(s, "_fv", view)
        else:
            view = plain
    object.__setattr__(s, "_mv", (ids, view))
    return view


def _canonical(s: Structure) -> tuple[str, Structure]:
    """Canonical key and canonical structure, cached on the object.
    Raises ``StructureError`` on input nested beyond the interpreter's
    recursion limit."""
    hit = getattr(s, "_cc", None)
    if hit is not None:
        return hit
    frees: set[str] = set()
    binders: list[str] = []
    try:
        core = _prepare(s, frees, binders)
        cands = _binder_candidates(frees, len(binders)) if binders else []
        key, out, _ = _canon(core, (), 0, cands)
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None
    pair = (key, out)
    object.__setattr__(s, "_cc", pair)
    if out is not s:
        object.__setattr__(out, "_cc", pair)
    return pair


def canonicalize(s: Structure) -> Structure:
    """The unique representative of the congruence class of ``s``.

    No unit occurs (unless the whole structure is the unit), nesting is
    flattened, commutative children are sorted by canonical key, vacuous
    quantifiers are gone and the remaining binders carry deterministic
    names chosen to avoid every free name.
    Occurrence ids are preserved.  Idempotent.
    """
    return _canonical(s)[1]


def canonical_key(s: Structure) -> str:
    """Serialization of the canonical form; equal keys mean congruent
    structures.  Ignores occurrence ids.  The key of the plain view
    ``_flat(s)``, read from the views cached on the subterms, so a
    rewritten structure costs a walk of its rebuilt path alone.  Raises
    ``StructureError`` on input nested beyond the interpreter's recursion
    limit."""
    view = getattr(s, "_fv", None)
    if view is not None:
        return view[2]
    hit = getattr(s, "_cc", None)
    if hit is not None:
        return hit[0]
    try:
        return _flat(s)[2]
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def congruent(r: Structure, t: Structure) -> bool:
    return canonical_key(r) == canonical_key(t)


def marked_key(s: Structure, ids: frozenset[int]) -> str:
    """The canonical key of ``s`` with every atom whose uid is in ``ids``
    keyed under a marked name, so that it differs from every atom of the
    same name outside ``ids``: the key of the marked view ``_flat(s,
    ids)``.  A caller that keys many rewrites of one structure with one
    ``ids`` object pays a walk of each rebuilt path alone.  Raises
    ``StructureError`` on input nested beyond the interpreter's recursion
    limit."""
    try:
        return _flat(s, ids)[2]
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


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
    raise StructureError("malformed path")


def iter_atoms(s: Structure) -> Iterator[Atom]:
    try:
        if isinstance(s, Atom):
            yield s
        elif isinstance(s, (Seq, Par, CoPar)):
            for p in s.parts:
                yield from iter_atoms(p)
        elif isinstance(s, Sdq):
            yield from iter_atoms(s.body)
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def iter_atom_paths(s: Structure, prefix: Context = ()) -> Iterator[tuple[Context, Atom]]:
    try:
        if isinstance(s, Atom):
            yield prefix, s
        elif isinstance(s, (Seq, Par, CoPar)):
            op = {Seq: "seq", Par: "par", CoPar: "copar"}[type(s)]
            for i, p in enumerate(s.parts):
                yield from iter_atom_paths(p, prefix + ((op, i),))
        elif isinstance(s, Sdq):
            yield from iter_atom_paths(s.body, prefix + (("fo", 0),))
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def map_atoms(s: Structure, f: Callable[[Atom], Structure]) -> Structure:
    """Rebuild ``s`` with every atom ``a`` replaced by ``f(a)``, calling
    ``f`` on the atoms left to right."""
    def walk(t: Structure) -> Structure:
        if isinstance(t, Atom):
            return f(t)
        if isinstance(t, (Seq, Par, CoPar)):
            return type(t)(tuple(walk(p) for p in t.parts))
        if isinstance(t, Sdq):
            return Sdq(t.binder, walk(t.body))
        return t

    try:
        return walk(s)
    except RecursionError:
        raise StructureError(_TOO_DEEP) from None


def assign_ids(s: Structure, start: int = 0) -> tuple[Structure, int]:
    """Number atom occurrences left to right.  Callers canonicalize first
    when the numbering should follow the canonical form."""
    ids = count(start)
    return map_atoms(s, lambda a: Atom(a.name, next(ids))), next(ids)


def uid_set(s: Structure) -> frozenset[int]:
    return frozenset(a.uid for a in iter_atoms(s) if a.uid is not None)


def strip_ids(s: Structure) -> Structure:
    return map_atoms(s, lambda a: Atom(a.name))


def erase_atoms(s: Structure, kill: frozenset[int]) -> Structure:
    """Replace the atoms whose uid is in ``kill`` by the unit."""
    return map_atoms(s, lambda a: ONE if a.uid in kill else a)

