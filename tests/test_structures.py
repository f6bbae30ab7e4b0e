import random

import pytest

from bvq.structures import (
    Atom, Name, Not, ONE, Par, Sdq, Seq, StructureError, canonical_key,
    canonicalize, congruent, names, negate, parse_structure, print_structure,
    replace_at, size, strip_ids,
)


def canon(text):
    return print_structure(canonicalize(parse_structure(text)))


def test_parse_grammar_images():
    s = parse_structure("fo a.[a;~a]")
    assert isinstance(s, Sdq) and isinstance(s.body, Par)
    s = parse_structure("[(a;b);<c;1>]")
    assert isinstance(s, Par)
    assert print_structure(s) == "[(a;b);<c;1>]"


def test_parse_rejects_negative_binder():
    with pytest.raises(StructureError):
        parse_structure("fo ~a.a")


def test_parse_errors_carry_position():
    with pytest.raises(StructureError, match="position"):
        parse_structure("[a;](")


def test_parse_rejects_deep_nesting_with_its_own_error():
    deep = "<a;" * 1200 + "b" + ">" * 1200
    with pytest.raises(StructureError, match="^input nests too deeply$"):
        parse_structure(deep)


def test_roundtrip_on_canonical_forms():
    for text in ["1", "a", "~a", "[a;~b]", "<a;b;c>", "(~a;~b)",
                 "fo a.[a;<b;~a>]", "[~a;~b;fo c.~c]"]:
        c = canonicalize(parse_structure(text))
        assert canonicalize(parse_structure(print_structure(c))) == c


def test_negate_examples():
    assert print_structure(negate(ONE)) == "1"
    assert print_structure(negate(parse_structure("[a;~b]"))) == "(~a;b)"
    # the quantifier is self-dual, children negated in place
    assert print_structure(negate(parse_structure("fo a.[a;~a]"))) == "fo a.(~a;a)"


def test_negate_involution_up_to_congruence():
    rng = random.Random(5)
    for _ in range(80):
        s = _random_structure(rng)
        assert congruent(negate(negate(s)), s)


def test_canonicalize_worked_examples():
    # associativity is displayed right-recursively: the nested groups of
    # the worked example are written out explicitly in this grammar
    assert canon("[[~a;~b]; fo c.~c]") == "[~a;~b;fo c.~c]"
    assert canon("[a;1]") == "a"
    assert canon("~[a;(1;b)]") == "(~a;~b)"
    assert canon("[~a;(~b;fo d.~c)]") == "[~a;(~b;~c)]"


def test_canonicalize_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        s = _random_structure(rng)
        c = canonicalize(s)
        assert canonicalize(c) == c
        assert congruent(s, c)


def test_congruent_examples():
    assert congruent(parse_structure("[a;b]"), parse_structure("[b;a]"))
    assert congruent(parse_structure("fo a.fo b.[a;b]"),
                     parse_structure("fo b.fo a.[a;b]"))
    assert not congruent(parse_structure("<a;b>"), parse_structure("<b;a>"))
    assert congruent(parse_structure("fo a.[a;~a]"),
                     parse_structure("fo b.[b;~b]"))


def test_size_triple():
    assert size(parse_structure("[a;~a]")) == 2
    assert size(parse_structure("fo b.[a;~a]")) == 2
    assert size(parse_structure("fo a.[a;~a]")) == 3


def test_names():
    free, bound = names(parse_structure("fo a.[a;b]"))
    assert free == frozenset({Name("b")})
    assert bound == frozenset({Name("a")})
    free, bound = names(parse_structure("fo a.[a;~a]"))
    assert free == frozenset()
    assert bound == frozenset({Name("a"), Name("a", False)})
    free, bound = names(parse_structure("[a;~a]"))
    assert free == frozenset({Name("a"), Name("a", False)})
    assert bound == frozenset()


# --- congruence clause soundness -------------------------------------------

def _random_structure(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        base = rng.choice("abcd")
        if rng.random() < 0.15:
            return ONE
        return Atom(Name(base, rng.random() < 0.6))
    if roll < 0.45:
        return Par(tuple(_random_structure(rng, depth - 1)
                         for _ in range(rng.randrange(2, 4))))
    if roll < 0.6:
        return Seq(tuple(_random_structure(rng, depth - 1)
                         for _ in range(rng.randrange(2, 4))))
    if roll < 0.72:
        return Not(_random_structure(rng, depth - 1))
    if roll < 0.85:
        from bvq.structures import CoPar
        return CoPar(tuple(_random_structure(rng, depth - 1)
                           for _ in range(2)))
    return Sdq(Name(rng.choice("abcd")), _random_structure(rng, depth - 1))


def _clause_variants(s, rng):
    """Apply one congruence clause at a random position."""
    out = []
    if isinstance(s, (Par, Seq)) and len(s.parts) >= 2:
        # associativity regrouping
        i = rng.randrange(len(s.parts) - 1)
        grouped = s.parts[:i] + (type(s)(s.parts[i:i + 2]),) + s.parts[i + 2:]
        out.append(type(s)(grouped) if len(grouped) > 1 else grouped[0])
    if isinstance(s, Par) and len(s.parts) >= 2:
        # commutativity
        parts = list(s.parts)
        rng.shuffle(parts)
        out.append(Par(tuple(parts)))
    # unit introduction
    out.append(Par((s, ONE)))
    out.append(Seq((ONE, s)))
    out.append(Seq((s, ONE)))
    # double negation
    out.append(Not(Not(s)))
    # vacuous quantifier
    out.append(Sdq(Name("zz"), s))
    return out


def test_clause_by_clause_soundness():
    rng = random.Random(23)
    for _ in range(120):
        s = _random_structure(rng)
        key = canonical_key(s)
        for variant in _clause_variants(s, rng):
            assert canonical_key(variant) == key, print_structure(variant)


def test_congruence_is_contextual():
    rng = random.Random(31)
    for _ in range(60):
        r = _random_structure(rng, 2)
        t = canonicalize(r)
        ctx = _random_structure(rng, 2)
        paths = [()]
        if isinstance(ctx, (Par, Seq)):
            paths.append((("par" if isinstance(ctx, Par) else "seq",
                           rng.randrange(len(ctx.parts))),))
        for path in paths:
            try:
                a = replace_at(ctx, path, r)
                b = replace_at(ctx, path, t)
            except StructureError:
                continue
            assert congruent(a, b)


def test_size_congruence_invariant():
    rng = random.Random(41)
    for _ in range(120):
        s = _random_structure(rng)
        for variant in _clause_variants(s, rng):
            assert size(variant) == size(s)
        assert size(canonicalize(s)) == size(s)


def test_alpha_renaming_preserves_key():
    s = parse_structure("fo a.<a;[b;~a]>")
    t = parse_structure("fo c.<c;[b;~c]>")
    assert canonical_key(s) == canonical_key(t)
    assert canonicalize(s) == canonicalize(t)


def test_ids_survive_canonicalization():
    from bvq.structures import assign_ids, uid_set
    s, n = assign_ids(canonicalize(parse_structure("[<a;b>;<~a;~b>]")))
    assert n == 4 and uid_set(s) == frozenset(range(4))
    assert uid_set(canonicalize(s)) == frozenset(range(4))
    assert strip_ids(canonicalize(s)) == canonicalize(strip_ids(s))
