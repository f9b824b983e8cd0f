"""An equation side is its (care, value) cubes from the parser on.

The reference in conftest is the Term/Literal multilinearization sides
were stored as before: it must give the same rendered text, atoms, row
sets and refusals on a seeded corpus of products of sums and on every
catalog equation.  The counting tests show that parsing, decompiling and
compiling build no Term or Literal, and that a side's rows are found once.
"""

import random
from collections import namedtuple

import pytest

from preflogic import (
    AtomLimitError,
    NonDisjointError,
    compile_equation,
    decompile,
    load_catalog,
    parse_equation,
    sem,
)
from preflogic import poly
from preflogic.atoms import Atom, canonical_order
from preflogic.errors import PrefLogicError
from preflogic.poly import Literal, Polynomial, Term, disjoint_rows, make_multilinear

from conftest import reference_atoms, reference_multilinear, reference_render, reference_rows

POOL = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yw", "mref:yl",
                        "aux:yw", "aux:yl"])


def atomref(rng, atom):
    copy = f",copy {rng.randint(2, 3)}" if rng.random() < 0.1 else ""
    return f"p({atom.model},{atom.role}{copy})"


def random_factor(rng, atoms):
    a, b = rng.choice(atoms), rng.choice(atoms)
    p, q = atomref(rng, a), atomref(rng, b)
    return rng.choice([
        p,
        f"{p}^{rng.randint(2, 3)}",
        f"(1 - {p})",
        "1",
        f"({p} + (1 - {p}))",
        f"({p} + (1 - {p})*{q})",
        f"((1 - {p}) + {p}*(1 - {q}) + 1*{p}*{q})",
        f"({p} + {q})",                                   # overlapping unless p conflicts with q
        f"(p({a.model},{a.role})^2*p({a.model},{a.role},copy 2))",   # copy collision
    ])


def products_of_sums(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        atoms = rng.sample(POOL, rng.randint(1, 8))
        yield "*".join(random_factor(rng, atoms) for _ in range(rng.randint(1, 4)))


Refusal = namedtuple("Refusal", "kind message")


def outcome(build):
    """What ``build()`` returns, or the class and text of the refusal it raises."""
    try:
        return build()
    except PrefLogicError as exc:
        return Refusal(type(exc), str(exc))


def assert_side_matches_reference(raw, side):
    """make_multilinear and the row pass against the Term/Literal reference."""
    want = outcome(lambda: reference_multilinear(raw))
    got = outcome(lambda: make_multilinear(raw))
    if isinstance(want, Refusal):
        assert got == want
        return " ".join(want.message.split()[:2])  # "term mixes", "term uses" or "a term"
    assert got.render() == reference_render(want)
    assert got.atoms() == reference_atoms(want)
    assert got.terms == want
    rows = outcome(lambda: reference_rows(want, side))
    assert outcome(lambda: disjoint_rows(got, side)) == rows
    return rows.kind.__name__ if isinstance(rows, Refusal) else "disjoint"


def test_products_of_sums_match_the_term_reference():
    seen = {}
    for text in products_of_sums("cube-sides/products", 400):
        raw = poly._EquationParser(text).parse_poly()
        kind = assert_side_matches_reference(raw, "numerator")
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"disjoint", "NonDisjointError", "term mixes", "term uses"}, seen
    assert min(seen.values()) >= 40, seen


def test_catalog_equations_match_the_term_reference():
    for entry in load_catalog().entries.values():
        parser = poly._EquationParser(entry.equation_text)
        top, bottom = parser.parse_all(parser.parse_ratio)
        assert assert_side_matches_reference(top, "numerator") == "disjoint"
        assert assert_side_matches_reference(bottom, "denominator") == "disjoint"


@pytest.mark.parametrize("text, message", [
    ("p(theta,yw)^2*p(theta,yw,copy 2)", "term uses atom theta:yw:2 more than once"),
    ("p(ref,yl)^2*p(theta,yw)^3*p(theta,yw,copy 3)*p(ref,yl,copy 2)",
     "term uses atom theta:yw:3 more than once"),
    ("p(theta,yw)*(1 - p(theta,yl))*p(theta,yl)*(1 - p(theta,yw))",
     "term mixes p and (1 - p) on atom theta:yl; not a product of distinct literals"),
    ("p(theta,yw)*p(ref,yw)^9*p(ref,yl)^8", "a term of 18 literals exceeds MAX_ATOMS = 16"),
])
def test_refusals_read_as_the_reference(text, message):
    raw = poly._EquationParser(text).parse_poly()
    with pytest.raises(PrefLogicError) as want:
        reference_multilinear(raw)
    with pytest.raises(type(want.value)) as got:
        make_multilinear(raw)
    assert str(got.value) == str(want.value) == message


def test_overlapping_pair_reads_as_the_reference():
    # terms 2 and 3 meet first by j, but term 1 meets term 4
    text = ("p(theta,yw) + (1 - p(theta,yw))*p(ref,yw) + (1 - p(theta,yw))*p(theta,yl)"
            " + p(ref,yl)")
    raw = poly._EquationParser(text).parse_poly()
    with pytest.raises(NonDisjointError) as want:
        reference_rows(reference_multilinear(raw), "numerator")
    with pytest.raises(NonDisjointError) as got:
        parse_equation(f"{text} / p(theta,yl)")
    assert str(got.value) == str(want.value)
    assert "terms 1 and 4" in str(got.value)
    assert (got.value.first, got.value.second) == (want.value.first, want.value.second)


def test_seventeen_atom_union_names_the_polynomial_cap():
    eq = parse_equation("p(theta,yw)^16 / p(theta,yl)")
    with pytest.raises(AtomLimitError, match="a polynomial over 17 atoms exceeds MAX_ATOMS = 16"):
        decompile(eq)
    with pytest.raises(AtomLimitError, match="a polynomial over 17 atoms exceeds MAX_ATOMS = 16"):
        sem(eq.top, eq.atoms())


def test_term_objects_still_build_a_polynomial():
    w, l = Atom("theta", "yw"), Atom("theta", "yl")
    p = Polynomial((Term((Literal(l), Literal(w, False))), Term((Literal(w),))))
    assert p == make_multilinear([[(l, True, 1), (w, False, 1)], [(w, True, 1)]])
    assert (p.order, p.cubes) == ((w, l), ((0b11, 0b01), (0b10, 0b10)))
    assert p.render() == "(1 - p(theta,yw))*p(theta,yl) + p(theta,yw)"
    assert Polynomial(()).render() == "0" and Polynomial((Term(()),)).render() == "1"


# ---------------------------------------------------------------------------
# counting: no Term or Literal on the hot path, one row pass per side


def product_equation(k):
    return "*".join(f"(p(m{i},yw)+(1-p(m{i},yw)))" for i in range(1, k + 1)) + " / p(theta,yl)"


@pytest.fixture
def built_views(monkeypatch):
    counts = {"Term": 0, "Literal": 0}
    for cls in (Term, Literal):
        original = cls.__init__

        def counted(self, *args, _name=cls.__name__, _original=original, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_parse_decompile_and_compile_build_no_term(built_views):
    texts = [entry.equation_text for entry in load_catalog().entries.values()]
    for text in texts + [product_equation(12)]:
        s = decompile(parse_equation(text))
        compile_equation(s).render()
    assert built_views == {"Term": 0, "Literal": 0}
    with pytest.raises(NonDisjointError):  # naming the overlapping pair builds its two terms
        parse_equation("p(theta,yw) + p(theta,yl) / p(theta,yl)")
    assert built_views == {"Term": 2, "Literal": 2}


def test_each_side_rows_are_found_once(monkeypatch):
    calls = [0]
    original = poly.cube_rows

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(poly, "cube_rows", counted)
    texts = [entry.equation_text for entry in load_catalog().entries.values()]
    for text in texts + [product_equation(12)]:
        calls[0] = 0
        eq = parse_equation(text)
        decompile(eq)
        assert calls[0] == len(eq.top.cubes) + len(eq.bottom.cubes), text
    assert len(eq.top.cubes) == 4096
