import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflogic import (
    WeightMap,
    compile_equation,
    decompile,
    decompile_fuzzy,
    equivalent,
    eval_poly,
    loss_ratio,
    minimize,
    parse_equation,
    parse_formula,
    pref_equivalent,
    reference_structure,
    reference_transform,
    render,
    sem,
    wmc,
)
from preflogic.atoms import Atom, canonical_order
from preflogic.poly import Literal, Polynomial, Term

from conftest import assignment_for, random_bits, random_weights, structure_from_bits

W, L = "theta:yw", "theta:yl"
WL = canonical_order([W, L])


# ---------------------------------------------------------------------------
# sem


def test_sem_of_win_not_lose_product():
    p = Polynomial((Term((Literal(Atom("theta", "yw")), Literal(Atom("theta", "yl"), False))),))
    assert render(sem(p).tree) == "(and theta:yw (not theta:yl))"


def test_sem_of_single_literal():
    p = Polynomial((Term((Literal(Atom("theta", "yw")),)),))
    assert render(sem(p).tree) == "theta:yw"


def test_sem_of_sum_counts_like_the_polynomial():
    p = parse_equation(
        "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / p(theta,yl)"
    ).top
    formula = sem(p)
    assert render(formula.tree) == "(or (and theta:yw theta:yl) (not theta:yl))"
    for i in range(4):
        a = assignment_for(i, formula.atoms)
        weights = WeightMap({atom.token(): 0.75 if truth else 0.25 for atom, truth in a.items()})
        assert eval_poly(p, weights) == pytest.approx(wmc(formula, weights), abs=1e-12)


def _random_disjoint_poly(rng, atoms):
    """Shannon-style random polynomial: disjoint multilinear by construction."""

    def build(avail):
        if not avail or rng.random() < 0.3:
            return [Term(())] if rng.random() < 0.7 else []
        pivot = rng.choice(avail)
        rest = [a for a in avail if a != pivot]
        pos = build(rest)
        neg = build(rest)
        terms = []
        for t in pos:
            terms.append(Term(t.literals + (Literal(pivot, True),)))
        for t in neg:
            terms.append(Term(t.literals + (Literal(pivot, False),)))
        return terms

    terms = build(list(atoms))
    return Polynomial(tuple(terms))


def test_sem_value_equals_count_on_random_disjoint_polynomials():
    rng = random.Random(4242)
    atoms = canonical_order([W, L, "ref:yw"])
    checked = 0
    for _ in range(300):
        p = _random_disjoint_poly(rng, atoms)
        if not p.terms:
            continue
        formula = sem(p, atoms)
        weights = WeightMap(random_weights(rng, atoms))
        assert eval_poly(p, weights) == pytest.approx(wmc(formula, weights), abs=1e-12)
        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# decompile


def test_decompile_win_lose_ratio():
    s = decompile(parse_equation("p(theta,yw) / p(theta,yl)"))
    assert equivalent(s.p, parse_formula("(implies theta:yl theta:yw)", WL))
    assert equivalent(s.pc, parse_formula("(or theta:yl theta:yw)", WL))
    assert equivalent(s.pa, parse_formula("(and theta:yl theta:yw)", WL))


def test_all_rows_checked_column_round_trips_through_equation_text():
    # the check set holds every row, so the numerator is the empty product
    s = structure_from_bits(WL, 0b1111, 0b0010)
    text = compile_equation(s).render()
    assert text == "1 / ((1 - p(theta,yw))*p(theta,yl))"
    back = decompile(parse_equation(text))
    assert pref_equivalent(back, s)
    assert compile_equation(back).render() == text


def test_decompile_odds_ratio():
    s = decompile(
        parse_equation("p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))")
    )
    assert equivalent(s.p, parse_formula("(implies theta:yl theta:yw)", WL))
    assert equivalent(s.pc, parse_formula("(xor theta:yl theta:yw)", WL))
    assert render(s.pa.tree) == "false"


def test_decompile_reference_ratio():
    atoms = canonical_order([W, L, "ref:yw", "ref:yl"])
    s = decompile(parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))"))
    assert tuple(a.token() for a in s.atoms) == tuple(a.token() for a in atoms)
    expected_p = parse_formula(
        "(implies (and theta:yl ref:yw) (and theta:yw ref:yl))", atoms
    )
    assert equivalent(s.p, expected_p)


@settings(max_examples=80)
@given(
    st.sampled_from([
        "p(theta,yw) / p(theta,yl)",
        "p(theta,yw) / (1 - p(theta,yw))",
        "p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))",
        "p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))",
        "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / (p(theta,yl)*(1 - p(theta,yw)))",
    ]),
    st.data(),
)
def test_decompiled_structure_preserves_log_ratio(text, data):
    eq = parse_equation(text)
    s = decompile(eq)
    atoms = eq.atoms()
    weights = WeightMap({
        a.token(): data.draw(st.floats(0.01, 0.99), label=a.token()) for a in atoms
    })
    direct = math.log(eval_poly(eq.top, weights)) - math.log(eval_poly(eq.bottom, weights))
    assert loss_ratio(s, weights) == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# fuzzy target


def test_fuzzy_decompile_keeps_raw_implication():
    eq = parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))")
    s = decompile_fuzzy(eq)
    assert s.p.tree.op == "implies"
    assert render(s.pc.tree) == "true"
    assert render(s.pa.tree) == "false"
    simplified = decompile_fuzzy(eq, simplify=True)
    assert simplified.p == s.p  # same bitmask
    assert render(simplified.p.tree) != render(s.p.tree)  # different tree


# ---------------------------------------------------------------------------
# reference structures


def test_reference_structure_of_win_lose_pair_is_reference_ratio_structure():
    cpo = decompile(parse_equation("p(theta,yw) / p(theta,yl)"))
    dpo = decompile(parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))"))
    assert pref_equivalent(reference_structure(cpo), dpo)


def test_reference_structure_of_cross_entropy_simplifies():
    ce = decompile(parse_equation("p(theta,yw) / (1 - p(theta,yw))"))
    ref = reference_structure(ce)
    target = parse_formula("(implies ref:yw theta:yw)", ref.atoms)
    assert equivalent(minimize(ref.p), target)


def test_reference_structure_matches_equation_transform_numerically():
    rng = random.Random(11)
    for text in (
        "p(theta,yw) / p(theta,yl)",
        "p(theta,yw) / (1 - p(theta,yw))",
        "p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))",
        "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / (p(theta,yl)*(1 - p(theta,yw)))",
    ):
        eq = parse_equation(text)
        s_ref = reference_structure(decompile(eq))
        eq_ref = reference_transform(eq)
        for _ in range(50):
            weights = WeightMap(random_weights(rng, s_ref.atoms))
            direct = math.log(eval_poly(eq_ref.top, weights))
            direct -= math.log(eval_poly(eq_ref.bottom, weights))
            assert loss_ratio(s_ref, weights) == pytest.approx(direct, abs=1e-9)


def test_reference_structures_match_published_sixteen_row_tables():
    # 16-row tables written in the display order (ref:yw, theta:yl, ref:yl,
    # theta:yw), rows ascending FFFF..TTTT; the MarkTable constructor
    # re-indexes them onto the canonical atom order
    from preflogic import MarkTable, to_marks
    from preflogic.catalog import load_catalog

    display_order = ("ref:yw", "theta:yl", "ref:yl", "theta:yw")
    b, c, x, o = "blank", "check", "cross", "both"
    columns = {
        # reference form of the plain win/lose ratio
        "CPO": (b, b, b, c, b, b, b, c, b, b, b, c, x, x, x, o),
        # reference form of the odds-ratio loss
        "ORPO": (b, b, b, c, b, b, b, b, b, b, b, c, x, b, x, b),
        # reference form of the complement-ratio loss
        "qfUNL": (b, b, c, c, b, b, b, b, x, b, o, c, x, b, x, b),
    }
    cat = load_catalog()
    for name, marks in columns.items():
        expected = MarkTable(display_order, marks)
        got = to_marks(reference_structure(cat.get(name).structure))
        assert got == expected, name


def test_reference_structure_warns_when_reference_already_present():
    dpo = decompile(parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))"))
    with pytest.warns(UserWarning):
        reference_structure(dpo)


# ---------------------------------------------------------------------------
# the win/lose ratio needs the paired encoding: no single formula matches it


def test_no_single_formula_expresses_the_win_lose_ratio():
    rng = random.Random(3)
    samples = [random_weights(rng, WL) for _ in range(6)]
    for bits in range(1, 15):  # skip the unsatisfiable and tautologous extremes
        from preflogic import TruthTable, formula_of

        candidate = formula_of(TruthTable(WL, bits))
        negation = formula_of(TruthTable(WL, 0b1111 ^ bits))
        matched_everywhere = True
        for raw in samples:
            weights = WeightMap(raw)
            ratio = wmc(candidate, weights) / wmc(negation, weights)
            target = weights.resolve(Atom("theta", "yw")) / weights.resolve(Atom("theta", "yl"))
            if not math.isclose(ratio, target, rel_tol=1e-6):
                matched_everywhere = False
                break
        assert not matched_everywhere


# ---------------------------------------------------------------------------
# equation text round trip: compile -> render -> parse -> decompile


def round_trips(s):
    back = decompile(parse_equation(compile_equation(s).render()))
    return pref_equivalent(back, s)


def test_every_compilable_two_atom_column_round_trips_through_equation_text():
    columns = [(check, cross) for check in range(1, 16) for cross in range(1, 16)]
    assert len(columns) == 225
    for check, cross in columns:
        assert round_trips(structure_from_bits(WL, check, cross)), (check, cross)


@pytest.mark.parametrize("n", [3, 4])
def test_full_row_sides_round_trip_through_equation_text(n):
    # a side holding every row compiles to the empty product "1"
    atoms = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl"][:n])
    full = (1 << (1 << n)) - 1
    rng = random.Random(f"full-row-sides/{n}")
    for k in range(60):
        other = random_bits(rng, n, nonzero=True)
        check, cross = [(full, other), (other, full), (full, full)][k % 3]
        assert round_trips(structure_from_bits(atoms, check, cross)), (check, cross)
