import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflogic import (
    WeightMap,
    check_disjoint,
    dpop_gate,
    eval_poly,
    parse_equation,
    reference_transform,
    simpo_margin_weights,
)
from preflogic.atoms import Atom
from preflogic.logic import MAX_ATOMS
from preflogic.errors import (
    AtomLimitError,
    EquationSyntaxError,
    MissingWeightError,
    NonDisjointError,
    PrefLogicError,
)
from preflogic.poly import Literal, Polynomial, Term, make_multilinear, parse_polynomial

W = Atom("theta", "yw")
L = Atom("theta", "yl")


def poly_terms(p):
    return [{(l.atom.token(), l.positive) for l in t.literals} for t in p.terms]


# ---------------------------------------------------------------------------
# parsing


def test_parse_win_lose_ratio():
    eq = parse_equation("p(theta,yw) / p(theta,yl)")
    assert poly_terms(eq.top) == [{("theta:yw", True)}]
    assert poly_terms(eq.bottom) == [{("theta:yl", True)}]


def test_parse_odds_ratio_equation():
    eq = parse_equation("p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))")
    assert poly_terms(eq.top) == [{("theta:yw", True), ("theta:yl", False)}]
    assert poly_terms(eq.bottom) == [{("theta:yl", True), ("theta:yw", False)}]
    # literals render in canonical atom order (winner before loser)
    assert eq.render() == "p(theta,yw)*(1 - p(theta,yl)) / ((1 - p(theta,yw))*p(theta,yl))"


def test_parse_rejects_common_solution():
    with pytest.raises(NonDisjointError) as err:
        parse_equation("p(theta,yw) + p(theta,yl) / p(theta,yl)")
    msg = str(err.value)
    assert "p(theta,yw)" in msg and "p(theta,yl)" in msg


def test_parse_distributes_grouped_sums():
    p = parse_polynomial("p(theta,yw)*((1 - p(theta,yl)) + p(theta,yl)*p(ref,yw))")
    assert poly_terms(p) == [
        {("theta:yw", True), ("theta:yl", False)},
        {("theta:yw", True), ("theta:yl", True), ("ref:yw", True)},
    ]


@pytest.mark.parametrize(
    "bad",
    [
        "p(theta,yw)",                      # no ratio
        "p(theta,yw) / p(theta,yl) / p(theta,yl)",
        "p(theta) / p(theta,yl)",
        "p(theta,up) / p(theta,yl)",
        "p(theta,yw)^0 / p(theta,yl)",
        "p(theta,yw,copy) / p(theta,yl)",
        "(1 - p(theta,yw)*p(theta,yl)) / p(theta,yl)",
    ],
)
def test_parse_rejects_malformed_equations(bad):
    with pytest.raises(EquationSyntaxError):
        parse_equation(bad)


def test_parse_bare_one_is_the_empty_product():
    eq = parse_equation("1 / ((1 - p(theta,yw))*p(theta,yl))")
    assert eq.top == Polynomial((Term(()),))
    assert eq.render() == "1 / ((1 - p(theta,yw))*p(theta,yl))"
    assert poly_terms(parse_polynomial("1*p(theta,yw)")) == [{("theta:yw", True)}]


def test_parse_copy_reference():
    eq = parse_equation("p(theta,yw,copy 2) / p(theta,yl)")
    assert poly_terms(eq.top) == [{("theta:yw:2", True)}]


def test_term_rejects_mixed_polarity_on_one_atom():
    with pytest.raises(PrefLogicError):
        parse_polynomial("p(theta,yw)*(1 - p(theta,yw))")


# ---------------------------------------------------------------------------
# disjointness


def test_disjoint_odds_ratio_pair():
    p = Polynomial((
        Term((Literal(W), Literal(L, False))),
        Term((Literal(L), Literal(W, False))),
    ))
    assert check_disjoint(p) is None


def test_single_term_is_disjoint():
    assert check_disjoint(Polynomial((Term((Literal(W),)),))) is None


def test_overlapping_terms_are_reported():
    p = Polynomial((Term((Literal(W),)), Term((Literal(L),))))
    violation = check_disjoint(p)
    assert violation is not None
    (i, a), (j, b) = violation
    assert (i, j) == (0, 1)
    assert a.render() == "p(theta,yw)" and b.render() == "p(theta,yl)"


def test_disjoint_matches_assignment_enumeration():
    rng = random.Random(99)
    atoms = [W, L, Atom("ref", "yw")]
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 3)):
            lits = [Literal(a, rng.random() < 0.5) for a in atoms if rng.random() < 0.7]
            seen = set()
            lits = [l for l in lits if not (l.atom in seen or seen.add(l.atom))]
            terms.append(Term(tuple(lits)))
        p = Polynomial(tuple(terms))
        overlap = False
        for i in range(8):
            bits = {atoms[j]: bool((i >> (2 - j)) & 1) for j in range(3)}
            sat = [all(bits[l.atom] == l.positive for l in t.literals) for t in p.terms]
            if sum(sat) > 1:
                overlap = True
        assert (check_disjoint(p) is None) == (not overlap)


# ---------------------------------------------------------------------------
# multilinearization


def test_square_becomes_copy():
    eq = parse_equation("p(theta,yw)^2 / p(theta,yl)")
    assert poly_terms(eq.top) == [{("theta:yw", True), ("theta:yw:2", True)}]


def test_exponent_one_is_identity():
    eq = parse_equation("p(theta,yw)^1 / p(theta,yl)")
    assert poly_terms(eq.top) == [{("theta:yw", True)}]


def test_squared_penalty_equation_expands_disjointly():
    eq = parse_equation("p(ref,yl)*p(theta,yw)^2 / (p(ref,yw)^2*p(theta,yl))")
    assert poly_terms(eq.top) == [
        {("ref:yl", True), ("theta:yw", True), ("theta:yw:2", True)}
    ]
    assert poly_terms(eq.bottom) == [
        {("ref:yw", True), ("ref:yw:2", True), ("theta:yl", True)}
    ]
    assert check_disjoint(eq.top) is None and check_disjoint(eq.bottom) is None


def test_make_multilinear_rejects_bad_exponent():
    with pytest.raises(PrefLogicError):
        make_multilinear([[(W, True, 0)]])
    with pytest.raises(PrefLogicError):
        make_multilinear([[(W, True, 1.5)]])


def test_copies_inherit_base_weight_value():
    eq = parse_equation("p(theta,yw)^3 / p(theta,yl)")
    w = WeightMap({"theta:yw": 0.7, "theta:yl": 0.2})
    assert math.isclose(eval_poly(eq.top, w), 0.7 ** 3, rel_tol=0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_single_literal():
    w = WeightMap({"theta:yw": 0.3})
    assert eval_poly(Polynomial((Term((Literal(W),)),)), w) == pytest.approx(0.3)


def test_eval_odds_ratio_top_at_half():
    eq = parse_equation("p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))")
    w = WeightMap({"theta:yw": 0.5, "theta:yl": 0.5})
    assert eval_poly(eq.top, w) == pytest.approx(0.25)


def test_eval_empty_polynomial_is_zero():
    assert eval_poly(Polynomial(()), WeightMap({})) == 0.0


def test_eval_requires_weights():
    with pytest.raises(MissingWeightError):
        eval_poly(Polynomial((Term((Literal(W),)),)), WeightMap({"theta:yl": 0.5}))


def test_weight_map_rejects_out_of_range():
    with pytest.raises(ValueError):
        WeightMap({"theta:yw": 1.5})


@settings(max_examples=100)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_disjoint_sum_stays_in_unit_interval(a, b, c):
    eq = parse_equation(
        "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / (p(theta,yl)*(1 - p(theta,yw)))"
    )
    w = WeightMap({"theta:yw": a, "theta:yl": b, "ref:yw": c})
    assert 0.0 <= eval_poly(eq.top, w) <= 1.0
    assert 0.0 <= eval_poly(eq.bottom, w) <= 1.0


# ---------------------------------------------------------------------------
# reference transform


def test_reference_transform_of_win_lose_ratio():
    eq = reference_transform(parse_equation("p(theta,yw) / p(theta,yl)"))
    assert poly_terms(eq.top) == [{("theta:yw", True), ("ref:yl", True)}]
    assert poly_terms(eq.bottom) == [{("theta:yl", True), ("ref:yw", True)}]


def test_reference_transform_of_odds_ratio():
    eq = reference_transform(
        parse_equation("p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))")
    )
    assert poly_terms(eq.top) == [
        {("theta:yw", True), ("theta:yl", False), ("ref:yl", True)}
    ]
    assert poly_terms(eq.bottom) == [
        {("theta:yl", True), ("theta:yw", False), ("ref:yw", True)}
    ]


def test_reference_transform_of_cross_entropy():
    eq = reference_transform(parse_equation("p(theta,yw) / (1 - p(theta,yw))"))
    assert poly_terms(eq.top) == [{("theta:yw", True), ("ref:yl", True)}]
    assert poly_terms(eq.bottom) == [{("theta:yw", False), ("ref:yw", True)}]


def test_reference_transform_warns_when_ref_present():
    eq = parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))")
    with pytest.warns(UserWarning):
        reference_transform(eq)


@settings(max_examples=100)
@given(
    st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99)
)
def test_reference_transform_shifts_ratio_by_reference_ratio(a, b, rw, rl):
    eq = parse_equation("p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))")
    ref = reference_transform(eq)
    w = WeightMap({"theta:yw": a, "theta:yl": b, "ref:yw": rw, "ref:yl": rl})
    before = eval_poly(eq.top, w) / eval_poly(eq.bottom, w)
    after = eval_poly(ref.top, w) / eval_poly(ref.bottom, w)
    assert after == pytest.approx(before * w.resolve(Atom("ref", "yl")) / w.resolve(Atom("ref", "yw")))


# ---------------------------------------------------------------------------
# weight helpers


def test_margin_weights_realize_margin():
    for gamma in (0.0, 0.5, 2.0, 10.0):
        w = simpo_margin_weights(gamma)
        assert w["mref:yw"] == 0.5
        assert 0.0 < w["mref:yl"] <= 0.5
        assert math.isclose(math.log(w["mref:yw"] / w["mref:yl"]), gamma, abs_tol=1e-12)
    with pytest.raises(ValueError):
        simpo_margin_weights(-0.1)


@pytest.mark.parametrize(
    "text",
    [
        "p(theta,yw) / p(theta,yl)",
        "p(theta,yw) / (1 - p(theta,yw))",
        "p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))",
        "p(ref,yl)*p(theta,yw)^2 / (p(ref,yw)^2*p(theta,yl))",
        "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / (p(theta,yl)*(1 - p(theta,yw)))",
        "p(theta,yw)*p(mref,yl) / (p(mref,yw)*p(theta,yl))",
    ],
)
def test_equation_render_parses_back_to_the_same_terms(text):
    eq = parse_equation(text)
    again = parse_equation(eq.render())
    assert poly_terms(again.top) == poly_terms(eq.top)
    assert poly_terms(again.bottom) == poly_terms(eq.bottom)


def test_copy_gate_disables_squared_penalty():
    eq = parse_equation("p(ref,yl)*p(theta,yw)^2 / (p(ref,yw)^2*p(theta,yl))")
    plain = parse_equation("p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))")
    # tunable model already ahead of the reference on the winner: gate fires
    w = dpop_gate(WeightMap({"theta:yw": 0.8, "theta:yl": 0.3, "ref:yw": 0.5, "ref:yl": 0.4}))
    gated = math.log(eval_poly(eq.top, w) / eval_poly(eq.bottom, w))
    base = math.log(eval_poly(plain.top, w) / eval_poly(plain.bottom, w))
    assert gated == pytest.approx(base, abs=1e-9)
    # reference ahead: penalty stays, ratio strictly drops
    w2 = dpop_gate(WeightMap({"theta:yw": 0.2, "theta:yl": 0.3, "ref:yw": 0.6, "ref:yl": 0.4}))
    penalized = math.log(eval_poly(eq.top, w2) / eval_poly(eq.bottom, w2))
    base2 = math.log(eval_poly(plain.top, w2) / eval_poly(plain.bottom, w2))
    assert penalized < base2


def test_term_of_max_atoms_literals_parses():
    eq = parse_equation(f"p(theta,yw)^{MAX_ATOMS - 4}*p(theta,yl)^4 / p(ref,yw)")
    assert [len(t.literals) for t in eq.top.terms] == [MAX_ATOMS]


@pytest.mark.parametrize("text", [
    f"p(theta,yw)^{MAX_ATOMS + 1} / p(theta,yl)",
    f"p(theta,yl) / (p(theta,yw)^{MAX_ATOMS - 4}*p(ref,yw)^5)",
])
def test_term_past_max_atoms_is_refused_before_expansion(text):
    with pytest.raises(AtomLimitError, match=f"exceeds MAX_ATOMS = {MAX_ATOMS}"):
        parse_equation(text)


def test_make_multilinear_sums_exponents_per_term():
    with pytest.raises(AtomLimitError, match="a term of 17 literals"):
        make_multilinear([[(W, True, 9), (W, True, 8)]])
    assert len(make_multilinear([[(W, True, 8), (L, False, 8)]]).terms[0].literals) == 16
