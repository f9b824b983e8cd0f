import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflogic import (
    MarkTable,
    count_structures,
    formula_forms,
    from_marks,
    implication_form,
    is_nontrivial,
    marks_from_json,
    marks_to_json,
    parse_formula,
    pref_entails,
    pref_equivalent,
    render,
    structure_from_json,
    structure_to_json,
    to_marks,
)
from preflogic.atoms import canonical_order
from preflogic.errors import AtomSyntaxError, PrefLogicError
from preflogic.prefstruct import PreferenceStructure, support_key

from conftest import random_bits, structure_from_bits

W, L = "theta:yw", "theta:yl"
WL = canonical_order([W, L])


def f(text, atoms=WL):
    return parse_formula(text, atoms)


def cpo_structure():
    return PreferenceStructure(
        f("(implies theta:yl theta:yw)"), f("(or theta:yl theta:yw)"), f("(and theta:yl theta:yw)")
    )


def orpo_structure():
    return PreferenceStructure(
        f("(implies theta:yl theta:yw)"), f("(xor theta:yl theta:yw)"), f("false")
    )


def uncpo_structure():
    return PreferenceStructure(f("(implies theta:yl theta:yw)"), f("true"), f("false"))


# ---------------------------------------------------------------------------
# formula forms


def test_one_true_constrained_forms_reduce_to_win_and_lose():
    form, neg = formula_forms(cpo_structure())
    assert form == f("theta:yw")
    assert neg == f("theta:yl")


def test_plain_structure_forms_are_core_and_negation():
    s = PreferenceStructure(f("(implies theta:yl theta:yw)"), f("true"), f("false"))
    form, neg = formula_forms(s)
    assert form == f("(implies theta:yl theta:yw)")
    assert neg == f("(and theta:yl (not theta:yw))")


def test_one_hot_constrained_forms_are_single_rows():
    s = orpo_structure()
    assert s.check_bits == 0b0100  # only W=T, L=F
    assert s.cross_bits == 0b0010  # only W=F, L=T


# ---------------------------------------------------------------------------
# implication form


def test_implication_form_of_win_lose_pair():
    s = implication_form(f("theta:yw"), f("theta:yl"))
    assert pref_equivalent(s, cpo_structure())
    assert s.pc == f("(or theta:yl theta:yw)")
    assert s.pa == f("(and theta:yl theta:yw)")


def test_implication_form_of_complement_pair_collapses():
    s = implication_form(f("theta:yw"), f("(not theta:yw)"))
    assert render(s.p.tree) == "theta:yw"
    assert render(s.pc.tree) == "true"
    assert render(s.pa.tree) == "false"


def test_implication_form_of_one_hot_pair():
    s = implication_form(
        f("(and theta:yw (not theta:yl))"), f("(and theta:yl (not theta:yw))")
    )
    assert pref_equivalent(s, orpo_structure())
    assert s.pc == f("(xor theta:yl theta:yw)")
    assert render(s.pa.tree) == "false"


@given(st.integers(0, 15), st.integers(0, 15))
def test_implication_form_realizes_any_pair(check, cross):
    s = structure_from_bits(WL, check, cross)
    assert s.check_bits == check
    assert s.cross_bits == cross


@given(st.integers(0, 15), st.integers(0, 15))
def test_implication_form_additive_entails_conditioning(check, cross):
    s = structure_from_bits(WL, check, cross)
    assert s.pa.bits & ~s.pc.bits == 0


# ---------------------------------------------------------------------------
# marks


def test_one_true_structure_marks():
    marks = to_marks(cpo_structure())
    # rows 0..3 = FF, FT, TF, TT
    assert marks.marks == ("blank", "cross", "check", "both")


def test_from_marks_unconstrained_column():
    m = MarkTable(WL, ("check", "cross", "check", "check"))
    s = from_marks(m)
    assert pref_equivalent(s, uncpo_structure())
    assert render(s.pc.tree) == "true"
    assert render(s.pa.tree) == "false"


def test_from_marks_double_marked_bottom_row():
    m = MarkTable(WL, ("both", "cross", "check", "blank"))
    s = from_marks(m)
    assert s.check_bits == 0b0101
    assert s.cross_bits == 0b0011
    assert to_marks(s) == m


def test_mark_table_validates_length_and_values():
    with pytest.raises(PrefLogicError):
        MarkTable(WL, ("check",))
    with pytest.raises(PrefLogicError):
        MarkTable(WL, ("check", "cross", "tick", "blank"))


def test_marks_round_trip_json():
    m = to_marks(orpo_structure())
    doc = json.loads(json.dumps(marks_to_json(m)))
    assert marks_from_json(doc) == m


@pytest.mark.parametrize("doc, message", [
    ({"atoms": 5, "marks": []}, "key 'atoms' must be a list, got int"),
    ({"atoms": ["theta:yw"], "marks": 7}, "key 'marks' must be a list, got int"),
    ([1, 2], "must be a JSON object, got list"),
    ({"atoms": ["theta:yw"]}, "missing key 'marks'"),
])
def test_malformed_mark_json_names_the_key_or_type(doc, message):
    with pytest.raises(PrefLogicError, match=f"mark-table JSON.*{message}"):
        marks_from_json(doc)


def test_structure_round_trip_json():
    s = cpo_structure()
    doc = json.loads(json.dumps(structure_to_json(s, name="CPO")))
    assert doc["name"] == "CPO"
    assert structure_from_json(doc) == s


@pytest.mark.parametrize("atoms, bad", [([[1]], "[1]"), ([{}], "{}"), ([5], "5"),
                                        (["theta:yw", ["x"]], "['x']")])
def test_structure_json_names_a_malformed_atom(atoms, bad):
    doc = {"atoms": atoms, "P": "true", "PC": "true", "PA": "true"}
    with pytest.raises(AtomSyntaxError) as exc:
        structure_from_json(doc)
    assert str(exc.value) == f"cannot interpret {bad} as an atom"


# ---------------------------------------------------------------------------
# entailment / equivalence / triviality


def test_entailment_example_pairs():
    cpo, orpo, uncpo = cpo_structure(), orpo_structure(), uncpo_structure()
    assert pref_entails(cpo, uncpo) and not pref_entails(uncpo, cpo)
    assert pref_entails(orpo, uncpo)
    assert not pref_entails(cpo, orpo) and not pref_entails(orpo, cpo)
    assert pref_entails(cpo, cpo)


def test_equivalence_from_marks_round_trip():
    s = cpo_structure()
    assert pref_equivalent(s, from_marks(to_marks(s)))


def test_equivalence_ignores_unused_atoms():
    s = cpo_structure()
    wide = s.harmonized(canonical_order([W, L, "ref:yw"]))
    assert pref_equivalent(s, wide)


def test_nontriviality():
    assert is_nontrivial(cpo_structure())
    same = implication_form(f("theta:yw"), f("theta:yw"))
    assert not is_nontrivial(same)
    empty = implication_form(f("false"), f("theta:yl"))
    assert not is_nontrivial(empty)


def test_structure_counts():
    assert count_structures(1) == 16
    assert count_structures(2) == 256
    assert count_structures(4) == 4294967296
    with pytest.raises(ValueError):
        count_structures(0)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 15), st.integers(0, 15))
def test_mark_encoding_round_trips(check, cross):
    s = structure_from_bits(WL, check, cross)
    m = to_marks(s)
    assert pref_equivalent(s, from_marks(m))
    assert to_marks(from_marks(m)) == m


@settings(max_examples=200)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_mark_algebra(pbits, pcbits, pabits):
    from preflogic import TruthTable, formula_of

    p = formula_of(TruthTable(WL, pbits))
    pc = formula_of(TruthTable(WL, pcbits))
    pa = formula_of(TruthTable(WL, pabits))
    s = PreferenceStructure(p, pc, pa)
    assert s.check_bits | s.cross_bits == s.pc.bits
    assert s.check_bits & s.cross_bits == s.pa.bits & s.pc.bits


@given(
    st.integers(0, 15), st.integers(0, 15),
    st.integers(0, 15), st.integers(0, 15),
    st.integers(0, 15), st.integers(0, 15),
)
def test_pref_entailment_is_a_preorder(c1, x1, c2, x2, c3, x3):
    s1 = structure_from_bits(WL, c1, x1)
    s2 = structure_from_bits(WL, c2, x2)
    s3 = structure_from_bits(WL, c3, x3)
    assert pref_entails(s1, s1)
    if pref_entails(s1, s2) and pref_entails(s2, s3):
        assert pref_entails(s1, s3)
    if pref_entails(s1, s2) and pref_entails(s2, s1):
        assert pref_equivalent(s1, s2)


def test_support_key_is_equal_exactly_for_equivalent_structures():
    rng = random.Random(7)
    pool = canonical_order([W, L, "ref:yw", "ref:yl"])
    structures = []
    for _ in range(120):
        atoms = rng.sample(pool, rng.randint(1, 3))
        # sparse bits make structures that ignore some of their atoms
        check = random_bits(rng, len(atoms)) & random_bits(rng, len(atoms))
        cross = random_bits(rng, len(atoms)) | random_bits(rng, len(atoms))
        s = structure_from_bits(atoms, check, cross)
        structures += [s, s.harmonized(pool)]
    for a in structures:
        for b in structures[::7]:
            assert (support_key(a) == support_key(b)) == pref_equivalent(a, b)


def test_support_key_drops_unused_atoms():
    wide = cpo_structure().harmonized(canonical_order([W, L, "ref:yw"]))
    assert support_key(wide) == support_key(cpo_structure()) == (WL, 0b1100, 0b1010)
    constant = structure_from_bits(WL, 0b1111, 0)
    assert support_key(constant) == ((), 1, 0)
