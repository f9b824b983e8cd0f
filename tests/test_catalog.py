import json
import math
import random

import pytest

from preflogic import (
    WeightMap,
    decompile,
    eval_poly,
    load_catalog,
    loss_ratio,
    pref_equivalent,
    to_marks,
)
from preflogic.atoms import canonical_order
from preflogic.errors import UnknownLossError

from conftest import random_bits, random_weights, structure_from_bits

NAMED = ["CE", "CEUnl", "CPO", "ORPO", "SimPO", "DPO", "DPOP", "unCPO", "cCPO",
         "qfUNL", "cfUNL", "sCE"]
COLUMN_ONLY = ["bCE", "cUnl", "fUnl", "l3", "l5", "l14", "l20"]


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_catalog_lists_expected_entries(catalog):
    names = catalog.names()
    for name in NAMED + COLUMN_ONLY:
        assert name in names


def test_catalog_aliases(catalog):
    assert catalog.aliases["IPO"] == ("DPO", "sl-squared")
    assert catalog.aliases["SliC"] == ("CPO", "sl-margin")
    assert catalog.aliases["RRHF"] == ("CPO", "fuzzy")
    entry, f_kind = catalog.resolve("IPO")
    assert entry.name == "DPO" and f_kind == "sl-squared"


def test_unknown_name_reports_near_matches(catalog):
    with pytest.raises(UnknownLossError) as err:
        catalog.get("CPQ")
    assert "CPO" in str(err.value)


def test_lookup_is_case_insensitive(catalog):
    assert catalog.get("ceunl").name == "CEUnl"


def test_every_entry_equation_matches_its_structure(catalog):
    for name in catalog.names():
        entry = catalog.get(name)
        assert pref_equivalent(decompile(entry.equation), entry.structure), name


def test_every_entry_marks_match_its_structure(catalog):
    for name in catalog.names():
        entry = catalog.get(name)
        assert to_marks(entry.structure) == entry.marks, name


def test_reference_ratio_equation_text(catalog):
    assert catalog.get("DPO").equation_text == "p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))"


def test_unlikelihood_baseline_denominator_is_expanded(catalog):
    entry = catalog.get("CEUnl")
    # denominator stored as the disjoint expansion of 1 - w(1 - l)
    rng = random.Random(1)
    for _ in range(100):
        weights = WeightMap(random_weights(rng, entry.structure.atoms))
        w = weights.resolve(entry.structure.atoms[0])
        l = weights.resolve(entry.structure.atoms[1])
        assert eval_poly(entry.equation.bottom, weights) == pytest.approx(
            1 - w * (1 - l), abs=1e-12
        )


def test_conditioned_complement_ratio_equation(catalog):
    assert catalog.get("cfUNL").equation_text == (
        "(1 - p(theta,yl)) / ((1 - p(theta,yw))*p(theta,yl))"
    )


def test_column_only_entries_get_derived_equations(catalog):
    rng = random.Random(2)
    for name in COLUMN_ONLY:
        entry = catalog.get(name)
        assert entry.equation_derived
        for _ in range(50):
            weights = WeightMap(random_weights(rng, entry.structure.atoms))
            direct = math.log(eval_poly(entry.equation.top, weights))
            direct -= math.log(eval_poly(entry.equation.bottom, weights))
            assert direct == pytest.approx(loss_ratio(entry.structure, weights), abs=1e-9)


def test_catalog_override_path(tmp_path, catalog):
    doc = {
        "entries": [
            {
                "name": "winner-only",
                "provenance": "test fixture",
                "atoms": ["theta:yw"],
                "marks": ["cross", "check"],
            }
        ]
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    mini = load_catalog(str(path))
    entry = mini.get("winner-only")
    assert entry.equation_text == "p(theta,yw) / (1 - p(theta,yw))"
    with pytest.raises(UnknownLossError):
        mini.get("DPO")


def linear_name_of(catalog, structure):
    """The scan the indexed name_of replaces: first equivalent entry wins."""
    for entry in catalog.entries.values():
        if pref_equivalent(entry.structure, structure):
            return entry.name
    return None


def test_name_of_matches_linear_scan(catalog):
    rng = random.Random(6)
    pool = canonical_order(["theta:yw", "theta:yl", "theta:yw:2", "ref:yw", "ref:yl", "mref:yl"])
    corpus = []
    for _ in range(150):
        atoms = rng.sample(pool, rng.randint(1, 4))
        corpus.append(structure_from_bits(atoms, random_bits(rng, len(atoms)),
                                          random_bits(rng, len(atoms))))
    # every two-atom column, where the catalog's sixteen columns live
    two = canonical_order(["theta:yw", "theta:yl"])
    corpus += [structure_from_bits(two, c, x) for c in range(16) for x in range(16)]
    entries = [catalog.get(name).structure for name in catalog.names()]
    corpus += entries
    # entries widened by atoms they do not use
    unused = canonical_order(["theta:yl:2", "mref:yl"])
    corpus += [s.harmonized(unused[: k % 2 + 1]) for k, s in enumerate(entries)]
    hits = 0
    for s in corpus:
        want = linear_name_of(catalog, s)
        assert catalog.name_of(s) == want
        hits += want is not None
    assert hits >= 2 * len(entries)
