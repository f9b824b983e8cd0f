import random

import pytest

from preflogic import (
    LatticeSpec,
    enumerate_between,
    export_dot,
    hasse,
    is_nontrivial,
    load_catalog,
    pref_entails,
    pref_equivalent,
    reference_structure,
    structure_from_json,
)
from preflogic import lattice
from preflogic.atoms import canonical_order
from preflogic.errors import AtomLimitError, BoundViolationError, PrefLogicError

from conftest import (
    covering_edges_by_bruteforce,
    first_equivalent_pair,
    shared_atoms,
    structure_from_bits,
    structure_rows,
)

WL = canonical_order(["theta:yw", "theta:yl"])


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def s_of(catalog, name):
    return catalog.get(name).structure


def test_enumerate_between_the_two_atom_bounds(catalog):
    spec = LatticeSpec(s_of(catalog, "CEUnl"), s_of(catalog, "unCPO"))
    out = enumerate_between(spec)
    assert len(out) == 16
    for s in out:
        assert is_nontrivial(s)
    column_names = ["CE", "CEUnl", "CPO", "ORPO", "unCPO", "cCPO", "qfUNL", "cfUNL",
                    "sCE", "bCE", "cUnl", "fUnl", "l3", "l5", "l14", "l20"]
    for name in column_names:
        target = s_of(catalog, name)
        assert any(pref_equivalent(s, target) for s in out), name


def test_enumerate_between_equal_bounds_is_singleton(catalog):
    cpo = s_of(catalog, "CPO")
    out = enumerate_between(LatticeSpec(cpo, cpo))
    assert len(out) == 1 and pref_equivalent(out[0], cpo)


def test_enumerate_between_rejects_reversed_bounds(catalog):
    with pytest.raises(BoundViolationError):
        enumerate_between(LatticeSpec(s_of(catalog, "unCPO"), s_of(catalog, "CEUnl")))


def test_enumerate_between_caps_atom_count(catalog):
    atoms = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yw"])
    full = (1 << (1 << 5)) - 1
    lower = structure_from_bits(atoms, 1, full)
    upper = structure_from_bits(atoms, full, 1)
    with pytest.raises(AtomLimitError):
        enumerate_between(LatticeSpec(lower, upper))


def test_interval_size_matches_bruteforce_count(catalog):
    lower = s_of(catalog, "CEUnl")
    upper = s_of(catalog, "unCPO")
    out = enumerate_between(LatticeSpec(lower, upper, nontrivial_only=False))
    brute = 0
    for check in range(16):
        for cross in range(16):
            s = structure_from_bits(WL, check, cross)
            if pref_entails(lower, s) and pref_entails(s, upper):
                brute += 1
    assert len(out) == brute == 16
    # interval size factorizes over the two independent growth directions
    check_room = upper.check_bits & ~lower.check_bits
    cross_room = lower.cross_bits & ~upper.cross_bits
    assert brute == (1 << bin(check_room).count("1")) * (1 << bin(cross_room).count("1"))


def test_hasse_of_named_losses(catalog):
    names = ["CEUnl", "CPO", "ORPO", "cCPO", "unCPO"]
    structures = [s_of(catalog, n) for n in names]
    edges = hasse(structures)
    idx = {n: i for i, n in enumerate(names)}
    assert (idx["CEUnl"], idx["CPO"]) in edges
    assert (idx["cCPO"], idx["unCPO"]) in edges
    assert (idx["CPO"], idx["ORPO"]) not in edges
    assert (idx["ORPO"], idx["CPO"]) not in edges


def test_hasse_reduces_chains():
    chain = [structure_from_bits(WL, check, 1) for check in (0b0100, 0b0101, 0b1101)]
    edges = hasse(chain)
    assert sorted(edges) == [(0, 1), (1, 2)]


def test_hasse_rejects_duplicates(catalog):
    cpo = s_of(catalog, "CPO")
    with pytest.raises(PrefLogicError):
        hasse([cpo, cpo])


def test_hasse_edges_reconstruct_the_order(catalog):
    spec = LatticeSpec(s_of(catalog, "CEUnl"), s_of(catalog, "unCPO"))
    structures = enumerate_between(spec)
    edges = hasse(structures)
    reach = {i: {i} for i in range(len(structures))}
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            new = reach[j] - reach[i]
            if new:
                reach[i] |= new
                changed = True
    for i, si in enumerate(structures):
        for j, sj in enumerate(structures):
            if i == j:
                continue
            assert pref_entails(si, sj) == (j in reach[i])


def test_export_dot_clusters_by_core_formula(catalog):
    names = ["CEUnl", "CPO", "ORPO", "cCPO", "unCPO"]
    structures = [s_of(catalog, n) for n in names]
    edges = hasse(structures)
    dot = export_dot(structures, edges, labels=dict(enumerate(names)))
    assert dot.startswith("digraph")
    # the shared implication region holds the four one-core losses
    cluster = next(block for block in dot.split("subgraph")
                   if "CPO" in block and "label=\"(implies theta:yl theta:yw)\"" in block)
    for name in ("CPO", "ORPO", "cCPO", "unCPO"):
        assert f'"{name}"' in cluster
    assert "CEUnl" not in cluster


def test_export_dot_empty_input():
    dot = export_dot([], [])
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_reference_forms_of_all_columns_export_as_four_atom_lattice(catalog):
    from preflogic import reference_structure

    spec = LatticeSpec(s_of(catalog, "CEUnl"), s_of(catalog, "unCPO"))
    base = enumerate_between(spec)
    referenced = [reference_structure(s) for s in base]
    # the reference map is injective on (check, cross) pairs
    assert len({(s.check_bits, s.cross_bits) for s in referenced}) == 16
    edges = hasse(referenced)
    labels = {}
    for i, s in enumerate(referenced):
        name = catalog.name_of(s)
        if name:
            labels[i] = name
    dot = export_dot(referenced, edges, labels)
    assert '"DPO"' in dot  # the reference form of the win/lose ratio
    # entailment is preserved by the reference map, so the base interval's
    # covering edge count carries over
    assert len(edges) == len(hasse(base))


def test_export_dot_unnamed_nodes_use_hex_labels(catalog):
    s = structure_from_bits(WL, 0b0110, 0b1001)
    dot = export_dot([s], [])
    assert 'label="0x6/0x9"' in dot


# ---------------------------------------------------------------------------
# differential tests: hasse against the brute-force covering relation

EXTRA_ATOMS = canonical_order(["ref:yw", "mref:yl"])


def full_two_atom_interval(nontrivial_only):
    bounds = [structure_from_json({"atoms": ["theta:yw", "theta:yl"], "P": p,
                                   "PC": "true", "PA": "false"}) for p in ("false", "true")]
    return enumerate_between(LatticeSpec(*bounds, nontrivial_only=nontrivial_only))


def dedup_by_rows(structures):
    atoms = shared_atoms(structures)
    seen, out = set(), []
    for s in structures:
        key = structure_rows(s, atoms)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def assert_hasse_matches_oracle(structures):
    edges = hasse(structures)
    assert edges == sorted(covering_edges_by_bruteforce(structures))


@pytest.mark.parametrize("nontrivial_only", [True, False])
def test_hasse_matches_oracle_on_full_two_atom_interval(nontrivial_only):
    structures = full_two_atom_interval(nontrivial_only)
    assert len(structures) == (210 if nontrivial_only else 256)
    assert_hasse_matches_oracle(structures)


def test_hasse_matches_oracle_on_random_subsets():
    rng = random.Random(4)
    pool = full_two_atom_interval(nontrivial_only=False)
    for _ in range(40):
        subset = rng.sample(pool, rng.randint(0, 48))
        # some members range over unused extra atoms, so hasse must widen
        subset = [s.harmonized(EXTRA_ATOMS[: rng.randint(0, 2)]) for s in subset]
        assert_hasse_matches_oracle(subset)


def test_hasse_matches_oracle_on_catalog_structures(catalog):
    structures = dedup_by_rows([catalog.get(n).structure for n in catalog.names()])
    assert len({s.atoms for s in structures}) > 1  # mixed atom sets
    assert_hasse_matches_oracle(structures)


def test_hasse_matches_oracle_on_reference_forms_of_catalog_structures(catalog):
    plain = [catalog.get(n).structure for n in catalog.names()]
    plain = [s for s in plain if all(a.model != "ref" for a in s.atoms)]
    referenced = dedup_by_rows([reference_structure(s) for s in dedup_by_rows(plain)])
    assert len(referenced) > 10
    assert_hasse_matches_oracle(referenced)


def test_hasse_duplicate_error_names_the_first_equivalent_pair(catalog):
    orpo, ceunl, cpo = (s_of(catalog, n) for n in ("ORPO", "CEUnl", "CPO"))
    wide_cpo = cpo.harmonized(EXTRA_ATOMS)
    with pytest.raises(PrefLogicError, match="structures 0 and 5 are equivalent"):
        hasse([orpo, ceunl, cpo, ceunl, wide_cpo, orpo])
    with pytest.raises(PrefLogicError, match="structures 1 and 4 are equivalent"):
        hasse([orpo, ceunl, cpo, wide_cpo, ceunl, cpo])


def test_hasse_duplicate_error_matches_oracle_on_random_lists():
    rng = random.Random(5)
    pool = full_two_atom_interval(nontrivial_only=False)
    for _ in range(30):
        items = [rng.choice(pool[:24]) for _ in range(rng.randint(2, 12))]
        want = first_equivalent_pair(items)
        if want is None:
            assert_hasse_matches_oracle(items)
            continue
        with pytest.raises(PrefLogicError, match=f"structures {want[0]} and {want[1]} are"):
            hasse(items)


def test_hasse_refuses_more_than_max_interval_structures(monkeypatch):
    structures = full_two_atom_interval(nontrivial_only=False)[:9]
    monkeypatch.setattr(lattice, "MAX_INTERVAL", 8)
    with pytest.raises(PrefLogicError, match="9 structures, more than MAX_INTERVAL = 8"):
        hasse(structures)
    assert hasse(structures[:8]) == sorted(covering_edges_by_bruteforce(structures[:8]))

