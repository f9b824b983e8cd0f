"""Integer (care, value) cubes against the paths they replaced.

The references in conftest are the string Quine-McCluskey minimizer, the
Shannon cover over frozensets of minterms and the pairwise disjointness
scan.  Each new path must give exactly their output on seeded corpora.
"""

import gc
import random
import tracemalloc

import pytest

from preflogic import LatticeSpec, PreferenceStructure, check_disjoint, enumerate_between
from preflogic import logic
from preflogic.atoms import Atom, canonical_order
from preflogic.errors import AtomLimitError, PrefLogicError
from preflogic.logic import MAX_ATOMS, cube_literals, cube_rows, var_masks, widen
from preflogic.poly import Literal, Polynomial, Term, parse_polynomial
from preflogic.semantics import _disjoint_cover

from conftest import (
    frozenset_disjoint_cover,
    pairwise_check_disjoint,
    random_bits,
    string_min_cover_patterns,
)

POOL = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yw", "mref:yl",
                        "aux:yw", "aux:yl"])


def guarded_bits(rng, n):
    """A uniform row set over n - 2 atoms, widened by ref:yw and ref:yl and
    guarded by ref:yl, the shape reference_structure gives wide columns.
    Uniform five- and six-atom sets can spend minutes in Petrick expansion."""
    base = tuple(a for a in POOL if a.model != "ref")[:n - 2]
    atoms = canonical_order(base + (Atom("ref", "yw"), Atom("ref", "yl")))
    guard = var_masks(n)[atoms.index(Atom("ref", "yl"))]
    return widen(random_bits(rng, n - 2), base, atoms) & guard


def corpus(n, count):
    rng = random.Random(f"cubes/{n}/{count}")
    return [random_bits(rng, n) for _ in range(count)]


# ---------------------------------------------------------------------------
# the mask table and cube helpers


@pytest.mark.parametrize("n", range(0, 7))
def test_var_masks_hold_the_rows_where_each_atom_is_true(n):
    for j, mask in enumerate(var_masks(n)):
        assert mask == sum(1 << i for i in range(1 << n) if (i >> (n - 1 - j)) & 1)
    assert var_masks(n) is var_masks(n)


def test_cube_rows_and_literals_agree_with_the_row_test():
    n = 3
    atoms = POOL[:n]
    for care in range(1 << n):
        for value in range(1 << n):
            if value & ~care:
                continue
            rows = sum(1 << m for m in range(1 << n) if m & care == value)
            assert cube_rows(care, value, n) == rows
            # a row satisfies the literals exactly when it is in the cube
            lits = cube_literals(care, value, atoms)
            for m in range(1 << n):
                truth = {a: bool(m >> (n - 1 - j) & 1) for j, a in enumerate(atoms)}
                assert all(truth[a] == positive for a, positive in lits) == bool(rows >> m & 1)
            assert [a for a, _ in lits] == sorted((a for a, _ in lits), key=atoms.index)


# ---------------------------------------------------------------------------
# Quine-McCluskey over integer cubes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimizer_matches_string_qm_on_every_small_bitset(n):
    for bits in range(1 << (1 << n)):
        assert logic._min_cover_patterns(bits, n) == string_min_cover_patterns(bits, n), hex(bits)


@pytest.mark.parametrize("n, count, guarded", [
    (4, 300, False), (5, 60, False), (5, 30, True), (6, 15, True),
])
def test_minimizer_matches_string_qm_on_seeded_bitsets(n, count, guarded):
    rng = random.Random(f"cubes-qm/{n}/{guarded}")
    for _ in range(count):
        bits = guarded_bits(rng, n) if guarded else random_bits(rng, n)
        assert logic._min_cover_patterns(bits, n) == string_min_cover_patterns(bits, n), hex(bits)


# ---------------------------------------------------------------------------
# the Shannon disjoint cover over integer row sets


def as_cube(fixed: dict[int, int], n: int) -> tuple[int, int]:
    care = sum(1 << (n - 1 - j) for j in fixed)
    value = sum(1 << (n - 1 - j) for j, v in fixed.items() if v)
    return care, value


@pytest.mark.parametrize("n, bitsets", [
    (1, range(4)), (2, range(16)), (3, range(256)),
    (4, corpus(4, 300)), (5, corpus(5, 60)), (6, corpus(6, 30)), (8, corpus(8, 10)),
])
def test_disjoint_cover_matches_frozenset_cover(n, bitsets):
    for bits in bitsets:
        want = [as_cube(fixed, n) for fixed in frozenset_disjoint_cover(bits, n)]
        assert _disjoint_cover(bits, n) == want, hex(bits)


# ---------------------------------------------------------------------------
# incremental disjointness


def random_factor(rng, atoms):
    p, q, r, t = (f"p({x.model},{x.role})" for x in rng.sample(atoms, 4))
    return rng.choice([
        p,
        f"(1 - {p})",
        f"({p} + (1 - {p}))",                            # disjoint
        f"({p} + (1 - {p})*{q})",                        # disjoint
        f"({p} + {q})",                                  # overlapping
        f"({p} + (1 - {p})*{q} + (1 - {p})*{r} + {t})",  # 1, 2 meet first by j; 0, 3 by i
    ])


def test_check_disjoint_matches_pairwise_scan_on_products_of_sums():
    rng = random.Random("cubes-disjoint")
    atoms = POOL[:6]
    outcomes = {"disjoint": 0, "overlap": 0, "not-first-by-j": 0}
    for _ in range(400):
        text = "*".join(random_factor(rng, atoms) for _ in range(rng.randint(1, 4)))
        try:
            p = parse_polynomial(text)
        except PrefLogicError:
            continue  # p and 1 - p on one atom inside a term
        want = pairwise_check_disjoint(p)
        assert check_disjoint(p) == want, text
        if want is None:
            outcomes["disjoint"] += 1
            continue
        outcomes["overlap"] += 1
        (i, _), (j, _) = want
        first_j = min(k for k in range(len(p.terms)) if pairwise_check_disjoint(
            Polynomial(p.terms[:k + 1])) is not None)
        outcomes["not-first-by-j"] += first_j != j
    assert min(outcomes.values()) >= 5, outcomes


def test_check_disjoint_names_smallest_i_then_smallest_j():
    w, l, r = (Literal(a) for a in POOL[:3])
    nw = Literal(POOL[0], False)
    # terms 1 and 2 meet first by j, but term 0 meets term 3
    p = Polynomial((Term((w,)), Term((nw, l)), Term((nw,)), Term((r,))))
    assert pairwise_check_disjoint(p)[0][0] == 0
    assert check_disjoint(p) == ((0, p.terms[0]), (3, p.terms[3]))


def test_check_disjoint_refuses_more_than_max_atoms_before_building_masks(monkeypatch):
    wide = [Atom("theta", "yw", c) for c in range(1, MAX_ATOMS + 2)]
    p = Polynomial((Term(tuple(Literal(a) for a in wide[:9])),
                    Term(tuple(Literal(a, False) for a in wide[9:]))))

    def no_masks(*args):
        raise AssertionError("a row mask was built")

    monkeypatch.setattr("preflogic.poly.cube_rows", no_masks)
    with pytest.raises(AtomLimitError, match=f"MAX_ATOMS = {MAX_ATOMS}"):
        check_disjoint(p)


# ---------------------------------------------------------------------------
# memoized formula_of


def test_text_lattice_minimizes_each_distinct_bitset_once(monkeypatch):
    calls = []
    original = logic._min_cover_patterns

    def counted(bits, n):
        calls.append((bits, n))
        return original(bits, n)

    monkeypatch.setattr(logic, "_min_cover_patterns", counted)
    logic.formula_of.cache_clear()
    atoms = POOL[:2]
    lower = PreferenceStructure.from_bits(atoms, 0, (1 << 4) - 1)
    upper = PreferenceStructure.from_bits(atoms, (1 << 4) - 1, 0)
    nodes = enumerate_between(LatticeSpec(lower, upper, nontrivial_only=False))
    text = [str(s) for s in nodes]
    assert len(nodes) == 256 and len(set(text)) == 256
    assert calls and len(calls) == len(set(calls))


def test_printing_a_wide_structure_keeps_no_tree_alive():
    # above the minimization cap a view prints minterm trees; the memo keeps
    # none of them once the structure is dropped (0.49 MB here at 11 atoms
    # when every table was memoized)
    rng = random.Random("wide-print")
    atoms = canonical_order([f"m{i}:yw" for i in range(11)])
    s = PreferenceStructure.from_bits(atoms, random_bits(rng, 11), random_bits(rng, 11))
    logic.formula_of.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        str(s)
        del s
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.2e6
