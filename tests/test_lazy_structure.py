"""A structure is its (check, cross) pair; P, PC and PA are views of it.

The differential tests print lazily built structures and compare them with
the eager implication form in conftest, which minimizes P, PC and PA as
soon as a structure is built.  The laziness tests count calls into the
exact minimizer, and the display-tree tests count ``Expr`` nodes built:
a derived formula's tree is built from its recipe on first read.
"""

import random
import sys
import warnings
from importlib import resources

import pytest

from preflogic import (
    Formula,
    LatticeSpec,
    MarkTable,
    PreferenceStructure,
    TruthTable,
    WeightMap,
    compile_equation,
    decompile,
    enumerate_between,
    export_dot,
    formula_of,
    from_marks,
    hasse,
    load_catalog,
    loss_ratio,
    parse_equation,
    parse_formula,
    pref_entails,
    reference_structure,
    sem,
    structure_to_json,
)
from preflogic import logic
from preflogic.atoms import Atom, canonical_order
from preflogic.logic import Expr, and_, var, widen
from preflogic.prefstruct import MARKS

from conftest import eager_implication_form, random_bits

POOL = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yw", "mref:yl", "aux:yw"])


def column(atoms, check, cross):
    return tuple(MARKS[((check >> i) & 1) + 2 * ((cross >> i) & 1)] for i in range(1 << len(atoms)))


def eager_from_marks(m):
    return eager_implication_form(formula_of(TruthTable(m.atoms, m.check_bits())),
                                  formula_of(TruthTable(m.atoms, m.cross_bits())))


def eager_decompile(eq):
    atoms = eq.atoms()
    return eager_implication_form(sem(eq.top, atoms), sem(eq.bottom, atoms))


def eager_reference_structure(s):
    ref_w, ref_l = Atom("ref", "yw"), Atom("ref", "yl")
    atoms = canonical_order(tuple(s.atoms) + (ref_w, ref_l))
    winner = formula_of(TruthTable(s.atoms, s.check_bits))
    loser = formula_of(TruthTable(s.atoms, s.cross_bits))
    return eager_implication_form(Formula(and_(winner.tree, var(ref_l)), atoms),
                                  Formula(and_(loser.tree, var(ref_w)), atoms))


def assert_prints_as(lazy, eager):
    assert lazy == eager
    assert str(lazy) == str(eager)
    assert structure_to_json(lazy) == structure_to_json(eager)


def guarded(rng, n):
    """A uniform column over n - 2 atoms with its winner rows guarded by
    ref:yl and its loser rows by ref:yw, as reference_structure builds them.

    Uniform five- and six-atom columns can spend seconds to minutes in the
    minimizer's Petrick expansion, so wide columns take this loss shape.
    """
    base = tuple(a for a in POOL if a.model != "ref")[:n - 2]
    atoms = canonical_order(base + (Atom("ref", "yw"), Atom("ref", "yl")))
    check, cross = (widen(random_bits(rng, n - 2), base, atoms) for _ in range(2))
    masks = logic.var_masks(n)
    return (atoms, check & masks[atoms.index(Atom("ref", "yl"))],
            cross & masks[atoms.index(Atom("ref", "yw"))])


def check_column(given, check, cross):
    """from_marks of a column listed under ``given``, in any atom order, prints as the eager build."""
    m = MarkTable(given, column(given, check, cross))
    assert_prints_as(from_marks(m), eager_from_marks(m))


def test_every_two_atom_column_prints_as_eager():
    atoms = POOL[:2]
    for check in range(16):
        for cross in range(16):
            check_column(atoms, check, cross)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_seeded_columns_print_as_eager(n):
    rng = random.Random(f"lazy-views/{n}")
    for _ in range(200):
        if n < 5:
            given = list(POOL[:n])
            rng.shuffle(given)
            check_column(tuple(given), random_bits(rng, n), random_bits(rng, n))
        else:
            check_column(*guarded(rng, n))


def test_catalog_decompile_and_reference_print_as_eager():
    catalog = load_catalog()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some entries already mention ref atoms
        for entry in catalog.entries.values():
            lazy = decompile(entry.equation)
            assert_prints_as(lazy, eager_decompile(entry.equation))
            assert_prints_as(reference_structure(lazy), eager_reference_structure(lazy))
            assert_prints_as(reference_structure(entry.structure),
                             eager_reference_structure(entry.structure))


def test_seven_atom_column_prints_as_eager():
    rng = random.Random("lazy-views/7")
    given = list(POOL)
    rng.shuffle(given)
    check_column(tuple(given), random_bits(rng, 7), random_bits(rng, 7))


def test_wide_decompile_prints_as_eager():
    eq = parse_equation("p(theta,yw)^2*p(ref,yl)^2 / (p(theta,yl)^2*p(ref,yw)^2)")
    lazy = decompile(eq)
    assert lazy.n == 8
    assert_prints_as(lazy, eager_decompile(eq))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_prints_as(reference_structure(lazy), eager_reference_structure(lazy))


def test_catalog_structures_are_their_bit_pairs():
    for entry in load_catalog().entries.values():
        s = entry.structure
        bits = PreferenceStructure.from_bits(s.atoms, s.check_bits, s.cross_bits)
        assert s == bits and hash(s) == hash(bits)


def test_given_formulas_are_kept_for_display():
    atoms = POOL[:2]
    p = parse_formula("(implies theta:yl theta:yw)", atoms)
    s = PreferenceStructure(p, parse_formula("true", atoms), parse_formula("false", atoms))
    assert str(s) == "P := (implies theta:yl theta:yw); PC := true; PA := false"
    view = PreferenceStructure.from_bits(s.atoms, s.check_bits, s.cross_bits)
    assert view == s
    assert str(view) == "P := (or (not theta:yl) theta:yw); PC := true; PA := false"


def test_structures_stay_immutable():
    s = PreferenceStructure.from_bits(POOL[:2], 0b1100, 0b1010)
    for name in ("atoms", "check_bits", "cross_bits"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)


# ---------------------------------------------------------------------------
# laziness: nothing but printing runs the minimizer


@pytest.fixture
def minimizer_calls(monkeypatch):
    calls = []
    original = logic._min_cover_patterns

    def counted(bits, n):
        calls.append((bits, n))
        return original(bits, n)

    monkeypatch.setattr(logic, "_min_cover_patterns", counted)
    return calls


def test_loading_a_catalog_minimizes_nothing(minimizer_calls, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(resources.files("preflogic").joinpath("catalog.json").read_text("utf-8"),
                    encoding="utf-8")
    catalog = load_catalog(str(path))
    assert len(catalog.entries) == len(load_catalog().entries)
    assert minimizer_calls == []


def test_building_evaluating_and_comparing_minimize_nothing(minimizer_calls):
    rng = random.Random("lazy-calls")
    entries = list(load_catalog().entries.values())
    minimizer_calls.clear()
    for entry in entries:
        s = from_marks(entry.marks)
        eq = compile_equation(s)
        back = decompile(parse_equation(eq.render()))
        w = WeightMap({a.base(): rng.uniform(0.05, 0.95) for a in s.atoms})
        assert loss_ratio(back, w) == pytest.approx(loss_ratio(s, w), abs=1e-12)
        for other in entries:
            pref_entails(s, other.structure)
    wide = decompile(parse_equation("p(theta,yw)^4*p(ref,yl)^3 / (p(theta,yl)^4*p(ref,yw)^3)"))
    assert wide.n == 14
    assert minimizer_calls == []


def test_lattices_minimize_nothing_but_one_core_per_dot_cluster(minimizer_calls):
    atoms = POOL[:2]
    lower = PreferenceStructure.from_bits(atoms, 0, (1 << 4) - 1)
    upper = PreferenceStructure.from_bits(atoms, (1 << 4) - 1, 0)
    nodes = enumerate_between(LatticeSpec(lower, upper, nontrivial_only=False))
    edges = hasse(nodes)
    assert len(nodes) == 256 and minimizer_calls == []
    dot = export_dot(nodes, edges)
    assert len(minimizer_calls) <= 3 * dot.count("subgraph cluster_")


# ---------------------------------------------------------------------------
# display trees: a derived formula builds its tree on first read


@pytest.fixture
def built(monkeypatch, minimizer_calls):
    """(Expr nodes built, minimizer calls) since the fixture was set up."""
    load_catalog()  # parsing the catalog builds the trees of its formula text
    logic.formula_of.cache_clear()  # no memoized formula holds a tree already
    nodes = [0]
    init = Expr.__init__

    def counted(self, *args, **kwargs):
        nodes[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Expr, "__init__", counted)
    return lambda: (nodes[0], len(minimizer_calls))


def product_equation(k):
    return "*".join(f"(p(m{i},yw)+(1-p(m{i},yw)))" for i in range(1, k + 1)) + " / p(theta,yl)"


def test_parsing_and_printing_are_counted(built):
    parse_formula("(implies theta:yl theta:yw)", POOL[:2])
    nodes, calls = built()
    assert nodes > 0 and calls == 0
    str(formula_of(TruthTable(POOL[:3], 0b01101001)))
    assert built()[0] > nodes and built()[1] == 1


def test_decompile_builds_no_tree(built):
    for entry in load_catalog().entries.values():
        decompile(entry.equation)
    assert decompile(parse_equation(product_equation(12))).n == 13
    assert built() == (0, 0)


def test_compiling_evaluating_and_lattices_build_no_tree(built):
    rng = random.Random("display-trees")
    for entry in load_catalog().entries.values():
        s = entry.structure
        compile_equation(s)
        loss_ratio(s, WeightMap({a.base(): rng.uniform(0.05, 0.95) for a in s.atoms}))
    atoms = POOL[:2]
    spec = LatticeSpec(PreferenceStructure.from_bits(atoms, 0, 0b1111),
                       PreferenceStructure.from_bits(atoms, 0b1111, 0), nontrivial_only=False)
    assert len(hasse(enumerate_between(spec))) > 0
    assert built() == (0, 0)


def test_reference_structure_builds_no_tree(built):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some entries already mention ref atoms
        for entry in load_catalog().entries.values():
            reference_structure(entry.structure)
            reference_structure(decompile(entry.equation))
    assert built() == (0, 0)


def test_a_tree_is_built_once_and_kept(built):
    f = formula_of(TruthTable(POOL[:3], 0b01101001))
    assert built() == (0, 0)
    assert f.tree is f.tree
    nodes, calls = built()
    assert nodes > 0 and calls == 1
    side = sem(parse_equation("p(theta,yw)*(1 - p(theta,yl)) / p(theta,yl)").top)
    assert side.tree is side.tree
    assert str(formula_of(TruthTable(POOL[:3], 0b01101001))) == str(f)
    assert built()[1] == 1


@pytest.fixture
def side_trees(monkeypatch):
    """The atom lists of the sum-of-products side trees built."""
    calls = []
    original = logic.sop_tree

    def counted(cubes, atoms):
        calls.append(atoms)
        return original(cubes, atoms)

    for module in (logic, sys.modules["preflogic.decompile"]):
        monkeypatch.setattr(module, "sop_tree", counted)
    logic.formula_of.cache_clear()
    return calls


def test_a_view_above_the_cap_builds_each_side_once(side_trees):
    rng = random.Random("display-trees/wide")
    atoms = canonical_order(POOL)
    check, cross = random_bits(rng, 7), random_bits(rng, 7)
    eq = parse_equation("p(theta,yw)^2*p(ref,yl)^2 / (p(theta,yl)^2*p(ref,yw)^2)")
    wide = (PreferenceStructure.from_bits(atoms, check, cross), decompile(eq))
    for lazy in wide:
        side_trees.clear()
        for _ in range(2):
            str(lazy), structure_to_json(lazy)
        assert len(side_trees) == 2
        winner, loser = lazy.pa.tree.args
        assert lazy.pc.tree.args[0] is winner and lazy.pc.tree.args[1] is loser
        assert lazy.p.tree.args[0] is loser and lazy.p.tree.args[1] is winner
    eager = (eager_implication_form(formula_of(TruthTable(atoms, check)),
                                    formula_of(TruthTable(atoms, cross))),
             eager_decompile(eq))
    for lazy, expected in zip(wide, eager):
        assert_prints_as(lazy, expected)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_prints_as(reference_structure(lazy), eager_reference_structure(lazy))
