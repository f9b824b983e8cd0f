"""A formula's bits are the source of truth; its tree only prints.

Every formula the package derives is built from bits it already holds,
without evaluating its tree.  The differential tests evaluate each such
tree row by row (``tree_bits_by_rows`` in conftest) and compare it with
the formula's bits; the counting tests show that only parsing evaluates a
tree.
"""

import io
import random
from contextlib import redirect_stdout

import pytest

from preflogic import (
    NonDisjointError,
    PreferenceStructure,
    UndeclaredAtomError,
    check_disjoint,
    decompile,
    decompile_fuzzy,
    harmonize,
    load_catalog,
    parse_equation,
    parse_formula,
    reference_structure,
    sem,
    structure_to_json,
)
from preflogic import cli, logic
from preflogic.atoms import Atom, canonical_order
from preflogic.logic import widen
from preflogic.poly import Literal, Polynomial, Term

from conftest import random_bits, tree_bits_by_rows

# the pool holds ref atoms, so reference_structure warns of a second reference layer
pytestmark = pytest.mark.filterwarnings("ignore:structure already mentions ref atoms")

POOL = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl",
                        "mref:yw", "mref:yl", "aux:yw", "aux:yl"])


def assert_bits_match_trees(*formulas):
    for f in formulas:
        assert f.bits == tree_bits_by_rows(f.tree, f.atoms), str(f)


def assert_views_match(s):
    assert_bits_match_trees(s.p, s.pc, s.pa)


def shannon_terms(rng, group):
    """A random disjoint sum over ``group``: a list of (atom, positive) products."""
    if not group or rng.random() < 0.25:
        return [[]]
    pivot, rest = group[0], group[1:]
    terms = [t + [(pivot, True)] for t in shannon_terms(rng, rest) if rng.random() < 0.8]
    terms += [t + [(pivot, False)] for t in shannon_terms(rng, rest) if rng.random() < 0.8]
    return terms or [[(pivot, True)]]


def literal_text(atom, positive):
    ref = f"p({atom.model},{atom.role})"
    return ref if positive else f"(1 - {ref})"


def product_of_sums(rng, atoms):
    """Equation-side text: a product of disjoint sums over disjoint atom groups."""
    atoms = list(atoms)
    rng.shuffle(atoms)
    factors = []
    while atoms:
        size = rng.randint(1, 3)
        group, atoms = atoms[:size], atoms[size:]
        terms = ["*".join(literal_text(*lit) for lit in t) or "1"
                 for t in shannon_terms(rng, group)]
        factors.append("(" + " + ".join(terms) + ")" if terms != ["1"] else "1")
    return "*".join(factors)


def seeded_products(seed, count, max_terms=16):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, 8)
        atoms = rng.sample(POOL, k)
        text = (product_of_sums(rng, atoms[:rng.randint(1, k)]) + " / "
                + product_of_sums(rng, atoms[rng.randint(0, k - 1):]))
        eq = parse_equation(text)
        if max(len(eq.top.terms), len(eq.bottom.terms)) <= max_terms:
            out.append(eq)
    return out


# ---------------------------------------------------------------------------
# differential: bits equal the row-by-row evaluation of the tree


def test_catalog_formulas_match_their_trees():
    for entry in load_catalog().entries.values():
        eq, s = entry.equation, entry.structure
        atoms = eq.atoms()
        assert_bits_match_trees(sem(eq.top, atoms), sem(eq.bottom, atoms))
        for built in (s, decompile(eq), reference_structure(s),
                      reference_structure(decompile(eq)), decompile_fuzzy(eq),
                      decompile_fuzzy(eq, simplify=True)):
            assert_views_match(built)


def from_bits_corpus(rng, n):
    """A structure over the first n pool atoms whose views are quick to build.

    Uniform five- and six-atom sets can spend seconds in the minimizer, so
    they are guarded by the reference atoms as reference_structure does;
    above the minimization cap the sets are sparse, which keeps the minterm
    trees small enough to evaluate row by row.
    """
    atoms = POOL[:n]
    if n <= 4:
        return PreferenceStructure.from_bits(atoms, random_bits(rng, n), random_bits(rng, n))
    if n <= 6:
        base = tuple(a for a in atoms if a.model != "ref")
        masks = logic.var_masks(n)
        guard = {side: masks[atoms.index(Atom("ref", side))] for side in ("yw", "yl")}
        check, cross = (widen(random_bits(rng, n - 2), base, atoms) for _ in range(2))
        return PreferenceStructure.from_bits(atoms, check & guard["yl"], cross & guard["yw"])
    check, cross = (sum(1 << rng.randrange(1 << n) for _ in range(6)) for _ in range(2))
    return PreferenceStructure.from_bits(atoms, check, cross)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_from_bits_views_match_their_trees(n):
    rng = random.Random(f"bits-first/{n}")
    for _ in range(12 if n <= 6 else 3):
        s = from_bits_corpus(rng, n)
        assert_views_match(s)
        if n not in (5, 6):
            assert_views_match(reference_structure(s))


def test_products_of_sums_decompile_to_their_trees():
    for eq in seeded_products("bits-first/products", 24):
        atoms = eq.atoms()
        winner, loser = sem(eq.top, atoms), sem(eq.bottom, atoms)
        assert_bits_match_trees(winner, loser)
        s = decompile(eq)
        assert (s.check_bits, s.cross_bits) == (winner.bits, loser.bits)
        assert_views_match(s)
        assert_views_match(decompile_fuzzy(eq))


def test_harmonize_widens_bits_as_the_tree_reads():
    rng = random.Random("bits-first/harmonize")
    texts = ["(implies theta:yl theta:yw)", "(xor theta:yw ref:yl)", "true", "false",
             "(or (and theta:yw (not ref:yw)) mref:yl)"]
    for text in texts:
        narrow = canonical_order(["theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yl"])
        f = parse_formula(text, narrow)
        for _ in range(4):
            wider = rng.sample(POOL, rng.randint(0, 3))
            g = harmonize(f, wider)
            assert g.atoms == canonical_order(narrow + tuple(wider))
            assert g.bits == tree_bits_by_rows(f.tree, g.atoms)
    for entry in load_catalog().entries.values():
        for view in (entry.structure.p, entry.structure.pc, entry.structure.pa):
            g = harmonize(view, POOL)
            assert g.bits == tree_bits_by_rows(view.tree, canonical_order(view.atoms + POOL))


# ---------------------------------------------------------------------------
# only the parse path evaluates a tree


@pytest.fixture
def tree_evaluations(monkeypatch):
    calls = [0]
    evaluate = logic._tree_bits

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    load_catalog()  # parsing the catalog evaluates its formula text
    monkeypatch.setattr(logic, "_tree_bits", counted)
    return calls


def product_equation(k):
    return "*".join(f"(p(m{i},yw)+(1-p(m{i},yw)))" for i in range(1, k + 1)) + " / p(theta,yl)"


def test_parsing_is_counted(tree_evaluations):
    parse_formula("(implies theta:yl theta:yw)", ["theta:yw", "theta:yl"])
    assert tree_evaluations[0] > 0


def test_decompile_evaluates_no_tree(tree_evaluations):
    for entry in load_catalog().entries.values():
        s = decompile(entry.equation)
        str(s), structure_to_json(s)
        str(reference_structure(s)), str(reference_structure(entry.structure))
        str(decompile_fuzzy(entry.equation))
    eq = parse_equation(product_equation(12))
    s = decompile(eq)
    assert s.n == 13
    assert tree_evaluations[0] == 0


def test_printing_from_bits_evaluates_no_tree(tree_evaluations):
    rng = random.Random("bits-first/print")
    for n in (2, 3, 4, 6, 7, 8):
        s = from_bits_corpus(rng, n)
        str(s), structure_to_json(s)
        if n != 6:
            str(reference_structure(s))
    atoms = canonical_order(POOL + (Atom("aux", "yw", 2),))
    str(PreferenceStructure.from_bits(atoms, random_bits(rng, 9), random_bits(rng, 9)))
    assert tree_evaluations[0] == 0


def test_text_lattice_evaluates_no_tree(tree_evaluations):
    for argv in (["lattice", "--lower", "CEUnl", "--upper", "unCPO"],
                 ["lattice", "--lower", "CEUnl", "--upper", "unCPO", "--include-trivial"],
                 ["--format", "json", "lattice", "--lower", "CEUnl", "--upper", "unCPO"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert tree_evaluations[0] == 0


# ---------------------------------------------------------------------------
# sem: one pass gives the row set and the first overlapping pair


def random_polynomial(rng, atoms, terms):
    out = []
    for _ in range(terms):
        chosen = rng.sample(atoms, rng.randint(0, len(atoms)))
        out.append(Term(tuple(Literal(a, rng.random() < 0.5) for a in chosen)))
    return Polynomial(tuple(out))


def test_sem_names_the_pair_check_disjoint_names():
    rng = random.Random("bits-first/overlap")
    atoms = list(POOL[:4])
    found = 0
    for _ in range(300):
        p = random_polynomial(rng, atoms, rng.randint(2, 6))
        violation = check_disjoint(p)
        if violation is None:
            assert sem(p).bits == tree_bits_by_rows(sem(p).tree, p.atoms())
            continue
        found += 1
        (i, a), (j, b) = violation
        with pytest.raises(NonDisjointError) as err:
            sem(p, POOL)
        assert (err.value.first, err.value.second) == (a, b)
        assert str(err.value) == (f"polynomial is not disjoint: terms {i + 1} and {j + 1} "
                                  f"({a.render()} and {b.render()}) share a solution")
    assert found > 100


def test_sem_error_reads_as_parse_equation_error():
    text = "p(theta,yw) + p(theta,yl) / p(theta,yl)"
    with pytest.raises(NonDisjointError) as parsed:
        parse_equation(text)
    top = Polynomial((Term((Literal(Atom("theta", "yw")),)), Term((Literal(Atom("theta", "yl")),))))
    with pytest.raises(NonDisjointError) as translated:
        sem(top)
    assert str(parsed.value) == "numerator " + str(translated.value)


def test_sem_over_wider_atoms_is_the_widened_table():
    for eq in seeded_products("bits-first/wider", 12):
        for side in (eq.top, eq.bottom):
            narrow = side.atoms()
            for wider in (eq.atoms(), POOL):
                assert sem(side, wider).bits == widen(sem(side).bits, narrow, wider)


def test_sem_refuses_undeclared_atoms():
    p = Polynomial((Term((Literal(Atom("theta", "yw")), Literal(Atom("ref", "yl"), False))),))
    with pytest.raises(UndeclaredAtomError, match="undeclared atoms: ref:yl"):
        sem(p, ["theta:yw"])
