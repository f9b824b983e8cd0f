"""Translate loss equations into preference structures.

The translation is compositional: each probability literal becomes an
atom proposition, products become conjunctions, complements negations and
sums disjunctions.  Because equation sides are disjoint multilinear
polynomials, a side's value equals the weighted model count of its
translation for every weight map, which is what makes the round trip
between equations and structures exact.
"""

from __future__ import annotations

import warnings

from .atoms import Atom, canonical_order
from .errors import PrefLogicError
from .logic import (FALSE, TRUE, Expr, Formula, TruthTable, and_, formula_of, implies_, minimize,
                    sop_tree)
from .poly import LossEquation, Polynomial, check_disjoint
from .prefstruct import PreferenceStructure, implication_form


def sem(p: Polynomial, atoms=None) -> Formula:
    """Compositional translation of a disjoint multilinear polynomial.

    Guarantees eval_poly(p, w) == wmc(sem(p), w) for every weight map w.
    """
    violation = check_disjoint(p)
    if violation is not None:
        (i, a), (j, b) = violation
        raise PrefLogicError(
            f"polynomial is not disjoint (terms {i + 1} and {j + 1}: "
            f"{a.render()} and {b.render()})"
        )
    if atoms is None:
        atoms = p.atoms()
    return Formula(sop_tree([(l.atom, l.positive) for l in t.literals] for t in p.terms), atoms)


def decompile(eq: LossEquation) -> PreferenceStructure:
    """Equation -> preference structure with the same loss ratio everywhere."""
    atoms = eq.atoms()
    return implication_form(sem(eq.top, atoms), sem(eq.bottom, atoms))


def decompile_fuzzy(eq: LossEquation, simplify: bool = False) -> PreferenceStructure:
    """Equation -> structure for the real-valued (fuzzy) reading.

    Keeps only the core implication (PC := true, PA := false).  The fuzzy
    semantics is syntactic, so simplification changes the resulting loss
    values; it is off unless requested.
    """
    atoms = eq.atoms()
    winner = sem(eq.top, atoms)
    loser = sem(eq.bottom, atoms)
    p = Formula(implies_(loser.tree, winner.tree), atoms)
    if simplify:
        p = minimize(p)
    return PreferenceStructure(p, Formula(TRUE, atoms), Formula(FALSE, atoms))


def reference_structure(s: PreferenceStructure) -> PreferenceStructure:
    """Guard a structure's winner/loser formulas with reference predictions.

    The winner formula is conjoined with ref:yl and the loser formula with
    ref:yw, matching the equation-level reference transform: the resulting
    structure's loss ratio is the original's minus the reference win/lose
    log ratio.
    """
    if any(a.model == "ref" for a in s.atoms):
        warnings.warn("structure already mentions ref atoms; adding another reference layer",
                      stacklevel=2)
    ref_w = Atom("ref", "yw")
    ref_l = Atom("ref", "yl")
    atoms = canonical_order(tuple(s.atoms) + (ref_w, ref_l))
    winner = formula_of(TruthTable(s.atoms, s.check_bits))
    loser = formula_of(TruthTable(s.atoms, s.cross_bits))
    guarded_w = Formula(and_(winner.tree, Expr("atom", atom=ref_l)), atoms)
    guarded_l = Formula(and_(loser.tree, Expr("atom", atom=ref_w)), atoms)
    return implication_form(guarded_w, guarded_l)
