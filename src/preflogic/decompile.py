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
from .errors import AtomLimitError, UndeclaredAtomError
from .logic import (MAX_ATOMS, Formula, TruthTable, and_, formula_of, implies_, minimize,
                    sop_tree, var, var_masks, widen)
from .poly import REF_LOSER, REF_WINNER, LossEquation, Polynomial, disjoint_rows
from .prefstruct import PreferenceStructure, implication_form


def sem(p: Polynomial, atoms=None) -> Formula:
    """Compositional translation of a disjoint multilinear polynomial.

    Guarantees eval_poly(p, w) == wmc(sem(p), w) for every weight map w.
    Its truth table is the union of the terms' rows over p's atoms, kept
    from the pass that checks the terms are disjoint, widened to ``atoms``
    when given (as ``harmonize`` widens); it raises NonDisjointError as
    ``parse_equation`` does.
    """
    if atoms is None:
        atoms = p.order
    else:
        atoms = canonical_order(atoms)
        extra = set(p.order) - set(atoms)
        width = len(atoms) + len(extra)
        if width > MAX_ATOMS:
            raise AtomLimitError(f"a polynomial over {width} atoms exceeds MAX_ATOMS = {MAX_ATOMS}")
        if extra:
            toks = ", ".join(sorted(a.token() for a in extra))
            raise UndeclaredAtomError(f"formula mentions undeclared atoms: {toks}")
    rows = widen(disjoint_rows(p), p.order, atoms)
    return Formula._shown(sop_tree(p.cubes, p.order), TruthTable(atoms, rows))


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
    winner, loser = sem(eq.top, atoms), sem(eq.bottom, atoms)
    full = (1 << (1 << len(atoms))) - 1
    p = Formula._shown(implies_(loser.tree, winner.tree),
                       TruthTable(atoms, full & ~loser.bits | winner.bits))
    if simplify:
        p = minimize(p)
    return PreferenceStructure(p, formula_of(TruthTable(atoms, full)),
                               formula_of(TruthTable(atoms, 0)))


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
    atoms = canonical_order(tuple(s.atoms) + (REF_WINNER, REF_LOSER))
    mask_of = dict(zip(atoms, var_masks(len(atoms))))

    def guarded(bits: int, ref: Atom) -> Formula:
        tree = and_(formula_of(TruthTable(s.atoms, bits)).tree, var(ref))
        return Formula._shown(tree, TruthTable(atoms, widen(bits, s.atoms, atoms) & mask_of[ref]))

    return implication_form(guarded(s.check_bits, REF_LOSER), guarded(s.cross_bits, REF_WINNER))
