"""Preference structures and their truth-table mark encoding.

A preference structure is a triple (P, PC, PA): a core formula P,
conditioning constraints PC restricting which assignments count at all,
and additive constraints PA naming assignments that always count on both
sides.  Its two derived forms

    formula form          (P or PA) and PC      -- the winner reading
    negated formula form  (not P or PA) and PC  -- the loser reading

induce the check set and cross set of a four-valued mark table: rows in
both sets carry both marks, rows in neither are blank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .atoms import Atom, as_atom, canonical_order
from .errors import PrefLogicError
from .logic import (
    MAX_MINIMIZE_ATOMS,
    Formula,
    TruthTable,
    _var_mask,
    and_,
    formula_of,
    harmonize,
    harmonize_pair,
    implies_,
    minimize,
    not_,
    or_,
    parse_formula,
    render,
    row_permutation,
)

MARKS = ("blank", "check", "cross", "both")


@dataclass(frozen=True, eq=False)
class PreferenceStructure:
    p: Formula
    pc: Formula
    pa: Formula
    check_bits: int = field(init=False)
    cross_bits: int = field(init=False)

    def __post_init__(self):
        atoms = canonical_order(tuple(self.p.atoms) + tuple(self.pc.atoms) + tuple(self.pa.atoms))
        object.__setattr__(self, "p", harmonize(self.p, atoms))
        object.__setattr__(self, "pc", harmonize(self.pc, atoms))
        object.__setattr__(self, "pa", harmonize(self.pa, atoms))
        full = self.p.full_mask
        object.__setattr__(self, "check_bits", (self.p.bits | self.pa.bits) & self.pc.bits)
        object.__setattr__(self, "cross_bits", ((full & ~self.p.bits) | self.pa.bits) & self.pc.bits)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.p.atoms

    @property
    def n(self) -> int:
        return len(self.atoms)

    def harmonized(self, atoms) -> "PreferenceStructure":
        merged = canonical_order(tuple(self.atoms) + tuple(canonical_order(atoms)))
        if merged == self.atoms:
            return self
        return PreferenceStructure(
            harmonize(self.p, merged), harmonize(self.pc, merged), harmonize(self.pa, merged)
        )

    def __eq__(self, other):
        if not isinstance(other, PreferenceStructure):
            return NotImplemented
        return (self.atoms == other.atoms and self.p == other.p
                and self.pc == other.pc and self.pa == other.pa)

    def __hash__(self):
        return hash((self.atoms, self.p.bits, self.pc.bits, self.pa.bits))

    def __str__(self):
        return (f"P := {render(self.p.tree)}; PC := {render(self.pc.tree)}; "
                f"PA := {render(self.pa.tree)}")


@dataclass(frozen=True)
class MarkTable:
    """Per-row mark over the 2^n assignments, row order 0 .. 2^n - 1.

    Marks given under a non-canonical atom order are re-indexed into the
    canonical order.
    """

    atoms: tuple[Atom, ...]
    marks: tuple[str, ...]

    def __post_init__(self):
        given = tuple(as_atom(a) for a in self.atoms)
        if len(set(given)) != len(given):
            raise PrefLogicError("duplicate atoms in mark-table order")
        atoms = canonical_order(given)
        marks = tuple(self.marks)
        if len(marks) != 1 << len(atoms):
            raise PrefLogicError(
                f"expected {1 << len(atoms)} marks for {len(atoms)} atoms, got {len(marks)}"
            )
        bad = [m for m in marks if m not in MARKS]
        if bad:
            raise PrefLogicError(f"unknown marks: {sorted(set(bad))}")
        if atoms != given:
            perm = row_permutation(given, atoms)
            remapped = [""] * len(marks)
            for i, mark in enumerate(marks):
                remapped[perm[i]] = mark
            marks = tuple(remapped)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "marks", marks)

    def check_bits(self) -> int:
        return sum(1 << i for i, m in enumerate(self.marks) if m in ("check", "both"))

    def cross_bits(self) -> int:
        return sum(1 << i for i, m in enumerate(self.marks) if m in ("cross", "both"))


def formula_forms(s: PreferenceStructure) -> tuple[Formula, Formula]:
    """The winner and loser readings as canonical formulas."""
    form = Formula(and_(or_(s.p.tree, s.pa.tree), s.pc.tree), s.atoms)
    neg = Formula(and_(or_(not_(s.p.tree), s.pa.tree), s.pc.tree), s.atoms)
    assert form.bits == s.check_bits and neg.bits == s.cross_bits
    return form, neg


def implication_form(pw: Formula, pl: Formula) -> PreferenceStructure:
    """Build the structure whose forms are equivalent to (pw, pl).

    Sets P := pl -> pw, PC := pw or pl, PA := pw and pl, each minimized
    (left untouched beyond the minimization atom cap).  When pl is the
    negation of pw this collapses to (pw, true, false).
    """
    pw, pl = harmonize_pair(pw, pl)
    p = Formula(implies_(pl.tree, pw.tree), pw.atoms)
    pc = Formula(or_(pw.tree, pl.tree), pw.atoms)
    pa = Formula(and_(pw.tree, pl.tree), pw.atoms)
    if len(pw.atoms) <= MAX_MINIMIZE_ATOMS:
        p, pc, pa = minimize(p), minimize(pc), minimize(pa)
    return PreferenceStructure(p, pc, pa)


def to_marks(s: PreferenceStructure) -> MarkTable:
    marks = []
    for i in range(1 << s.n):
        check = bool((s.check_bits >> i) & 1)
        cross = bool((s.cross_bits >> i) & 1)
        marks.append("both" if check and cross else "check" if check
                     else "cross" if cross else "blank")
    return MarkTable(s.atoms, tuple(marks))


def from_marks(m: MarkTable) -> PreferenceStructure:
    """Rebuild a structure from a mark table (inverse of to_marks).

    The check set becomes the winner formula, the cross set the loser
    formula, combined through the implication form.
    """
    pw = formula_of(TruthTable(m.atoms, m.check_bits()))
    pl = formula_of(TruthTable(m.atoms, m.cross_bits()))
    return implication_form(pw, pl)


def _aligned(s1: PreferenceStructure, s2: PreferenceStructure):
    if s1.atoms == s2.atoms:
        return s1, s2
    atoms = canonical_order(tuple(s1.atoms) + tuple(s2.atoms))
    return s1.harmonized(atoms), s2.harmonized(atoms)


def pref_entails(s1: PreferenceStructure, s2: PreferenceStructure) -> bool:
    """Check-set inclusion one way, cross-set inclusion the other."""
    a, b = _aligned(s1, s2)
    return (a.check_bits & ~b.check_bits) == 0 and (b.cross_bits & ~a.cross_bits) == 0


def pref_equivalent(s1: PreferenceStructure, s2: PreferenceStructure) -> bool:
    a, b = _aligned(s1, s2)
    return a.check_bits == b.check_bits and a.cross_bits == b.cross_bits


def support_key(s: PreferenceStructure) -> tuple:
    """(atoms, check, cross) restricted to the atoms either set depends on.

    Widening by an atom that neither set depends on copies every row into
    both halves that atom splits, so projecting such atoms out leaves a key
    that two structures share exactly when they are preference-equivalent.
    """
    atoms = list(s.atoms)
    check, cross = s.check_bits, s.cross_bits
    # walk from the last atom back, so a deletion leaves the indices still to visit intact
    for j in reversed(range(len(atoms))):
        n = len(atoms)
        half = 1 << (n - 1 - j)
        high = _var_mask(j, n)
        if any(((bits & high) >> half) != (bits & ~high) for bits in (check, cross)):
            continue
        check, cross = _project_out(check, half, 1 << n), _project_out(cross, half, 1 << n)
        del atoms[j]
    return tuple(atoms), check, cross


def _project_out(bits: int, half: int, rows: int) -> int:
    """Keep the rows where the atom owning row bit ``half`` is false, gaps closed."""
    seg = (1 << half) - 1
    out = 0
    for k, start in enumerate(range(0, rows, 2 * half)):
        out |= ((bits >> start) & seg) << (k * half)
    return out


def is_nontrivial(s: PreferenceStructure) -> bool:
    """Winner and loser sets are distinct and both satisfiable."""
    return s.check_bits != 0 and s.cross_bits != 0 and s.check_bits != s.cross_bits


def count_structures(n: int) -> int:
    """Number of ordered pairs of Boolean functions over n atoms: 4^(2^n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"atom count must be a positive integer, got {n!r}")
    return 4 ** (2 ** n)


# ---------------------------------------------------------------------------
# JSON persistence


def structure_to_json(s: PreferenceStructure, name: str | None = None) -> dict:
    doc = {
        "atoms": [a.token() for a in s.atoms],
        "P": render(s.p.tree),
        "PC": render(s.pc.tree),
        "PA": render(s.pa.tree),
    }
    if name is not None:
        doc["name"] = name
    return doc


def structure_from_json(doc: dict) -> PreferenceStructure:
    try:
        atoms = canonical_order(doc["atoms"])
        p, pc, pa = doc["P"], doc["PC"], doc["PA"]
    except KeyError as exc:
        raise PrefLogicError(f"structure JSON is missing key {exc}") from None
    return PreferenceStructure(
        parse_formula(p, atoms),
        parse_formula(pc, atoms),
        parse_formula(pa, atoms),
    )


def marks_to_json(m: MarkTable) -> dict:
    return {"atoms": [a.token() for a in m.atoms], "marks": list(m.marks)}


def marks_from_json(doc: dict) -> MarkTable:
    try:
        return MarkTable(tuple(doc["atoms"]), tuple(doc["marks"]))
    except KeyError as exc:
        raise PrefLogicError(f"mark-table JSON is missing key {exc}") from None
