"""Preference structures and their truth-table mark encoding.

A preference structure is a triple (P, PC, PA): a core formula P,
conditioning constraints PC restricting which assignments count at all,
and additive constraints PA naming assignments that always count on both
sides.  Its two derived forms

    formula form          (P or PA) and PC      -- the winner reading
    negated formula form  (not P or PA) and PC  -- the loser reading

induce the check set and cross set of a four-valued mark table: rows in
both sets carry both marks, rows in neither are blank.  The structure is
that (check set, cross set) pair over its atoms; P, PC and PA are views of
it, built when first read.  A view is a truth table plus a display recipe:
its tree is built, and its table minimized, only when it is printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .atoms import Atom, as_atom, canonical_order
from .errors import PrefLogicError
from .logic import (
    MAX_MINIMIZE_ATOMS,
    Formula,
    TruthTable,
    and_,
    formula_of,
    harmonize,
    harmonize_pair,
    implies_,
    not_,
    or_,
    parse_formula,
    var_masks,
    widen,
)

MARKS = ("blank", "check", "cross", "both")


@dataclass(frozen=True, init=False)
class PreferenceStructure:
    """The (check set, cross set) pair over an ordered atom list.

    ``==`` and ``hash`` read only (atoms, check_bits, cross_bits).
    ``PreferenceStructure(p, pc, pa)`` keeps the formulas it is given for
    display; ``from_bits`` derives P := cross -> check, PC := check or
    cross and PA := check and cross on first access (see ``_view``).
    """

    atoms: tuple[Atom, ...]
    check_bits: int
    cross_bits: int

    def __init__(self, p: Formula, pc: Formula, pa: Formula):
        atoms = canonical_order(tuple(p.atoms) + tuple(pc.atoms) + tuple(pa.atoms))
        p, pc, pa = (harmonize(f, atoms) for f in (p, pc, pa))
        check = (p.bits | pa.bits) & pc.bits
        cross = (~p.bits | pa.bits) & pc.bits
        # frozen: fill the fields and the cached views directly, once
        vars(self).update(atoms=atoms, check_bits=check, cross_bits=cross, p=p, pc=pc, pa=pa)

    @classmethod
    def from_bits(cls, atoms: tuple[Atom, ...], check: int, cross: int,
                  sides: tuple[Formula, Formula] | None = None) -> "PreferenceStructure":
        """The structure with these check and cross sets over canonically ordered atoms.

        ``sides``, a winner and a loser formula over ``atoms`` with these
        bits, are what a view above the minimization cap joins for display;
        by default the minterm expansions of the two sets.
        """
        s = cls.__new__(cls)
        vars(s).update(atoms=tuple(atoms), check_bits=check, cross_bits=cross, _display=sides)
        return s

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def core_bits(self) -> int:
        """Rows of the core P view, cross -> check."""
        return (((1 << (1 << self.n)) - 1) & ~self.cross_bits) | self.check_bits

    @cached_property
    def p(self) -> Formula:
        return self._view(self.core_bits, lambda w, l: implies_(l, w))

    @cached_property
    def pc(self) -> Formula:
        return self._view(self.check_bits | self.cross_bits, or_)

    @cached_property
    def pa(self) -> Formula:
        return self._view(self.check_bits & self.cross_bits, and_)

    def _view(self, bits: int, join) -> Formula:
        # what a derived view prints: its table minimized within the minimization
        # atom cap, above it the join of the winner and loser display trees
        table = TruthTable(self.atoms, bits)
        if self.n <= MAX_MINIMIZE_ATOMS:
            return formula_of(table)
        sides = self._sides
        return Formula._derived(table, lambda: join(*(f.tree for f in sides)))

    @cached_property
    def _sides(self) -> tuple[Formula, Formula]:
        # the winner and loser display formulas the views above the cap share
        return self._display or tuple(formula_of(TruthTable(self.atoms, side))
                                      for side in (self.check_bits, self.cross_bits))

    def harmonized(self, atoms) -> "PreferenceStructure":
        merged = canonical_order(tuple(self.atoms) + tuple(canonical_order(atoms)))
        if merged == self.atoms:
            return self
        check, cross = (widen(bits, self.atoms, merged)
                        for bits in (self.check_bits, self.cross_bits))
        return PreferenceStructure.from_bits(merged, check, cross)

    def __str__(self):
        return f"P := {self.p}; PC := {self.pc}; PA := {self.pa}"


def _mark_column(check: int, cross: int, rows: int) -> tuple[str, ...]:
    return tuple(MARKS[((check >> i) & 1) | (((cross >> i) & 1) << 1)] for i in range(rows))


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
        marks = tuple(self.marks)
        if len(marks) != 1 << len(given):
            raise PrefLogicError(
                f"expected {1 << len(given)} marks for {len(given)} atoms, got {len(marks)}"
            )
        bad = [m for m in marks if m not in MARKS]
        if bad:
            shown = ", ".join(sorted({repr(m) for m in bad}))  # JSON values need not compare
            raise PrefLogicError(f"unknown marks: [{shown}]")
        check, cross = (TruthTable(given, _bits_marked(marks, kind)) for kind in ("check", "cross"))
        object.__setattr__(self, "atoms", check.atoms)
        object.__setattr__(self, "marks", _mark_column(check.bits, cross.bits, len(marks)))

    def check_bits(self) -> int:
        return _bits_marked(self.marks, "check")

    def cross_bits(self) -> int:
        return _bits_marked(self.marks, "cross")


def _bits_marked(marks, kind: str) -> int:
    return sum(1 << i for i, m in enumerate(marks) if m in (kind, "both"))


def formula_forms(s: PreferenceStructure) -> tuple[Formula, Formula]:
    """The winner and loser readings as canonical formulas."""
    form = Formula(and_(or_(s.p.tree, s.pa.tree), s.pc.tree), s.atoms)
    neg = Formula(and_(or_(not_(s.p.tree), s.pa.tree), s.pc.tree), s.atoms)
    assert form.bits == s.check_bits and neg.bits == s.cross_bits
    return form, neg


def implication_form(pw: Formula, pl: Formula) -> PreferenceStructure:
    """Build the structure whose forms are equivalent to (pw, pl).

    Sets P := pl -> pw, PC := pw or pl, PA := pw and pl: within the
    minimization atom cap as the minimized views of ``from_bits``, beyond
    it by joining the trees of pw and pl unminimized.  When pl is the
    negation of pw this collapses to (pw, true, false).
    """
    pw, pl = harmonize_pair(pw, pl)
    return PreferenceStructure.from_bits(pw.atoms, pw.bits, pl.bits, (pw, pl))


def to_marks(s: PreferenceStructure) -> MarkTable:
    return MarkTable(s.atoms, _mark_column(s.check_bits, s.cross_bits, 1 << s.n))


def from_marks(m: MarkTable) -> PreferenceStructure:
    """Rebuild a structure from a mark table (inverse of to_marks)."""
    return PreferenceStructure.from_bits(m.atoms, m.check_bits(), m.cross_bits())


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
        high = var_masks(n)[j]
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
        "P": str(s.p),
        "PC": str(s.pc),
        "PA": str(s.pa),
    }
    if name is not None:
        doc["name"] = name
    return doc


_JSON_TYPES = {str: ("string", str), list: ("list", (list, tuple)), dict: ("JSON object", dict)}


def json_field(doc, key: str, kind: type, what: str):
    """``doc[key]``, refused unless ``doc`` is an object holding a ``kind`` there."""
    if not isinstance(doc, dict):
        raise PrefLogicError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise PrefLogicError(f"{what} is missing key {key!r}")
    name, accepted = _JSON_TYPES[kind]
    if not isinstance(doc[key], accepted):
        raise PrefLogicError(f"{what} key {key!r} must be a {name}, got {type(doc[key]).__name__}")
    return doc[key]


def structure_from_json(doc: dict) -> PreferenceStructure:
    atoms = canonical_order(json_field(doc, "atoms", list, "structure JSON"))
    texts = [json_field(doc, key, str, "structure JSON") for key in ("P", "PC", "PA")]
    return PreferenceStructure(*(parse_formula(text, atoms) for text in texts))


def marks_to_json(m: MarkTable) -> dict:
    return {"atoms": [a.token() for a in m.atoms], "marks": list(m.marks)}


def marks_from_json(doc: dict) -> MarkTable:
    return MarkTable(*(tuple(json_field(doc, key, list, "mark-table JSON"))
                       for key in ("atoms", "marks")))
