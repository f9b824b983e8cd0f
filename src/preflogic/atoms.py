"""Prediction atoms.

An atom names one probabilistic prediction: "model m deems output y valid
for the prompt".  The model is ``theta`` (the tunable model), ``ref`` (a
frozen reference model), ``mref`` (a manually specified reference), or any
user-declared identifier.  The role says whether y is the preferred output
(``yw``) or the dispreferred one (``yl``).  Copy indices above 1 identify
fresh duplicates of a prediction introduced when squashing integer
exponents out of loss equations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import AtomSyntaxError

ROLE_WINNER = "yw"
ROLE_LOSER = "yl"
ROLES = (ROLE_WINNER, ROLE_LOSER)

_MODEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# (model, copy>1) buckets; user models sort after the built-ins, alphabetically.
_BUILTIN_RANK = {"theta": 0, "ref": 2, "mref": 4}
_USER_RANK = 6


@dataclass(frozen=True)
class Atom:
    model: str
    role: str
    copy: int = 1

    def __post_init__(self):
        if not _MODEL_RE.match(self.model):
            raise AtomSyntaxError(f"bad model identifier: {self.model!r}")
        if self.role not in ROLES:
            raise AtomSyntaxError(f"role must be one of {ROLES}, got {self.role!r}")
        if not isinstance(self.copy, int) or self.copy < 1:
            raise AtomSyntaxError(f"copy index must be a positive integer, got {self.copy!r}")

    def token(self) -> str:
        if self.copy == 1:
            return f"{self.model}:{self.role}"
        return f"{self.model}:{self.role}:{self.copy}"

    def base(self) -> "Atom":
        """The copy-1 atom this atom duplicates (itself when copy == 1)."""
        if self.copy == 1:
            return self
        return Atom(self.model, self.role, 1)

    def sort_key(self):
        rank = _BUILTIN_RANK.get(self.model, _USER_RANK)
        if rank < _USER_RANK and self.copy > 1:
            rank += 1
        return (rank, self.model, ROLES.index(self.role), self.copy)

    def __str__(self):
        return self.token()


def parse_atom(token: str) -> Atom:
    parts = token.split(":")
    if len(parts) == 2:
        return Atom(parts[0], parts[1])
    if len(parts) == 3:
        try:
            copy = int(parts[2])
        except ValueError:
            raise AtomSyntaxError(f"copy index in {token!r} is not an integer") from None
        return Atom(parts[0], parts[1], copy)
    raise AtomSyntaxError(f"atom token must be model:role[:copy], got {token!r}")


def as_atom(value) -> Atom:
    if isinstance(value, Atom):
        return value
    if isinstance(value, str):
        return parse_atom(value)
    raise AtomSyntaxError(f"cannot interpret {value!r} as an atom")


def canonical_order(atoms) -> tuple[Atom, ...]:
    """Deduplicate and sort atoms into the canonical order used everywhere.

    Tunable-model atoms come first, then their copies, then reference
    atoms and copies, then manual-reference atoms, then user models
    alphabetically; within a model, winner before loser, copies ascending.
    Every value is read by ``as_atom`` before the memo sees it, so a value
    that is not an atom is refused as such, whether hashable or not.
    """
    return _sorted_atoms(frozenset(map(as_atom, atoms)))


@lru_cache(maxsize=1024)
def _sorted_atoms(atoms: frozenset[Atom]) -> tuple[Atom, ...]:
    # a process meets few distinct atom sets and sorts each of them often
    return tuple(sorted(atoms, key=Atom.sort_key))
