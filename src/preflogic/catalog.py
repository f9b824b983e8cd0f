"""Built-in catalog of named losses.

Entries bundle a loss equation, its preference structure and the
structure's mark table; entries defined only by a mark column get their
structure and equation derived at load time.  The bundled data file can be
overridden with a user-supplied path of the same schema.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from importlib import resources

from .decompile import decompile
from .errors import PrefLogicError, UnknownLossError
from .poly import LossEquation, parse_equation
from .prefstruct import (
    MarkTable,
    PreferenceStructure,
    from_marks,
    json_field,
    marks_from_json,
    pref_equivalent,
    structure_from_json,
    support_key,
    to_marks,
)
from .semantics import compile_equation


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    provenance: str
    equation: LossEquation
    equation_text: str
    structure: PreferenceStructure
    marks: MarkTable
    equation_derived: bool = False


@dataclass(frozen=True)
class Catalog:
    entries: dict[str, CatalogEntry]
    aliases: dict[str, tuple[str, str]]  # alias -> (entry name, f kind or "fuzzy")
    _names_by_key: dict[tuple, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names_by_key: dict[tuple, str] = {}
        for entry in self.entries.values():
            names_by_key.setdefault(support_key(entry.structure), entry.name)
        object.__setattr__(self, "_names_by_key", names_by_key)

    def names(self) -> list[str]:
        return list(self.entries)

    def alias_names(self) -> list[str]:
        return list(self.aliases)

    def get(self, name: str) -> CatalogEntry:
        entry = self._lookup(name)
        if entry is None:
            known = self.names() + self.alias_names()
            near = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
            hint = f"; close matches: {', '.join(near)}" if near else ""
            raise UnknownLossError(f"unknown loss {name!r}{hint}")
        return entry

    def resolve(self, name: str) -> tuple[CatalogEntry, str | None]:
        """Entry plus the forced f kind when the name is an alias."""
        for alias, (target, f_kind) in self.aliases.items():
            if alias.lower() == name.lower():
                return self.get(target), f_kind
        return self.get(name), None

    def _lookup(self, name: str) -> CatalogEntry | None:
        if name in self.entries:
            return self.entries[name]
        for key, entry in self.entries.items():
            if key.lower() == name.lower():
                return entry
        return None

    def name_of(self, structure: PreferenceStructure) -> str | None:
        """Name of the first entry preference-equivalent to the structure."""
        return self._names_by_key.get(support_key(structure))


def _build_entry(doc: dict) -> CatalogEntry:
    name = json_field(doc, "name", str, "catalog entry")
    what = f"catalog entry {name!r}"
    provenance = json_field(doc, "provenance", str, what) if "provenance" in doc else ""
    atoms = json_field(doc, "atoms", list, what)
    marks = (marks_from_json({"atoms": atoms, "marks": json_field(doc, "marks", list, what)})
             if "marks" in doc else None)

    if "equation" in doc:
        equation_text = json_field(doc, "equation", str, what)
        equation = parse_equation(equation_text)
        structure = structure_from_json(
            {"atoms": atoms, **{key: json_field(doc, key, str, what) for key in ("P", "PC", "PA")}}
        )
        derived = False
    else:
        if marks is None:
            raise PrefLogicError(f"catalog entry {name!r} has neither equation nor marks")
        structure = from_marks(marks)
        equation = compile_equation(structure)
        equation_text = equation.render()
        derived = True

    if marks is None:
        marks = to_marks(structure)

    if not pref_equivalent(decompile(equation), structure):
        raise PrefLogicError(f"catalog entry {name!r}: equation does not match structure")
    if to_marks(structure) != marks:
        raise PrefLogicError(f"catalog entry {name!r}: mark table does not match structure")

    return CatalogEntry(name, provenance, equation, equation_text, structure, marks, derived)


_cache: dict[str, Catalog] = {}


def load_catalog(path: str | None = None) -> Catalog:
    key = path or "<bundled>"
    if key in _cache:
        return _cache[key]
    if path is None:
        text = resources.files("preflogic").joinpath("catalog.json").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    entries = {}
    for entry_doc in json_field(doc, "entries", list, "catalog JSON"):
        entry = _build_entry(entry_doc)
        if entry.name in entries:
            raise PrefLogicError(f"duplicate catalog entry {entry.name!r}")
        entries[entry.name] = entry
    specs = json_field(doc, "aliases", dict, "catalog JSON") if "aliases" in doc else {}
    aliases = {alias: tuple(json_field(spec, key, str, f"catalog alias {alias!r}")
                            for key in ("entry", "f")) for alias, spec in specs.items()}
    catalog = Catalog(entries, aliases)
    _cache[key] = catalog
    return catalog


def get(name: str, path: str | None = None) -> CatalogEntry:
    return load_catalog(path).get(name)


def names(path: str | None = None) -> list[str]:
    return load_catalog(path).names()
