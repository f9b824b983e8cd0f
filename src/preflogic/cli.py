"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 equation outside the disjoint
polynomial class, 4 trivial structure.

``main(argv)`` may be called repeatedly in one process.  The argument
parser is built on the first call and reused by every later one; each
call parses into a fresh namespace, so no option carries over.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import catalog as catalog_mod
from .decompile import decompile, reference_structure
from .errors import (
    EquationSyntaxError,
    NonDisjointError,
    PrefLogicError,
    TrivialStructureError,
    UnknownLossError,
)
from .lattice import LatticeSpec, enumerate_between, export_dot, hasse
from .poly import F_KINDS, WeightMap, dpop_gate, parse_equation
from .prefstruct import (
    pref_entails,
    structure_from_json,
    structure_to_json,
    to_marks,
)
from .semantics import (
    compile_equation,
    fuzzy_expression,
    loss_ratio,
    loss_value,
    render_loss_text,
)

NUM = "%.9g"  # numeric output precision


@dataclass(frozen=True)
class Config:
    catalog_path: str | None = None
    fmt: str = "text"
    out: str | None = None


def _catalog(config: Config):
    return catalog_mod.load_catalog(config.catalog_path)


def _load_structure(spec: str, config: Config):
    """Resolve a structure argument: catalog name, alias, or JSON file path."""
    cat = _catalog(config)
    try:
        entry, forced_f = cat.resolve(spec)
        return entry.structure, entry.name, forced_f
    except PrefLogicError:
        pass
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        return structure_from_json(doc), doc.get("name", spec), None
    cat.get(spec)  # raises with near matches
    raise AssertionError("unreachable")


def _emit(text: str, config: Config) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _structure_text(doc: dict) -> str:
    """The text lines of a ``structure_to_json`` document, which holds the printed views."""
    lines = [f"name: {doc['name']}"] if doc.get("name") else []
    lines.append("atoms: " + " ".join(doc["atoms"]))
    lines.append(f"P:  {doc['P']}")
    lines.append(f"PC: {doc['PC']}")
    lines.append(f"PA: {doc['PA']}")
    return "\n".join(lines)


def cmd_decompile(args, config: Config) -> int:
    """A catalog name or alias resolves first; anything else is parsed as an equation."""
    spec = args.loss
    cat = _catalog(config)
    try:
        equation = cat.resolve(spec)[0].equation
    except UnknownLossError as name_error:
        try:
            equation = parse_equation(spec)
        except EquationSyntaxError as parse_error:
            raise PrefLogicError(f"--loss is neither a catalog name ({name_error}) "
                                 f"nor an equation ({parse_error})") from None
    structure = decompile(equation)
    if args.reference:
        structure = reference_structure(structure)
    doc = structure_to_json(structure, name=cat.name_of(structure))
    text = json.dumps(doc, indent=2)
    _emit(text if config.fmt == "json" else _structure_text(doc) + "\n" + text, config)
    return 0


def cmd_compile(args, config: Config) -> int:
    structure, name, forced_f = _load_structure(args.structure, config)
    f_kind = args.f or forced_f or "sl-log"
    beta = args.beta if args.beta is not None else 1.0
    if args.fuzzy or f_kind == "fuzzy":
        text = f"loss[fuzzy] = {fuzzy_expression(structure.p)}"
        _emit(text, config)
        return 0
    equation = compile_equation(structure, f_kind, beta)
    lines = [
        f"core equation: {equation.render()}",
        f"loss[{f_kind}, beta={beta:g}] = {render_loss_text(equation, f_kind, beta)}",
    ]
    _emit("\n".join(lines), config)
    return 0


def cmd_eval(args, config: Config) -> int:
    structure, name, forced_f = _load_structure(args.structure, config)
    f_kind = args.f or forced_f or "sl-log"
    beta = args.beta if args.beta is not None else 1.0
    weights = WeightMap(_load_weights(args.weights))
    if args.dpop_gate:
        weights = dpop_gate(weights)
    if f_kind == "fuzzy":
        from .semantics import fuzzy_loss, fuzzy_value

        value = fuzzy_value(structure.p, weights)
        loss = fuzzy_loss(structure.p, weights)
        _emit(f"fuzzy value = {NUM % value}\nloss[fuzzy] = {NUM % loss}", config)
        return 0
    rho = loss_ratio(structure, weights)
    loss = loss_value(structure, weights, f_kind, beta)
    _emit(f"rho_sem = {NUM % rho}\nloss[{f_kind}, beta={beta:g}] = {NUM % loss}", config)
    return 0


def _load_weights(spec: str) -> dict:
    try:
        doc = json.loads(spec)
    except json.JSONDecodeError:
        if os.path.exists(spec):
            with open(spec, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            raise PrefLogicError(f"weights are neither JSON nor a readable file: {spec!r}")
    if not isinstance(doc, dict):
        raise PrefLogicError("weights must be a JSON object keyed by atom tokens")
    return doc


def cmd_entail(args, config: Config) -> int:
    s1, name1, _ = _load_structure(args.first, config)
    s2, name2, _ = _load_structure(args.second, config)
    fwd = pref_entails(s1, s2)
    bwd = pref_entails(s2, s1)

    def verdict(direct: bool, other: bool) -> str:
        if direct and other:
            return "equivalent"
        if direct:
            return "entails-strictly"
        return "incomparable"

    lines = [
        f"{name1} -> {name2}: {verdict(fwd, bwd)}",
        f"{name2} -> {name1}: {verdict(bwd, fwd)}",
    ]
    if fwd and bwd:
        lines.append(f"summary: {name1} and {name2} are equivalent")
    elif fwd:
        lines.append(f"summary: {name1} strictly entails {name2}")
    elif bwd:
        lines.append(f"summary: {name2} strictly entails {name1}")
    else:
        lines.append(f"summary: {name1} and {name2} are incomparable")
    _emit("\n".join(lines), config)
    return 0


def cmd_lattice(args, config: Config) -> int:
    lower, _, _ = _load_structure(args.lower, config)
    upper, _, _ = _load_structure(args.upper, config)
    spec = LatticeSpec(lower, upper, nontrivial_only=not args.include_trivial)
    structures = enumerate_between(spec)
    edges = hasse(structures)
    cat = _catalog(config)
    labels = {}
    for i, s in enumerate(structures):
        name = cat.name_of(s)
        if name:
            labels[i] = name
    if args.dot or config.fmt == "dot":
        _emit(export_dot(structures, edges, labels), config)
        return 0
    if config.fmt == "json":
        doc = {
            "structures": [structure_to_json(s, labels.get(i)) for i, s in enumerate(structures)],
            "edges": [[i, j] for i, j in edges],
        }
        _emit(json.dumps(doc, indent=2), config)
        return 0
    lines = [f"{len(structures)} structures, {len(edges)} covering edges"]
    for i, s in enumerate(structures):
        tag = labels.get(i, f"0x{s.check_bits:X}/0x{s.cross_bits:X}")
        lines.append(f"  [{i}] {tag}: {s}")
    for i, j in edges:
        lines.append(f"  {labels.get(i, i)} -> {labels.get(j, j)}")
    _emit("\n".join(lines), config)
    return 0


def cmd_catalog(args, config: Config) -> int:
    cat = _catalog(config)
    if args.action == "list":
        lines = list(cat.names())
        lines.extend(
            f"{alias} -> {target} [{f_kind}]" for alias, (target, f_kind) in cat.aliases.items()
        )
        _emit("\n".join(lines), config)
        return 0
    entry = cat.get(args.name)
    marks = to_marks(entry.structure)
    lines = [
        f"name: {entry.name}",
        f"provenance: {entry.provenance}",
        f"equation: {entry.equation_text}" + (" (derived)" if entry.equation_derived else ""),
        _structure_text(structure_to_json(entry.structure)),
        "rows (" + " ".join(a.token() for a in marks.atoms) + "):",
    ]
    n = len(marks.atoms)
    for i, mark in enumerate(marks.marks):
        bits = " ".join("T" if (i >> (n - 1 - j)) & 1 else "F" for j in range(n))
        lines.append(f"  {bits}  {mark}")
    _emit("\n".join(lines), config)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="preflogic",
        description="Compile, decompile and analyze preference-alignment losses.",
    )
    parser.add_argument("--catalog", help="path to a catalog JSON overriding the bundled one")
    parser.add_argument("--format", choices=("text", "json", "dot"), default="text")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompile", help="loss equation or catalog name -> structure")
    p.add_argument("--loss", required=True, help="equation text or catalog name")
    p.add_argument("--reference", action="store_true",
                   help="also fold in a frozen reference model")
    p.set_defaults(func=cmd_decompile)

    p = sub.add_parser("compile", help="structure -> loss equation")
    p.add_argument("--structure", required=True, help="catalog name, alias, or JSON file")
    p.add_argument("--f", choices=F_KINDS)
    p.add_argument("--beta", type=float)
    p.add_argument("--fuzzy", action="store_true", help="print the -log real-valued form")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a structure's loss under weights")
    p.add_argument("--structure", required=True)
    p.add_argument("--weights", required=True, help="JSON object keyed by atom tokens, or a file")
    p.add_argument("--f", choices=F_KINDS + ("fuzzy",))
    p.add_argument("--dpop-gate", action="store_true",
                   help="pin winner copy atoms to 1 when the tunable model beats the reference")
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("entail", help="compare two structures under preference entailment")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("lattice", help="enumerate structures between two bounds")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper", required=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    p.add_argument("--include-trivial", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a name")
    config = Config(
        catalog_path=args.catalog,
        fmt=args.format,
        out=args.out,
    )
    try:
        return args.func(args, config)
    except NonDisjointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrivialStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PrefLogicError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
