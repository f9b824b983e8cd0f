"""Disjoint multilinear polynomials and loss equations.

The loss-equation class mirrors how preference losses reduce to a single
log ratio: ``equation := poly "/" poly`` where each side is a sum of
products of probability literals, every pair of terms conflicting on some
atom (one side takes ``p``, the other ``1 - p``).  Integer exponents are
squashed into fresh copy atoms so every stored polynomial is multilinear.

Equation source grammar (whitespace insignificant)::

    equation := poly "/" poly
    poly     := term ("+" term)*
    term     := factor ("*" factor)*
    factor   := "1" | atomref ["^" int] | "(1 - " atomref ")" | "(" poly ")"
    atomref  := "p(" model "," role ["," "copy" int] ")"
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

from .atoms import Atom, as_atom, canonical_order
from .errors import (
    AtomLimitError,
    EquationSyntaxError,
    MissingWeightError,
    NonDisjointError,
    PrefLogicError,
)
from .logic import MAX_ATOMS, cube_rows

WEIGHT_EPSILON = 1e-12  # weights are clamped into [eps, 1 - eps] before use

F_KINDS = ("sl-log", "sl-squared", "sl-margin")


@dataclass(frozen=True)
class Literal:
    """One probability factor: p(atom) when positive, 1 - p(atom) otherwise."""

    atom: Atom
    positive: bool = True

    def render(self) -> str:
        inner = f"p({self.atom.model},{self.atom.role}"
        if self.atom.copy != 1:
            inner += f",copy {self.atom.copy}"
        inner += ")"
        return inner if self.positive else f"(1 - {inner})"


@dataclass(frozen=True)
class Term:
    """Product of literals, at most one per atom."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        lits = tuple(sorted(self.literals, key=lambda l: l.atom.sort_key()))
        seen = set()
        for l in lits:
            if l.atom in seen:
                raise PrefLogicError(f"term uses atom {l.atom.token()} more than once")
            seen.add(l.atom)
        object.__setattr__(self, "literals", lits)

    def render(self) -> str:
        if not self.literals:
            return "1"
        return "*".join(l.render() for l in self.literals)


@dataclass(frozen=True)
class Polynomial:
    terms: tuple[Term, ...]

    def atoms(self) -> tuple[Atom, ...]:
        return canonical_order(l.atom for t in self.terms for l in t.literals)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)


@dataclass(frozen=True)
class LossEquation:
    """Core loss ratio log(top/bottom) with a convex wrapper choice."""

    top: Polynomial
    bottom: Polynomial
    f_kind: str = "sl-log"
    beta: float = 1.0

    def __post_init__(self):
        if self.f_kind not in F_KINDS:
            raise ValueError(f"f_kind must be one of {F_KINDS}, got {self.f_kind!r}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def atoms(self) -> tuple[Atom, ...]:
        return canonical_order(self.top.atoms() + self.bottom.atoms())

    def render(self) -> str:
        top = self.top.render()
        bottom = self.bottom.render()
        if len(self.top.terms) > 1:
            top = f"({top})"
        if len(self.bottom.terms) > 1 or (
            self.bottom.terms and len(self.bottom.terms[0].literals) > 1
        ):
            bottom = f"({bottom})"
        return f"{top} / {bottom}"


class WeightMap:
    """Atom -> probability map with copy-atom fallback.

    Copy atoms missing from the map inherit the weight of their copy-1
    base atom.  Values are accepted in [0, 1] and clamped into
    [eps, 1 - eps] at resolution time so downstream logarithms stay finite.
    """

    def __init__(self, weights):
        table: dict[Atom, float] = {}
        for key, value in dict(weights).items():
            atom = as_atom(key)
            try:
                v = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"weight for {atom.token()} is not a number: {value!r}") from None
            if not (0.0 <= v <= 1.0) or math.isnan(v):
                raise ValueError(f"weight for {atom.token()} must lie in [0, 1], got {value!r}")
            table[atom] = v
        self._table = table

    def raw(self) -> dict[Atom, float]:
        return dict(self._table)

    def resolve(self, atom: Atom) -> float:
        v = self._table.get(atom)
        if v is None and atom.copy > 1:
            v = self._table.get(atom.base())
        if v is None:
            raise MissingWeightError(f"no weight for atom {atom.token()}")
        return min(max(v, WEIGHT_EPSILON), 1.0 - WEIGHT_EPSILON)

    def covers(self, atoms) -> None:
        missing = [a.token() for a in atoms
                   if a not in self._table and (a.copy == 1 or a.base() not in self._table)]
        if missing:
            raise MissingWeightError("missing weights for: " + ", ".join(sorted(missing)))

    def with_overrides(self, overrides) -> "WeightMap":
        merged = self.raw()
        for key, value in dict(overrides).items():
            merged[as_atom(key)] = float(value)
        return WeightMap(merged)

    def __contains__(self, atom):
        return as_atom(atom) in self._table


# raw polynomials: terms as (atom, positive, exponent) factor lists, prior
# to exponent expansion

RawTerm = list[tuple[Atom, bool, int]]
RawPoly = list[RawTerm]


def make_multilinear(raw: RawPoly) -> Polynomial:
    """Expand integer exponents into fresh copy atoms.

    A factor p^k on an atom with copy index c becomes the product of the
    literals at copies c, c+1, ..., c+k-1, all sharing the atom's base; a
    term that takes both p and 1 - p on the same atom is rejected, since no
    product of distinct literals represents it, and so is a term whose
    exponents sum past MAX_ATOMS, before any copy literal is built.
    """
    terms = []
    for raw_term in raw:
        powers: dict[tuple[Atom, bool], int] = {}
        for atom, positive, exponent in raw_term:
            if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 1:
                raise PrefLogicError(f"exponent on {atom.token()} must be a positive integer")
            key = (atom, positive)
            powers[key] = powers.get(key, 0) + exponent
        width = sum(powers.values())
        if width > MAX_ATOMS:
            raise AtomLimitError(f"a term of {width} literals exceeds MAX_ATOMS = {MAX_ATOMS}")
        by_atom: dict[Atom, bool] = {}
        for (atom, positive), _ in powers.items():
            if atom in by_atom and by_atom[atom] != positive:
                raise PrefLogicError(
                    f"term mixes p and (1 - p) on atom {atom.token()}; "
                    "not a product of distinct literals"
                )
            by_atom[atom] = positive
        literals = []
        for (atom, positive), k in powers.items():
            for i in range(k):
                literals.append(Literal(Atom(atom.model, atom.role, atom.copy + i), positive))
        terms.append(Term(tuple(literals)))
    return Polynomial(tuple(terms))


def check_disjoint(p: Polynomial):
    """None when every term pair conflicts on some atom, else the offending pair.

    The returned violation is ((i, term_i), (j, term_j)) for the first pair
    of terms sharing a satisfying assignment: smallest i, then smallest j.
    Each term's row mask is ORed into a running mask of the rows seen so
    far; the pair is looked for only once some mask meets it.  A polynomial
    over more than MAX_ATOMS atoms is refused before any mask is built.
    """
    # each term as a (care, value) cube, atoms numbered as first met: the
    # order of the atoms does not change which rows meet
    bit: dict[Atom, int] = {}
    cubes = []
    for t in p.terms:
        care = value = 0
        for l in t.literals:
            b = bit.setdefault(l.atom, 1 << len(bit))
            care |= b
            if l.positive:
                value |= b
        cubes.append((care, value))
    n = len(bit)
    if n > MAX_ATOMS:
        raise AtomLimitError(f"a polynomial over {n} atoms exceeds MAX_ATOMS = {MAX_ATOMS}")
    seen = 0
    for care, value in cubes:
        rows = cube_rows(care, value, n)
        if seen & rows:
            break
        seen |= rows
    else:
        return None
    # some pair meets: i is the smallest term meeting a later one, j its first such partner
    later = 0
    for k in reversed(range(len(cubes))):
        rows = cube_rows(*cubes[k], n)
        if rows & later:
            i, first = k, rows
        later |= rows
    j = next(j for j in range(i + 1, len(cubes)) if cube_rows(*cubes[j], n) & first)
    return (i, p.terms[i]), (j, p.terms[j])


def _require_disjoint(p: Polynomial, side: str) -> None:
    violation = check_disjoint(p)
    if violation is not None:
        (i, a), (j, b) = violation
        raise NonDisjointError(
            f"{side} polynomial is not disjoint: terms {i + 1} and {j + 1} "
            f"({a.render()} and {b.render()}) share a solution",
            first=a,
            second=b,
        )


def eval_poly(p: Polynomial, w: WeightMap) -> float:
    total = 0.0
    for term in p.terms:
        prod = 1.0
        for lit in term.literals:
            v = w.resolve(lit.atom)
            prod *= v if lit.positive else 1.0 - v
        total += prod
    return total


# ---------------------------------------------------------------------------
# equation parsing

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[()+*/,^-])")


def _lex(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise EquationSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _EquationParser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.end = len(text)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, self.end)

    def take(self, expected=None):
        tok, at = self.peek()
        if expected is not None and tok != expected:
            raise EquationSyntaxError(f"expected {expected!r}, got {tok!r}", at)
        self.pos += 1
        return tok, at

    def parse_equation(self) -> tuple[RawPoly, RawPoly]:
        top = self.parse_poly()
        self.take("/")
        bottom = self.parse_poly()
        tok, at = self.peek()
        if tok is not None:
            raise EquationSyntaxError(f"trailing input {tok!r}", at)
        return top, bottom

    def parse_poly(self) -> RawPoly:
        out = list(self.parse_term())
        while self.peek()[0] == "+":
            self.take()
            out.extend(self.parse_term())
        return out

    def parse_term(self) -> RawPoly:
        prod = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            nxt = self.parse_factor()
            prod = [a + b for a in prod for b in nxt]
        return prod

    def parse_factor(self) -> RawPoly:
        tok, at = self.peek()
        if tok == "p":
            atom = self.parse_atomref()
            exponent = 1
            if self.peek()[0] == "^":
                self.take()
                num, num_at = self.take()
                if num is None or not num.isdigit() or int(num) < 1:
                    raise EquationSyntaxError("exponent must be a positive integer", num_at)
                exponent = int(num)
            return [[(atom, True, exponent)]]
        if tok == "1":  # the empty product, as Term.render writes it
            self.take()
            return [[]]
        if tok == "(":
            self.take()
            inner_tok, _ = self.peek()
            if inner_tok == "1":
                self.take()
                self.take("-")
                atom = self.parse_atomref()
                self.take(")")
                return [[(atom, False, 1)]]
            poly = self.parse_poly()
            self.take(")")
            return poly
        raise EquationSyntaxError(f"expected a factor, got {tok!r}", at)

    def parse_atomref(self) -> Atom:
        self.take("p")
        self.take("(")
        model, model_at = self.take()
        if model is None or not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", model):
            raise EquationSyntaxError(f"expected a model name, got {model!r}", model_at)
        self.take(",")
        role, role_at = self.take()
        if role not in ("yw", "yl"):
            raise EquationSyntaxError(f"role must be yw or yl, got {role!r}", role_at)
        copy = 1
        if self.peek()[0] == ",":
            self.take()
            kw, kw_at = self.take()
            if kw != "copy":
                raise EquationSyntaxError(f"expected 'copy', got {kw!r}", kw_at)
            num, num_at = self.take()
            if num is None or not num.isdigit() or int(num) < 1:
                raise EquationSyntaxError("copy index must be a positive integer", num_at)
            copy = int(num)
        self.take(")")
        return Atom(model, role, copy)


def parse_polynomial(text: str) -> Polynomial:
    parser = _EquationParser(text)
    raw = parser.parse_poly()
    tok, at = parser.peek()
    if tok is not None:
        raise EquationSyntaxError(f"trailing input {tok!r}", at)
    return make_multilinear(raw)


def parse_equation(text: str, f_kind: str = "sl-log", beta: float = 1.0) -> LossEquation:
    """Parse, multilinearize and disjointness-check an equation source string."""
    raw_top, raw_bottom = _EquationParser(text).parse_equation()
    top = make_multilinear(raw_top)
    bottom = make_multilinear(raw_bottom)
    _require_disjoint(top, "numerator")
    _require_disjoint(bottom, "denominator")
    return LossEquation(top, bottom, f_kind, beta)


# ---------------------------------------------------------------------------
# transforms and weight helpers

REF_WINNER = Atom("ref", "yw")
REF_LOSER = Atom("ref", "yl")


def _times_literal(p: Polynomial, atom: Atom) -> Polynomial:
    raw: RawPoly = []
    for term in p.terms:
        raw_term: RawTerm = [(l.atom, l.positive, 1) for l in term.literals]
        raw_term.append((atom, True, 1))
        raw.append(raw_term)
    return make_multilinear(raw)


def reference_transform(eq: LossEquation) -> LossEquation:
    """Fold a frozen reference model into the ratio.

    Multiplies the numerator by p(ref,yl) and the denominator by p(ref,yw),
    which subtracts the reference win/lose log ratio from the loss ratio.
    """
    if any(a.model == "ref" for a in eq.atoms()):
        warnings.warn("equation already mentions ref atoms; adding another reference ratio",
                      stacklevel=2)
    top = _times_literal(eq.top, REF_LOSER)
    bottom = _times_literal(eq.bottom, REF_WINNER)
    _require_disjoint(top, "numerator")
    _require_disjoint(bottom, "denominator")
    return LossEquation(top, bottom, eq.f_kind, eq.beta)


def simpo_margin_weights(gamma: float) -> dict[str, float]:
    """Manual-reference weights realizing a margin of gamma.

    Fixes p(mref,yw) = 0.5 and sets p(mref,yl) = 0.5 / exp(gamma), so the
    manual reference log ratio equals gamma and both weights stay inside
    (0, 1) for every gamma >= 0.
    """
    if gamma < 0:
        raise ValueError(f"margin must be nonnegative, got {gamma}")
    return {"mref:yw": 0.5, "mref:yl": 0.5 / math.exp(gamma)}


def dpop_gate(w: WeightMap) -> WeightMap:
    """Apply the copy-gating rule for the squared-winner penalty equation.

    When the tunable model already matches or beats the reference on the
    winner (w(ref:yw) <= w(theta:yw)), the penalty is switched off by
    pinning both winner copy atoms to weight 1.
    """
    ref_w = w.resolve(Atom("ref", "yw"))
    theta_w = w.resolve(Atom("theta", "yw"))
    if ref_w <= theta_w:
        return w.with_overrides({"theta:yw:2": 1.0, "ref:yw:2": 1.0})
    return w
