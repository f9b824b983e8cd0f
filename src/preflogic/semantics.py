"""Weighted model counting and loss evaluation.

Model counting is brute force over the (at most 2^16) assignment rows;
every instance this toolkit targets has six atoms or fewer, so enumeration
is both exact and fast.
"""

from __future__ import annotations

import math

from .errors import TrivialStructureError, ZeroCountError
from .logic import Formula, cube_literals, minimize, var_masks
from .poly import F_KINDS, Literal, LossEquation, Polynomial, Term, WeightMap
from .prefstruct import PreferenceStructure

CLAMP = 1e-12


def _row_products(atoms, w: WeightMap) -> list[float]:
    # probability of each of the 2^n assignment rows; row index grows
    # most-significant-bit-first, matching the truth-table convention
    probs = [1.0]
    for a in atoms:
        v = w.resolve(a)
        lo = 1.0 - v
        nxt = []
        for p in probs:
            nxt.append(p * lo)
            nxt.append(p * v)
        probs = nxt
    return probs


def _mass(bits: int, probs: list[float]) -> float:
    total = 0.0
    m = bits
    while m:
        low = m & -m
        total += probs[low.bit_length() - 1]
        m ^= low
    return total


def _wmc_bits(atoms, bits: int, w: WeightMap) -> float:
    return _mass(bits, _row_products(atoms, w))


def wmc(f: Formula, w: WeightMap) -> float:
    """Probability mass of f's satisfying assignments under independent weights."""
    w.covers(f.atoms)
    return _wmc_bits(f.atoms, f.bits, w)


def loss_ratio(s: PreferenceStructure, w: WeightMap) -> float:
    """log of the winner-form count over the loser-form count."""
    w.covers(s.atoms)
    probs = _row_products(s.atoms, w)
    top = _mass(s.check_bits, probs)
    bottom = _mass(s.cross_bits, probs)
    if top <= 0.0 and bottom <= 0.0:
        raise ZeroCountError("both formula forms have zero count; PC is unsatisfiable")
    if top <= 0.0:
        raise ZeroCountError("winner formula form has zero count")
    if bottom <= 0.0:
        raise ZeroCountError("loser formula form has zero count")
    return math.log(top) - math.log(bottom)


def _softplus(x: float) -> float:
    # log(1 + exp(x)) without overflow
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def apply_f(rho: float, f_kind: str = "sl-log", beta: float = 1.0) -> float:
    """Wrap the log ratio ``rho`` into a loss.

    ``sl-log`` is ``-log sigmoid(beta * rho)``, strictly decreasing in rho;
    ``sl-margin`` is the hinge ``max(0, beta - rho)``, non-increasing in rho.
    Both therefore give a loss that is monotone along entailment.
    ``sl-squared`` is IPO's ``(rho - 1/(2*beta))**2``: it has its minimum at
    IPO's target ``1/(2*beta)`` and is not monotone in rho.
    """
    if f_kind not in F_KINDS:
        raise ValueError(f"f_kind must be one of {F_KINDS}, got {f_kind!r}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if f_kind == "sl-log":
        return _softplus(-beta * rho)  # -log sigmoid(beta * rho)
    if f_kind == "sl-squared":
        return (rho - 1.0 / (2.0 * beta)) ** 2
    return max(0.0, beta - rho)


def loss_value(s: PreferenceStructure, w: WeightMap, f_kind: str = "sl-log",
               beta: float = 1.0) -> float:
    return apply_f(loss_ratio(s, w), f_kind, beta)


# ---------------------------------------------------------------------------
# structure -> equation


def _disjoint_cover(bits: int, n: int) -> list[tuple[int, int]]:
    """Pairwise-disjoint (care, value) cubes covering the given row set.

    Shannon expansion, splitting on the last atom first and skipping atoms
    the set does not depend on; branches are disjoint by construction.
    """
    masks = var_masks(n)

    def recurse(rows: int, care: int, value: int, free: list[int]):
        if not rows:
            return []
        if rows.bit_count() == 1 << len(free):
            return [(care, value)]
        for pick, j in enumerate(free):
            ones = rows & masks[j]
            if ones >> (1 << (n - 1 - j)) == rows ^ ones:  # the same rows either way
                return recurse(rows ^ ones, care, value, free[:pick] + free[pick + 1:])
        j = free[0]
        bit = 1 << (n - 1 - j)
        ones = rows & masks[j]
        out = recurse(ones, care | bit, value | bit, free[1:])
        out.extend(recurse(rows ^ ones, care | bit, value, free[1:]))
        return out

    return recurse(bits, 0, 0, list(range(n))[::-1])


def _cover_polynomial(bits: int, atoms) -> Polynomial:
    cubes = _disjoint_cover(bits, len(atoms))
    return Polynomial(tuple(Term(tuple(Literal(*lit) for lit in cube_literals(*c, atoms)))
                            for c in cubes))


def compile_equation(s: PreferenceStructure, f_kind: str = "sl-log",
                     beta: float = 1.0) -> LossEquation:
    """Structure -> equation whose ratio equals exp(loss_ratio) everywhere.

    The numerator is a disjoint sum-of-products over the check set, the
    denominator over the cross set.
    """
    if s.check_bits == 0 or s.cross_bits == 0:
        side = "winner" if s.check_bits == 0 else "loser"
        raise TrivialStructureError(f"cannot compile a structure with an empty {side} set")
    top = _cover_polynomial(s.check_bits, s.atoms)
    bottom = _cover_polynomial(s.cross_bits, s.atoms)
    return LossEquation(top, bottom, f_kind, beta)


# ---------------------------------------------------------------------------
# real-valued (fuzzy) reading: product conjunction, probabilistic sum,
# residuated implication min(1, b/a) with min(1, b/0) = 1


def _fuzzy(node, w: WeightMap) -> float:
    if node.op == "atom":
        return w.resolve(node.atom)
    if node.op == "true":
        return 1.0
    if node.op == "false":
        return 0.0
    if node.op == "not":
        return 1.0 - _fuzzy(node.args[0], w)
    if node.op == "and":
        out = 1.0
        for a in node.args:
            out *= _fuzzy(a, w)
        return out
    if node.op == "or":
        out = 0.0
        for a in node.args:
            v = _fuzzy(a, w)
            out = out + v - out * v
        return out
    if node.op == "implies":
        a = _fuzzy(node.args[0], w)
        b = _fuzzy(node.args[1], w)
        if a <= 0.0:
            return 1.0
        return min(1.0, b / a)
    if node.op == "xor":
        # evaluated through its two-implicant expansion
        a = _fuzzy(node.args[0], w)
        b = _fuzzy(node.args[1], w)
        x, y = a * (1.0 - b), (1.0 - a) * b
        return x + y - x * y
    raise ValueError(f"unknown node kind {node.op!r}")


def fuzzy_value(f: Formula, w: WeightMap, simplify_first: bool = False) -> float:
    """Real-valued reading of a formula tree.

    Syntactic: logically equivalent trees may evaluate differently, so the
    simplify_first flag is explicit.
    """
    w.covers(f.atoms)
    tree = minimize(f).tree if simplify_first else f.tree
    return _fuzzy(tree, w)


def fuzzy_loss(f: Formula, w: WeightMap, simplify_first: bool = False) -> float:
    return -math.log(max(fuzzy_value(f, w, simplify_first), CLAMP))


def fuzzy_expression(f: Formula) -> str:
    """Printable -log form of the real-valued reading of a formula."""
    tree = f.tree
    if tree.op == "implies":
        num = _fuzzy_text(tree.args[1])
        den = _fuzzy_text(tree.args[0])
        if "*" in den or "+" in den:
            den = f"({den})"
        if "+" in num:
            num = f"({num})"
        return f"max(0, -log({num} / {den}))"
    return f"-log({_fuzzy_text(tree)})"


def _fuzzy_text(node) -> str:
    if node.op == "atom":
        return Literal(node.atom).render()
    if node.op == "true":
        return "1"
    if node.op == "false":
        return "0"
    if node.op == "not":
        return f"(1 - {_fuzzy_text(node.args[0])})"
    if node.op == "and":
        return "*".join(_fuzzy_text(a) for a in node.args)
    if node.op == "or":
        out = _fuzzy_text(node.args[0])
        for a in node.args[1:]:
            nxt = _fuzzy_text(a)
            out = f"({out} + {nxt} - {out}*{nxt})"
        return out
    if node.op == "implies":
        return f"min(1, {_fuzzy_text(node.args[1])} / {_fuzzy_text(node.args[0])})"
    if node.op == "xor":
        a, b = (_fuzzy_text(x) for x in node.args)
        return f"({a}*(1 - {b}) + (1 - {a})*{b} - {a}*(1 - {b})*(1 - {a})*{b})"
    raise ValueError(f"unknown node kind {node.op!r}")


def render_loss_text(eq: LossEquation, f_kind: str, beta: float) -> str:
    """Printable full loss for the chosen convex wrapper."""
    rho = f"log({eq.render()})"
    if f_kind == "sl-log":
        return f"-log sigmoid({beta:g} * {rho})"
    if f_kind == "sl-squared":
        return f"({rho} - 1/(2*{beta:g}))^2"
    return f"max(0, {beta:g} - {rho})"


__all__ = [
    "wmc",
    "loss_ratio",
    "loss_value",
    "apply_f",
    "compile_equation",
    "fuzzy_value",
    "fuzzy_loss",
    "fuzzy_expression",
    "render_loss_text",
]
