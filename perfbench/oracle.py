"""Reference semantics for checking preflogic's outputs.

Nothing here imports preflogic.  Atom order, row numbering, formulas,
equation text, the fuzzy reading, entailment and covering edges are
re-implemented from the package's documented definitions, so a defect in
the package cannot also hide in the check.

Sets of assignments are Python ints over a ``Space``: atom tokens in the
documented canonical order, row i giving atom j the value of bit
(n - 1 - j) of i.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

ROLES = ("yw", "yl")
EPS = 1e-12  # documented clamp of every weight into [EPS, 1 - EPS]
_RANK = {"theta": 0, "ref": 2, "mref": 4}


class Mismatch(Exception):
    """An output of the program disagrees with the oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# atoms and assignment spaces


def split(tok: str) -> tuple[str, str, int]:
    parts = tok.split(":")
    return parts[0], parts[1], int(parts[2]) if len(parts) == 3 else 1


def token(model: str, role: str, copy: int = 1) -> str:
    return f"{model}:{role}" if copy == 1 else f"{model}:{role}:{copy}"


def base(tok: str) -> str:
    model, role, _ = split(tok)
    return token(model, role)


def _atom_key(tok: str):
    model, role, copy = split(tok)
    rank = _RANK.get(model, 6)
    if rank < 6 and copy > 1:
        rank += 1
    return rank, model, ROLES.index(role), copy


def canon(tokens) -> tuple[str, ...]:
    return tuple(sorted(set(tokens), key=_atom_key))


class Space:
    """All 2^n assignments of a canonical atom list."""

    def __init__(self, atoms: tuple[str, ...]):
        self.atoms = atoms
        self.n = n = len(atoms)
        self.full = (1 << (1 << n)) - 1
        self.mask = {}
        for j, a in enumerate(atoms):
            m = 0
            for i in range(1 << n):
                if (i >> (n - 1 - j)) & 1:
                    m |= 1 << i
            self.mask[a] = m

    def truth(self, i: int) -> dict[str, bool]:
        return {a: bool((i >> (self.n - 1 - j)) & 1) for j, a in enumerate(self.atoms)}


@lru_cache(maxsize=None)
def space(atoms) -> Space:
    return Space(canon(atoms))


@lru_cache(maxsize=4096)
def _projection(small: tuple, big: tuple) -> tuple[int, ...]:
    # row of `small` that each row of `big` restricts to
    sp, bp = space(small), space(big)
    out = []
    for i in range(1 << bp.n):
        truth = bp.truth(i)
        r = 0
        for j, a in enumerate(sp.atoms):
            if truth[a]:
                r |= 1 << (sp.n - 1 - j)
        out.append(r)
    return tuple(out)


def widen(bits: int, small: tuple, big: tuple) -> int:
    """Cylindrical extension of a row set from `small` atoms to `big` atoms."""
    if small == big:
        return bits
    out = 0
    for i, r in enumerate(_projection(small, big)):
        if (bits >> r) & 1:
            out |= 1 << i
    return out


def marks_bits(atoms_given, marks) -> tuple[tuple[str, ...], int, int]:
    """(canonical atoms, check set, cross set) of a mark column in any atom order."""
    sp = space(tuple(atoms_given))
    n = len(atoms_given)
    check = cross = 0
    for r, mark in enumerate(marks):
        i = 0
        for k, a in enumerate(atoms_given):
            if (r >> (n - 1 - k)) & 1:
                i |= 1 << (n - 1 - sp.atoms.index(a))
        if mark in ("check", "both"):
            check |= 1 << i
        if mark in ("cross", "both"):
            cross |= 1 << i
    return sp.atoms, check, cross


# ---------------------------------------------------------------------------
# formulas (s-expressions)

_SEXPR_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")


def parse_sexpr(text: str):
    """Tree of ("atom", tok) | ("true",) | ("false",) | (op, child, ...)."""
    toks = _SEXPR_TOKEN.findall(text)
    pos = 0

    def node():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            op = toks[pos]
            pos += 1
            kids = []
            while toks[pos] != ")":
                kids.append(node())
            pos += 1
            return (op, *kids)
        if tok in ("true", "false"):
            return (tok,)
        return ("atom", tok)

    tree = node()
    expect(pos == len(toks), f"trailing formula text in {text!r}")
    return tree


def tree_bits(tree, sp: Space) -> int:
    op = tree[0]
    if op == "atom":
        return sp.mask[tree[1]]
    if op == "true":
        return sp.full
    if op == "false":
        return 0
    kids = [tree_bits(k, sp) for k in tree[1:]]
    if op == "not":
        return sp.full & ~kids[0]
    if op == "and":
        out = sp.full
        for k in kids:
            out &= k
        return out
    if op == "or":
        out = 0
        for k in kids:
            out |= k
        return out
    if op == "implies":
        return (sp.full & ~kids[0]) | kids[1]
    if op == "xor":
        return kids[0] ^ kids[1]
    raise Mismatch(f"unknown formula operator {op!r}")


def literal_count(text: str) -> int:
    """Atom occurrences in printed formula text."""
    return sum(1 for t in _SEXPR_TOKEN.findall(text) if ":" in t)


def structure_sets(atoms, p: str, pc: str, pa: str) -> tuple[int, int]:
    """(check, cross): (P or PA) and PC, (not P or PA) and PC."""
    sp = space(tuple(atoms))
    pb, pcb, pab = (tree_bits(parse_sexpr(t), sp) for t in (p, pc, pa))
    return (pb | pab) & pcb, ((sp.full & ~pb) | pab) & pcb


# ---------------------------------------------------------------------------
# equation text: sums of products of p(atom) and (1 - p(atom))

_EQ_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[()+*/,^-])")


def _eq_tokens(text: str) -> list[str]:
    toks, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _EQ_TOKEN.match(text, pos)
        if m is None:
            raise Mismatch(f"bad equation text at {text[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    return toks


def parse_equation_text(text: str):
    """(top terms, bottom terms); a term is a tuple of (atom token, positive)."""
    toks = _eq_tokens(text)
    pos = 0

    def take(want=None):
        nonlocal pos
        tok = toks[pos] if pos < len(toks) else None
        if want is not None and tok != want:
            raise Mismatch(f"expected {want!r} in {text!r}")
        pos += 1
        return tok

    def peek():
        return toks[pos] if pos < len(toks) else None

    def atomref():
        take("p")
        take("(")
        model = take()
        take(",")
        role = take()
        copy = 1
        if peek() == ",":
            take()
            take("copy")
            copy = int(take())
        take(")")
        return model, role, copy

    def factor():
        if peek() == "1":  # the empty product: a term with no literals
            take()
            return [()]
        if peek() == "p":
            model, role, copy = atomref()
            k = 1
            if peek() == "^":
                take()
                k = int(take())
            return [tuple((token(model, role, copy + i), True) for i in range(k))]
        take("(")
        if peek() == "1":
            take()
            take("-")
            model, role, copy = atomref()
            take(")")
            return [((token(model, role, copy), False),)]
        out = poly()
        take(")")
        return out

    def term():
        out = factor()
        while peek() == "*":
            take()
            nxt = factor()
            out = [a + b for a in out for b in nxt]
        return out

    def poly():
        out = term()
        while peek() == "+":
            take()
            out.extend(term())
        return out

    top = poly()
    take("/")
    bottom = poly()
    expect(pos == len(toks), f"trailing equation text in {text!r}")
    return top, bottom


def equation_atoms(top, bottom) -> tuple[str, ...]:
    return canon(a for t in top + bottom for a, _ in t)


def sop_bits(terms, sp: Space) -> int:
    """Row set of a sum of products, which must be disjoint and multilinear."""
    union, total = 0, 0
    for term in terms:
        if len({a for a, _ in term}) != len(term):
            raise Mismatch(f"term repeats an atom: {term}")
        cube = sp.full
        for a, positive in term:
            cube &= sp.mask[a] if positive else sp.full & ~sp.mask[a]
        union |= cube
        total += bin(cube).count("1")
    expect(total == bin(union).count("1"), "equation terms are not disjoint")
    return union


def resolve(w: dict, tok: str) -> float:
    v = w.get(tok)
    if v is None:
        v = w[base(tok)]
    return min(max(v, EPS), 1.0 - EPS)


def sop_value(terms, w: dict) -> float:
    total = 0.0
    for term in terms:
        prod = 1.0
        for a, positive in term:
            v = resolve(w, a)
            prod *= v if positive else 1.0 - v
        total += prod
    return total


def wrap(rho: float, f_kind: str, beta: float = 1.0) -> float:
    if f_kind == "sl-log":
        x = -beta * rho
        return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))
    if f_kind == "sl-squared":
        return (rho - 1.0 / (2.0 * beta)) ** 2
    if f_kind == "sl-margin":
        return max(0.0, beta - rho)
    raise Mismatch(f"unknown wrapper {f_kind!r}")


def close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# the fuzzy reading: product and, probabilistic-sum or, 1 - x not,
# residuated implication min(1, b / a) with min(1, b / 0) = 1


def fuzzy_tree(tree, w: dict) -> float:
    op = tree[0]
    if op == "atom":
        return resolve(w, tree[1])
    if op == "true":
        return 1.0
    if op == "false":
        return 0.0
    kids = [fuzzy_tree(k, w) for k in tree[1:]]
    if op == "not":
        return 1.0 - kids[0]
    if op == "and":
        return math.prod(kids)
    if op == "or":
        out = 0.0
        for v in kids:
            out = out + v - out * v
        return out
    if op == "implies":
        a, b = kids
        return 1.0 if a <= 0.0 else min(1.0, b / a)
    if op == "xor":
        a, b = kids
        x, y = a * (1.0 - b), (1.0 - a) * b
        return x + y - x * y
    raise Mismatch(f"unknown formula operator {op!r}")


_ARITH_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?|[()+*/,^-])")


def eval_arith(text: str, w: dict) -> float:
    """Value of printed arithmetic over p(...), + - * /, log, min and max."""
    toks, pos = [], 0
    while pos < len(text.rstrip()):
        m = _ARITH_TOKEN.match(text, pos)
        if m is None:
            raise Mismatch(f"bad expression text at {text[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if want is not None and tok != want:
            raise Mismatch(f"expected {want!r} in {text!r}")
        pos += 1
        return tok

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok == "-":
            return -atom()
        if tok == "p":
            take("(")
            model = take()
            take(",")
            role = take()
            copy = 1
            if peek() == ",":
                take()
                take("copy")
                copy = int(take())
            take(")")
            return resolve(w, token(model, role, copy))
        if tok in ("log", "min", "max"):
            take("(")
            args = [expr()]
            while peek() == ",":
                take()
                args.append(expr())
            take(")")
            if tok == "log":
                return math.log(args[0])
            return min(args) if tok == "min" else max(args)
        return float(tok)

    def prod():
        v = atom()
        while peek() in ("*", "/"):
            v = v * atom() if take() == "*" else v / atom()
        return v

    def expr():
        v = prod()
        while peek() in ("+", "-"):
            v = v + prod() if take() == "+" else v - prod()
        return v

    v = expr()
    expect(pos == len(toks), f"trailing expression text in {text!r}")
    return v


# ---------------------------------------------------------------------------
# entailment, intervals and covering edges


def entails(a: tuple, b: tuple) -> bool:
    """a, b = (atoms, check, cross); check inclusion one way, cross the other."""
    atoms = canon(a[0] + b[0])
    ac, ax = widen(a[1], a[0], atoms), widen(a[2], a[0], atoms)
    bc, bx = widen(b[1], b[0], atoms), widen(b[2], b[0], atoms)
    return ac & ~bc == 0 and bx & ~ax == 0


def interval(lower: tuple, upper: tuple) -> list[tuple[int, int]]:
    """Nontrivial (check, cross) pairs between two bounds over the same atoms."""
    _, lc, lx = lower
    _, uc, ux = upper
    out = []
    for check in _supersets(lc, uc):
        for cross in _supersets(ux, lx):
            if check and cross and check != cross:
                out.append((check, cross))
    return out


def _supersets(low: int, high: int):
    room = high & ~low
    sub = room
    while True:
        yield low | sub
        if sub == 0:
            return
        sub = (sub - 1) & room


def covering_edges(nodes: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """(i, j) with node i strictly below node j and nothing strictly between."""
    m = len(nodes)
    up = [0] * m
    for i, (ci, xi) in enumerate(nodes):
        for j, (cj, xj) in enumerate(nodes):
            if ci & ~cj == 0 and xj & ~xi == 0:
                up[i] |= 1 << j
    down = [0] * m
    for i in range(m):
        for j in range(m):
            if (up[i] >> j) & 1:
                down[j] |= 1 << i
    return {(i, j) for i in range(m) for j in range(m)
            if i != j and (up[i] >> j) & 1 and up[i] & down[j] == (1 << i) | (1 << j)}


# ---------------------------------------------------------------------------
# the loss catalog as published: hand-written equations and structures, or
# the truth-table column that defines an entry


CATALOG = [
    ("CE", ("theta:yw", "theta:yl"), "p(theta,yw) / (1 - p(theta,yw))",
     ("theta:yw", "true", "false")),
    ("CEUnl", ("theta:yw", "theta:yl"),
     "p(theta,yw)*(1 - p(theta,yl)) / ((1 - p(theta,yw)) + p(theta,yw)*p(theta,yl))",
     ("(and theta:yw (not theta:yl))", "true", "false")),
    ("CPO", ("theta:yw", "theta:yl"), "p(theta,yw) / p(theta,yl)",
     ("(implies theta:yl theta:yw)", "(or theta:yl theta:yw)", "(and theta:yl theta:yw)")),
    ("ORPO", ("theta:yw", "theta:yl"),
     "p(theta,yw)*(1 - p(theta,yl)) / (p(theta,yl)*(1 - p(theta,yw)))",
     ("(implies theta:yl theta:yw)", "(xor theta:yl theta:yw)", "false")),
    ("SimPO", ("theta:yw", "theta:yl", "mref:yw", "mref:yl"),
     "p(theta,yw)*p(mref,yl) / (p(mref,yw)*p(theta,yl))",
     ("(implies (and theta:yl mref:yw) (and theta:yw mref:yl))",
      "(or (and theta:yl mref:yw) (and theta:yw mref:yl))",
      "(and theta:yw theta:yl mref:yw mref:yl)")),
    ("DPO", ("theta:yw", "theta:yl", "ref:yw", "ref:yl"),
     "p(theta,yw)*p(ref,yl) / (p(ref,yw)*p(theta,yl))",
     ("(implies (and theta:yl ref:yw) (and theta:yw ref:yl))",
      "(or (and theta:yl ref:yw) (and theta:yw ref:yl))",
      "(and theta:yw theta:yl ref:yw ref:yl)")),
    ("DPOP", ("theta:yw", "theta:yl", "theta:yw:2", "ref:yw", "ref:yl", "ref:yw:2"),
     "p(ref,yl)*p(theta,yw)^2 / (p(ref,yw)^2*p(theta,yl))",
     ("(implies (and theta:yl ref:yw ref:yw:2) (and theta:yw theta:yw:2 ref:yl))",
      "(or (and theta:yl ref:yw ref:yw:2) (and theta:yw theta:yw:2 ref:yl))",
      "(and theta:yw theta:yl theta:yw:2 ref:yw ref:yl ref:yw:2)")),
    ("unCPO", ("theta:yw", "theta:yl"),
     "(p(theta,yl)*p(theta,yw) + (1 - p(theta,yl))) / (p(theta,yl)*(1 - p(theta,yw)))",
     ("(implies theta:yl theta:yw)", "true", "false")),
    ("cCPO", ("theta:yw", "theta:yl"), "p(theta,yw) / ((1 - p(theta,yw))*p(theta,yl))",
     ("(implies theta:yl theta:yw)", "(or theta:yl theta:yw)", "false")),
    ("qfUNL", ("theta:yw", "theta:yl"), "(1 - p(theta,yl)) / (1 - p(theta,yw))",
     ("(implies (not theta:yw) (not theta:yl))", "(or (not theta:yl) (not theta:yw))",
      "(and (not theta:yw) (not theta:yl))")),
    ("cfUNL", ("theta:yw", "theta:yl"), "(1 - p(theta,yl)) / ((1 - p(theta,yw))*p(theta,yl))",
     ("(implies theta:yl theta:yw)", "(or (not theta:yl) (not theta:yw))", "false")),
    ("sCE", ("theta:yw", "theta:yl"), None, ("cross", "cross", "check", "both")),
    ("bCE", ("theta:yw", "theta:yl"), None, ("both", "cross", "check", "check")),
    ("cUnl", ("theta:yw", "theta:yl"), None, ("blank", "cross", "check", "cross")),
    ("fUnl", ("theta:yw", "theta:yl"), None, ("check", "cross", "check", "cross")),
    ("l3", ("theta:yw", "theta:yl"), None, ("cross", "cross", "check", "blank")),
    ("l5", ("theta:yw", "theta:yl"), None, ("both", "cross", "check", "both")),
    ("l14", ("theta:yw", "theta:yl"), None, ("check", "cross", "check", "both")),
    ("l20", ("theta:yw", "theta:yl"), None, ("both", "cross", "check", "cross")),
]
ALIASES = {"IPO": ("DPO", "sl-squared"), "SliC": ("CPO", "sl-margin"), "RRHF": ("CPO", "fuzzy")}


class Entry:
    """One catalog loss as the oracle knows it."""

    def __init__(self, name, atoms, equation, spec):
        self.name = name
        self.equation = equation
        if equation is None:
            self.p_tree = None
            self.atoms, self.check, self.cross = marks_bits(atoms, spec)
            self.sop = (_minterm_sop(self.check, self.atoms), _minterm_sop(self.cross, self.atoms))
        else:
            self.p_tree = parse_sexpr(spec[0])
            self.atoms = canon(atoms)
            self.check, self.cross = structure_sets(self.atoms, *spec)
            self.sop = parse_equation_text(equation)
            sp = space(self.atoms)
            expect((sop_bits(self.sop[0], sp), sop_bits(self.sop[1], sp))
                   == (self.check, self.cross), f"oracle catalog entry {name} is inconsistent")

    @property
    def sets(self) -> tuple:
        return self.atoms, self.check, self.cross

    def equation_text(self) -> str:
        """The hand-written equation, or a minterm equation built from the column."""
        if self.equation is not None:
            return self.equation
        return " / ".join("(" + " + ".join(
            "*".join(f"p({split(a)[0]},{split(a)[1]})" if pos else
                     f"(1 - p({split(a)[0]},{split(a)[1]}))" for a, pos in term)
            for term in side) + ")" for side in self.sop)

    def rho(self, w: dict) -> float:
        return math.log(sop_value(self.sop[0], w)) - math.log(sop_value(self.sop[1], w))


def _minterm_sop(bits: int, atoms) -> list:
    n = len(atoms)
    return [tuple((a, bool((i >> (n - 1 - j)) & 1)) for j, a in enumerate(atoms))
            for i in range(1 << n) if (bits >> i) & 1]


@lru_cache(maxsize=1)
def catalog() -> dict[str, Entry]:
    return {name: Entry(name, atoms, eq, spec) for name, atoms, eq, spec in CATALOG}


def name_of(sets: tuple) -> str | None:
    """First catalog entry with the same check and cross sets."""
    for entry in catalog().values():
        if entails(entry.sets, sets) and entails(sets, entry.sets):
            return entry.name
    return None
