"""Propositional formulas over prediction atoms.

A formula is a truth table over an ordered atom list, shown as an
expression tree.  The table is a bitmask: bit i is set iff assignment i
satisfies the formula, where bit j of i (counting from the most
significant of n bits) gives the truth value of atom j.  Two formulas are
equal exactly when their atom orders and bitmasks agree; the tree is only
how the formula prints.  A tree is evaluated only when formula text is
parsed (``Formula(tree, atoms)``, ``parse_formula``); every formula the
package derives is built from bits it already holds.

Formula source text is an s-expression::

    formula   := atomtoken | "true" | "false" | "(" op formula+ ")"
    op        := not | and | or | implies | xor
    atomtoken := model ":" role [":" copy]

with arities: not 1, and/or >= 2, implies/xor exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .atoms import Atom, as_atom, canonical_order
from .errors import AtomLimitError, FormulaSyntaxError, UndeclaredAtomError

MAX_ATOMS = 16          # truth-table bitmasks beyond this are refused
MAX_MINIMIZE_ATOMS = 6  # exact two-level minimization cap

_OPS = {"not": (1, 1), "and": (2, None), "or": (2, None), "implies": (2, 2), "xor": (2, 2)}


@dataclass(frozen=True)
class Expr:
    """One node of a formula tree."""

    op: str  # 'atom', 'true', 'false', 'not', 'and', 'or', 'implies', 'xor'
    args: tuple["Expr", ...] = ()
    atom: Atom | None = None

    def atoms(self) -> set[Atom]:
        if self.op == "atom":
            return {self.atom}
        out: set[Atom] = set()
        for a in self.args:
            out |= a.atoms()
        return out


TRUE = Expr("true")
FALSE = Expr("false")


def var(a) -> Expr:
    return Expr("atom", atom=as_atom(a))


def not_(x: Expr) -> Expr:
    return Expr("not", (x,))


def and_(*xs: Expr) -> Expr:
    if len(xs) < 2:
        raise ValueError("and takes at least two operands")
    return Expr("and", tuple(xs))


def or_(*xs: Expr) -> Expr:
    if len(xs) < 2:
        raise ValueError("or takes at least two operands")
    return Expr("or", tuple(xs))


def implies_(a: Expr, b: Expr) -> Expr:
    return Expr("implies", (a, b))


def xor_(a: Expr, b: Expr) -> Expr:
    return Expr("xor", (a, b))


def render(node: Expr) -> str:
    if node.op == "atom":
        return node.atom.token()
    if node.op in ("true", "false"):
        return node.op
    return "(" + " ".join([node.op] + [render(a) for a in node.args]) + ")"


def sop_tree(cubes, atoms) -> Expr:
    """Disjunction of conjunctions: one per (care, value) cube over ``atoms``.

    An empty conjunction is true, an empty disjunction false, and a single
    operand stands alone.  Each of the 2n literals is one leaf, shared by
    every conjunction that holds it.
    """
    def join(op, xs, empty):
        return empty if not xs else xs[0] if len(xs) == 1 else Expr(op, tuple(xs))

    n = len(atoms)
    leaves = [(not_(var(a)), var(a)) for a in atoms]
    return join("or", [join("and", [leaves[j][value >> (n - 1 - j) & 1]
                                    for j in range(n) if care >> (n - 1 - j) & 1], TRUE)
                       for care, value in cubes], FALSE)


@lru_cache(maxsize=MAX_ATOMS + 1)
def var_masks(n: int) -> tuple[int, ...]:
    """Row bitmask of each of n atoms: the assignments where atom j is true.

    Atom j owns bit b = 2^(n-1-j) of the row index, so its mask repeats a
    block of b false rows then b true rows: that 2b-bit block times the
    number whose 2b-bit digits are all 1.  Computed once per n.
    """
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << 2 * b) - 1) * (((1 << b) - 1) << b)
                 for b in (1 << (n - 1 - j) for j in range(n)))


# A cube, a product of literals, is one (care, value) integer pair over an
# ordered atom list, with atom j on bit (n-1-j) as in a row index: care holds
# the atoms the cube mentions and value their required truth.  Row m
# satisfies the cube when m & care == value.


def cube_rows(care: int, value: int, n: int) -> int:
    """Row bitmask of a cube over n atoms.

    Starting from row ``value``, each atom the cube leaves free doubles the
    set: the rows with its bit set are the rows so far shifted by that bit.
    """
    rows = 1 << value
    free = ~care & ((1 << n) - 1)
    while free:
        b = free & -free
        rows |= rows << b
        free ^= b
    return rows


def cube_literals(care: int, value: int, atoms) -> list[tuple[Atom, bool]]:
    """The cube's (atom, positive) literals in atom order."""
    n = len(atoms)
    return [(a, bool(value >> (n - 1 - j) & 1))
            for j, a in enumerate(atoms) if care >> (n - 1 - j) & 1]


def _tree_bits(node: Expr, mask_of: dict[Atom, int], full: int) -> int:
    if node.op == "atom":
        return mask_of[node.atom]
    if node.op == "true":
        return full
    if node.op == "false":
        return 0
    kids = [_tree_bits(a, mask_of, full) for a in node.args]
    if node.op == "not":
        return full & ~kids[0]
    if node.op == "and":
        out = full
        for k in kids:
            out &= k
        return out
    if node.op == "or":
        out = 0
        for k in kids:
            out |= k
        return out
    if node.op == "implies":
        return (full & ~kids[0]) | kids[1]
    if node.op == "xor":
        return kids[0] ^ kids[1]
    raise ValueError(f"unknown node kind {node.op!r}")


def _require_table_width(n: int) -> None:
    if n > MAX_ATOMS:
        raise AtomLimitError(f"{n} atoms exceeds the {MAX_ATOMS}-atom truth-table cap")


@dataclass(frozen=True)
class Formula:
    """A truth table over an ordered atom list, shown as an expression tree.

    ``==`` and ``hash`` read only (atoms, bits).  ``Formula(tree, atoms)``
    evaluates the tree; that is the parse path.  Inside the package, a
    formula whose bits are already known is built by ``_shown``, which
    leaves its tree unevaluated.
    """

    tree: Expr = field(compare=False)
    atoms: tuple[Atom, ...]
    bits: int = field(init=False)

    def __post_init__(self):
        atoms = canonical_order(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        n = len(atoms)
        _require_table_width(n)
        missing = self.tree.atoms() - set(atoms)
        if missing:
            toks = ", ".join(sorted(a.token() for a in missing))
            raise UndeclaredAtomError(f"formula mentions undeclared atoms: {toks}")
        mask_of = dict(zip(atoms, var_masks(n)))
        object.__setattr__(self, "bits", _tree_bits(self.tree, mask_of, (1 << (1 << n)) - 1))

    @classmethod
    def _shown(cls, tree: Expr, table: "TruthTable") -> "Formula":
        """The formula whose truth table is ``table``, printed as ``tree``."""
        f = cls.__new__(cls)
        vars(f).update(tree=tree, atoms=table.atoms, bits=table.bits)
        return f

    @property
    def n(self) -> int:
        return len(self.atoms)

    def __str__(self):
        return render(self.tree)


def row_permutation(given: tuple[Atom, ...], target: tuple[Atom, ...]) -> list[int]:
    """Map each row index under the given atom order to its index under target."""
    n = len(given)
    shift_of = {a: n - 1 - j for j, a in enumerate(target)}
    perm = []
    for i in range(1 << n):
        out = 0
        for k, a in enumerate(given):
            if (i >> (n - 1 - k)) & 1:
                out |= 1 << shift_of[a]
        perm.append(out)
    return perm


def widen(bits: int, atoms: tuple[Atom, ...], wider: tuple[Atom, ...]) -> int:
    """The same row set over ``wider``, a canonical superset of ``atoms``.

    A row of the wider table is in the set when its restriction to
    ``atoms`` is.  Each added atom at position j doubles every block of the
    rows its bit splits: the 2^j blocks of the atoms after it are copied
    into both of its halves.
    """
    _require_table_width(len(wider))
    have = set(atoms)
    width = len(atoms)
    for j, a in enumerate(wider):
        if a in have:
            continue
        low = 1 << (width - j)  # rows per block below the added atom's bit
        seg = (1 << low) - 1
        out = 0
        for k in range(1 << j):
            block = (bits >> (k * low)) & seg
            out |= (block | (block << low)) << (2 * k * low)
        bits, width = out, width + 1
    return bits


@dataclass(frozen=True)
class TruthTable:
    """Satisfying-assignment bit set over an ordered atom list.

    Rows given under a non-canonical atom order are re-indexed into the
    canonical order.
    """

    atoms: tuple[Atom, ...]
    bits: int

    def __post_init__(self):
        given = tuple(as_atom(a) for a in self.atoms)
        if len(set(given)) != len(given):
            raise ValueError("duplicate atoms in truth-table order")
        atoms = canonical_order(given)
        n = len(atoms)
        _require_table_width(n)
        if not 0 <= self.bits < (1 << (1 << n)):
            raise ValueError("bit set does not fit the 2^n assignment rows")
        if atoms != given:
            perm = row_permutation(given, atoms)
            bits = 0
            for i in _iter_bits(self.bits):
                bits |= 1 << perm[i]
            object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return len(self.atoms)

    def rows(self):
        """Yield (assignment index, satisfied) over all 2^n rows."""
        for i in range(1 << self.n):
            yield i, bool((self.bits >> i) & 1)


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            out.append((c, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        out.append((text[i:j], i))
        i = j
    return out


def parse_formula(text: str, atoms) -> Formula:
    """Parse formula source over a declared atom set.

    Every atom token in the text must appear in ``atoms``; the returned
    formula ranges over the full declared set in canonical order, so unused
    declared atoms still widen the truth table.
    """
    declared = canonical_order(atoms)
    allowed = set(declared)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def node() -> Expr:
        tok, at = take()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        if tok == ")":
            raise FormulaSyntaxError("unexpected ')'", at)
        if tok == "(":
            op, op_at = take()
            if op not in _OPS:
                raise FormulaSyntaxError(f"unknown operator {op!r}", op_at)
            args = []
            while True:
                nxt, nxt_at = peek()
                if nxt is None:
                    raise FormulaSyntaxError("missing ')'", nxt_at)
                if nxt == ")":
                    take()
                    break
                args.append(node())
            lo, hi = _OPS[op]
            if len(args) < lo or (hi is not None and len(args) > hi):
                want = f"exactly {lo}" if hi == lo else f"at least {lo}"
                raise FormulaSyntaxError(f"{op} takes {want} operands, got {len(args)}", op_at)
            return Expr(op, tuple(args))
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if ":" not in tok:
            raise FormulaSyntaxError(f"expected atom token or constant, got {tok!r}", at)
        atom = as_atom(tok)
        if atom not in allowed:
            raise UndeclaredAtomError(f"atom {tok!r} is not declared")
        return Expr("atom", atom=atom)

    tree = node()
    extra, extra_at = peek()
    if extra is not None:
        raise FormulaSyntaxError(f"trailing input {extra!r}", extra_at)
    return Formula(tree, declared)


# ---------------------------------------------------------------------------
# truth-table conversions


def models_of(f: Formula) -> TruthTable:
    return TruthTable(f.atoms, f.bits)


_CARE = str.maketrans("01-", "110")  # a '01-' pattern's care bits


@lru_cache(maxsize=256)
def formula_of(t: TruthTable) -> Formula:
    """A formula whose model set equals t, printed as a minimal sum of products.

    Above the minimization cap the raw minterm expansion is returned instead.
    Memoized on (atoms, bits): printed views ask for the same few tables often.
    """
    n = t.n
    if t.bits == 0:
        return Formula._shown(FALSE, t)
    if t.bits == (1 << (1 << n)) - 1:
        return Formula._shown(TRUE, t)
    if n <= MAX_MINIMIZE_ATOMS:
        cubes = [(int(p.translate(_CARE), 2), int(p.replace("-", "0"), 2))
                 for p in _min_cover_patterns(t.bits, n)]
    else:
        cubes = [((1 << n) - 1, i) for i in _iter_bits(t.bits)]
    return Formula._shown(sop_tree(cubes, t.atoms), t)


def harmonize(f: Formula, atoms) -> Formula:
    """f over a widened atom set (union, canonical order), its tree unchanged."""
    merged = canonical_order(tuple(f.atoms) + tuple(atoms))
    if merged == f.atoms:
        return f
    return Formula._shown(f.tree, TruthTable(merged, widen(f.bits, f.atoms, merged)))


def harmonize_pair(f1: Formula, f2: Formula) -> tuple[Formula, Formula]:
    merged = canonical_order(tuple(f1.atoms) + tuple(f2.atoms))
    return harmonize(f1, merged), harmonize(f2, merged)


def equivalent(f1: Formula, f2: Formula) -> bool:
    a, b = harmonize_pair(f1, f2)
    return a.bits == b.bits


def entails_formula(f1: Formula, f2: Formula) -> bool:
    a, b = harmonize_pair(f1, f2)
    return a.bits & ~b.bits == 0


# ---------------------------------------------------------------------------
# exact two-level minimization
#
# Quine-McCluskey with essential primes plus Petrick expansion, over
# integer cubes.  Results are printed as pattern strings over the canonical
# atom order, one char per atom: '1' positive literal, '0' negated literal,
# '-' absent.  Ties between minimum covers break on fewer implicants, then
# fewer total literals, then the lexicographically smallest sorted pattern
# tuple.


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _pattern(care: int, value: int, n: int) -> str:
    return "".join("-" if not care >> k & 1 else "1" if value >> k & 1 else "0"
                   for k in range(n - 1, -1, -1))


def _prime_implicants(minterms: list[int], n: int) -> set[tuple[int, int]]:
    """Prime cubes of the minterm set.

    Each round merges a cube with its partner at value | b, for each bit b
    it holds at 0, into the cube that drops b; a cube merging with none is
    prime.
    """
    current = {((1 << n) - 1, m) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while current:
        merged = set()
        used = set()
        for care, value in current:
            zeros = care & ~value
            while zeros:
                b = zeros & -zeros
                zeros ^= b
                if (care, value | b) in current:
                    merged.add((care & ~b, value))
                    used.add((care, value))
                    used.add((care, value | b))
        primes |= current - used
        current = merged
    return primes


def _absorb(sets) -> list[frozenset[int]]:
    out: list[frozenset[int]] = []
    for p in sorted(sets, key=len):
        if not any(q <= p for q in out):
            out.append(p)
    return out


def _petrick(requirements: list[frozenset[int]]) -> list[frozenset[int]]:
    # product of sums over prime indices, expanded with absorption; products
    # already meeting a requirement pass through unchanged
    products: list[frozenset[int]] = [frozenset()]
    for req in sorted(set(requirements), key=len):
        grown = set()
        for p in products:
            if p & req:
                grown.add(p)
            else:
                for i in req:
                    grown.add(p | {i})
        products = _absorb(grown)
    return products


def _min_cover_patterns(bits: int, n: int) -> list[str]:
    minterms = list(_iter_bits(bits))
    cubes = sorted(_prime_implicants(minterms, n), key=lambda cube: _pattern(*cube, n))
    primes = [_pattern(*cube, n) for cube in cubes]
    covering = {m: frozenset(i for i, (care, value) in enumerate(cubes) if m & care == value)
                for m in minterms}

    # iterate essential primes and row dominance until the core is cyclic;
    # a row whose covering set contains another row's is implied by it and
    # can be dropped without changing the candidate covers
    chosen: set[int] = set()
    remaining = set(minterms)
    while True:
        forced = {next(iter(covering[m])) for m in remaining if len(covering[m]) == 1}
        forced -= chosen
        if forced:
            chosen |= forced
            remaining = {m for m in remaining if not (covering[m] & chosen)}
            continue
        rows = sorted(remaining, key=lambda m: (len(covering[m]), m))
        dropped = set()
        for a_pos, a in enumerate(rows):
            if a in dropped:
                continue
            for b in rows[a_pos + 1:]:
                if b not in dropped and covering[a] <= covering[b]:
                    dropped.add(b)
        if not dropped:
            break
        remaining -= dropped

    if remaining:
        candidates = _petrick([covering[m] for m in sorted(remaining)])
        covers = [chosen | extra for extra in candidates]
    else:
        covers = [set(chosen)]

    def literals(cover):
        return sum(cubes[i][0].bit_count() for i in cover)

    best = min(covers, key=lambda c: (len(c), literals(c), tuple(sorted(primes[i] for i in c))))
    return sorted(primes[i] for i in best)


def minimize(f: Formula) -> Formula:
    """Equivalent formula in minimal sum-of-products form (deterministic)."""
    if f.n > MAX_MINIMIZE_ATOMS:
        raise AtomLimitError(
            f"exact minimization handles at most {MAX_MINIMIZE_ATOMS} atoms, got {f.n}"
        )
    return formula_of(models_of(f))
