"""Shared oracles and generators.

The oracles here are deliberately independent of the package internals:
formulas are evaluated by recursive boolean interpretation over explicit
assignments, counts by direct sum-of-products enumeration, and minimality
by exhaustive search over cube covers.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

from preflogic import (
    Expr,
    Formula,
    PreferenceStructure,
    TruthTable,
    formula_of,
    implication_form,
    minimize,
)
from preflogic.atoms import Atom, canonical_order
from preflogic.errors import AtomLimitError, NonDisjointError, PrefLogicError
from preflogic.logic import (MAX_ATOMS, MAX_MINIMIZE_ATOMS, _petrick, and_, harmonize_pair,
                             implies_, or_)
from preflogic.poly import Literal, Term


def eval_expr(node: Expr, assignment: dict[Atom, bool]) -> bool:
    if node.op == "atom":
        return assignment[node.atom]
    if node.op == "true":
        return True
    if node.op == "false":
        return False
    vals = [eval_expr(a, assignment) for a in node.args]
    if node.op == "not":
        return not vals[0]
    if node.op == "and":
        return all(vals)
    if node.op == "or":
        return any(vals)
    if node.op == "implies":
        return (not vals[0]) or vals[1]
    if node.op == "xor":
        return vals[0] != vals[1]
    raise AssertionError(node.op)


def assignment_for(index: int, atoms) -> dict[Atom, bool]:
    n = len(atoms)
    return {a: bool((index >> (n - 1 - j)) & 1) for j, a in enumerate(atoms)}


def tree_bits_by_rows(tree: Expr, atoms) -> int:
    """Truth table of a tree over ``atoms``, evaluated one row at a time.

    The reference for every formula the package builds from bits it already
    holds: it reads no variable mask and no bit the package computed.
    """
    bits = 0
    for i in range(1 << len(atoms)):
        if eval_expr(tree, assignment_for(i, atoms)):
            bits |= 1 << i
    return bits


def bits_by_enumeration(f: Formula) -> int:
    return tree_bits_by_rows(f.tree, f.atoms)


def wmc_by_enumeration(f: Formula, weights: dict[Atom, float]) -> float:
    total = 0.0
    for i in range(1 << len(f.atoms)):
        assignment = assignment_for(i, f.atoms)
        if not eval_expr(f.tree, assignment):
            continue
        prod = 1.0
        for a, truth in assignment.items():
            prod *= weights[a] if truth else 1.0 - weights[a]
        total += prod
    return total


def all_cubes(n: int):
    return ["".join(p) for p in itertools.product("01-", repeat=n)]


def cube_rows(cube: str) -> set[int]:
    n = len(cube)
    rows = set()
    for i in range(1 << n):
        if all(c == "-" or c == str((i >> (n - 1 - j)) & 1) for j, c in enumerate(cube)):
            rows.add(i)
    return rows


def minimal_cover(bits: int, n: int) -> tuple[int, int]:
    """(implicant count, fewest total literals at that count) by brute force.

    usable up to n = 3; the target row set must be non-empty and proper.
    """
    want = {i for i in range(1 << n) if (bits >> i) & 1}
    cubes = [c for c in all_cubes(n) if cube_rows(c) <= want]
    for size in range(1, len(want) + 1):
        literal_counts = []
        for combo in itertools.combinations(cubes, size):
            covered = set()
            for c in combo:
                covered |= cube_rows(c)
            if covered == want:
                literal_counts.append(sum(n - c.count("-") for c in combo))
        if literal_counts:
            return size, min(literal_counts)
    raise AssertionError("no cover found")


def random_bits(rng: random.Random, n: int, nonzero: bool = False) -> int:
    full = (1 << (1 << n)) - 1
    bits = rng.randint(0, full)
    if nonzero and bits == 0:
        bits = 1 << rng.randrange(1 << n)
    return bits


def structure_from_bits(atoms, check: int, cross: int):
    return implication_form(
        formula_of(TruthTable(atoms, check)), formula_of(TruthTable(atoms, cross))
    )


def eager_implication_form(pw: Formula, pl: Formula):
    """The implication form built eagerly: the reference for the lazy views.

    Sets P := pl -> pw, PC := pw or pl, PA := pw and pl, each minimized
    (left untouched beyond the minimization atom cap), and keeps them as
    the structure's given formulas.
    """
    pw, pl = harmonize_pair(pw, pl)
    p = Formula(implies_(pl.tree, pw.tree), pw.atoms)
    pc = Formula(or_(pw.tree, pl.tree), pw.atoms)
    pa = Formula(and_(pw.tree, pl.tree), pw.atoms)
    if len(pw.atoms) <= MAX_MINIMIZE_ATOMS:
        p, pc, pa = minimize(p), minimize(pc), minimize(pa)
    return PreferenceStructure(p, pc, pa)


def random_weights(rng: random.Random, atoms, lo: float = 0.01, hi: float = 0.99) -> dict:
    return {a.token() if isinstance(a, Atom) else str(a): rng.uniform(lo, hi) for a in atoms}


def structure_rows(s, atoms) -> tuple[frozenset, frozenset]:
    """(check rows, cross rows) of a structure over ``atoms``.

    Rows are tuples of truth values in ``atoms`` order, found by evaluating
    P, PC and PA on every assignment: the check set is (P or PA) and PC,
    the cross set (not P or PA) and PC.
    """
    check, cross = set(), set()
    for values in itertools.product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, values))
        p, pc, pa = (eval_expr(f.tree, assignment) for f in (s.p, s.pc, s.pa))
        if pc and (p or pa):
            check.add(values)
        if pc and (not p or pa):
            cross.add(values)
    return frozenset(check), frozenset(cross)


def shared_atoms(structures) -> list[Atom]:
    return sorted({a for s in structures for a in s.atoms}, key=Atom.token)


def covering_edges_by_bruteforce(structures) -> set[tuple[int, int]]:
    """(i, j) where structures[i] strictly entails structures[j] and no
    structure lies strictly between, by comparing explicit row sets."""
    atoms = shared_atoms(structures)
    rows = [structure_rows(s, atoms) for s in structures]
    m = len(rows)

    def strictly_below(a, b):
        return a != b and a[0] <= b[0] and b[1] <= a[1]

    above = [{j for j in range(m) if strictly_below(rows[i], rows[j])} for i in range(m)]
    below = [{i for i in range(m) if j in above[i]} for j in range(m)]
    return {(i, j) for i in range(m) for j in above[i] if not above[i] & below[j]}


def first_equivalent_pair(structures) -> tuple[int, int] | None:
    """Lexicographically smallest (i, j), i < j, with equal row sets."""
    atoms = shared_atoms(structures)
    rows = [structure_rows(s, atoms) for s in structures]
    for i, j in itertools.combinations(range(len(rows)), 2):
        if rows[i] == rows[j]:
            return i, j
    return None


# ---------------------------------------------------------------------------
# The cube paths that integer (care, value) cubes replaced, kept as the
# references of the differential tests: Quine-McCluskey over '01-' pattern
# strings, the Shannon cover over frozensets of minterms, and the pairwise
# disjointness scan.


def _minterm_pattern(i: int, n: int) -> str:
    return "".join("1" if (i >> (n - 1 - j)) & 1 else "0" for j in range(n))


def _try_merge(a: str, b: str) -> str | None:
    diff = -1
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if x == "-" or y == "-" or diff >= 0:
                return None
            diff = k
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1:]


def _string_prime_implicants(minterms: list[int], n: int) -> list[str]:
    current = {_minterm_pattern(i, n) for i in minterms}
    primes: set[str] = set()
    while current:
        merged = set()
        used = set()
        by_ones: dict[int, list[str]] = {}
        for p in current:
            by_ones.setdefault(p.count("1"), []).append(p)
        for ones, group in sorted(by_ones.items()):
            for a in group:
                for b in by_ones.get(ones + 1, ()):
                    m = _try_merge(a, b)
                    if m is not None:
                        merged.add(m)
                        used.add(a)
                        used.add(b)
        primes |= current - used
        current = merged
    return sorted(primes)


def _covers(pattern: str, minterm: int, n: int) -> bool:
    for j, c in enumerate(pattern):
        if c == "-":
            continue
        bit = (minterm >> (n - 1 - j)) & 1
        if c != str(bit):
            return False
    return True


def string_min_cover_patterns(bits: int, n: int) -> list[str]:
    """The minimizer over '01-' pattern strings, as it was before integer cubes."""
    minterms = [i for i in range(1 << n) if (bits >> i) & 1]
    primes = _string_prime_implicants(minterms, n)
    covering = {m: frozenset(i for i, p in enumerate(primes) if _covers(p, m, n)) for m in minterms}
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
        covers = [chosen | extra for extra in _petrick([covering[m] for m in sorted(remaining)])]
    else:
        covers = [set(chosen)]

    def literals(cover):
        return sum(n - primes[i].count("-") for i in cover)

    best = min(covers, key=lambda c: (len(c), literals(c), tuple(sorted(primes[i] for i in c))))
    return sorted(primes[i] for i in best)


def frozenset_disjoint_cover(bits: int, n: int) -> list[dict[int, int]]:
    """The Shannon cover over frozensets of minterms, as {atom index: value} cubes."""

    def recurse(minterms: frozenset[int], fixed: dict[int, int], free: list[int]):
        if not minterms:
            return []
        if len(minterms) == 1 << len(free):
            return [dict(fixed)]
        for pick, j in enumerate(free):
            bit = 1 << (n - 1 - j)
            ones = frozenset(m for m in minterms if m & bit)
            zeros = minterms - ones
            if {m & ~bit for m in ones} == zeros:
                return recurse(zeros, fixed, free[:pick] + free[pick + 1:])
        j = free[0]
        bit = 1 << (n - 1 - j)
        ones = frozenset(m for m in minterms if m & bit)
        out = recurse(ones, {**fixed, j: 1}, free[1:])
        out.extend(recurse(minterms - ones, {**fixed, j: 0}, free[1:]))
        return out

    rows = frozenset(i for i in range(1 << n) if (bits >> i) & 1)
    return recurse(rows, {}, list(range(n))[::-1])


def pairwise_check_disjoint(p):
    """First pair of terms with no conflicting literal, scanning i then j."""
    for i in range(len(p.terms)):
        for j in range(i + 1, len(p.terms)):
            a, b = p.terms[i], p.terms[j]
            polarity = {l.atom: l.positive for l in b.literals}
            if not any(polarity.get(l.atom, l.positive) != l.positive for l in a.literals):
                return ((i, a), (j, b))
    return None


# ---------------------------------------------------------------------------
# reference equation sides: every term a Term of Literal objects, as sides
# were stored before they became (care, value) cubes


def reference_multilinear(raw) -> tuple[Term, ...]:
    """The Term/Literal expansion of raw (atom, positive, exponent) factor lists."""
    terms = []
    for raw_term in raw:
        powers: dict[tuple[Atom, bool], int] = {}
        for atom, positive, exponent in raw_term:
            if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 1:
                raise PrefLogicError(f"exponent on {atom.token()} must be a positive integer")
            powers[(atom, positive)] = powers.get((atom, positive), 0) + exponent
        width = sum(powers.values())
        if width > MAX_ATOMS:
            raise AtomLimitError(f"a term of {width} literals exceeds MAX_ATOMS = {MAX_ATOMS}")
        by_atom: dict[Atom, bool] = {}
        for atom, positive in powers:
            if atom in by_atom and by_atom[atom] != positive:
                raise PrefLogicError(f"term mixes p and (1 - p) on atom {atom.token()}; "
                                     "not a product of distinct literals")
            by_atom[atom] = positive
        literals = []
        for (atom, positive), k in powers.items():
            literals.append(Literal(atom, positive))
            for i in range(1, k):
                literals.append(Literal(Atom(atom.model, atom.role, atom.copy + i), positive))
        terms.append(Term(tuple(literals)))
    return tuple(terms)


def reference_render(terms) -> str:
    return " + ".join(t.render() for t in terms) if terms else "0"


def reference_atoms(terms) -> tuple[Atom, ...]:
    return canonical_order(l.atom for t in terms for l in t.literals)


def reference_rows(terms, side: str = "") -> int:
    """The side's row set over its atoms, listing each term's rows.

    Refuses as the package does: past MAX_ATOMS atoms, then on the first
    pair of terms with no conflicting literal.
    """
    atoms = reference_atoms(terms)
    if len(atoms) > MAX_ATOMS:
        raise AtomLimitError(f"a polynomial over {len(atoms)} atoms exceeds "
                             f"MAX_ATOMS = {MAX_ATOMS}")
    pair = pairwise_check_disjoint(SimpleNamespace(terms=terms))
    if pair is not None:
        (i, a), (j, b) = pair
        raise NonDisjointError(f"{side} polynomial is not disjoint: ".lstrip()
                               + f"terms {i + 1} and {j + 1} ({a.render()} and {b.render()}) "
                               "share a solution", first=a, second=b)
    n = len(atoms)
    rows = 0
    for t in terms:  # each term's rows: its literals fixed, every other atom free
        fixed = {l.atom: l.positive for l in t.literals}
        free = [n - 1 - j for j, a in enumerate(atoms) if a not in fixed]
        base = sum(1 << (n - 1 - j) for j, a in enumerate(atoms) if fixed.get(a))
        for values in itertools.product((0, 1), repeat=len(free)):
            rows |= 1 << (base + sum(v << shift for v, shift in zip(values, free)))
    return rows
