"""Enumerate structures between entailment bounds and lay out their order.

The partial order is preference entailment: check-set inclusion one way,
cross-set inclusion the other.  Anything between a lower and an upper
bound is obtained by growing the lower bound's check set inside the upper
bound's and growing the upper bound's cross set inside the lower bound's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import canonical_order
from .errors import AtomLimitError, BoundViolationError, PrefLogicError
from .prefstruct import PreferenceStructure, is_nontrivial, pref_entails

MAX_LATTICE_ATOMS = 4
MAX_INTERVAL = 1 << 12  # structures per interval or Hasse input, inside the atom cap


@dataclass(frozen=True)
class LatticeSpec:
    lower: PreferenceStructure
    upper: PreferenceStructure
    nontrivial_only: bool = True


def _require_within_limit(count: int, what: str) -> None:
    if count > MAX_INTERVAL:
        raise PrefLogicError(
            f"{what} {count} structures, more than MAX_INTERVAL = {MAX_INTERVAL}; refusing"
        )


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def enumerate_between(spec: LatticeSpec) -> list[PreferenceStructure]:
    """All structures s with lower entails s entails upper, deduplicated.

    Structures are identified by their (check set, cross set) pair over the
    bounds' shared atom order and returned sorted by that pair.
    """
    atoms = canonical_order(tuple(spec.lower.atoms) + tuple(spec.upper.atoms))
    if len(atoms) > MAX_LATTICE_ATOMS:
        raise AtomLimitError(
            f"exhaustive enumeration handles at most {MAX_LATTICE_ATOMS} atoms, got {len(atoms)}"
        )
    lower = spec.lower.harmonized(atoms)
    upper = spec.upper.harmonized(atoms)
    if not pref_entails(lower, upper):
        raise BoundViolationError("lower bound does not entail upper bound")

    check_room = upper.check_bits & ~lower.check_bits
    cross_room = lower.cross_bits & ~upper.cross_bits
    count = (1 << bin(check_room).count("1")) * (1 << bin(cross_room).count("1"))
    _require_within_limit(count, "interval holds")

    pairs = sorted((lower.check_bits | extra_check, upper.cross_bits | extra_cross)
                   for extra_check in _submasks(check_room)
                   for extra_cross in _submasks(cross_room))
    out = []
    for check, cross in pairs:
        s = PreferenceStructure.from_bits(atoms, check, cross)
        if spec.nontrivial_only and not is_nontrivial(s):
            continue
        assert pref_entails(lower, s) and pref_entails(s, upper)
        out.append(s)
    return out


def hasse(structures) -> list[tuple[int, int]]:
    """Covering relation of strict entailment over deduplicated structures.

    Returns (i, j) index pairs, sorted, meaning structures[i] strictly
    entails structures[j] with nothing in between.  Entailment is inclusion
    of the bit vector (check, not cross) over the shared atoms, so each
    structure is widened once into one integer; O(m^2) subset tests fill
    up[i] (every j above i) and down[j] (every i below j) as index
    bitmasks, and (i, j) is a covering edge when j is in up[i] and
    up[i] & down[j] is empty.
    """
    items = list(structures)
    _require_within_limit(len(items), "hasse got")
    atoms = canonical_order(a for s in items for a in s.atoms)
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    widened = [s.harmonized(atoms) for s in items]
    vectors = [(s.check_bits << rows) | (full & ~s.cross_bits) for s in widened]
    first: dict[int, int] = {}
    for k, v in enumerate(vectors):
        first.setdefault(v, k)
    repeats = [(first[v], k) for k, v in enumerate(vectors) if first[v] != k]
    if repeats:
        i, j = min(repeats)
        raise PrefLogicError(f"structures {i} and {j} are equivalent; deduplicate first")

    m = len(vectors)
    up = [0] * m
    down = [0] * m
    for i, vi in enumerate(vectors):
        bit_i = 1 << i
        above = 0
        for j, vj in enumerate(vectors):
            if vi | vj == vj and i != j:
                above |= 1 << j
                down[j] |= bit_i
        up[i] = above
    edges = []
    for i, above in enumerate(up):
        rest = above
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not above & down[j]:
                edges.append((i, j))
    return edges


def export_dot(structures, edges, labels=None) -> str:
    """Render structures and covering edges as a DOT digraph.

    Nodes sharing a core (the rows of cross -> check) are grouped into
    clusters, each labelled with its first member's P.  Labels come
    from the optional index -> name mapping, falling back to the hex of the
    (check, cross) bit pair.
    """
    items = list(structures)
    labels = labels or {}
    atoms = canonical_order(a for s in items for a in s.atoms)
    aligned = [s.harmonized(atoms) for s in items]

    lines = ["digraph preference_lattice {", "  rankdir=LR;", "  node [shape=box];"]
    regions: dict[int, list[int]] = {}
    for i, s in enumerate(aligned):
        regions.setdefault(s.core_bits, []).append(i)
    for cluster, core_bits in enumerate(sorted(regions)):
        members = regions[core_bits]
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f'    label="{aligned[members[0]].p}";')
        for i in members:
            name = labels.get(i)
            if name is None:
                name = f"0x{aligned[i].check_bits:X}/0x{aligned[i].cross_bits:X}"
            lines.append(f'    n{i} [label="{name}"];')
        lines.append("  }")
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
