"""The three seeded workloads.

Each workload turns (seed, block index) into a block of operation inputs,
runs one operation against preflogic, and checks its output with the
oracle.  Inputs depend only on the seed and the block index, never on the
package or the clock, so the traced and untraced passes of a run see the
same operations.  Package functions are looked up on the module at call
time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import time

import oracle as O
from oracle import expect

MARKS = ("blank", "check", "cross", "both")


def rng_for(seed: int, workload: str, block: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{block}")


def random_weights(rng: random.Random, atoms) -> dict[str, float]:
    return {a: rng.uniform(0.02, 0.98) for a in atoms}


def random_column(rng: random.Random, atoms) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A uniformly random mark column whose check and cross sets are each
    neither empty nor every row, listed under a shuffled atom order."""
    given = list(atoms)
    rng.shuffle(given)
    while True:
        marks = tuple(rng.choice(MARKS) for _ in range(1 << len(given)))
        checked = sum(m in ("check", "both") for m in marks)
        crossed = sum(m in ("cross", "both") for m in marks)
        if 0 < checked < len(marks) and 0 < crossed < len(marks):
            return tuple(given), marks


def column_marks(atoms, check: int, cross: int) -> tuple[str, ...]:
    return tuple(("blank", "check", "cross", "both")[((check >> i) & 1) + 2 * ((cross >> i) & 1)]
                 for i in range(1 << len(atoms)))


class Outcome:
    """What one operation returned: a value for the check, and the number of
    loss values it computed with the nanoseconds spent computing them (None:
    the whole operation is the evaluation)."""

    __slots__ = ("value", "evals", "eval_ns")

    def __init__(self, value, evals=0, eval_ns=None):
        self.value, self.evals, self.eval_ns = value, evals, eval_ns


class Counts:
    """Deterministic output sizes: terms of compiled equations and literals of
    printed P/PC/PA."""

    def __init__(self):
        self.eq_terms = 0
        self.formula_literals = 0

    def equation(self, top, bottom):
        self.eq_terms += len(top) + len(bottom)

    def structure(self, p: str, pc: str, pa: str):
        self.formula_literals += O.literal_count(p) + O.literal_count(pc) + O.literal_count(pa)


def split_structure(text: str) -> tuple[str, str, str]:
    """P, PC, PA of "P := ...; PC := ...; PA := ..."."""
    expect(text.startswith("P := "), f"bad structure text {text!r}")
    p, rest = text[5:].split("; PC := ")
    pc, pa = rest.split("; PA := ")
    return p, pc, pa


def struct_sets(s, counts: Counts | None = None) -> tuple:
    """(atoms, check, cross) the oracle reads off a structure's printed form."""
    atoms = tuple(a.token() for a in s.atoms)
    expect(atoms == O.canon(atoms), f"atoms not in canonical order: {atoms}")
    p, pc, pa = split_structure(str(s))
    if counts is not None:
        counts.structure(p, pc, pa)
    return (atoms, *O.structure_sets(atoms, p, pc, pa))


def same_sets(got: tuple, want: tuple) -> bool:
    return O.entails(got, want) and O.entails(want, got)


def check_equation_text(text: str, sets: tuple, counts: Counts | None = None):
    """Parse printed equation text; its sides must be disjoint and count the
    check and cross sets.  Returns the parsed sides."""
    top, bottom = O.parse_equation_text(text)
    atoms = O.equation_atoms(top, bottom)
    expect(set(atoms) <= set(sets[0]), f"equation mentions atoms outside {sets[0]}")
    sp = O.space(sets[0])
    expect(O.sop_bits(top, sp) == sets[1], "numerator does not count the check set")
    expect(O.sop_bits(bottom, sp) == sets[2], "denominator does not count the cross set")
    if counts is not None:
        counts.equation(top, bottom)
    return top, bottom


def row_probs(sp: O.Space, w: dict) -> list[float]:
    probs = [1.0]
    for a in sp.atoms:
        v = O.resolve(w, a)
        probs = [q for p in probs for q in (p * (1.0 - v), p * v)]
    return probs


def bits_mass(bits: int, probs: list[float]) -> float:
    return math.fsum(probs[i] for i in range(len(probs)) if (bits >> i) & 1)


# ---------------------------------------------------------------------------
# catalog-cli: every CLI command on every catalog entry and alias


class CatalogCli:
    name = "catalog-cli"
    deadline = None
    count_blocks = 1   # one block is one pass over every command
    trace_blocks = 1
    EVAL_MAPS = 10     # seeded weight maps per eval target

    def __init__(self, pl, workdir: str):
        self.pl = pl
        self.cat = O.catalog()
        self.names = list(self.cat) + list(O.ALIASES)
        lower = {"atoms": ["theta:yw", "theta:yl"], "P": "false", "PC": "true", "PA": "false"}
        upper = dict(lower, P="true")
        os.makedirs(workdir, exist_ok=True)
        self.bounds = []
        for label, doc in (("lower", lower), ("upper", upper)):
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            atoms = O.canon(doc["atoms"])
            self.bounds.append((path, (atoms, *O.structure_sets(atoms, doc["P"], doc["PC"], doc["PA"]))))
        self.entailing = [(a, b) for a in self.cat for b in self.cat
                          if a != b and O.entails(self.cat[a].sets, self.cat[b].sets)]
        self._expected_lattice = {}

    def entry(self, name):
        target, forced = O.ALIASES.get(name, (name, None))
        return self.cat[target], forced

    def block(self, rng: random.Random, index: int) -> list:
        ops = []
        for name in self.names:
            ops.append(("decompile", ["decompile", "--loss", name], name))
            ops.append(("decompile-ref", ["decompile", "--loss", name, "--reference"], name))
        for name in self.cat:
            ops.append(("decompile-text", ["decompile", "--loss", self.cat[name].equation_text()], name))
        for name in self.names:
            ops.append(("compile", ["compile", "--structure", name], name))
            for f in ("sl-log", "sl-squared", "sl-margin"):
                ops.append(("compile", ["compile", "--structure", name, "--f", f], name))
            ops.append(("compile", ["compile", "--structure", name, "--fuzzy"], name))
        for name, gate in [(name, []) for name in self.names] + [("DPOP", ["--dpop-gate"])]:
            for _ in range(self.EVAL_MAPS):
                w = random_weights(rng, [O.base(a) for a in self.entry(name)[0].atoms])
                ops.append(("eval", ["eval", "--structure", name, "--weights", json.dumps(w)] + gate, name))
        for a in self.names:
            for b in self.names:
                if a != b:
                    ops.append(("entail", ["entail", a, b], (a, b)))
        ops.append(("catalog-list", ["catalog", "list"], None))
        for name in self.cat:
            ops.append(("catalog-show", ["catalog", "show", name], name))
        for a, b in self.entailing:
            ops.append(("lattice", ["lattice", "--lower", a, "--upper", b], (a, b)))
            ops.append(("lattice-dot", ["lattice", "--lower", a, "--upper", b, "--dot"], (a, b)))
        (lo, _), (hi, _) = self.bounds
        ops.append(("lattice", ["lattice", "--lower", lo, "--upper", hi], "full"))
        ops.append(("lattice-dot", ["lattice", "--lower", lo, "--upper", hi, "--dot"], "full"))
        return ops

    def run(self, op) -> Outcome:
        kind, argv, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pl.cli.main(argv)
        return Outcome((rc, out.getvalue(), err.getvalue()), evals=1 if kind == "eval" else 0)

    # -- checks ------------------------------------------------------------

    def check(self, op, outcome: Outcome, counts: Counts | None):
        kind, argv, key = op
        rc, out, err = outcome.value
        expect(rc == 0 and "error" not in err, f"{argv}: exit {rc}: {err.strip()}")
        getattr(self, "_check_" + kind.replace("-", "_"))(argv, key, out, counts)

    def _check_decompile(self, argv, name, out, counts, reference=False):
        sets = self.entry(name)[0].sets
        if reference:
            atoms = O.canon(sets[0] + ("ref:yw", "ref:yl"))
            sp = O.space(atoms)
            sets = (atoms, O.widen(sets[1], sets[0], atoms) & sp.mask["ref:yl"],
                    O.widen(sets[2], sets[0], atoms) & sp.mask["ref:yw"])
        lines = out.splitlines()
        start = lines.index("{")
        doc = json.loads("\n".join(lines[start:]))
        atoms = tuple(doc["atoms"])
        # the structure ranges over the atoms its equation mentions
        expect(atoms == O.canon(atoms) and set(atoms) <= set(sets[0]), f"{argv}: atoms {atoms}")
        got = (atoms, *O.structure_sets(atoms, doc["P"], doc["PC"], doc["PA"]))
        expect(same_sets(got, sets), f"{argv}: structure has the wrong check or cross set")
        name_want = O.name_of(sets)
        expect(doc.get("name") == name_want, f"{argv}: named {doc.get('name')}, expected {name_want}")
        header = ([f"name: {name_want}"] if name_want else []) + [
            "atoms: " + " ".join(atoms), f"P:  {doc['P']}", f"PC: {doc['PC']}", f"PA: {doc['PA']}"]
        expect(lines[:start] == header, f"{argv}: text lines disagree with the JSON document")
        if counts is not None:
            counts.structure(doc["P"], doc["PC"], doc["PA"])

    def _check_decompile_ref(self, argv, name, out, counts):
        self._check_decompile(argv, name, out, counts, reference=True)

    _check_decompile_text = _check_decompile

    def _check_compile(self, argv, name, out, counts):
        entry, forced = self.entry(name)
        f_kind = argv[argv.index("--f") + 1] if "--f" in argv else forced or "sl-log"
        if "--fuzzy" in argv or f_kind == "fuzzy":
            return self._check_fuzzy_compile(argv, entry, out)
        lines = out.splitlines()
        expect(len(lines) == 2 and lines[0].startswith("core equation: "), f"{argv}: {out!r}")
        text = lines[0][len("core equation: "):]
        top, bottom = check_equation_text(text, entry.sets, counts)
        w = random_weights(random.Random(text), [O.base(a) for a in entry.atoms])
        expect(O.close(O.sop_value(top, w), O.sop_value(entry.sop[0], w), 1e-12)
               and O.close(O.sop_value(bottom, w), O.sop_value(entry.sop[1], w), 1e-12),
               f"{argv}: compiled equation disagrees with the catalog equation")
        rho = f"log({text})"
        wrapped = {"sl-log": f"-log sigmoid(1 * {rho})", "sl-squared": f"({rho} - 1/(2*1))^2",
                   "sl-margin": f"max(0, 1 - {rho})"}[f_kind]
        expect(lines[1] == f"loss[{f_kind}, beta=1] = {wrapped}", f"{argv}: {lines[1]!r}")

    def _check_fuzzy_compile(self, argv, entry, out):
        prefix = "loss[fuzzy] = "
        expect(out.startswith(prefix) and out.count("\n") == 1, f"{argv}: {out!r}")
        text = out[len(prefix):].strip()
        w = random_weights(random.Random(text), [O.base(a) for a in entry.atoms])
        value = O.eval_arith(text, w)
        if entry.p_tree is not None:
            want = -math.log(O.fuzzy_tree(entry.p_tree, w))
            expect(O.close(value, want, 1e-12), f"{argv}: fuzzy loss {value}, expected {want}")
        else:
            # a derived entry's P is whatever the minimizer chose; its fuzzy
            # reading is syntactic, so only its range is known
            expect(0.0 <= value < math.inf, f"{argv}: fuzzy loss {value} out of range")

    def _check_eval(self, argv, name, out, counts):
        entry, forced = self.entry(name)
        w = json.loads(argv[argv.index("--weights") + 1])
        if "--dpop-gate" in argv and O.resolve(w, "ref:yw") <= O.resolve(w, "theta:yw"):
            w = dict(w, **{"theta:yw:2": 1.0, "ref:yw:2": 1.0})
        lines = out.splitlines()
        expect(len(lines) == 2, f"{argv}: {out!r}")
        if forced == "fuzzy":
            value = O.fuzzy_tree(entry.p_tree, w)
            want = [("fuzzy value = ", value), ("loss[fuzzy] = ", -math.log(max(value, 1e-12)))]
        else:
            f_kind = forced or "sl-log"
            rho = entry.rho(w)
            want = [("rho_sem = ", rho), (f"loss[{f_kind}, beta=1] = ", O.wrap(rho, f_kind))]
        for line, (prefix, value) in zip(lines, want):
            expect(line.startswith(prefix) and O.close(float(line[len(prefix):]), value, 5e-8),
                   f"{argv}: {line!r}, expected {prefix}{value:.9g}")

    def _check_entail(self, argv, pair, out, counts):
        (e1, _), (e2, _) = self.entry(pair[0]), self.entry(pair[1])
        fwd, bwd = O.entails(e1.sets, e2.sets), O.entails(e2.sets, e1.sets)

        def verdict(a, b):
            return "equivalent" if a and b else "entails-strictly" if a else "incomparable"

        n1, n2 = e1.name, e2.name
        summary = (f"{n1} and {n2} are equivalent" if fwd and bwd else
                   f"{n1} strictly entails {n2}" if fwd else
                   f"{n2} strictly entails {n1}" if bwd else f"{n1} and {n2} are incomparable")
        want = f"{n1} -> {n2}: {verdict(fwd, bwd)}\n{n2} -> {n1}: {verdict(bwd, fwd)}\nsummary: {summary}\n"
        expect(out == want, f"{argv}: {out!r}")

    def _check_catalog_list(self, argv, _, out, counts):
        want = list(self.cat) + [f"{a} -> {t} [{f}]" for a, (t, f) in O.ALIASES.items()]
        expect(out.splitlines() == want, f"{argv}: {out!r}")

    def _check_catalog_show(self, argv, name, out, counts):
        entry = self.cat[name]
        lines = out.splitlines()
        expect(lines[0] == f"name: {name}" and lines[1].startswith("provenance: "), f"{argv}: {lines[:2]}")
        eq = lines[2][len("equation: "):]
        if entry.equation is not None:
            expect(eq == entry.equation, f"{argv}: equation {eq!r}")
        else:
            expect(eq.endswith(" (derived)"), f"{argv}: derived equation not marked")
            check_equation_text(eq[:-len(" (derived)")], entry.sets)
        expect(lines[3] == "atoms: " + " ".join(entry.atoms), f"{argv}: {lines[3]!r}")
        p, pc, pa = (lines[k].split(": ", 1)[1].strip() for k in (4, 5, 6))
        expect((entry.atoms, *O.structure_sets(entry.atoms, p, pc, pa)) == entry.sets,
               f"{argv}: structure has the wrong check or cross set")
        if counts is not None:
            counts.structure(p, pc, pa)
        expect(lines[7] == "rows (" + " ".join(entry.atoms) + "):", f"{argv}: {lines[7]!r}")
        rows = lines[8:]
        sp = O.space(entry.atoms)
        expect(len(rows) == 1 << sp.n, f"{argv}: {len(rows)} rows")
        seen = set()
        for line in rows:
            *truth, mark = line.split()
            i = int("".join("1" if t == "T" else "0" for t in truth), 2)
            seen.add(i)
            want = MARKS[((entry.check >> i) & 1) + 2 * ((entry.cross >> i) & 1)]
            expect(mark == want, f"{argv}: row {line.strip()!r}, expected {want}")
        expect(len(seen) == len(rows), f"{argv}: repeated rows")

    def _lattice_expectation(self, key):
        if key not in self._expected_lattice:
            if key == "full":
                lower, upper = self.bounds[0][1], self.bounds[1][1]
            else:
                lower, upper = (self.entry(k)[0].sets for k in key)
            atoms = O.canon(lower[0] + upper[0])
            lo = (atoms, O.widen(lower[1], lower[0], atoms), O.widen(lower[2], lower[0], atoms))
            hi = (atoms, O.widen(upper[1], upper[0], atoms), O.widen(upper[2], upper[0], atoms))
            nodes = O.interval(lo, hi)
            self._expected_lattice[key] = (atoms, set(nodes))
        return self._expected_lattice[key]

    def _node_from_tag(self, tag, atoms):
        if tag.startswith("0x"):
            check, cross = (int(x, 16) for x in tag.split("/"))
            return check, cross
        entry = self.cat.get(tag)
        expect(entry is not None, f"unknown node label {tag!r}")
        return O.widen(entry.check, entry.atoms, atoms), O.widen(entry.cross, entry.atoms, atoms)

    def _check_nodes_and_edges(self, argv, key, nodes, tags, edges):
        atoms, want = self._lattice_expectation(key)
        expect(len(nodes) == len(want) and set(nodes) == want,
               f"{argv}: {len(nodes)} nodes, expected {len(want)}")
        for node, tag in zip(nodes, tags):
            name = O.name_of((atoms, *node))
            expect(tag == (name or f"0x{node[0]:X}/0x{node[1]:X}"), f"{argv}: node labelled {tag!r}")
        expect(set(edges) == O.covering_edges(nodes) and len(edges) == len(set(edges)),
               f"{argv}: covering edges differ")

    def _check_lattice(self, argv, key, out, counts):
        atoms, _ = self._lattice_expectation(key)
        lines = out.splitlines()
        head = re.fullmatch(r"(\d+) structures, (\d+) covering edges", lines[0])
        expect(head is not None, f"{argv}: {lines[0]!r}")
        m, e = int(head[1]), int(head[2])
        nodes, tags, index = [], [], {}
        for k, line in enumerate(lines[1:1 + m]):
            match = re.fullmatch(r"  \[(\d+)\] (\S+): (P := .*)", line)
            expect(match is not None and int(match[1]) == k, f"{argv}: {line!r}")
            tag = match[2]
            p, pc, pa = split_structure(match[3])
            if counts is not None:
                counts.structure(p, pc, pa)
            nodes.append(O.structure_sets(atoms, p, pc, pa))
            tags.append(tag)
            index[tag] = k
        edges = []
        for line in lines[1 + m:]:
            a, b = line.strip().split(" -> ")
            edges.append(tuple(int(x) if x.isdigit() else index[x] for x in (a, b)))
        expect(len(edges) == e, f"{argv}: edge count line disagrees")
        self._check_nodes_and_edges(argv, key, nodes, tags, edges)

    def _check_lattice_dot(self, argv, key, out, counts):
        atoms, _ = self._lattice_expectation(key)
        lines = out.splitlines()
        expect(lines[:3] == ["digraph preference_lattice {", "  rankdir=LR;", "  node [shape=box];"]
               and lines[-1] == "}", f"{argv}: bad DOT frame")
        labels, edges = {}, []
        for line in lines[3:-1]:
            line = line.strip()
            if line.startswith("label="):
                O.tree_bits(O.parse_sexpr(line[7:-2]), O.space(atoms))
            elif " -> " in line:
                a, b = line.rstrip(";").split(" -> ")
                edges.append((int(a[1:]), int(b[1:])))
            elif line.startswith("n"):
                idx, rest = line.split(" [label=\"")
                labels[int(idx[1:])] = rest[:-3]
        expect(sorted(labels) == list(range(len(labels))), f"{argv}: node ids not contiguous")
        tags = [labels[i] for i in range(len(labels))]
        nodes = [self._node_from_tag(t, atoms) for t in tags]
        self._check_nodes_and_edges(argv, key, nodes, tags, edges)


# ---------------------------------------------------------------------------
# mark-columns: mark column -> structure -> equation -> text -> equation -> structure


class MarkColumns:
    name = "mark-columns"
    deadline = 5.0     # seconds; a hang guard: a miss abandons the operation and fails it
    count_blocks = 8   # eq_terms and formula_literals cover these
    trace_blocks = 4
    # one block: 60 random four-atom columns, and 8 guarded columns each at five
    # and six atoms.  Uniform five-atom and unstructured six-atom columns are
    # left out: some take seconds to minutes in the minimizer's Petrick tail.
    SLICES = (("4", 60), ("5g", 8), ("6g", 8))
    MAPS = 4
    ATOMS6 = ("theta:yw", "theta:yl", "ref:yw", "ref:yl", "mref:yw", "mref:yl")
    GUARDED_BASE = {"5g": ("theta:yw", "theta:yl", "mref:yw"),
                    "6g": ("theta:yw", "theta:yl", "mref:yw", "mref:yl")}

    def __init__(self, pl, workdir: str):
        self.pl = pl

    def block(self, rng: random.Random, index: int) -> list:
        ops = []
        for slice_name, count in self.SLICES:
            for _ in range(count):
                if slice_name in self.GUARDED_BASE:
                    given, marks = self._guarded(rng, self.GUARDED_BASE[slice_name])
                else:
                    given, marks = random_column(rng, self.ATOMS6[:int(slice_name)])
                maps = [random_weights(rng, self.ATOMS6) for _ in range(self.MAPS)]
                ops.append((slice_name, given, marks, maps, [self.pl.WeightMap(w) for w in maps]))
        return ops

    def _guarded(self, rng, base):
        """The column reference_structure gives a random column over base:
        winner rows gain ref:yl, loser rows gain ref:yw."""
        given, marks = random_column(rng, base)
        small, check, cross = O.marks_bits(given, marks)
        atoms = O.canon(small + ("ref:yw", "ref:yl"))
        sp = O.space(atoms)
        check = O.widen(check, small, atoms) & sp.mask["ref:yl"]
        cross = O.widen(cross, small, atoms) & sp.mask["ref:yw"]
        return atoms, column_marks(atoms, check, cross)

    def run(self, op) -> Outcome:
        pl = self.pl
        _, given, marks, _, wms = op
        s = pl.from_marks(pl.MarkTable(given, marks))
        eq = pl.compile_equation(s)
        text = eq.render()
        d = pl.decompile(pl.parse_equation(text))
        t0 = time.perf_counter_ns()
        rhos = [pl.loss_ratio(d, w) for w in wms]
        return Outcome((s, text, d, rhos), evals=len(wms), eval_ns=time.perf_counter_ns() - t0)

    def check(self, op, outcome: Outcome, counts: Counts | None):
        slice_name, given, marks, maps, _ = op
        s, text, d, rhos = outcome.value
        want = O.marks_bits(given, marks)
        expect(same_sets(struct_sets(s, counts), want), "from_marks: wrong check or cross set")
        check_equation_text(text, want, counts)
        expect(same_sets(struct_sets(d, counts), want), "decompile: wrong check or cross set")
        for w, rho in zip(maps, rhos):
            probs = row_probs(O.space(want[0]), w)
            want_rho = math.log(bits_mass(want[1], probs)) - math.log(bits_mass(want[2], probs))
            expect(O.close(rho, want_rho, 1e-9), f"loss_ratio {rho}, expected {want_rho}")


# ---------------------------------------------------------------------------
# train-batch: catalog losses evaluated per example, as a training loop does


class TrainBatch:
    name = "train-batch"
    deadline = None
    count_blocks = 0   # counts come from prepare()
    trace_blocks = 16
    # One operation is one example's loss under each of the eight losses in
    # turn.  With one loss per operation the median fell between two groups
    # of losses that run at different speeds, and jumped between them from
    # run to run.  A block (about 0.1 s) is shorter than the spells in which
    # other tenants slow the machine, so a spell slows whole blocks, which the
    # medians over blocks pass over.
    BATCH = 500
    # (label, catalog structure, wrapper); RRHF is CPO's fuzzy reading
    LOSSES = (("DPO", "DPO", "sl-log"), ("SimPO", "SimPO", "sl-log"), ("ORPO", "ORPO", "sl-log"),
              ("CPO", "CPO", "sl-log"), ("DPOP", "DPOP", "sl-log"), ("IPO", "DPO", "sl-squared"),
              ("SliC", "CPO", "sl-margin"), ("RRHF", "CPO", "fuzzy"))

    def __init__(self, pl, workdir: str):
        self.pl = pl
        self.cat = O.catalog()
        self.structures = {}
        # the atoms an example gives weights for; SimPO's mref weights come from gamma
        self.atoms = {entry: [a for a in self.cat[entry].atoms
                              if a.split(":")[0] != "mref" and a.count(":") == 1]
                      for _, entry, _ in self.LOSSES}

    def prepare(self, counts: Counts | None):
        """Look each loss up and compile it once, as a training script does
        before its loop; the counts cover these compiled losses."""
        loaded = self.pl.load_catalog()
        for name in sorted(self.atoms):
            s = self.structures[name] = loaded.get(name).structure
            sets = struct_sets(s, counts)
            expect(sets == self.cat[name].sets, f"catalog structure {name} has the wrong sets")
            check_equation_text(self.pl.compile_equation(s).render(), sets, counts)

    def block(self, rng: random.Random, index: int) -> list:
        gamma = rng.uniform(0.0, 2.0)
        margin = self.pl.simpo_margin_weights(gamma)
        expect(O.close(margin["mref:yw"], 0.5) and O.close(margin["mref:yl"], 0.5 / math.exp(gamma)),
               "simpo_margin_weights disagrees with its documented values")
        ops = []
        for _ in range(self.BATCH):
            losses = tuple((label, entry, f_kind,
                            dict(random_weights(rng, self.atoms[entry]), **(margin if label == "SimPO" else {})))
                           for label, entry, f_kind in self.LOSSES)
            ops.append(("example", losses))
        return ops

    def run(self, op) -> Outcome:
        pl = self.pl
        values = []
        for label, entry, f_kind, w in op[1]:
            s = self.structures[entry]
            wm = pl.WeightMap(w)
            if label == "DPOP":
                wm = pl.dpop_gate(wm)
            values.append(pl.fuzzy_loss(s.p, wm) if f_kind == "fuzzy" else pl.loss_value(s, wm, f_kind))
        return Outcome(values, evals=len(values))

    def check(self, op, outcome: Outcome, counts: Counts | None):
        for (label, entry, f_kind, w), value in zip(op[1], outcome.value, strict=True):
            e = self.cat[entry]
            if f_kind == "fuzzy":
                want = -math.log(max(O.fuzzy_tree(e.p_tree, w), 1e-12))
            else:
                if label == "DPOP" and O.resolve(w, "ref:yw") <= O.resolve(w, "theta:yw"):
                    w = dict(w, **{"theta:yw:2": 1.0, "ref:yw:2": 1.0})
                want = O.wrap(e.rho(w), f_kind)
            expect(O.close(value, want, 1e-9), f"{label}: loss {value}, expected {want}")


WORKLOADS = {w.name: w for w in (CatalogCli, MarkColumns, TrainBatch)}
