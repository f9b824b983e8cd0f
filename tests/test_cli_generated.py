"""Seeded CLI inputs: every case exits 0, 2, 3 or 4, raises nothing and
finishes within a time budget.

A fixed-seed corpus of ``decompile --loss`` texts over at most 8 atoms
(products of sums with exponents, copies, ``1 - p`` and ``1``, some
truncated or mutated), of structure JSON documents, of weight JSON
documents, of ``lattice`` runs between structure JSON bounds and of
``--format json`` / ``--format dot`` runs, each run in-process through
``cli.main``.  An exception escaping ``main`` is what prints a Python
traceback, so none may.
"""

import io
import json
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

from preflogic import PreferenceStructure, structure_to_json
from preflogic.atoms import canonical_order
from preflogic.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:structure already mentions ref atoms")

ATOMS = [("theta", "yw"), ("theta", "yl"), ("ref", "yw"), ("ref", "yl")]
TOKENS = ["theta:yw", "theta:yl", "ref:yw", "ref:yl"]
BUDGET_S = 2.0  # per case, in-process; none of these inputs needs a tenth of it


def run(argv):
    """(exit code, stderr) of one in-process CLI call; argparse exits with 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def atomref(rng, atom):
    model, role = atom
    return f"p({model},{role},copy 2)" if rng.random() < 0.1 else f"p({model},{role})"


def factor(rng, pool, depth=0):
    a, *rest = rng.sample(pool, len(pool))
    p = atomref(rng, a)
    shapes = [p, f"{p}^2", f"(1 - {p})", "1", f"({p} + (1 - {p}))"]
    if rest:
        q = atomref(rng, rng.choice(rest))
        shapes += [f"({p} + (1 - {p})*{q})", f"({p} + {q})"]
        if depth < 1:
            shapes.append(f"({p} + (1 - {p})*{product(rng, rest, depth + 1)})")
    return rng.choice(shapes)


def product(rng, atoms=ATOMS, depth=0):
    """Factors over their own atoms, or now and then over shared ones."""
    atoms = rng.sample(atoms, len(atoms))
    count = rng.randint(1, min(3, len(atoms)))
    return "*".join(factor(rng, atoms if rng.random() < 0.1 else atoms[k::count], depth)
                    for k in range(count))


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    return rng.choice([
        text[:i],                                            # truncated
        text[:i] + text[i + 1:],                             # one character dropped
        text[:i] + rng.choice("()+*-/^, p") + text[i:],      # one character added
        text[:i] + text[i:][::-1],                           # tail reversed
    ])


def equation_text(rng):
    text = f"{product(rng)} / {product(rng)}"
    return mutate(rng, text) if rng.random() < 0.4 else text


def formula(rng, depth=0):
    if depth > 2 or rng.random() < 0.35:
        return rng.choice(TOKENS[:3] + ["true", "false"])
    op = rng.choice(["not", "and", "or", "implies", "xor"])
    args = 1 if op == "not" else 2
    return f"({op} " + " ".join(formula(rng, depth + 1) for _ in range(args)) + ")"


def structure_doc(rng):
    doc = {"atoms": TOKENS[:3], "P": formula(rng), "PC": formula(rng), "PA": formula(rng)}
    fault = rng.randrange(9)
    if fault == 0:
        doc[rng.choice(list(doc))] = rng.choice([5, None, [1], {"x": 1}, 2.5])
    elif fault == 1:
        del doc[rng.choice(list(doc))]
    elif fault == 2:
        doc = rng.choice([[1, 2], "P", 7, None, []])
    elif fault == 3:
        doc["atoms"] = rng.choice([["theta:yw", "theta:yw"], ["theta"], ["x:yw:0"], []])
    elif fault == 4:
        doc["atoms"] = rng.choice([[[1]], [{}], [5], ["theta:yw", ["x"]]])  # not atoms at all
    elif fault == 5:
        doc["P"] = mutate(rng, doc["P"])
    return doc


def weights_doc(rng):
    doc = {t: round(rng.random(), 3) for t in TOKENS if rng.random() < 0.9}
    fault = rng.randrange(6)
    if fault == 0 and doc:
        doc[rng.choice(list(doc))] = rng.choice([1.5, -0.1, "0.5", "x", None, [0.5], {}, True, 0.0])
    elif fault == 1:
        doc["theta"] = 0.5
    elif fault == 2:
        return rng.choice(["[0.5]", "3", "null", '"theta:yw"', "{", "{'theta:yw': 0.5}", "NaN"])
    return json.dumps(doc)


def lattice_bounds(rng, tmp_path, k):
    """Paths of a lower and an upper bound structure JSON over two or three atoms.

    The upper bound adds up to three rows to the lower's check set and
    drops up to three from its cross set, so the interval holds at most 64
    structures.  Now and then the bounds are swapped, and so no longer
    entail each other, or one is a generated formula document.
    """
    atoms = canonical_order(TOKENS[:rng.choice([2, 3])])
    rows = 1 << len(atoms)
    check, cross = rng.getrandbits(rows), rng.getrandbits(rows)
    grow, shrink = (sum(1 << r for r in rng.sample(range(rows), rng.randint(0, 3)))
                    for _ in range(2))
    bounds = [(check, cross), (check | grow, cross & ~shrink)]
    if rng.random() < 0.15:
        bounds.reverse()
    paths = []
    for side, bits in zip("lu", bounds):
        doc = structure_to_json(PreferenceStructure.from_bits(atoms, *bits))
        path = tmp_path / f"{side}{k}.json"
        path.write_text(json.dumps(structure_doc(rng) if rng.random() < 0.1 else doc),
                        encoding="utf-8")
        paths.append(str(path))
    return paths


def cases(tmp_path):
    rng = random.Random("cli-generated")
    for _ in range(150):
        argv = ["decompile", "--loss", equation_text(rng)]
        yield argv + ["--reference"] if rng.random() < 0.2 else argv
    for k in range(100):
        path = tmp_path / f"s{k}.json"
        path.write_text(json.dumps(structure_doc(rng)), encoding="utf-8")
        yield rng.choice([
            ["compile", "--structure", str(path)],
            ["compile", "--structure", str(path), "--f", "sl-margin", "--beta", "2"],
            ["compile", "--structure", str(path), "--fuzzy"],
            ["eval", "--structure", str(path), "--weights", weights_doc(rng)],
            ["entail", str(path), "CPO"],
        ])
    for _ in range(50):
        yield ["eval", "--structure", rng.choice(["DPO", "CPO", "ORPO", "SimPO"]),
               "--weights", weights_doc(rng)] + rng.choice([[], ["--dpop-gate"], ["--f", "fuzzy"]])
    formats = [[], ["--format", "json"], ["--format", "dot"]]
    for k in range(60):
        lower, upper = lattice_bounds(rng, tmp_path, k)
        yield (rng.choice(formats) + ["lattice", "--lower", lower, "--upper", upper]
               + rng.choice([[], ["--include-trivial"]]) + rng.choice([[], ["--dot"]]))
    for k in range(40):
        fmt = rng.choice(formats[1:])
        if k % 2:
            yield fmt + ["decompile", "--loss", equation_text(rng)] + rng.choice([[], ["--reference"]])
        else:
            path = tmp_path / f"f{k}.json"
            path.write_text(json.dumps(structure_doc(rng)), encoding="utf-8")
            yield fmt + ["compile", "--structure", rng.choice([str(path), "DPO", "SimPO"])]


def test_generated_inputs_exit_cleanly(tmp_path):
    codes, failures = {}, []
    for argv in cases(tmp_path):
        start = time.perf_counter()
        try:
            code, err = run(argv)
        except Exception:  # an escaping exception prints a traceback
            failures.append(f"{argv}\n{traceback.format_exc()}")
            continue
        elapsed = time.perf_counter() - start
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append(f"{argv}: exit {code}\n{err}")
        if elapsed > BUDGET_S:
            failures.append(f"{argv}: {elapsed:.2f} s, over the {BUDGET_S} s budget")
        codes[code] = codes.get(code, 0) + 1
    assert not failures, "\n".join(failures[:5])
    assert sum(codes.values()) == 400
    assert {0, 2, 3} <= set(codes), codes
