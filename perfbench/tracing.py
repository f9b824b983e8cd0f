"""Layer spans recorded from outside the package.

Each traced function is replaced by a wrapper that times the call and
subtracts the time of traced calls made inside it, giving self time.
preflogic modules import names with ``from .x import y``, so the wrapper
is written into every preflogic module that holds the original object;
methods are replaced on their class.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
import time

MAX_MINIMIZE_ATOMS = 6  # formula_of minimizes up to this many atoms, above it expands minterms


def _literals(tree) -> int:
    if tree.op == "atom":
        return 1
    return sum(_literals(a) for a in tree.args)


def _eq_terms(eq) -> int:
    return len(eq.top.terms) + len(eq.bottom.terms)


class Stat:
    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra = {}
        self.durations = []
        self.inputs = set()

    def add(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


def _minimize_extra(st, args, result):
    st.add("out_literals", _literals(result.tree))
    st.inputs.add((args[0].atoms, args[0].bits))


# metric label -> (module, qualified name, extra recorder(stat, args, result))
TARGETS = {
    "cli.main": ("cli", "main", None),
    "catalog.load_catalog": ("catalog", "load_catalog", None),
    "catalog.Catalog.name_of": ("catalog", "Catalog.name_of",
                                lambda st, a, r: st.add("hits", r is not None)),
    "poly.parse_equation": ("poly", "parse_equation", lambda st, a, r: st.add("terms", _eq_terms(r))),
    "poly.make_multilinear": ("poly", "make_multilinear", None),
    "poly.check_disjoint": ("poly", "check_disjoint", None),
    "poly.eval_poly": ("poly", "eval_poly", None),
    "logic.Formula": ("logic", "Formula.__post_init__",
                      lambda st, a, r: st.inputs.add((a[0].atoms, a[0].tree))),
    "logic.parse_formula": ("logic", "parse_formula", None),
    "logic.formula_of": ("logic", "formula_of",
                         lambda st, a, r: st.add("capped", a[0].n > MAX_MINIMIZE_ATOMS)),
    "logic.minimize": ("logic", "minimize", _minimize_extra),
    "atoms.canonical_order": ("atoms", "canonical_order", None),
    "prefstruct.structure_from_json": ("prefstruct", "structure_from_json", None),
    "prefstruct.implication_form": ("prefstruct", "implication_form", None),
    "prefstruct.from_marks": ("prefstruct", "from_marks", None),
    "prefstruct.to_marks": ("prefstruct", "to_marks", None),
    "prefstruct.pref_entails": ("prefstruct", "pref_entails", None),
    "prefstruct.pref_equivalent": ("prefstruct", "pref_equivalent", None),
    "prefstruct.PreferenceStructure.harmonized": ("prefstruct", "PreferenceStructure.harmonized", None),
    "decompile.sem": ("decompile", "sem", None),
    "decompile.decompile": ("decompile", "decompile", None),
    "decompile.reference_structure": ("decompile", "reference_structure", None),
    "semantics.compile_equation": ("semantics", "compile_equation",
                                   lambda st, a, r: st.add("terms", _eq_terms(r))),
    "semantics.loss_ratio": ("semantics", "loss_ratio", lambda st, a, r: st.add("rows", 1 << a[0].n)),
    "semantics.fuzzy_value": ("semantics", "fuzzy_value", None),
    "lattice.enumerate_between": ("lattice", "enumerate_between", lambda st, a, r: st.add("nodes", len(r))),
    "lattice.hasse": ("lattice", "hasse", lambda st, a, r: st.add("edges", len(r))),
    "lattice.export_dot": ("lattice", "export_dot", None),
}


class Tracer:
    def __init__(self):
        self.stats = {label: Stat() for label in TARGETS}
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, label, fn, extra):
        st = self.stats[label]
        stack = self._stack
        keep_durations = label == "logic.minimize"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.calls += 1
                st.self_ns += t1 - t0 - children[0]
                if keep_durations:
                    st.durations.append(t1 - t0)
            if extra is not None:
                extra(st, args, result)
            if stack:
                # the recorder's own time counts against neither span
                stack[-1][0] += clock() - t0
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "preflogic" or name.startswith("preflogic."))]
        for label, (module, qualname, extra) in TARGETS.items():
            owner = sys.modules[f"preflogic.{module}"]
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(label, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original, extra)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for label, st in self.stats.items():
            out[f"{label}.calls"] = (st.calls, "count")
            out[f"{label}.self_ms"] = (st.self_ns / 1e6, "ms")
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        m = self.stats["logic.minimize"]
        d = sorted(m.durations)
        out["logic.minimize.p99_ms"] = (d[min(len(d) - 1, int(0.99 * len(d)))] / 1e6 if d else 0.0, "ms")
        out["logic.minimize.out_literals"] = (m.extra.get("out_literals", 0), "count")
        out["logic.minimize.distinct_ratio"] = (ratio(len(m.inputs), m.calls), "ratio")
        out["logic.formula_of.capped_calls"] = (self.stats["logic.formula_of"].extra.get("capped", 0), "count")
        f = self.stats["logic.Formula"]
        out["logic.Formula.distinct_ratio"] = (ratio(len(f.inputs), f.calls), "ratio")
        for label, key in (("poly.parse_equation", "terms"), ("semantics.compile_equation", "terms"),
                           ("semantics.loss_ratio", "rows"), ("lattice.enumerate_between", "nodes"),
                           ("lattice.hasse", "edges")):
            out[f"{label}.{key}"] = (self.stats[label].extra.get(key, 0), "count")
        n = self.stats["catalog.Catalog.name_of"]
        out["catalog.Catalog.name_of.hit_ratio"] = (ratio(n.extra.get("hits", 0), n.calls), "ratio")
        return out
