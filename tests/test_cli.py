import json
import time

import pytest

from preflogic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompile_catalog_name(capsys):
    code, out, _ = run(capsys, "decompile", "--loss", "CPO")
    assert code == 0
    assert "P:  (or (not theta:yl) theta:yw)" in out
    assert "PC: (or theta:yl theta:yw)" in out
    assert '"name": "CPO"' in out


def test_decompile_equation_text(capsys):
    code, out, _ = run(capsys, "decompile", "--loss", "p(theta,yw) / p(theta,yl)")
    assert code == 0
    assert '"name": "CPO"' in out


def test_decompile_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "decompile", "--loss", "ORPO")
    assert code == 0
    doc = json.loads(out)
    assert doc["atoms"] == ["theta:yw", "theta:yl"]
    assert doc["name"] == "ORPO"


def test_decompile_nondisjoint_exits_3(capsys):
    code, _, err = run(capsys, "decompile", "--loss", "p(theta,yw) + p(theta,yl) / p(theta,yl)")
    assert code == 3
    assert "share a solution" in err


def test_decompile_with_reference_flag(capsys):
    code, out, _ = run(capsys, "decompile", "--loss", "CPO", "--reference")
    assert code == 0
    assert '"name": "DPO"' in out


def test_compile_unconstrained(capsys):
    code, out, _ = run(capsys, "compile", "--structure", "unCPO")
    assert code == 0
    assert "core equation: (p(theta,yw)*p(theta,yl) + (1 - p(theta,yl)))" in out
    assert "-log sigmoid" in out


def test_compile_margin_variant(capsys):
    code, out, _ = run(capsys, "compile", "--structure", "CPO", "--f", "sl-margin", "--beta", "1")
    assert code == 0
    assert "max(0, 1 - log(p(theta,yw) / p(theta,yl)))" in out


def test_compile_fuzzy_prints_hinge(capsys):
    code, out, _ = run(capsys, "compile", "--structure", "CPO", "--fuzzy")
    assert code == 0
    assert "max(0, -log(p(theta,yw) / p(theta,yl)))" in out


def test_compile_alias_forces_f_kind(capsys):
    code, out, _ = run(capsys, "compile", "--structure", "SliC")
    assert code == 0
    assert "max(0," in out
    code, out, _ = run(capsys, "compile", "--structure", "RRHF")
    assert code == 0
    assert "loss[fuzzy]" in out


def test_compile_trivial_structure_exits_4(capsys, tmp_path):
    doc = {"atoms": ["theta:yw"], "P": "true", "PC": "true", "PA": "false"}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "compile", "--structure", str(path))
    assert code == 4
    assert "empty" in err


def test_eval_win_lose_ratio(capsys):
    code, out, _ = run(
        capsys, "eval", "--structure", "CPO",
        "--weights", '{"theta:yw": 0.6, "theta:yl": 0.3}',
    )
    assert code == 0
    assert "rho_sem = 0.693147181" in out
    assert "loss[sl-log, beta=1] = 0.405465108" in out


def test_eval_dpop_gate_matches_plain_reference_ratio(capsys):
    weights = '{"theta:yw":0.8,"theta:yl":0.3,"ref:yw":0.5,"ref:yl":0.4}'
    code, gated, _ = run(capsys, "eval", "--structure", "DPOP", "--weights", weights,
                         "--dpop-gate")
    assert code == 0
    code, plain, _ = run(capsys, "eval", "--structure", "DPO", "--weights", weights)
    assert code == 0
    assert gated == plain


def test_eval_missing_weight_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--structure", "CPO", "--weights", '{"theta:yw": 0.6}')
    assert code == 2
    assert "theta:yl" in err


def test_eval_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--structure", "NOPE", "--weights", "{}")
    assert code == 2
    assert "unknown loss" in err


def test_entail_strict(capsys):
    code, out, _ = run(capsys, "entail", "CPO", "unCPO")
    assert code == 0
    assert "CPO strictly entails unCPO" in out
    assert "CPO -> unCPO: entails-strictly" in out


def test_entail_self_equivalent(capsys):
    code, out, _ = run(capsys, "entail", "CPO", "CPO")
    assert code == 0
    assert "equivalent" in out


def test_entail_incomparable(capsys):
    code, out, _ = run(capsys, "entail", "CPO", "ORPO")
    assert code == 0
    assert "CPO and ORPO are incomparable" in out


def test_lattice_dot_contains_all_columns(capsys):
    code, out, _ = run(capsys, "lattice", "--lower", "CEUnl", "--upper", "unCPO", "--dot")
    assert code == 0
    assert out.count("[label=") == 16
    assert '"CPO"' in out and '"ORPO"' in out and '"unCPO"' in out


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "lattice", "--lower", "CEUnl",
                       "--upper", "unCPO")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["structures"]) == 16
    assert all(len(edge) == 2 for edge in doc["edges"])


def test_lattice_above_interval_limit_exits_2_before_enumerating(capsys, tmp_path, monkeypatch):
    from preflogic import lattice, load_catalog

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a structure was built for the refused interval")

    load_catalog()  # building the catalog builds structures from bits; do it before patching
    monkeypatch.setattr(lattice.PreferenceStructure, "from_bits", no_enumeration)
    paths = []
    for p in ("false", "true"):
        doc = {"atoms": ["theta:yw", "theta:yl", "ref:yw"], "P": p, "PC": "true", "PA": "false"}
        paths.append(tmp_path / f"{p}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "lattice", "--lower", str(paths[0]), "--upper", str(paths[1]))
    assert code == 2 and out == ""
    assert f"65536 structures, more than MAX_INTERVAL = {lattice.MAX_INTERVAL}" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("CPO", "DPO", "DPOP", "qfUNL"):
        assert name in out
    assert "IPO -> DPO [sl-squared]" in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "ORPO")
    assert code == 0
    assert "equation: p(theta,yw)*(1 - p(theta,yl))" in out
    assert "T F  check" in out
    assert "F T  cross" in out


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "lattice", "--lower", "CEUnl", "--upper", "unCPO", "--dot")
    _, second, _ = run(capsys, "lattice", "--lower", "CEUnl", "--upper", "unCPO", "--dot")
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.dot"
    code, out, _ = run(capsys, "--out", str(path), "lattice", "--lower", "CEUnl",
                       "--upper", "unCPO", "--dot")
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8").startswith("digraph")


def test_custom_catalog_flag(capsys, tmp_path):
    doc = {
        "entries": [
            {
                "name": "mini",
                "provenance": "fixture",
                "atoms": ["theta:yw"],
                "marks": ["cross", "check"],
            }
        ]
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "--catalog", str(path), "catalog", "list")
    assert code == 0
    assert "mini" in out and "CPO" not in out


def test_huge_exponent_exits_2_before_expanding(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "decompile", "--loss", "p(theta,yw)^2000000 / p(theta,yl)")
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert "a term of 2000000 literals exceeds MAX_ATOMS = 16" in err
    assert elapsed < 0.5


def test_side_over_max_atoms_exits_2(capsys):
    # 19 atoms on the numerator, 10 literals per term, disjoint on theta:yw
    side = "(1 - p(theta,yw))*p(ref,yw)^9 + p(theta,yw)*p(ref,yl)^9"
    for top in (side, side.replace("(1 - p(theta,yw))", "p(theta,yw)")):  # and not disjoint
        code, out, err = run(capsys, "decompile", "--loss", f"{top} / p(theta,yl)")
        assert code == 2 and out == ""
        assert "over 19 atoms exceeds MAX_ATOMS = 16" in err


def test_decompile_resolves_a_name_before_parsing_an_equation(capsys):
    code, out, _ = run(capsys, "decompile", "--loss", "orpo")
    assert code == 0 and '"name": "ORPO"' in out
    code, out, err = run(capsys, "decompile", "--loss", "DPOO")
    assert code == 2 and out == ""
    assert err.count("error:") == 1
    assert "unknown loss 'DPOO'; close matches: DPO" in err
    assert "nor an equation (expected a factor, got 'DPOO' (at position 0))" in err
    code, out, err = run(capsys, "decompile", "--loss", "p(theta,yw) /")
    assert code == 2 and "unknown loss 'p(theta,yw) /'" in err and "got None" in err


STRUCTURE = {"atoms": ["theta:yw", "theta:yl"], "P": "(implies theta:yl theta:yw)",
             "PC": "(or theta:yl theta:yw)", "PA": "(and theta:yl theta:yw)"}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "structure JSON must be a JSON object, got list"),
    ({**STRUCTURE, "P": 5}, "structure JSON key 'P' must be a string, got int"),
    ({**STRUCTURE, "atoms": "theta:yw"}, "structure JSON key 'atoms' must be a list, got str"),
    ({k: v for k, v in STRUCTURE.items() if k != "PA"}, "structure JSON is missing key 'PA'"),
])
@pytest.mark.parametrize("command", [["compile", "--structure"],
                                     ["lattice", "--upper", "CPO", "--lower"]])
def test_malformed_structure_json_exits_2(capsys, tmp_path, doc, message, command):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"entries": [{"atoms": ["theta:yw"], "marks": ["cross", "check"]}]},
     "catalog entry is missing key 'name'"),
    ({"entries": [{"name": 5, "atoms": ["theta:yw"], "marks": ["cross", "check"]}]},
     "catalog entry key 'name' must be a string, got int"),
    ({"entries": [{"name": "mini", "atoms": ["theta:yw", "theta:yl"],
                   "equation": "p(theta,yw) / p(theta,yl)", "P": "theta:yw"}]},
     "catalog entry 'mini' is missing key 'PC'"),
    ({"entries": {"name": "mini"}}, "catalog JSON key 'entries' must be a list, got dict"),
    ([], "catalog JSON must be a JSON object, got list"),
    ({"entries": [], "aliases": {"x": "CPO"}}, "catalog alias 'x' must be a JSON object, got str"),
    ({"entries": [{"name": "m", "atoms": ["theta:yw"], "marks": [["check"], "x"]}]},
     "unknown marks: ['x', ['check']]"),
])
def test_malformed_catalog_json_exits_2(capsys, tmp_path, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "--catalog", str(path), "catalog", "list")
    assert (code, out, err) == (2, "", f"error: {message}\n")
