"""CLI subcommands, exit codes, JSON reports."""

import json
import re

import pytest

from leibniz_homology.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, build_parser, main
from leibniz_homology.homology import DEFAULT_CAP_EXACT, DEFAULT_CAP_MODULAR


def run(args):
    return main(args)


def test_algebra_report(capsys, tmp_path):
    out = tmp_path / "alg.json"
    assert run(["algebra", "--p", "2", "--q", "2", "--json", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "dim so = 6" in text and "dim affine = 10" in text
    data = json.loads(out.read_text())
    assert data["schema_version"] == "1"
    assert data["command"] == "algebra"
    assert data["results"][0]["dim_affine"] == 10
    brackets = {(e["a"], e["b"]): e["bracket"] for e in data["results"][0]["structure"]}
    assert brackets[("d(1)", "X(1,2)")] == {"d(2)": -1}


def test_algebra_definite(capsys):
    assert run(["algebra", "--p", "3", "--q", "0"]) == EXIT_OK
    assert "dim so = 3" in capsys.readouterr().out


def test_algebra_invalid_signature(capsys):
    assert run(["algebra", "--p", "0", "--q", "2"]) == EXIT_USAGE
    # n = 1 has no so(p,q): a usage error, not a traceback with exit 1
    assert run(["algebra", "--p", "1", "--q", "0"]) == EXIT_USAGE
    assert run(["invariants", "--p", "1", "--q", "0", "--module", "so"]) == EXIT_USAGE
    assert "error: signature (1,0) needs p + q >= 2" in capsys.readouterr().err


def test_invariants_descriptors(capsys, tmp_path):
    out = tmp_path / "inv.json"
    assert run(
        ["invariants", "--p", "2", "--q", "3", "--module", "so*wedge:2", "--json", str(out)]
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"][0]["dim"] == 1
    chain = data["results"][0]["basis"][0]
    assert all(set(t) == {"word", "numerator", "denominator"} for t in chain)

    assert run(["invariants", "--p", "2", "--q", "2", "--module", "wedge:I:4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "dim 1" in text

    assert run(["invariants", "--p", "2", "--q", "2", "--module", "so*wedge:2"]) == EXIT_OK
    assert "dim 2" in capsys.readouterr().out

    assert run(["invariants", "--p", "2", "--q", "2", "--module", "so"]) == EXIT_OK
    assert run(["invariants", "--p", "2", "--q", "2", "--module", "bogus:3"]) == EXIT_USAGE


def test_invariants_empty_tensor_word(capsys, tmp_path):
    out = tmp_path / "t0.json"
    assert run(["invariants", "--p", "2", "--q", "2", "--module", "tensor:h:0", "--json", str(out)]) == EXIT_OK
    assert "   (1)·1\n" in capsys.readouterr().out
    basis = json.loads(out.read_text())["results"][0]["basis"]
    assert basis == [[{"word": "1", "numerator": 1, "denominator": 1}]]


@pytest.mark.parametrize("desc", ["wedge:I:2:junk", "I*wedge:1:x", "so*wedge:2:", "so:1", "tensor:h"])
def test_invariants_trailing_or_missing_field_is_usage_error(capsys, desc):
    assert run(["invariants", "--p", "2", "--q", "2", "--module", desc]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse module descriptor {desc!r}" in captured.err


def test_invariants_note_keyed_on_parsed_module(capsys):
    # the n = 4 note on so ⊗ Λ^2 follows the parsed degree, not the spelling
    note = "expected 2 by direct computation"
    for desc in ("so*wedge:2", "so*wedge:02"):
        assert run(["invariants", "--p", "2", "--q", "2", "--module", desc]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dim 2" in out and note in out, desc
    assert run(["invariants", "--p", "2", "--q", "3", "--module", "so*wedge:2"]) == EXIT_OK
    assert note not in capsys.readouterr().out


def test_homology_abelian(capsys, tmp_path):
    out = tmp_path / "hom.json"
    assert run(["homology", "--abelian", "2", "--max-degree", "3", "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    betti = [e["betti"] for e in data["results"][0]["entries"]]
    assert betti == [1, 2, 4, 8]
    # duality table is included and identical
    dual = [e["betti"] for e in data["results"][1]["entries"]]
    assert dual == betti and data["results"][1]["variant"] == "cohomology"
    assert "mode" not in data["results"][0]
    assert "mode" not in capsys.readouterr().out


def test_homology_h4_low_degrees(capsys):
    assert run(["homology", "--p", "2", "--q", "2", "--max-degree", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "predicted" in text


def test_homology_cap_gives_partial_and_exit3(capsys):
    # the kept d_5 (4,992 columns) is past both caps
    code = run(
        ["homology", "--p", "2", "--q", "2", "--max-degree", "4",
         "--cap-exact", "1000", "--cap-modular", "1000"]
    )
    assert code == EXIT_CAP


def test_cap_defaults_follow_library(monkeypatch):
    for name in ("CAP_EXACT", "CAP_MODULAR"):
        monkeypatch.delenv("LEIBNIZ_HOMOLOGY_" + name, raising=False)
    args = build_parser().parse_args(["homology", "--abelian", "2"])
    assert args.cap_exact == DEFAULT_CAP_EXACT
    assert args.cap_modular == DEFAULT_CAP_MODULAR


def test_homology_usage_errors(capsys):
    assert run(["homology", "--abelian", "2", "--p", "2", "--q", "2"]) == EXIT_USAGE
    assert run(["homology", "--p", "2"]) == EXIT_USAGE
    assert run(["homology", "--abelian", "2", "--mode", "exact"]) == EXIT_USAGE
    capsys.readouterr()
    assert run(["homology", "--abelian", "0"]) == EXIT_USAGE
    assert run(["homology", "--p", "1", "--q", "0"]) == EXIT_USAGE
    assert run(["homology", "--p", "2", "--q", "2", "--max-degree", "-3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["error"] * 3


def test_fewer_than_two_primes_is_usage_error(capsys):
    assert run(["homology", "--abelian", "2", "--primes", "1"]) == EXIT_USAGE
    assert run(["verify", "--suite", "structure", "--p", "2", "--q", "2", "--primes", "1"]) == EXIT_USAGE
    assert "at least 2" in capsys.readouterr().err


def test_negative_cap_is_usage_error(capsys):
    assert run(["homology", "--abelian", "2", "--cap-exact", "-1"]) == EXIT_USAGE
    assert run(["verify", "--suite", "structure", "--p", "2", "--q", "2", "--cap-modular", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cap_exact must be at least 0" in err and "cap_modular must be at least 0" in err
    # cap 0 turns one engine off and is not an error
    assert run(["homology", "--abelian", "2", "--max-degree", "2", "--cap-exact", "0"]) == EXIT_OK


def test_verify_structure(capsys, tmp_path):
    out = tmp_path / "ver.json"
    assert run(
        ["verify", "--suite", "structure", "--p", "1", "--q", "3", "--json", str(out)]
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert all(r["status"] in ("pass", "fail", "reported") for r in data["results"])


def test_verify_refuses_small_n(capsys):
    assert run(["verify", "--suite", "paper", "--p", "1", "--q", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "the claim suite is stated for n >= 4, got n=3" in err


def test_verify_paper_definite(tmp_path, capsys):
    # q = 0: the definite affine orthogonal algebra is a checked row too
    out = tmp_path / "definite.json"
    assert run(["verify", "--suite", "paper", "--p", "4", "--q", "0",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["resolved_gamma_sign"] == -1


def test_verify_paper_modular_only_reports_witnesses_not_run(tmp_path, capsys):
    # --cap-exact 0 (modular ranks only) leaves the exact witness solves
    # unrun and reported as such; the homology and prediction checks run
    out = tmp_path / "modular.json"
    assert run(["verify", "--suite", "paper", "--p", "2", "--q", "2", "--cap-exact", "0",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    results = {r["check_id"]: r for r in data["results"]}
    for check_id in ("complexes.gamma_homologous", "complexes.alpha_tilde_not_boundary"):
        assert results[check_id]["status"] == "reported"
        assert re.fullmatch(r"not run: exact solve block \(grade .*\) has \d+ columns, cap 0",
                            results[check_id]["details"])
    assert results["homology.matches_prediction"]["status"] == "pass"
    assert "modular" in results["homology.matches_prediction"]["details"]
    assert results["homology.duality"]["status"] == "pass"


def test_env_var_overrides(monkeypatch, tmp_path):
    out = tmp_path / "env.json"
    monkeypatch.setenv("LEIBNIZ_HOMOLOGY_SEED", "99")
    monkeypatch.setenv("LEIBNIZ_HOMOLOGY_JSON", str(out))
    assert run(["homology", "--abelian", "2", "--max-degree", "2"]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["environment"]["seed"] == 99


@pytest.mark.parametrize("name", ["SEED", "PRIMES", "CAP_EXACT", "CAP_MODULAR"])
def test_malformed_env_var_is_usage_error(monkeypatch, capsys, name):
    monkeypatch.setenv("LEIBNIZ_HOMOLOGY_" + name, "abc")
    assert run(["homology", "--abelian", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: LEIBNIZ_HOMOLOGY_{name}: cannot read 'abc' as int"]


@pytest.mark.slow
def test_verify_paper_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--suite", "paper", "--p", "2", "--q", "2", "--seed", "42",
                "--json", str(a)]) == EXIT_OK
    assert run(["verify", "--suite", "paper", "--p", "2", "--q", "2", "--seed", "42",
                "--json", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["resolved_gamma_sign"] in (1, -1)
    assert data["environment"]["seed"] == 42


def test_homology_json_byte_identical(tmp_path):
    a, b = tmp_path / "h1.json", tmp_path / "h2.json"
    for path in (a, b):
        assert run(["homology", "--p", "2", "--q", "2", "--max-degree", "3",
                    "--seed", "7", "--json", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.slow
def test_verify_report_shape(tmp_path):
    out = tmp_path / "shape.json"
    assert run(["verify", "--suite", "all", "--p", "2", "--q", "2",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    ids = [r["check_id"] for r in data["results"]]
    assert len(ids) == len(set(ids))  # one claim per check id
    assert all(r["claim"] for r in data["results"])
    assert data["passed"] == all(r["status"] != "fail" for r in data["results"])
    assert {"seed", "primes", "cap_exact", "cap_modular"} <= set(data["environment"])
