"""CLI subcommands, exit codes, JSON reports."""

import json
import re

import pytest

from leibniz_homology import Signature, invariants, run_suite
from leibniz_homology.cli import EXIT_CAP, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main
from leibniz_homology.homology import DEFAULT_CAP_EXACT


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


@pytest.mark.parametrize("pq", [(1, 1), (2, 0), (2, 1), (1, 2), (3, 0)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_invariants_small_n_has_no_false_mismatch(capsys, pq):
    # at n = 2 so(p,q) is abelian and I ⊗ Λ^1 has its two ends at k = 1:
    # those values are recorded, every other one matches the paper
    n = sum(pq)
    descs = ["so"] + [f"{kind}{k}" for kind in ("wedge:I:", "I*wedge:", "so*wedge:") for k in range(n + 1)]
    for desc in descs:
        assert run(["invariants", "--p", str(pq[0]), "--q", str(pq[1]), "--module", desc]) == EXIT_OK, desc
        out = capsys.readouterr().out
        assert "MISMATCH" not in out, out
        if n == 2 and desc in ("so", "I*wedge:1"):
            assert "(recorded: so is 1-dimensional" in out or "the k=1 / k=n-1 statements coincide" in out


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
    # d_5 (1,240 orbit columns) is past the cap; the entries before it are exact
    code = run(["homology", "--p", "2", "--q", "2", "--max-degree", "4", "--cap-exact", "1000"])
    assert code == EXIT_CAP
    captured = capsys.readouterr()
    assert "capped at degree 5" in captured.out
    assert captured.err == "partial report: degree 5: 1240 columns exceed the exact cap 1000\n"


def test_cap_exceeded_error_exits_3_with_its_message(capsys):
    # tensor:h:7 at (2,2) stacks 6 action matrices of dimension 10^7
    assert run(["invariants", "--p", "2", "--q", "2", "--module", "tensor:h:7"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.err.startswith("resource cap exceeded: stacked action matrix has 60000000 rows")
    assert captured.out == ""


def test_capped_report_predicts_only_the_printed_degrees(tmp_path, capsys):
    # the predicted series stops at the last printed degree (2, before the
    # cap at degree 4), while max_degree records the requested one
    out = tmp_path / "capped.json"
    argv = ["homology", "--p", "2", "--q", "2", "--max-degree", "1000", "--cap-exact", "100"]
    assert run(argv + ["--json", str(out)]) == EXIT_CAP
    results = json.loads(out.read_text())["results"]
    assert [r["variant"] for r in results] == ["homology", "cohomology"]
    for r in results:
        assert (r["max_degree"], r["capped_at"]) == (1000, 4)
        assert r["predicted"] == [1, 0, 0] and r["matches"] == [True] * 3 and len(r["entries"]) == 3
    capsys.readouterr()


def test_cap_defaults_follow_library():
    args = build_parser().parse_args(["homology", "--abelian", "2"])
    assert args.cap_exact == DEFAULT_CAP_EXACT


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


def test_removed_modular_flags_are_usage_errors(capsys):
    # every rank is exact, so the flags of the former two-prime route are gone
    for flag in (["--primes", "2"], ["--cap-modular", "5"]):
        assert run(["homology", "--abelian", "2"] + flag) == EXIT_USAGE
        assert run(["verify", "--suite", "structure", "--p", "2", "--q", "2"] + flag) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["algebra", "--p", "2", "--q", "2"], ["--seed", "1"]),
        (["algebra", "--p", "2", "--q", "2"], ["--cap-exact", "5"]),
        (["invariants", "--p", "2", "--q", "2", "--module", "so"], ["--cap-exact", "-5"]),
        (["invariants", "--p", "2", "--q", "2", "--module", "so"], ["--seed", "7"]),
    ],
    ids=["algebra-seed", "algebra-cap", "invariants-cap", "invariants-seed"],
)
def test_unread_flags_are_usage_errors(capsys, argv, flag):
    # algebra and invariants draw nothing at random and rank no boundary,
    # so they take neither flag
    assert run(argv + flag) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_run_options_accepted_by_homology_and_verify(tmp_path):
    for argv in (["homology", "--abelian", "2", "--max-degree", "1"],
                 ["verify", "--suite", "structure", "--p", "2", "--q", "2"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--seed", "5", "--cap-exact", "1000", "--json", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["environment"] == {"seed": 5, "cap_exact": 1000}


def test_algebra_and_invariants_record_empty_environment(tmp_path):
    for argv in (["algebra", "--p", "2", "--q", "2"],
                 ["invariants", "--p", "2", "--q", "2", "--module", "so"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--json", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["environment"] == {}


def test_negative_cap_is_usage_error(capsys):
    assert run(["homology", "--abelian", "2", "--cap-exact", "-1"]) == EXIT_USAGE
    assert run(["verify", "--suite", "structure", "--p", "2", "--q", "2", "--cap-exact", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("cap_exact must be at least 0") == 2
    # cap 0 is not an error: degree 0 needs only d_1, which has no columns
    assert run(["homology", "--abelian", "2", "--max-degree", "0", "--cap-exact", "0"]) == EXIT_OK


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


@pytest.mark.parametrize("name", ["claims", "bogus"])
def test_unknown_suite_is_value_error(name):
    # the suites are the CLI's choices, with no alias
    with pytest.raises(ValueError, match=f"unknown suite '{name}'"):
        run_suite(name, Signature(2, 2))


def test_verify_paper_definite(tmp_path, capsys):
    # q = 0: the definite affine orthogonal algebra is a checked row too
    out = tmp_path / "definite.json"
    assert run(["verify", "--suite", "paper", "--p", "4", "--q", "0",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["resolved_gamma_sign"] == -1


@pytest.mark.parametrize("pq", [(2, 3), (4, 1)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_verify_paper_asserts_witnesses_at_n5(pq):
    # the witness solves run at every n, not only at n = 4
    report = run_suite("paper", Signature(*pq))
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["complexes.gamma_homologous"] == "pass"
    assert statuses["complexes.alpha_tilde_not_boundary"] == "pass"
    assert report.passed


def test_verify_paper_asserts_witnesses_at_n6():
    # at (6,0) both witness solves scan the 720 elements of the rotation group
    report = run_suite("paper", Signature(6, 0))
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["complexes.gamma_homologous"] == "pass"
    assert statuses["complexes.alpha_tilde_not_boundary"] == "pass"
    assert report.passed


def test_spans_checks_reuse_the_table_bases(monkeypatch):
    # at n = 5 the rho and gamma spans checks read the so ⊗ wedge^k table's
    # bases at k = 2 and k = n - 2: one kernel per module and k, 3·(n+1)
    # for the three tables and one for the adjoint module
    calls = []
    kernel = invariants.invariant_subspace

    def counted(acting, space):
        calls.append(space)
        return kernel(acting, space)

    monkeypatch.setattr(invariants, "invariant_subspace", counted)
    report = run_suite("paper", Signature(3, 2))
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["invariants.rho_spans"] == statuses["invariants.gamma_spans"] == "pass"
    assert len(calls) == 3 * 6 + 1 == len(set(calls))


def test_verify_paper_modular_only_reports_witnesses_not_run(tmp_path, capsys):
    # a cap below the witness blocks (120 and 260 orbit columns) leaves the
    # exact witness solves unrun and reported as such; the homology table,
    # cut short under the same cap (d_4 has 161 columns), leaves the
    # prediction check and the duality check on that table reported as not
    # run too
    out = tmp_path / "capped.json"
    assert run(["verify", "--suite", "paper", "--p", "2", "--q", "2", "--cap-exact", "100",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    results = {r["check_id"]: r for r in data["results"]}
    for check_id in ("complexes.gamma_homologous", "complexes.alpha_tilde_not_boundary"):
        assert results[check_id]["status"] == "reported"
        assert re.fullmatch(r"not run: exact solve block \(grade .*\) has \d+ columns, cap 100",
                            results[check_id]["details"])
    assert not [r["check_id"] for r in data["results"] if r["status"] == "fail"]
    assert results["homology.matches_prediction"] == {
        "check_id": "homology.matches_prediction",
        "claim": "Loday homology dimensions equal the predicted series (1 + t^n) * sum t^(k(n-1))",
        "status": "reported",
        "details": "not run: degree 4: 161 columns exceed the exact cap 100",
    }
    assert results["homology.duality"]["status"] == "reported"
    assert results["homology.duality"]["details"] == results["homology.matches_prediction"]["details"]


@pytest.mark.parametrize("suite, check_id", [
    ("paper", "homology.matches_prediction"),
    ("all", "structure.abelian_homology"),
])
def test_capped_table_is_reported_not_refuted(tmp_path, capsys, suite, check_id):
    # a Betti table the cap cut short checks no claim: the check on it is
    # reported as not run with the cap's message, like the witness solves
    # past the same cap, and the suite passes
    out = tmp_path / "capped.json"
    assert run(["verify", "--suite", suite, "--p", "2", "--q", "2", "--cap-exact", "10",
                "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"]
    result = {r["check_id"]: r for r in data["results"]}[check_id]
    assert result["status"] == "reported"
    assert re.fullmatch(r"not run: degree \d+: \d+ columns exceed the exact cap 10", result["details"])


def test_duality_on_a_capped_table_is_reported_not_run(tmp_path):
    # both duality checks compare the table with its dual, a copy of it:
    # on a table the cap cut short they check nothing, so they are reported
    # as not run with the cap's message, like the checks on the table itself
    out = tmp_path / "capped.json"
    assert run(["verify", "--suite", "all", "--p", "2", "--q", "2", "--cap-exact", "10",
                "--json", str(out)]) == EXIT_OK
    results = {r["check_id"]: r for r in json.loads(out.read_text())["results"]}
    for table, duality in (("structure.abelian_homology", "structure.duality"),
                           ("homology.matches_prediction", "homology.duality")):
        assert results[table]["status"] == results[duality]["status"] == "reported"
        assert results[duality]["details"] == results[table]["details"]
        assert results[duality]["details"].startswith("not run: degree ")


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
    assert set(data["environment"]) == {"seed", "cap_exact"}


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "--p", "2", "--q", "2"],
        ["invariants", "--p", "2", "--q", "2", "--module", "so"],
        ["homology", "--p", "2", "--q", "2", "--max-degree", "2"],
        ["verify", "--suite", "structure", "--p", "2", "--q", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_json_path_is_usage_error(monkeypatch, capsys, tmp_path, argv):
    # refused before any computation: every subcommand's work raises here
    from leibniz_homology import cli, verify

    def no_work(*args, **kwargs):
        raise RuntimeError("computed before the --json path was checked")

    # algebra and verify import their work from ``verify`` when they run
    for module, name in ((verify, "validate"), (cli, "invariant_subspace"),
                         (cli, "homology_dims"), (verify, "run_suite")):
        monkeypatch.setattr(module, name, no_work)
    missing = tmp_path / "missing" / "x.json"
    head = "cannot write the --json report"
    for flags, err in [
        (["--json", str(missing)], f"{head} to {missing}: no directory {missing.parent}"),
        (["--json", str(tmp_path)], f"{head} to {tmp_path}: it is a directory"),
        # an empty path names no file: refused, not taken for "no report"
        (["--json", ""], f"{head}: the path is empty"),
        (["--json="], f"{head}: the path is empty"),
    ]:
        assert run(argv + flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {err}"]
    assert not missing.parent.exists()
