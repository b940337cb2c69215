"""CLI: commands, output formats, exit codes."""

import json

import pytest

from qtheta.cli import main


def test_eval_output(capsys):
    assert main(["eval", "1/(1-q)", "--order", "4"]) == 0
    assert capsys.readouterr().out == "1 + q + q^2 + q^3 + O(q^4)\n"


def test_eval_with_params(capsys):
    assert main(["eval", "theta(a)", "--order", "5", "--params", "a=1/2"]) == 0
    out = capsys.readouterr().out
    assert out == "1/2 + 1/4*q - 1/8*q^3 + O(q^5)\n"


def test_eval_error_exit_code(capsys):
    assert main(["eval", "poch(a, -1)", "--params", "a=2"]) == 2
    assert "error" in capsys.readouterr().err
    # A bad Pochhammer length or step fails at the call, also as a divisor.
    for expr, msg in [("poch(2,0-1)", "negative Pochhammer length -1"),
                      ("1/poch(2,0-1)", "negative Pochhammer length -1"),
                      ("poch(2,3,0)", "Pochhammer step must be >= 1"),
                      ("poch(q^(0-1),3,0)", "Pochhammer step must be >= 1"),
                      ("1/poch(2,3,0)", "Pochhammer step must be >= 1")]:
        assert main(["eval", expr, "--order", "5"]) == 2, expr
        err = capsys.readouterr().err
        assert err.startswith("error: %s (at offset " % msg), err


def test_eval_unbound_exit_code(capsys):
    assert main(["eval", "theta(a)"]) == 2


def test_list_contains_corpus(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "thm4.5" in out
    assert len(out.strip().splitlines()) >= 40


def test_express_pm_output(capsys):
    assert main(["express-pm", "--m", "2", "--params", "a=2,b=3",
                 "--order", "20"]) == 0
    out = capsys.readouterr().out
    assert "theta(a):" in out and "-2" in out
    assert "theta(b):" in out and "3" in out
    assert "residual: zero to O(q^" in out


def test_express_pm_needs_both_params(capsys):
    assert main(["express-pm", "--m", "2", "--params", "a=2"]) == 2


def test_verify_text_mode_pass(capsys):
    assert main(["verify", "thm1.2", "--order", "10", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS thm1.2" in out
    assert "1 passed / 0 failed" in out


def test_verify_json_mode(capsys):
    assert main(["verify", "eq4.1", "--order", "10", "--trials", "2",
                 "--seed", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["identity"] == "eq4.1" and payload[0]["pass"] is True


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["verify", "jacobi", "--order", "10", "--trials", "1",
                 "--json", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload[0]["identity"] == "jacobi"


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qid"
    bad.write_text(
        'identity broken ; params a ; lhs theta(a) ; rhs theta(a) + q^6 ;'
        ' source "broken on purpose"',
        encoding="utf-8",
    )
    code = main(["verify", "broken", "--order", "10", "--trials", "1",
                 "--file", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL broken" in out and "first bad coefficient" in out


def test_text_and_json_agree_on_outcome(tmp_path, capsys):
    args = ["verify", "thm2.1-2", "--order", "10", "--trials", "1", "--seed", "4"]
    code_text = main(args)
    capsys.readouterr()
    code_json = main(args + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code_text == code_json == 0
    assert all(r["pass"] for r in payload)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--order", "notanumber"])
    assert exc.value.code == 2


def test_bad_params_syntax(capsys):
    for params in ("a2", "a=1/0", "a=abc", "a="):
        assert main(["eval", "theta(a)", "--params", params]) == 2, params
        assert capsys.readouterr().err.startswith("error:"), params


def test_eval_guard_covers_jtheta(capsys):
    argv = ["eval", "jtheta(a*q^5)*jtheta(b*q^5)", "--order", "10", "--params", "a=2,b=3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(" + O(q^10)\n")


def test_missing_identity_file(capsys):
    assert main(["verify", "--file", "/nonexistent/path.qid"]) == 2
    assert "error" in capsys.readouterr().err
