"""CLI: commands, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtheta import dsl
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


def test_eval_zero_to_a_negative_power_exit_code(capsys):
    assert main(["eval", "0^-1"]) == 2
    assert capsys.readouterr().err == "error: zero raised to a negative power (at offset 1)\n"


def test_eval_non_ascii_digit_exit_code(capsys):
    # str.isdigit accepts '\u00b2'; the lexer does not, so this is a
    # ParseError at the character, not a traceback.
    assert main(["eval", "q^\u00b2"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '\u00b2' (line 1, col 3)\n"


def test_eval_unbound_exit_code(capsys):
    assert main(["eval", "theta(a)"]) == 2


def test_python_m_qtheta_lists_the_corpus():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qtheta", "list"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert len(proc.stdout.splitlines()) == 48


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


@pytest.mark.parametrize("params, m", [
    ("a=2,b=3", "1"),    # no system below m = 2
    ("a=2,b=2", "3"),    # a = b: singular
    ("a=2,b=1/2", "3"),  # ab = 1: P_m's (ab/q^m;q)_n vanishes
    ("a=1,b=3", "3"),    # a = 1: P_m's (a;q)_n vanishes
    ("a=2,b=3,q=7", "2"),  # q is the series variable, not a parameter
])
def test_express_pm_degenerate_inputs_exit_code(params, m, capsys):
    assert main(["express-pm", "--m", m, "--params", params, "--order", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_express_pm_nonpositive_order_exit_code(capsys):
    assert main(["express-pm", "--m", "3", "--params", "a=2,b=3", "--order", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "precision >= 1" in captured.err


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


@pytest.mark.parametrize("mode", [[], ["--json"], ["--out", "report"]])
def test_verify_filter_matching_nothing_is_a_usage_error(mode, tmp_path, capsys):
    out_path = tmp_path / "report"
    mode = [str(out_path) if m == "report" else m for m in mode]
    code = main(["verify", "nosuch", "--order", "10", "--trials", "1"] + mode)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no identity matches 'nosuch'\n"
    assert not out_path.exists()


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


def test_verify_error_exit_code(tmp_path, capsys):
    text = ('identity broken ; params a ;\n  lhs theta(a) / (a - a) ; rhs theta(a) ;'
            ' source "divides by zero on purpose"')
    bad = tmp_path / "bad.qid"
    bad.write_text(text, encoding="utf-8")
    code = main(["verify", "broken", "--order", "10", "--trials", "1",
                 "--file", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL broken ")
    # Tree positions are offsets into the file, reported as its line.
    assert "error: %s:2: division by zero" % bad in out.splitlines()[0]


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
    # q is the series variable, not a parameter: a binding would be ignored.
    for params in ("a2", "a=1/0", "a=abc", "a=", "q=2", "q=5,a=2"):
        assert main(["eval", "theta(a)", "--params", params]) == 2, params
        assert capsys.readouterr().err.startswith("error:"), params


def test_eval_guard_covers_jtheta(capsys):
    argv = ["eval", "jtheta(a*q^5)*jtheta(b*q^5)", "--order", "10", "--params", "a=2,b=3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(" + O(q^10)\n")


def test_eval_guard_covers_deep_u_q_and_powers(capsys):
    # The guard must cover U_m's and Q_m's own dip (theta's for U_0), and
    # e times the dip of the base of x^e.
    for expr in ("U(0, 3/q^4)^3", "theta(3/q^4)^5", "U(4, 3/q^7)^5", "Q(5, 3/q^9)^3"):
        assert main(["eval", expr, "--order", "6"]) == 0
        assert capsys.readouterr().out.endswith(" + O(q^6)\n"), expr


def test_eval_retries_products_of_deep_dip_calls(capsys):
    # The guard does not add up the dips of a product's factors; eval
    # re-evaluates at the shortfall instead of printing a short result.
    for expr in ("*".join(["theta(3/q^4)"] * 4), "*".join(["U(3,1/q^5)"] * 5)):
        assert main(["eval", expr, "--order", "6"]) == 0
        assert capsys.readouterr().out.endswith(" + O(q^6)\n"), expr


def test_missing_identity_file(capsys):
    assert main(["verify", "--file", "/nonexistent/path.qid"]) == 2
    assert "error" in capsys.readouterr().err


_TOO_DEEP = "error: expression nested deeper than %d levels (line 1, col " % dsl.MAX_DEPTH
_NESTINGS = {
    "parens": lambda k: "(" * (k - 1) + "q" + ")" * (k - 1),
    "minus": lambda k: "-" * (k - 1) + "q",
    "power": lambda k: "q^" * (k - 1) + "2",
    "plus": lambda k: "+".join(["q"] * k),
    "calls": lambda k: "theta(" * (k - 1) + "q^2/3" + ")" * (k - 1),
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_eval_too_deep_is_a_parse_error(capsys, shape):
    # Past MAX_DEPTH the parser stops with a position instead of
    # overflowing the interpreter stack; exit 1 would mean a failed identity.
    for k in (dsl.MAX_DEPTH + 1, 1000):
        assert main(["eval", "--order", "3", "--", _NESTINGS[shape](k)]) == 2
        assert capsys.readouterr().err.startswith(_TOO_DEEP), (shape, k)


@pytest.mark.parametrize("shape", ["parens", "minus", "plus"])
def test_eval_at_max_depth(capsys, shape):
    text = _NESTINGS[shape](dsl.MAX_DEPTH)
    assert main(["eval", "--order", "3", "--", text]) == 0
    assert capsys.readouterr().out.endswith(" + O(q^3)\n")
    tree = dsl.parse(text)
    assert dsl.parse(dsl.render(tree)) == tree and dsl.neg_shift(tree) == 0


def test_too_deep_identity_file(tmp_path, capsys):
    deep = tmp_path / "deep.qid"
    deep.write_text("identity deep ; params a ; lhs %s ; rhs q ; source \"nested\""
                    % _NESTINGS["parens"](1000), encoding="utf-8")
    assert main(["verify", "deep", "--order", "5", "--file", str(deep)]) == 2
    assert "nested deeper than %d levels" % dsl.MAX_DEPTH in capsys.readouterr().err


def test_malformed_second_record_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "two.qid"
    path.write_text('identity one ; params a ; lhs theta(a) ; rhs theta(a) ; source "s"\n'
                    '\n'
                    'identity two ; params a ;\n'
                    '  lhs theta(a) * ;\n'
                    '  rhs theta(a) ; source "s"\n', encoding="utf-8")
    assert main(["verify", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:4:" % path) and "Traceback" not in err, err
