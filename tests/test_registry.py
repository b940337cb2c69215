"""Registry and verifier: corpus, sampling, verification, reports."""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from qtheta import dsl
from qtheta import series as se
from qtheta.errors import QThetaError, RegistryError, SamplingError
from qtheta.identities import load_registry, parse_identities
from qtheta.kernels import QRational, ord_of, to_series
from qtheta.verifier import (
    full_binding,
    report_to_dict,
    reports_to_json,
    sample_params,
    verify_all,
    verify_identity,
)

from helpers import assert_eq_series


REGISTRY = load_registry()
BY_NAME = {i.name: i for i in REGISTRY}


# -- corpus ---------------------------------------------------------------------


def test_corpus_size():
    assert len(REGISTRY) >= 40


def test_corpus_names_unique_and_expected():
    names = {i.name for i in REGISTRY}
    assert len(names) == len(REGISTRY)
    for expected in ("jacobi", "ramanujan-p4", "ramanujan-p12", "warnaar-1.4",
                     "andrews-warnaar-1.5", "schilling-warnaar-1.6",
                     "alladi-berkovich", "thm1.2", "thm1.3", "thm3.2", "thm3.3",
                     "cor3.4", "thm3.5", "cor3.6", "thm3.7", "cor3.8", "prop3.9",
                     "cor3.10", "final-sum", "thm4.1", "eq4.1", "S-relation",
                     "thm4.2", "cor4.3", "thm4.4", "thm4.5", "poch-reflection",
                     "theta-shift"):
        assert expected in names
    assert sum(1 for n in names if n.startswith("phi65-")) == 7
    assert sum(1 for n in names if n.startswith("wang-ma-thm1.1-")) == 5
    assert sum(1 for n in names if n.startswith("thm2.1-")) == 4
    assert sum(1 for n in names if n.startswith("cor2.2-")) == 4


# sha256 over every built-in record as parsed: its name, params,
# constraints, rendered derives, rendered lhs and rhs, and source.
CORPUS_TREE_SHA256 = "5ff2c894412ccf2f08fa1a55109cecb8c1cac51680496bda5486fde3a3503772"


def test_parsed_corpus_is_pinned():
    h = hashlib.sha256()
    for ident in REGISTRY:
        fields = [ident.name, " ".join(ident.params)]
        fields += ["%s %s %s" % (c.kind, c.text, ",".join(c.expr) if c.kind == "distinct"
                                 else dsl.render(c.expr)) for c in ident.constraints]
        fields += ["%s := %s" % (d, dsl.render(t)) for d, t in ident.derives]
        fields += [dsl.render(ident.lhs), dsl.render(ident.rhs), ident.source]
        h.update(("\n".join(fields) + "\n\n").encode("utf-8"))
    assert h.hexdigest() == CORPUS_TREE_SHA256


def test_user_file_extends_corpus(tmp_path):
    path = tmp_path / "extra.qid"
    path.write_text(
        'identity user-geom ; params a ;\n'
        '  lhs 1/(1-a*q) ;\n'
        '  rhs sum(n, 0, inf, a^n * q^n, n) ;\n'
        '  source "user"\n',
        encoding="utf-8",
    )
    regs = load_registry([str(path)])
    assert len(regs) == len(REGISTRY) + 1
    report = verify_identity(regs[-1], 10, 2, 1)
    assert report.passed


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.qid"
    path.write_text(
        'identity jacobi ; params a ; lhs theta(a) ; rhs theta(a) ; source "x"',
        encoding="utf-8",
    )
    with pytest.raises(RegistryError,
                       match=re.escape("%s:1: duplicate identity name 'jacobi'" % path)):
        load_registry([str(path)])
    # The line is the repeated record's, in a file that repeats its own name.
    path.write_text(
        'identity mine ; params a ; lhs theta(a) ; rhs theta(a) ; source "x"\n\n'
        '# again\nidentity mine ;\n  params a ; lhs theta(a) ; rhs theta(a) ; source "x"\n',
        encoding="utf-8",
    )
    with pytest.raises(RegistryError,
                       match=re.escape("%s:4: duplicate identity name 'mine'" % path)):
        load_registry([str(path)])


def test_record_validation_errors():
    # Each message starts with the file and the line.
    with pytest.raises(RegistryError, match="^<string>:1: record missing 'rhs'"):
        parse_identities('identity x ; params a ; lhs theta(a) ; source "s"')
    with pytest.raises(RegistryError, match="^<string>:1: undeclared"):
        parse_identities(
            'identity x ; params a ; lhs theta(b) ; rhs theta(a) ; source "s"')
    with pytest.raises(RegistryError, match="^<string>:1: sum index shadows"):
        parse_identities(
            'identity x ; params a n ; lhs sum(n,0,3,a^n) ; rhs theta(a) ; source "s"')
    with pytest.raises(RegistryError, match="^<string>:1: unrecognized constraint"):
        parse_identities(
            'identity x ; params a ; require wobbly(a) ;'
            ' lhs theta(a) ; rhs theta(a) ; source "s"')
    with pytest.raises(RegistryError, match="^<string>:1: source must be a quoted"):
        parse_identities('identity x ; params a ; lhs theta(a) ; rhs theta(a) ; source s')


_RECORD = ('identity x ; params a b ;\n'
           '  lhs theta(a) ;\n'
           '  rhs theta(a) ;\n'
           '  source "s" ;\n')


def test_repeated_require_fields_accumulate():
    ident = parse_identities(_RECORD + '  require notone(a*b) ;\n  require nonzero(a+b)\n')[0]
    assert [c.text for c in ident.constraints] == ["notone(a*b)", "nonzero(a+b)"]


@pytest.mark.parametrize("field", ["params a", "lhs theta(b)", "rhs theta(b)", 'source "t"'])
def test_other_repeated_fields_are_errors(field):
    with pytest.raises(RegistryError, match="^extra.qid:6: repeated '%s' field" % field.split()[0]):
        parse_identities(_RECORD + "  derive c := a ;\n  %s\n" % field, "extra.qid")


@pytest.mark.parametrize("text, message", [
    # An unclosed call: the ';' that theta does not take points at its '('.
    ('identity y ; params a ;\n  lhs theta(a ; rhs theta(a) ; source "s"',
     "extra.qid:7:12: 'theta' does not take ';' groups"),
    ('identity y ; params a ;\n\n  lhs ;\n  rhs theta(a) ; source "s"',
     "extra.qid:8:7: unexpected token ';'"),
    ('identity y ; params a ;\n  require distinct(a) ;\n'
     '  lhs theta(a) ; rhs theta(a) ; source "s"',
     "extra.qid:7: distinct(...) needs two parameter names"),
])
def test_errors_in_a_second_record_name_the_file_and_line(text, message):
    # The second record starts on line 6 of the file.
    with pytest.raises(QThetaError, match="^" + re.escape(message)):
        parse_identities(_RECORD + "\n" + text, "extra.qid")


def test_tree_positions_are_file_offsets():
    text = _RECORD + '# a comment\nidentity y ; params a ; lhs 1/theta(a) ; rhs 1 ; source "s"'
    ident = parse_identities(text)[1]
    assert ident.lhs.pos == text.index("/theta")
    assert ident.lhs.right.pos == text.index("theta(a) ; rhs 1")


def test_distinct_constraint():
    text = ('identity t ; params a b ; require distinct(a, b) ;'
            ' lhs theta(a) ; rhs theta(a) ; source "s"')
    ident = parse_identities(text)[0]
    from qtheta.verifier import _constraint_ok
    assert not _constraint_ok(ident.constraints[0],
                              {"a": Fraction(2), "b": Fraction(2)})
    assert _constraint_ok(ident.constraints[0],
                          {"a": Fraction(2), "b": Fraction(3)})


# -- sampling -------------------------------------------------------------------------


def test_sampling_is_deterministic():
    ident = BY_NAME["thm1.2"]
    assert sample_params(ident, 5, 0) == sample_params(ident, 5, 0)
    assert sample_params(ident, 5, 0) != sample_params(ident, 5, 1) or True


def test_sampling_respects_defaults_and_constraints():
    ident = BY_NAME["thm1.2"]
    for trial in range(6):
        binding = sample_params(ident, 1, trial)
        a, b = binding["a"], binding["b"]
        for v in (a, b):
            assert v not in (0, 1, -1)
        assert a not in (b, -b)
        assert a * b != 1


def test_sampling_notone_rejects():
    text = ('identity t ; params a b ; require notone(a*b) ;'
            ' lhs theta(a) ; rhs theta(a) ; source "s"')
    ident = parse_identities(text)[0]
    binding = {"a": Fraction(1, 2), "b": Fraction(2)}
    from qtheta.verifier import _constraint_ok
    assert not _constraint_ok(ident.constraints[0], binding)


def test_sampling_error_when_unsatisfiable():
    text = ('identity t ; params a ; require nonzero(a-a) ;'
            ' lhs theta(a) ; rhs theta(a) ; source "s"')
    ident = parse_identities(text)[0]
    with pytest.raises(SamplingError):
        sample_params(ident, 0, 0)


def test_distinct_on_a_series_valued_derived_parameter():
    # c = a/(1-q) is an exact N/D value, so distinct(a, c) compares a and c
    # as series to SAMPLE_PREC: they differ at q^1.  In a*(1-q)/(1-q) the
    # factor 1 - q cancels, so c is the rational a and never differs.
    record = ('identity %s ; params a ; derive c := %s ; require distinct(a, c) ;'
              ' lhs theta(c) ; rhs theta(c) ; source "s"')
    holds = parse_identities(record % ("holds", "a/(1 - q)"))[0]
    never = parse_identities(record % ("never", "a*(1 - q)/(1 - q)"))[0]
    assert full_binding(holds, {"a": Fraction(2, 3)}, 20)["c"] == QRational(
        ((0, 2),), ((0, 3), (1, -3)))
    assert full_binding(never, {"a": Fraction(2, 3)}, 20)["c"] == Fraction(2, 3)
    assert set(sample_params(holds, 0, 0)) == {"a"}
    assert verify_identity(holds, 10, 2, 0).passed
    with pytest.raises(SamplingError):
        sample_params(never, 0, 0)
    report = verify_identity(never, 10, 1, 0)
    assert not report.passed and report.trials[0].status == "error"
    assert "no admissible binding" in report.trials[0].error


def test_derived_binding_is_exact_series():
    ident = BY_NAME["cor3.4"]
    base = sample_params(ident, 3, 0)
    binding = full_binding(ident, base, 20)
    b = binding["b"]
    # (a^2 + a q^3)/(a q + q^2) = a(a + q^3) q^-1/(a + q): exact, with a
    # simple pole at q = 0.
    assert isinstance(b, QRational)
    assert ord_of(b) == -1 and len(b.num) == 2 and len(b.den) == 2
    a = base["a"]
    num = se.add(se.from_rational(a * a, 24), se.monomial(a, 3, 24))
    den = se.add(se.monomial(a, 1, 24), se.monomial(1, 2, 24))
    assert to_series(b, 40).prec >= 40
    assert_eq_series(to_series(b, 40), se.divide(num, den))


def test_derived_binding_square_stays_rational():
    ident = BY_NAME["phi65-2"]
    base = sample_params(ident, 3, 0)
    binding = full_binding(ident, base, 20)
    assert binding["a"] == base["s"] ** 2


# -- verification -----------------------------------------------------------------------


def test_verify_single_identity_passes():
    report = verify_identity(BY_NAME["andrews-warnaar-1.5"], 30, 3, 7)
    assert report.passed
    for t in report.trials:
        assert t.status == "zero" and t.effective_precision >= 30


def test_verify_corrupted_identity_fails_with_first_bad():
    jac = BY_NAME["jacobi"]
    one_plus_q = dsl.parse("(1+q) * (%s)" % dsl.render(jac.lhs))
    bad = dataclasses.replace(jac, name="jacobi-broken", lhs=jac.rhs, rhs=one_plus_q)
    report = verify_identity(bad, 10, 2, 0)
    assert not report.passed
    for t in report.trials:
        assert t.status == "nonzero"
        assert t.first_bad is not None
        exp, coeff = t.first_bad
        assert exp < 10 and coeff != 0


def test_verify_jtheta_guard_covers_negative_half():
    # jtheta(a*q^5) sums x^n over n < 0 too, which dips to q^-10.
    text = ('identity jt-sq ; params a b ; lhs jtheta(a*q^5)*jtheta(b*q^5) ; '
            'rhs jtheta(a*q^5)*jtheta(b*q^5) ; source "self"')
    report = verify_identity(parse_identities(text)[0], 20, 1, 1)
    assert report.passed
    assert report.trials[0].effective_precision >= 20


def test_verify_thm44_samples_a_only():
    report = verify_identity(BY_NAME["thm4.4"], 25, 3, 1)
    assert report.passed
    assert all(set(t.binding) == {"a"} for t in report.trials)


def test_verify_order_floor():
    with pytest.raises(Exception):
        verify_identity(BY_NAME["jacobi"], 4, 1, 0)


def test_verify_errors_mark_trial_not_crash():
    text = ('identity t ; params a ; lhs 1/(a-a) ; rhs theta(a) ; source "s"')
    ident = parse_identities(text)[0]
    report = verify_identity(ident, 10, 1, 0)
    assert not report.passed
    assert report.trials[0].status == "error"
    assert report.trials[0].error


def test_mutation_sensitivity_sampled():
    rng = random.Random(0)
    order = 12
    for ident in rng.sample(REGISTRY, 5):
        bumped = dsl.parse("(%s) + q^%d" % (dsl.render(ident.rhs), order - 1))
        mutated = dataclasses.replace(ident, rhs=bumped)
        report = verify_identity(mutated, order, 1, 4)
        assert not report.passed, "mutated %s still passed" % ident.name
        trial = report.trials[0]
        assert trial.status == "nonzero" and trial.first_bad[0] <= order - 1


def test_verify_all_filter_thm21():
    reports, summary = verify_all(order=10, trials=1, seed=2, name_filter="thm2.1-*")
    assert [r.identity for r in reports] == ["thm2.1-2", "thm2.1-3", "thm2.1-4",
                                             "thm2.1-5"]
    assert summary == {"total": 4, "passed": 4, "failed": 0}


def test_verify_all_empty_filter():
    reports, summary = verify_all(order=10, trials=1, seed=2, name_filter="nothing*")
    assert reports == [] and summary["total"] == 0


def test_guard_sufficiency_whole_corpus():
    # every built-in must reach at least the requested order at default guard
    reports, summary = verify_all(order=12, trials=1, seed=9)
    assert summary["failed"] == 0
    for r in reports:
        for t in r.trials:
            assert t.effective_precision >= 12, r.identity


# -- reports ----------------------------------------------------------------------------


def test_report_json_schema():
    reports, _ = verify_all(order=10, trials=2, seed=3, name_filter="thm1.2")
    payload = json.loads(reports_to_json(reports))
    assert isinstance(payload, list) and len(payload) == 1
    rep = payload[0]
    assert set(rep) == {"identity", "source", "order", "trials", "pass", "millis"}
    assert rep["identity"] == "thm1.2" and rep["order"] == 10
    assert isinstance(rep["pass"], bool) and isinstance(rep["millis"], int)
    for t in rep["trials"]:
        assert set(t) <= {"binding", "effective_precision", "status", "first_bad",
                          "error"}
        assert t["status"] in ("zero", "nonzero", "error")
        assert isinstance(t["effective_precision"], int)
        for v in t["binding"].values():
            Fraction(v)  # "p/q" strings


def test_report_json_deterministic():
    r1, _ = verify_all(order=10, trials=2, seed=11, name_filter="thm1.2")
    r2, _ = verify_all(order=10, trials=2, seed=11, name_filter="thm1.2")
    assert reports_to_json(r1, with_timing=False) == reports_to_json(r2, with_timing=False)
    r3, _ = verify_all(order=10, trials=2, seed=12, name_filter="thm1.2")
    assert (reports_to_json(r1, with_timing=False)
            != reports_to_json(r3, with_timing=False))


def test_report_first_bad_serialized():
    jac = BY_NAME["jacobi"]
    bad = dataclasses.replace(jac, rhs=dsl.parse("(%s) + q^6" % dsl.render(jac.rhs)))
    report = verify_identity(bad, 10, 1, 0)
    d = report_to_dict(report)
    t = d["trials"][0]
    assert t["status"] == "nonzero"
    assert t["first_bad"]["exp"] == 6 and Fraction(t["first_bad"]["coeff"]) == -1
