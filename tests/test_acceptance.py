"""Acceptance criteria, one test each.

Every check is exact (integer identities, equality of canonical polynomials,
multiset equality of summaries) and prints its own pass/fail line; run with
`pytest -s tests/test_acceptance.py` to see them.  The same checks back the
CLI verb `qpfiber selftest`.
"""

from qpfiber import selfcheck


def _report(result):
    print(f"ACCEPTANCE {'PASS' if result.ok else 'FAIL'}: {result.name} ({result.detail})")
    assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_1_chi_identity():
    _report(selfcheck.check_chi_identity())


def test_criterion_2_fiber_agreement():
    _report(selfcheck.check_fiber_agreement())


def test_criterion_3_cross_oracle_alexander():
    _report(selfcheck.check_cross_oracle())


def test_criterion_4_pad_pipeline():
    _report(selfcheck.check_pad_pipeline())


def test_criterion_5_expand_pipeline():
    _report(selfcheck.check_expand_pipeline())


def test_criterion_6_self_calibration():
    _report(selfcheck.check_self_calibration())


def test_criterion_7_whitehead_reduction():
    _report(selfcheck.check_whitehead_reduction())


def test_criterion_8_quasipositize():
    _report(selfcheck.check_quasipositize())


def test_criterion_9_fullness_detector():
    _report(selfcheck.check_injectivity_detector())


def test_criterion_10_pl_seifert_agreement():
    _report(selfcheck.check_pl_seifert())


def test_criterion_11_determinant_leibniz():
    _report(selfcheck.check_determinant())


def test_criterion_12_reduced_beta():
    _report(selfcheck.check_reduced_beta())
