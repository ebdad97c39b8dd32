import pytest

from otl import LONG, Static, ValidationError
from otl.verify import (
    Report,
    check_bellman,
    check_example21,
    check_no_averaging,
    check_price,
    enumeration_q,
    run_all,
)


class TestReport:
    def test_overall_is_conjunction(self):
        rep = Report(suite="demo")
        rep.add("a", True)
        rep.add("b", True)
        assert rep.overall
        rep.add("c", False)
        assert not rep.overall

    def test_informational_cases_do_not_count(self):
        rep = Report(suite="demo")
        rep.add("a", True)
        rep.add("note", False, informational=True)
        assert rep.overall

    def test_dict_schema(self):
        rep = check_price()
        doc = rep.to_dict()
        assert set(doc) == {"suite", "cases", "overall"}
        assert all({"description", "passed", "informational", "measured"} <= set(c) for c in doc["cases"])

    def test_render_mentions_outcome(self):
        text = check_price().render()
        assert "overall: PASS" in text


class TestCheckers:
    def test_bellman_suite_passes(self):
        rep = check_bellman()
        assert rep.overall
        # T = 0 rows are the trivial terminal condition
        assert any("T=0" in c.description for c in rep.cases)

    def test_example21_suite_passes(self):
        assert check_example21().overall

    def test_averaging_suite_passes(self):
        rep = check_no_averaging()
        assert rep.overall

    def test_averaging_reports_bayes_contrast(self):
        rep = check_no_averaging()
        info = [c for c in rep.cases if c.informational]
        assert len(info) == 1
        assert info[0].measured["posterior_predictive"] == pytest.approx(6 / 11)

    def test_averaging_gap_formula(self):
        cases = check_no_averaging().cases
        # the grid's first cases: q=0.55 and T=1 at tick scales 1 and 10
        assert cases[0].description.startswith("q=0.55 scale=1.0 T=1:")
        assert cases[0].measured["gap"] == pytest.approx(20 * (0.55 - 0.5))
        assert cases[5].description.startswith("q=0.55 scale=10.0 T=1:")
        assert cases[5].measured["gap"] == pytest.approx(200 * (0.55 - 0.5))

    def test_price_suite_passes(self):
        assert check_price().overall

    def test_run_all_covers_every_suite(self):
        reports = run_all()
        assert {r.suite for r in reports} == {"bellman", "example21", "averaging", "price"}
        assert all(r.overall for r in reports)

    def test_oracle_rejects_bad_ticks(self):
        # checked on entry, so also at T = 1, where no myopic step runs
        with pytest.raises(ValidationError, match="enumeration_q ticks"):
            enumeration_q(Static(0.6), LONG, 1, (-1.0, 1.0))

    def test_checkers_are_deterministic(self):
        a = check_bellman().to_dict()
        b = check_bellman().to_dict()
        assert a == b
