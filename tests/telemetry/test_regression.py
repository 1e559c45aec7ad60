"""The exact modelled-rate gate behind ``repro regress``."""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.telemetry import (
    check_rates,
    load_baseline,
    measure_canonical,
    run_gate,
    save_baseline,
)

BASE = {"pair_exact_qsfp": 1000.0, "pair_fast_qsfp": 3000.0}
RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def measured():
    return measure_canonical()


class TestBaselineFile:
    def test_save_load_round_trip(self, tmp_path):
        path = save_baseline(BASE, tmp_path)
        assert path.name == "BENCH_rates.json"
        assert load_baseline(tmp_path) == BASE

    def test_load_rejects_missing_or_foreign(self, tmp_path):
        assert load_baseline(tmp_path) is None
        (tmp_path / "BENCH_rates.json").write_text(
            json.dumps({"format": "other"}))
        assert load_baseline(tmp_path) is None


class TestCheckRates:
    def test_exact_match_passes(self):
        assert check_rates(dict(BASE), BASE) == []

    def test_any_difference_flags(self):
        up = math.nextafter(BASE["pair_fast_qsfp"], math.inf)
        measured = {"pair_exact_qsfp": 999.0, "pair_fast_qsfp": up}
        violations = check_rates(measured, BASE)
        assert [v.metric for v in violations] == [
            "pair_exact_qsfp", "pair_fast_qsfp"]
        assert violations[0].baseline == 1000.0
        assert violations[0].measured == 999.0

    def test_names_are_checked_both_ways(self):
        (gone,) = check_rates({"pair_exact_qsfp": 1000.0}, BASE)
        assert gone == ("pair_fast_qsfp", 3000.0, None)
        (new,) = check_rates({**BASE, "new": 1.0}, BASE)
        assert new == ("new", None, 1.0)


class TestGate:
    def test_acceptance_gate_catches_injected_slowdown(self, tmp_path):
        """Against a freshly updated baseline a clean gate passes; a
        baseline one ulp above a measured rate (a slowdown of one ulp)
        fails."""
        update = run_gate(results_dir=tmp_path, update=True)
        assert "baseline updated" in update.to_text()
        assert load_baseline(tmp_path) == update.measured
        assert set(update.measured) == {
            "pair_exact_qsfp", "pair_fast_qsfp", "pair_exact_pcie"}

        clean = run_gate(results_dir=tmp_path)
        assert clean.ok
        assert "regression gate: OK" in clean.to_text()

        rates = dict(update.measured)
        rates["pair_exact_qsfp"] = math.nextafter(
            rates["pair_exact_qsfp"], math.inf)
        save_baseline(rates, tmp_path)
        slowed = run_gate(results_dir=tmp_path)
        assert not slowed.ok
        assert [v.metric for v in slowed.violations] == ["pair_exact_qsfp"]
        assert "REGRESSIONS" in slowed.to_text()

    @pytest.mark.parametrize("edit", [
        lambda rates: {**rates, "gone": 1.0},
        lambda rates: {k: v for k, v in rates.items()
                       if k != "pair_exact_pcie"},
    ], ids=["deleted-config-still-baselined", "config-never-baselined"])
    def test_baseline_names_must_match(self, edit, measured, tmp_path):
        save_baseline(edit(measured), tmp_path)
        assert not run_gate(results_dir=tmp_path).ok

    def test_measurements_are_deterministic(self, measured):
        assert measure_canonical() == measured

    def test_missing_baseline_reports_rates_only(self, tmp_path):
        report = run_gate(results_dir=tmp_path)
        assert report.ok
        assert "no committed baseline" in report.to_text()


class TestCommittedBaseline:
    """What CI's gate job checked, on every tier-1 run."""

    def test_committed_results_pass(self):
        report = run_gate(results_dir=RESULTS)
        assert report.ok, report.to_text()

    def test_a_last_digit_edit_fails(self, tmp_path):
        shutil.copy(RESULTS / "BENCH_rates.json", tmp_path)
        path = tmp_path / "BENCH_rates.json"
        text = path.read_text()
        rate = repr(load_baseline(tmp_path)["pair_exact_qsfp"])
        edited = rate[:-1] + str((int(rate[-1]) + 1) % 10)
        path.write_text(text.replace(rate, edited))
        (violation,) = run_gate(results_dir=tmp_path).violations
        assert violation.metric == "pair_exact_qsfp"
