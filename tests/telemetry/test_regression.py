"""The regression detector and the ``repro regress`` gate."""

import json

import pytest

from repro.telemetry import (
    RunRegistry,
    Violation,
    check_bench_files,
    check_rates,
    check_run,
    load_baseline,
    measure_canonical,
    run_gate,
    save_baseline,
)

BASE = {"pair_exact_qsfp": 1000.0, "pair_fast_qsfp": 3000.0}


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
    def test_within_threshold_passes(self):
        measured = {"pair_exact_qsfp": 950.0, "pair_fast_qsfp": 3100.0}
        assert check_rates(measured, BASE, threshold=0.10) == []

    def test_degradation_beyond_threshold_flags(self):
        measured = {"pair_exact_qsfp": 850.0, "pair_fast_qsfp": 3000.0}
        violations = check_rates(measured, BASE, threshold=0.10)
        assert [v.metric for v in violations] == ["pair_exact_qsfp"]
        assert violations[0].delta_pct == pytest.approx(-15.0)
        assert "degraded" in violations[0].describe()

    def test_unmeasured_baseline_entries_are_skipped(self):
        assert check_rates({}, BASE) == []


class TestCheckRun:
    def _registry(self, tmp_path, rates):
        registry = RunRegistry(tmp_path / "runs")
        registry.root.mkdir(parents=True)
        for i, rate in enumerate(rates):
            d = registry.root / f"run-{i}"
            d.mkdir()
            (d / "run.json").write_text(json.dumps({
                "format": "fireaxe-repro-run",
                "run_id": f"run-{i}",
                "fingerprint": "abc",
                "rate_hz": rate,
                "created": float(i),
            }))
        return registry

    def test_no_history_no_verdict(self, tmp_path):
        registry = self._registry(tmp_path, [1000.0])
        assert check_run(registry.list_runs()[-1], registry) == []

    def test_judged_against_newest_prior_run(self, tmp_path):
        registry = self._registry(tmp_path, [2000.0, 1000.0, 850.0])
        violations = check_run(registry.list_runs()[-1], registry)
        assert len(violations) == 1
        assert violations[0].source == "run-1"  # not the oldest
        assert violations[0].measured == 850.0

    def test_matching_rate_passes(self, tmp_path):
        registry = self._registry(tmp_path, [1000.0, 990.0])
        assert check_run(registry.list_runs()[-1], registry) == []


class TestCheckBenchFiles:
    def test_overhead_above_bound_flags(self, tmp_path):
        (tmp_path / "BENCH_trace_overhead.json").write_text(json.dumps({
            "bound_pct": 5.0,
            "null_overhead_pct": 1.0,
            "null_metrics_overhead_pct": 7.5,
        }))
        violations = check_bench_files(tmp_path)
        assert [v.metric for v in violations] \
            == ["null_metrics_overhead_pct"]

    def test_live_sink_cost_against_the_jit_flags(self, tmp_path):
        path = tmp_path / "BENCH_trace_overhead.json"
        path.write_text(json.dumps({
            "recording_vs_jit_x": 2.4, "sampling_vs_jit_pct": 31.0}))
        assert [v.metric for v in check_bench_files(tmp_path)] \
            == ["recording_vs_jit_x", "sampling_vs_jit_pct"]
        path.write_text(json.dumps({
            "recording_vs_jit_x": 1.4, "sampling_vs_jit_pct": 18.0}))
        assert check_bench_files(tmp_path) == []

    def test_token_plane_below_floors_flags(self, tmp_path):
        (tmp_path / "BENCH_token_plane.json").write_text(json.dumps({
            "packed_codec_speedup": 4.2,
            "detail_bit_identical": False,
        }))
        violations = check_bench_files(tmp_path)
        assert [(v.source, v.metric) for v in violations] == [
            ("BENCH_token_plane.json", "packed_codec_speedup"),
            ("BENCH_token_plane.json", "detail_bit_identical")]

    def test_token_plane_at_floors_passes(self, tmp_path):
        (tmp_path / "BENCH_token_plane.json").write_text(json.dumps({
            "packed_codec_speedup": 5.0,
            "detail_bit_identical": True,
        }))
        assert check_bench_files(tmp_path) == []

    def test_fuzz_corpus_violations_flag(self, tmp_path):
        (tmp_path / "BENCH_fuzz_corpus.json").write_text(json.dumps({
            "scenarios": 40,
            "distinct_fingerprints": 39,
            "shapes_covered": 5,
            "shapes_total": 6,
            "compile_failures": 2,
        }))
        violations = check_bench_files(tmp_path)
        assert [v.metric for v in violations] == [
            "compile_failures", "distinct_fingerprints",
            "shapes_covered"]

    def test_fuzz_corpus_clean_passes(self, tmp_path):
        (tmp_path / "BENCH_fuzz_corpus.json").write_text(json.dumps({
            "scenarios": 40,
            "distinct_fingerprints": 40,
            "shapes_covered": 6,
            "shapes_total": 6,
            "compile_failures": 0,
        }))
        assert check_bench_files(tmp_path) == []

    def test_service_violations_flag(self, tmp_path):
        (tmp_path / "BENCH_service.json").write_text(json.dumps({
            "cached_speedup": 6.0,
            "cached_speedup_floor": 10.0,
            "detail_bit_identical": False,
            "executions": 8,
            "distinct_configs": 6,
        }))
        violations = check_bench_files(tmp_path)
        assert [v.metric for v in violations] == [
            "cached_speedup", "detail_bit_identical", "executions"]

    def test_service_clean_passes(self, tmp_path):
        (tmp_path / "BENCH_service.json").write_text(json.dumps({
            "cached_speedup": 113.0,
            "cached_speedup_floor": 10.0,
            "detail_bit_identical": True,
            "executions": 6,
            "distinct_configs": 6,
        }))
        assert check_bench_files(tmp_path) == []

    def test_stepjit_violations_flag(self, tmp_path):
        (tmp_path / "BENCH_stepjit.json").write_text(json.dumps({
            "speedup": 3.2,
            "speedup_floor": 5.0,
            "detail_bit_identical": False,
            "hardened_speedup": 1.4,
            "hardened_speedup_floor": 2.0,
            "hardened_bit_identical": False,
            "streaming_speedup": 4.7,
            "streaming_speedup_floor": 5.0,
            "streaming_bit_identical": False,
        }))
        violations = check_bench_files(tmp_path)
        assert [v.metric for v in violations] == [
            "speedup", "detail_bit_identical",
            "hardened_speedup", "hardened_bit_identical",
            "streaming_speedup", "streaming_bit_identical"]

    def test_stepjit_clean_passes(self, tmp_path):
        (tmp_path / "BENCH_stepjit.json").write_text(json.dumps({
            "speedup": 19.5,
            "speedup_floor": 5.0,
            "detail_bit_identical": True,
            "hardened_speedup": 4.3,
            "hardened_speedup_floor": 2.0,
            "hardened_bit_identical": True,
            "streaming_speedup": 6.3,
            "streaming_speedup_floor": 5.0,
            "streaming_bit_identical": True,
        }))
        assert check_bench_files(tmp_path) == []

    def test_empty_results_dir_passes(self, tmp_path):
        assert check_bench_files(tmp_path) == []


class TestGate:
    def test_acceptance_gate_catches_injected_slowdown(self, tmp_path):
        """Acceptance criterion: against a freshly updated baseline a
        clean gate passes and an injected >10% slowdown fails."""
        update = run_gate(results_dir=tmp_path, update=True)
        assert update.updated_path is not None
        assert load_baseline(tmp_path) == update.measured
        assert set(update.measured) == {
            "pair_exact_qsfp", "pair_fast_qsfp", "pair_exact_pcie"}

        clean = run_gate(results_dir=tmp_path)
        assert clean.ok
        assert "regression gate: OK" in clean.to_text()

        slowed = run_gate(results_dir=tmp_path, inject_slowdown=0.15)
        assert not slowed.ok
        assert len(slowed.violations) == len(update.measured)
        assert "REGRESSIONS" in slowed.to_text()

    def test_measurements_are_deterministic(self):
        assert measure_canonical() == measure_canonical()

    def test_injection_scales_rates_down(self):
        full = measure_canonical()
        slowed = measure_canonical(slowdown=0.2)
        for name in full:
            assert slowed[name] == pytest.approx(full[name] * 0.8)

    def test_missing_baseline_reports_rates_only(self, tmp_path):
        report = run_gate(results_dir=tmp_path)
        assert report.ok
        assert "no committed baseline" in report.to_text()

    def test_violation_delta_handles_zero_baseline(self):
        assert Violation("src", "m", 0.0, 1.0, 10.0).delta_pct == 0.0
