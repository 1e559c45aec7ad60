"""Run registry: archive/load/latest, and run comparison."""

import builtins
import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.harness.metrics import SimulationResult
from repro.platform import QSFP_AURORA
from repro.targets import make_comb_pair_circuit
from repro.telemetry import (
    RunRegistry,
    Telemetry,
    compare_runs,
    config_fingerprint,
    format_comparison,
    run_record,
)


@pytest.fixture(scope="module")
def result():
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    sim = design.build_simulation(QSFP_AURORA,
                                  telemetry=Telemetry(sample_every=25))
    return sim.run(80)


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) \
            == config_fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_fingerprint({"a": 1}) \
            != config_fingerprint({"a": 2})

    def test_short_hex(self):
        fp = config_fingerprint({"a": 1})
        assert len(fp) == 12
        int(fp, 16)


class TestRegistry:
    def test_archive_and_load(self, result, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        path = registry.archive(result, name="pair",
                                backend="inproc",
                                config={"mode": "exact"})
        assert path.name == "run.json"
        record = registry.load(path.parent.name)
        assert record["format"] == "fireaxe-repro-run"
        assert record["name"] == "pair"
        assert record["backend"] == "inproc"
        assert record["rate_hz"] == result.rate_hz
        assert record["target_cycles"] == 80
        assert record["detail"]["telemetry"]["series"]
        # ids embed name + fingerprint + sequence
        fp = config_fingerprint({"mode": "exact"})
        assert record["run_id"] == f"pair-{fp}-0000"

    def test_sequence_numbers_never_collide(self, result, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        ids = [registry.archive(result, name="pair",
                                config={"mode": "exact"}).parent.name
               for _ in range(3)]
        assert len(set(ids)) == 3
        assert ids[-1].endswith("-0002")

    def test_load_rejects_junk(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        with pytest.raises(ReproError):
            registry.load("no-such-run")
        bogus = tmp_path / "runs" / "x" / "run.json"
        bogus.parent.mkdir(parents=True)
        bogus.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ReproError):
            registry.load("x")

    def test_list_runs_skips_unreadable_records(self, result, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.archive(result, name="good", config={})
        bad = tmp_path / "runs" / "bad" / "run.json"
        bad.parent.mkdir(parents=True)
        bad.write_text("{torn")
        assert [r["name"] for r in registry.list_runs()] == ["good"]


class TestIndexAndLatest:
    def test_archive_maintains_the_index(self, result, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        path = registry.archive(result, name="pair",
                                config={"mode": "exact"})
        assert (tmp_path / "runs" / "index.json").is_file()
        entries = registry.index()
        run_id = path.parent.name
        assert entries[run_id]["fingerprint"] \
            == config_fingerprint({"mode": "exact"})
        assert entries[run_id]["bytes"] > 0
        assert registry.total_bytes() == entries[run_id]["bytes"]

    def test_index_rebuilds_after_external_change(self, result,
                                                  tmp_path):
        import shutil
        registry = RunRegistry(tmp_path / "runs")
        kept = registry.archive(result, name="a",
                                config={"x": 1}).parent.name
        gone = registry.archive(result, name="b",
                                config={"x": 2}).parent.name
        # a run vanishing behind the registry's back is detected by
        # the name-set check and triggers a rescan
        shutil.rmtree(tmp_path / "runs" / gone)
        assert set(registry.index()) == {kept}

    def test_latest_returns_newest_matching_record(self, result,
                                                   tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.archive(result, name="old", config={"x": 1})
        registry.archive(result, name="new", config={"x": 1})
        registry.archive(result, name="other", config={"x": 2})
        record = registry.latest(config_fingerprint({"x": 1}))
        assert record["name"] == "new"
        assert registry.latest("deadbeef0000") is None

    def test_remove_deletes_run_and_index_entry(self, result,
                                                tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        run_id = registry.archive(result, name="pair",
                                  config={}).parent.name
        registry.remove(run_id)
        assert registry.index() == {}
        with pytest.raises(ReproError):
            registry.load(run_id)
        with pytest.raises(ReproError):
            registry.remove(run_id)


def _small_result():
    return SimulationResult(target_cycles=1, wall_ns=1.0, rate_hz=1.0,
                            per_partition_cycles={"base": 1})


def _count_opens(monkeypatch):
    """Every file name the registry opens from here on, in order
    (``Path.read_text`` and friends open through ``Path.open``)."""
    opened = []
    path_open, builtin_open = Path.open, builtins.open

    def via_path(self, *args, **kwargs):
        opened.append(self.name)
        return path_open(self, *args, **kwargs)

    def via_builtin(file, *args, **kwargs):
        opened.append(Path(str(file)).name)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", via_path)
    monkeypatch.setattr(builtins, "open", via_builtin)
    return opened


class TestLatestCost:
    @pytest.mark.parametrize("runs", [10, 200])
    def test_warm_latest_reads_one_record_and_no_index(
            self, runs, tmp_path, monkeypatch):
        """The cache-hit cost model: however many runs are archived, a
        lookup after the registry's own archive opens no
        ``index.json`` and exactly one ``run.json``, and lists no
        directory."""
        registry = RunRegistry(tmp_path / "runs")
        result = _small_result()
        for i in range(runs):
            registry.archive(result, name="r", config={"i": i})
        opened = _count_opens(monkeypatch)

        def no_listing(self):
            raise AssertionError(f"listed {self}")

        monkeypatch.setattr(Path, "iterdir", no_listing)
        record = registry.latest(config_fingerprint({"i": runs // 2}))
        assert record["config"] == {"i": runs // 2}
        assert opened == ["run.json"]


class TestTwoRegistries:
    """Two registries on one root: what one writes, the other's next
    lookup sees, though each keeps its index in memory."""

    def _pair(self, tmp_path):
        return (RunRegistry(tmp_path / "runs"),
                RunRegistry(tmp_path / "runs"))

    def test_archive_by_one_is_seen_by_the_other(self, tmp_path):
        a, b = self._pair(tmp_path)
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        a.archive(result, name="old", config={"x": 1})
        assert a.latest(fp)["name"] == "old"
        b.archive(result, name="new", config={"x": 1})
        assert a.latest(fp)["name"] == "new"
        other = config_fingerprint({"x": 2})
        assert a.latest(other) is None
        b.archive(result, name="other", config={"x": 2})
        assert a.latest(other)["name"] == "other"

    def test_remove_by_one_is_seen_by_the_other(self, tmp_path):
        a, b = self._pair(tmp_path)
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        old = a.archive(result, name="old", config={"x": 1})
        new = a.archive(result, name="new", config={"x": 1})
        assert a.latest(fp)["name"] == "new"
        b.remove(new.parent.name)
        assert a.latest(fp)["name"] == "old"
        b.remove(old.parent.name)
        assert a.latest(fp) is None

    def test_rearchived_run_id_is_not_served_for_its_old_config(
            self, tmp_path):
        a, b = self._pair(tmp_path)
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        a.archive(result, name="r", config={"x": 1}, run_id="r")
        assert a.latest(fp)["run_id"] == "r"
        b.archive(result, name="r", config={"x": 2}, run_id="r")
        assert a.latest(fp) is None
        assert a.latest(config_fingerprint({"x": 2}))["run_id"] == "r"

    def test_record_rewritten_by_hand_is_not_served(self, tmp_path):
        """``index.json`` unchanged, so the in-memory index still maps
        the old fingerprint to the run: the record's own fingerprint
        refuses it."""
        registry = RunRegistry(tmp_path / "runs")
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        registry.archive(result, name="r", config={"x": 1}, run_id="r")
        assert registry.latest(fp)["run_id"] == "r"
        path = tmp_path / "runs" / "r" / "run.json"
        record = json.loads(path.read_text())
        record["config"] = {"x": 2}
        record["fingerprint"] = config_fingerprint({"x": 2})
        path.write_text(json.dumps(record))
        assert registry.latest(fp) is None

    def test_run_deleted_by_hand_is_skipped(self, tmp_path):
        import shutil
        registry = RunRegistry(tmp_path / "runs")
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        registry.archive(result, name="old", config={"x": 1})
        new = registry.archive(result, name="new", config={"x": 1})
        assert registry.latest(fp)["name"] == "new"
        shutil.rmtree(new.parent)
        assert registry.latest(fp)["name"] == "old"

    def test_concurrent_archives_both_land(self, tmp_path):
        """Two writers never share an index tmp file, so neither
        renames the other's away."""
        import threading
        result = _small_result()
        errors = []

        def fill(name):
            registry = RunRegistry(tmp_path / "runs")
            try:
                for i in range(40):
                    registry.archive(result, name=name, config={"i": i})
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(RunRegistry(tmp_path / "runs").index()) == 80

    def test_deleted_index_is_rebuilt(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        result = _small_result()
        fp = config_fingerprint({"x": 1})
        registry.archive(result, name="r", config={"x": 1})
        (tmp_path / "runs" / "index.json").unlink()
        assert registry.latest(fp)["name"] == "r"
        assert (tmp_path / "runs" / "index.json").is_file()


class TestGC:
    def _fill(self, result, tmp_path, n=4):
        registry = RunRegistry(tmp_path / "runs")
        ids = [registry.archive(result, name=f"r{i}",
                                config={"i": i}).parent.name
               for i in range(n)]
        return registry, ids

    def test_keep_prunes_oldest_first(self, result, tmp_path):
        registry, ids = self._fill(result, tmp_path)
        pruned = registry.gc(keep=2)
        assert pruned == ids[:2]
        assert set(registry.index()) == set(ids[2:])

    def test_max_age_uses_injected_now(self, result, tmp_path):
        registry, ids = self._fill(result, tmp_path, n=2)
        created = registry.index()[ids[0]]["created"]
        pruned = registry.gc(max_age_s=3600.0,
                             now=created + 7200.0)
        assert set(pruned) == set(ids)

    def test_max_bytes_prunes_until_it_fits(self, result, tmp_path):
        registry, ids = self._fill(result, tmp_path)
        entries = registry.index()
        budget = sum(entries[i]["bytes"] for i in ids[2:])
        pruned = registry.gc(max_bytes=budget)
        assert pruned == ids[:2]
        assert registry.total_bytes() <= budget

    def test_dry_run_deletes_nothing(self, result, tmp_path):
        registry, ids = self._fill(result, tmp_path)
        pruned = registry.gc(keep=0, dry_run=True)
        assert pruned == ids
        assert set(registry.index()) == set(ids)

    def test_policies_compose(self, result, tmp_path):
        registry, ids = self._fill(result, tmp_path)
        pruned = registry.gc(keep=3, max_bytes=0)
        assert pruned == ids
        assert registry.index() == {}


def _record(rate_hz, breakdown, cycles=100, run_id="r"):
    return {
        "run_id": run_id,
        "rate_hz": rate_hz,
        "target_cycles": cycles,
        "per_partition_cycles": {p: cycles for p in breakdown},
        "detail": {"fmr_breakdown": breakdown},
    }


class TestComparison:
    def test_rate_delta_and_attribution(self):
        base = _record(1000.0, {
            "fpga1": {"compute": 1.0, "serdes": 2.0, "link_wait": 1.0,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="a")
        slower = _record(800.0, {
            "fpga1": {"compute": 1.0, "serdes": 3.5, "link_wait": 1.2,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="b")
        comparison = compare_runs(base, slower)
        assert comparison.rate_delta_pct == pytest.approx(-20.0)
        assert comparison.fmr_delta["fpga1"]["serdes"] \
            == pytest.approx(1.5)
        # serdes grew most, cycle-weighted: it owns the regression
        assert comparison.attribution["serdes"] == pytest.approx(150.0)
        assert comparison.dominant_component == "serdes"

    def test_dominant_component_follows_direction(self):
        base = _record(800.0, {
            "fpga1": {"compute": 1.0, "serdes": 3.0, "link_wait": 1.0,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="a")
        faster = _record(1000.0, {
            "fpga1": {"compute": 1.0, "serdes": 1.0, "link_wait": 1.1,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="b")
        comparison = compare_runs(base, faster)
        # host time shrank: the dominant component is the biggest saver
        assert comparison.dominant_component == "serdes"

    def test_identical_runs_diff_to_zero(self, result, tmp_path):
        record = run_record(result, name="pair", config={"x": 1})
        comparison = compare_runs(record, record)
        assert comparison.rate_delta_pct == 0.0
        assert all(v == 0.0
                   for deltas in comparison.fmr_delta.values()
                   for v in deltas.values())

    def test_format_names_cause(self):
        base = _record(1000.0, {
            "fpga1": {"compute": 1.0, "serdes": 2.0, "link_wait": 1.0,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="a")
        slower = _record(900.0, {
            "fpga1": {"compute": 1.0, "serdes": 2.8, "link_wait": 1.0,
                      "credit_stall": 0.0, "sync": 0.0}}, run_id="b")
        text = format_comparison(compare_runs(base, slower))
        assert "compare a -> b" in text
        assert "(-10.0%)" in text
        assert "dominant component: serdes" in text
