"""Command-line interface."""

import json
import math
import re

import pytest

from repro.cli import main
from repro.firrtl import parse_circuit, print_circuit
from repro.targets import make_comb_pair_circuit
from repro.telemetry import load_baseline, save_baseline


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "pair.fir"
    path.write_text(print_circuit(make_comb_pair_circuit()))
    return str(path)


class TestReport:
    def test_prints_interface(self, circuit_file, capsys):
        rc = main(["report", circuit_file, "--extract", "right"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "interface base <-> fpga0: 64 bits" in out
        assert "expected rate" in out

    def test_compile_error_is_reported(self, circuit_file, capsys):
        rc = main(["report", circuit_file, "--extract", "ghost"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err


class TestPartition:
    def test_writes_parseable_files(self, circuit_file, tmp_path,
                                    capsys):
        out_dir = tmp_path / "parts"
        rc = main(["partition", circuit_file, "--extract", "right",
                   "--out", str(out_dir)])
        assert rc == 0
        base = parse_circuit((out_dir / "base.fir").read_text())
        fpga = parse_circuit((out_dir / "fpga0.fir").read_text())
        assert base.top == "CombPairTop"
        assert fpga.top.startswith("Wrapper")


class TestSimulate:
    def test_runs_and_reports_rate(self, circuit_file, capsys):
        rc = main(["simulate", circuit_file, "--extract", "right",
                   "--cycles", "40", "--mode", "fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "simulated 40 target cycles" in out
        assert "MHz" in out

    def test_transport_selection(self, circuit_file, capsys):
        rc = main(["simulate", circuit_file, "--extract", "right",
                   "--cycles", "20", "--transport", "host-pcie"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "host_managed_pcie" in out


class TestReliability:
    def test_faulty_run_bit_identical_and_degraded(self, circuit_file,
                                                   capsys):
        rc = main(["reliability", circuit_file, "--extract", "right",
                   "--mode", "fast", "--cycles", "120", "--seed", "3",
                   "--drop-rate", "0.03", "--corrupt-rate", "0.02",
                   "--flap", "40000:60000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outputs bit-identical to fault-free run: yes" in out
        assert "drops_recovered=" in out
        assert "% of fault-free" in out
        # hardened links are no reason to leave the compiled plane
        assert "step plane: 2/2 partition(s) compiled" in out

    def test_crash_injection_rolls_back(self, circuit_file, capsys,
                                        tmp_path):
        rc = main(["reliability", circuit_file, "--extract", "right",
                   "--mode", "fast", "--cycles", "100",
                   "--checkpoint-every", "40", "--crash-at", "70",
                   "--checkpoint-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rollbacks: 1" in out
        assert "[crash@70]" in out
        # reported for the simulation rebuilt after the rollback
        assert out.count("step plane: 2/2 partition(s) compiled") == 1
        assert (tmp_path / "checkpoint-0.json").exists()

    def test_unreliable_drops_deadlock(self, circuit_file, capsys):
        rc = main(["reliability", circuit_file, "--extract", "right",
                   "--mode", "fast", "--cycles", "100", "--seed", "2",
                   "--drop-rate", "0.3", "--unreliable",
                   "--max-rollbacks", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "deadlock" in err

    def test_bad_flap_spec_reports_error(self, circuit_file, capsys):
        rc = main(["reliability", circuit_file, "--extract", "right",
                   "--flap", "banana"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "START_NS:DURATION_NS" in err


class TestTrace:
    def test_exports_chrome_trace_json(self, circuit_file, tmp_path,
                                       capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", circuit_file, "--extract", "right",
                   "--cycles", "25", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "simulated 25 target cycles" in stdout
        assert "step plane: 2/2 partition(s) compiled" in stdout
        assert "token_tx" in stdout
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        kinds = {r["name"] for r in trace["traceEvents"]}
        assert {"token_tx", "token_rx", "target_cycle"} <= kinds

    def test_ring_capacity_bounds_kept_events(self, circuit_file,
                                              tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", circuit_file, "--extract", "right",
                   "--cycles", "25", "--events", "10",
                   "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "kept 10 of" in stdout

    def test_gzip_writes_compressed_trace(self, circuit_file,
                                          tmp_path, capsys):
        import gzip
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", circuit_file, "--extract", "right",
                   "--cycles", "25", "--gzip", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "trace.json.gz" in stdout
        with gzip.open(tmp_path / "trace.json.gz", "rt") as fh:
            assert json.load(fh)["traceEvents"]


class TestProfile:
    def test_prints_breakdown_and_bottleneck(self, circuit_file, capsys):
        rc = main(["profile", circuit_file, "--extract", "right",
                   "--cycles", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "step plane: 2/2 partition(s) compiled" in out
        assert "FMR breakdown" in out
        assert "link_wait" in out
        assert "bottleneck:" in out


class TestJit:
    def test_every_kernel_explains_itself(self, tmp_path, capsys):
        """One line per fused kernel: what the netlist passes did to
        the cone before it was printed."""
        from repro.targets.soc import make_ring_noc_soc

        path = tmp_path / "ring.fir"
        path.write_text(print_circuit(
            make_ring_noc_soc(2, messages_per_tile=2)))
        rc = main(["jit", str(path), "--mode", "fast",
                   "--extract", "router0,conv0,tile0",
                   "--extract", "router1,conv1,tile1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "def _k(" not in out  # sources only under --dump
        kernels = re.findall(
            r"^  kernel (\w+):(\w+): (\d+) cone assigns -> (\d+) printed "
            r"\((\d+) aliases folded, (\d+) nodes inlined\), "
            r"(\d+) masks elided, (\d+) statements$", out, re.M)
        assert sorted((kind, part) for kind, part, *_ in kernels) == sorted(
            (kind, part) for part in ("base", "fpga0", "fpga1")
            for kind in ("cyc", "fire"))
        for _kind, _part, *counts in kernels:
            cone, printed, aliases, inlined, _, _ = map(int, counts)
            assert printed == cone - aliases - inlined
        assert all(int(k[4]) and int(k[5]) and int(k[6])
                   for k in kernels if k[0] == "cyc")


class TestTelemetryCLI:
    def test_simulate_metrics_reports_samples(self, circuit_file,
                                              capsys):
        rc = main(["simulate", circuit_file, "--extract", "right",
                   "--cycles", "60", "--metrics", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "step plane: 2/2 partition(s) compiled" in out
        assert "sample point(s) across 2 partition(s)" in out
        assert "every 20 cycles" in out

    def test_simulate_bad_metrics_interval_is_an_error_line(
            self, circuit_file, capsys):
        rc = main(["simulate", circuit_file, "--extract", "right",
                   "--cycles", "10", "--metrics", "-3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "(got -3)" in err

    def test_simulate_archive_then_compare(self, circuit_file,
                                           tmp_path, capsys):
        runs = tmp_path / "runs"
        for _ in range(2):
            rc = main(["simulate", circuit_file, "--extract", "right",
                       "--cycles", "40", "--archive", "pair",
                       "--runs-dir", str(runs)])
            assert rc == 0
        out = capsys.readouterr().out
        assert "archived run:" in out
        # the registry keeps its index.json beside the run dirs
        ids = sorted(p.name for p in runs.iterdir() if p.is_dir())
        assert len(ids) == 2
        assert ids[0].startswith("pair-")
        # the record says which engine ran each partition
        record = json.loads((runs / ids[0] / "run.json").read_text())
        assert sorted(record["obs"]["step_plane"]) == ["base", "fpga0"]
        assert all(v.startswith("compiled")
                   for v in record["obs"]["step_plane"].values())

        rc = main(["compare", ids[0], ids[1],
                   "--runs-dir", str(runs)])
        out = capsys.readouterr().out
        assert rc == 0
        # same config, same backend: identical modelled runs
        assert f"compare {ids[0]} -> {ids[1]}" in out
        assert "(+0.0%)" in out

    def test_simulate_live_then_watch_once(self, circuit_file,
                                           tmp_path, capsys):
        status = tmp_path / "live.json"
        rc = main(["simulate", circuit_file, "--extract", "right",
                   "--cycles", "60", "--live", str(status)])
        assert rc == 0
        rc = main(["watch", str(status), "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle 60 / 60 (100.0%)" in out
        assert "done" in out

    def test_watch_missing_status_errors(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path / "nope.json"), "--once"])
        assert rc == 1
        assert "no status" in capsys.readouterr().err

    def test_regress_update_then_gate(self, tmp_path, capsys):
        results = tmp_path / "results"
        rc = main(["regress", "--results-dir", str(results),
                   "--update"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline updated" in out
        assert (results / "BENCH_rates.json").exists()

        rc = main(["regress", "--results-dir", str(results)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "regression gate: OK" in out

    def test_regress_fails_on_injected_slowdown(self, tmp_path,
                                                capsys):
        """The gate is exact: a baseline one ulp above a measured rate
        exits 1."""
        results = tmp_path / "results"
        assert main(["regress", "--results-dir", str(results),
                     "--update"]) == 0
        capsys.readouterr()
        rates = load_baseline(results)
        rates["pair_fast_qsfp"] = math.nextafter(
            rates["pair_fast_qsfp"], math.inf)
        save_baseline(rates, results)
        rc = main(["regress", "--results-dir", str(results)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSIONS" in out
        assert "pair_fast_qsfp" in out.split("REGRESSIONS")[1]


class TestAutoPartition:
    def test_prints_groups(self, circuit_file, capsys):
        rc = main(["autopartition", circuit_file, "--fpgas", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "boundary cut" in out
