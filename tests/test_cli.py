"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "-a", "two_phase_bruck", "-p", "64", "-n", "32"])
        assert args.algorithm == "two_phase_bruck"
        assert args.nprocs == 64
        assert args.machine == "theta"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["predict", "-a", "bogus", "-p", "4", "-n", "8"])


class TestCommands:
    def test_predict(self, capsys):
        assert main(["predict", "-a", "two_phase_bruck", "-p", "256",
                     "-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "simulated ms" in out
        assert "exact mode" in out

    def test_predict_clt_at_scale(self, capsys):
        assert main(["predict", "-a", "vendor", "-p", "8192",
                     "-n", "64"]) == 0
        assert "clt mode" in capsys.readouterr().out

    def test_predict_sloav_refused(self, capsys):
        assert main(["predict", "-a", "sloav", "-p", "64", "-n", "8"]) == 2

    def test_run_verifies_delivery(self, capsys):
        assert main(["run", "-a", "two_phase_bruck", "-p", "8", "-n", "32",
                     "--machine", "local"]) == 0
        out = capsys.readouterr().out
        assert "byte-verified" in out

    def test_run_rejects_huge_p(self, capsys):
        assert main(["run", "-a", "vendor", "-p", "100000", "-n", "8"]) == 2

    def test_run_distributions(self, capsys):
        for dist in ("normal", "power_law"):
            assert main(["run", "-a", "sloav", "-p", "6", "-n", "24",
                         "--dist", dist, "--machine", "local"]) == 0

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("theta", "cori", "stampede2", "local"):
            assert name in out

    def test_sweep(self, capsys):
        assert main(["sweep", "-p", "128", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "two_phase_bruck" in out
        assert "data scaling" in out.lower()

    def test_trace_writes_perfetto_json(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--algorithm", "two_phase_bruck",
                     "--nprocs", "8", "--machine", "local",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wire traffic" in out
        assert str(out_path) in out
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert {e["pid"] for e in events if e["ph"] == "X"} == set(range(8))
        assert any(e.get("cat") == "phase" for e in events)

    def test_trace_summary_only(self, capsys):
        assert main(["trace", "-p", "4", "--machine", "local"]) == 0
        out = capsys.readouterr().out
        assert "congestion" in out
        assert "step(tag)" in out

    def test_trace_rejects_huge_p(self, capsys):
        assert main(["trace", "-p", "100000"]) == 2

    def test_trace_out_above_256_ranks(self, capsys, tmp_path):
        # One slice per copy run keeps the document small past P=256: it
        # shares the 1024-rank cap of every per-event traced run.
        out_path = tmp_path / "trace.json"
        assert main(["trace", "-p", "257", "-n", "8", "--machine", "local",
                     "--backend", "coop", "--out", str(out_path)]) == 0
        assert str(out_path) in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["nprocs"] == 257
        assert {e["pid"] for e in doc["traceEvents"]
                if e.get("cat") == "memory"} == set(range(257))

    def test_trace_events_without_out_above_256_ranks(self, capsys):
        assert main(["trace", "-p", "257", "-n", "8", "--machine", "local",
                     "--backend", "coop", "--level", "events",
                     "--critical-path"]) == 0
        out = capsys.readouterr().out
        makespan = re.search(r"simulated makespan ([\d.]+) ms", out)
        path_end = re.search(r"ending on rank \d+ at ([\d.]+) ms "
                             r"\(events granularity\)", out)
        assert makespan and path_end
        assert path_end.group(1) == makespan.group(1)

    def test_trace_events_capped_at_1024_ranks(self, capsys):
        assert main(["trace", "-p", "1025", "--backend", "coop",
                     "--level", "events"]) == 2
        assert "--level metrics" in capsys.readouterr().err


class TestBackendSelection:
    def test_run_coop_backend(self, capsys):
        assert main(["run", "-a", "two_phase_bruck", "-p", "32", "-n", "16",
                     "--machine", "local", "--backend", "coop"]) == 0
        out = capsys.readouterr().out
        assert "coop backend" in out
        assert "byte-verified" in out

    def test_run_coop_lifts_thread_limit(self, capsys):
        # 300 ranks with no --backend: the default coop backend has no
        # few-hundred-rank cap.
        assert main(["run", "-a", "two_phase_bruck", "-p", "300", "-n", "4",
                     "--machine", "local"]) == 0
        assert "coop backend" in capsys.readouterr().out

    def test_run_coop_has_cap_too(self, capsys):
        assert main(["run", "-a", "vendor", "-p", "100000", "-n", "4",
                     "--backend", "coop"]) == 2

    def test_trace_coop_backend(self, capsys):
        assert main(["trace", "-p", "8", "--machine", "local",
                     "--backend", "coop"]) == 0
        assert "step(tag)" in capsys.readouterr().out

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "-a", "vendor", "-p", "4", "-n", "8",
                 "--backend", "fibers"])
