"""Round-trip tests of the Chrome/Perfetto trace-event export."""

import gc
import json

import numpy as np
import pytest

from repro.core.nonuniform import alltoallv
from repro.simmpi import (LOCAL, ExecutionConfig, chrome_trace,
                          format_summary, run_spmd, trace_export)
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs

P = 5


def _two_phase_result(trace=True):
    sizes = block_size_matrix(UniformBlocks(32), P, seed=3)

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes)
        alltoallv(comm, *vargs.as_tuple(), algorithm="two_phase_bruck")

    return run_spmd(prog, P,
                    config=ExecutionConfig(machine=LOCAL, trace=trace))


def _raise_runtime_error(*_args, **_kwargs):
    raise RuntimeError("export failed part-way")


@pytest.fixture(scope="module")
def result():
    return _two_phase_result()


@pytest.fixture(scope="module")
def doc(result):
    return chrome_trace(result)


class TestChromeTrace:
    def test_document_schema(self, doc):
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M", "s", "f", "i", "C")
            assert isinstance(ev["pid"], int)
            if ev["ph"] == "X":
                assert ev["ts"] >= 0.0
                assert ev["dur"] >= 0.0

    def test_one_track_per_rank(self, doc):
        x_pids = {ev["pid"] for ev in doc["traceEvents"]
                  if ev["ph"] == "X"}
        assert x_pids == set(range(P))
        names = {ev["pid"]: ev["args"]["name"]
                 for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        expected = {r: f"rank {r}" for r in range(P)}
        expected[P] = "fabric"  # the in-flight counter track
        assert names == expected

    def test_fabric_counter_track(self, doc, result):
        samples = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert samples and all(ev["pid"] == P for ev in samples)
        counts = [ev["args"]["messages"] for ev in samples]
        assert max(counts) == result.metrics.max_in_flight
        assert counts[-1] == 0  # every message eventually lands

    def test_phase_slices_present(self, doc):
        phases = {ev["name"] for ev in doc["traceEvents"]
                  if ev.get("cat") == "phase"}
        # two_phase_bruck traces these phases on every rank.
        assert {"metadata_exchange", "data_exchange"} <= phases

    def test_timestamps_monotonic_per_rank(self, result):
        for tr in result.traces:
            ends = [e.end for e in tr.events()]
            assert ends == sorted(ends)
            for e in tr.events():
                assert e.start <= e.end

    def test_send_bytes_match_wire_totals(self, doc, result):
        sends = [ev for ev in doc["traceEvents"]
                 if ev.get("cat") == "comm" and ev["name"].startswith("send")]
        assert len(sends) == result.total_messages
        assert sum(ev["args"]["nbytes"] for ev in sends) == result.total_bytes
        assert doc["otherData"]["total_bytes"] == result.total_bytes
        assert doc["otherData"]["total_messages"] == result.total_messages

    def test_flow_arrows_pair_up(self, doc, result):
        starts = [ev for ev in doc["traceEvents"] if ev["ph"] == "s"]
        finishes = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(finishes) == result.total_messages
        # Every finish references a flow id some start opened.
        assert {ev["id"] for ev in finishes} == {ev["id"] for ev in starts}

    def test_export_round_trips_through_json(self, result, tmp_path):
        path = tmp_path / "trace.json"
        doc = result.export_chrome_trace(str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    def test_file_is_the_compact_dump_of_the_document(self, result,
                                                      tmp_path):
        path = tmp_path / "trace.json"
        doc = result.export_chrome_trace(str(path), critical_path=True)
        assert path.read_text(encoding="utf-8") == \
            json.dumps(doc, separators=(",", ":"))

    def test_collector_left_as_the_caller_had_it(self, result, monkeypatch):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                chrome_trace(result)
                assert gc.isenabled() is enabled
                # ... including when the build raises part-way.
                with monkeypatch.context() as patch:
                    patch.setattr(trace_export, "_fabric_counter_events",
                                  _raise_runtime_error)
                    with pytest.raises(RuntimeError):
                        chrome_trace(result)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_requires_event_traces(self):
        res = _two_phase_result(trace="metrics")
        with pytest.raises(ValueError, match="trace"):
            chrome_trace(res)


class TestSummary:
    def test_summary_full(self, result):
        text = result.summary(title="round trip")
        assert "round trip" in text
        assert f"P={P}" in text
        assert str(result.total_messages) in text
        assert "congestion" in text
        assert "metadata_exchange" in text
        assert "step(tag)" in text

    def test_summary_without_observability(self):
        res = _two_phase_result(trace=False)
        text = format_summary(res)
        assert "wire traffic" in text
        assert "congestion" not in text

    def test_summary_metrics_only(self):
        res = _two_phase_result(trace="metrics")
        text = res.summary()
        assert "congestion" in text
        assert "metadata_exchange" in text
