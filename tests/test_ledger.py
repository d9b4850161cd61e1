"""The persistent run ledger (repro.bench.ledger).

Records must be self-describing plain JSON (loadable without importing
the package), stamped with the machine-model version, keyed by a stable
config fingerprint, and appended automatically by ``run_spmd`` when the
config carries a ledger path and the run records metrics.
"""

import json

import pytest

from repro.bench.ledger import (
    LEDGER_VERSION,
    append_run,
    config_fingerprint,
    read_ledger,
    run_record,
)
from repro.simmpi import (
    ExecutionConfig,
    MACHINE_MODEL_VERSION,
    TensorAlltoallv,
    THETA,
    run_spmd,
)
from repro.workloads import block_size_matrix, distribution_by_name

NPROCS = 8


def _run(trace="metrics", backend="tensor", ledger=None):
    sizes = block_size_matrix(distribution_by_name("power_law", 32),
                              NPROCS, seed=7)
    cfg = ExecutionConfig(backend=backend, machine=THETA, trace=trace,
                          wire="phantom", ledger=ledger)
    return run_spmd(TensorAlltoallv("two_phase_bruck", sizes), NPROCS,
                    config=cfg)


def test_run_record_contents():
    result = _run()
    rec = run_record(result, algorithm="two_phase_bruck",
                     distribution="power_law", extra={"suite": "unit"})
    assert rec["ledger_version"] == LEDGER_VERSION
    assert rec["machine_model_version"] == MACHINE_MODEL_VERSION
    assert rec["machine"] == "theta"
    assert rec["nprocs"] == NPROCS
    assert rec["backend"] == "tensor" and rec["wire"] == "phantom"
    assert rec["algorithm"] == "two_phase_bruck"
    assert rec["suite"] == "unit"
    assert rec["elapsed_s"] == result.elapsed
    m = rec["metrics"]
    assert m["total_messages"] == result.metrics.total_messages
    assert m["max_in_flight"] == result.metrics.max_in_flight
    assert m["links_used"] == len(result.metrics.per_link)
    a = rec["attribution"]
    assert a["granularity"] == "steps"
    assert set(a["buckets"]) == {"compute", "overhead", "transmit",
                                 "congestion", "queue_wait", "fault_delay"}
    # Every record must round-trip through plain JSON.
    assert json.loads(json.dumps(rec)) == json.loads(json.dumps(rec))


def test_fingerprint_stability():
    sizesless = dict(machine=THETA, trace="metrics", wire="phantom",
                     backend="tensor")
    a = ExecutionConfig(**sizesless)
    b = ExecutionConfig(**sizesless)
    assert config_fingerprint(a) == config_fingerprint(b)
    # The ledger path is excluded from identity; real knobs are not.
    c = ExecutionConfig(**sizesless, ledger="/tmp/somewhere.jsonl")
    assert config_fingerprint(c) == config_fingerprint(a)
    d = ExecutionConfig(**{**sizesless, "backend": "coop"})
    assert config_fingerprint(d) != config_fingerprint(a)
    e = ExecutionConfig(**sizesless, fault_plan="straggler:ranks=2,factor=3")
    assert config_fingerprint(e) != config_fingerprint(a)


def test_append_and_read(tmp_path):
    path = tmp_path / "runs.jsonl"
    result = _run()
    append_run(str(path), result, algorithm="two_phase_bruck")
    append_run(str(path), result, algorithm="two_phase_bruck")
    records = read_ledger(str(path))
    assert len(records) == 2
    assert records[0]["algorithm"] == "two_phase_bruck"
    # JSONL: one plain-JSON object per line.
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["nprocs"] == NPROCS for line in lines)
    assert read_ledger(str(tmp_path / "missing.jsonl")) == []


@pytest.mark.parametrize("backend,trace", [
    ("tensor", "metrics"), ("coop", "full"), ("coop", "metrics"),
])
def test_executor_appends_when_configured(tmp_path, backend, trace):
    path = tmp_path / "auto.jsonl"
    result = _run(trace=trace, backend=backend, ledger=str(path))
    records = read_ledger(str(path))
    assert len(records) == 1
    rec = records[0]
    assert rec["backend"] == backend
    assert rec["nprocs"] == NPROCS
    # The executor lifts workload labels off the program object.
    assert rec["algorithm"] == "two_phase_bruck"
    assert rec["elapsed_s"] == result.elapsed
    assert rec["config_fingerprint"] == config_fingerprint(result.config)
    assert rec["metrics"]["total_messages"] == result.metrics.total_messages
    if trace == "metrics" and backend == "coop":
        # metrics-only on coop: no event DAG and no tensor step log, so
        # the record carries aggregates but no attribution.
        assert rec["attribution"] is None
    else:
        assert rec["attribution"] is not None


def test_executor_skips_without_metrics(tmp_path):
    path = tmp_path / "skip.jsonl"
    _run(trace=False, ledger=str(path))
    assert read_ledger(str(path)) == []
    # events-only runs carry no aggregates either.
    _run(trace="events", backend="coop", ledger=str(path))
    assert read_ledger(str(path)) == []


def test_executor_stamps_radix_and_max_block(tmp_path):
    path = tmp_path / "radix.jsonl"
    sizes = block_size_matrix(distribution_by_name("power_law", 32),
                              NPROCS, seed=7)
    cfg = ExecutionConfig(backend="tensor", machine=THETA, trace="metrics",
                          wire="phantom", ledger=str(path))
    run_spmd(TensorAlltoallv("two_phase_bruck", sizes, radix=4), NPROCS,
             config=cfg)
    run_spmd(TensorAlltoallv("two_phase_bruck", sizes), NPROCS, config=cfg)
    r4, r2 = read_ledger(str(path))
    assert r4["radix"] == 4
    assert r4["max_block"] == int(sizes.max())
    # Radix-2 specs are stamped too — the tuner groups on the label.
    assert r2["radix"] == 2
    # These records are exactly what the auto-tuner consumes.
    from repro.core.tuner import AutoTuner
    tuner = AutoTuner(THETA, str(path), min_samples=1)
    assert tuner.refresh() == 2
    d = tuner.decide(NPROCS, int(sizes.max()))
    assert d.source == "ledger"


class TestLedgerQueries:
    def _seed(self, path):
        from repro.bench.ledger import append_record
        for radix, p, t in ((2, 64, 1e-3), (4, 64, 5e-4), (4, 128, 2e-4)):
            append_record(str(path), {
                "machine": "theta", "algorithm": "two_phase_bruck",
                "nprocs": p, "radix": radix, "elapsed_s": t,
                "backend": "tensor", "wire": "phantom"})

    def test_field_filters(self, tmp_path):
        from repro.bench.ledger import query_ledger
        path = tmp_path / "q.jsonl"
        self._seed(path)
        assert len(query_ledger(str(path), radix=4)) == 2
        assert len(query_ledger(str(path), radix=4, nprocs=64)) == 1
        assert query_ledger(str(path), algorithm="padded_bruck") == []
        # records missing a queried field never match
        assert query_ledger(str(path), config_fingerprint="abc") == []

    def test_predicate_composes(self, tmp_path):
        from repro.bench.ledger import query_ledger
        path = tmp_path / "q.jsonl"
        self._seed(path)
        fast = query_ledger(str(path), radix=4,
                            predicate=lambda r: r["elapsed_s"] < 3e-4)
        assert [r["nprocs"] for r in fast] == [128]

    def test_unknown_field_rejected(self, tmp_path):
        from repro.bench.ledger import query_ledger
        path = tmp_path / "q.jsonl"
        self._seed(path)
        with pytest.raises(TypeError, match="bogus"):
            query_ledger(str(path), bogus=1)

    def test_missing_file_empty(self, tmp_path):
        from repro.bench.ledger import query_ledger
        assert query_ledger(str(tmp_path / "none.jsonl"), radix=2) == []


class TestLedgerCorruption:
    def test_truncated_final_line_skipped(self, tmp_path):
        # A run killed mid-append leaves a partial last line; reading
        # must survive it and return every complete record.
        path = tmp_path / "t.jsonl"
        path.write_text('{"nprocs": 8}\n{"nprocs": 16}\n{"npro')
        assert [r["nprocs"] for r in read_ledger(str(path))] == [8, 16]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"nprocs": 8}\nnot json\n{"nprocs": 16}\n')
        with pytest.raises(ValueError, match="non-final"):
            read_ledger(str(path))

    def test_query_tolerates_truncation_too(self, tmp_path):
        from repro.bench.ledger import query_ledger
        path = tmp_path / "t.jsonl"
        path.write_text('{"nprocs": 8, "radix": 4}\n{"trunc')
        assert len(query_ledger(str(path), radix=4)) == 1
