"""End-to-end tests of the observability layer.

One seeded scenario is traced with every category enabled and each
category's record count is cross-checked against the component counters
the simulation maintains independently — the trace must agree with the
model, not merely exist. A second scenario checks the reproducibility
contract: identical configs produce bit-identical traces through any
worker count of the parallel executor. Finally, the NullTracer path is
proven to never construct a record when tracing is off.
"""

import dataclasses

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import (
    config_from_dict,
    load_json,
    save_run_artifacts,
)
from repro.experiments.simulation import run_simulation
from repro.obs import category_counts, read_jsonl, read_manifest, record_from_dict
from repro.sim.tracing import TRACE_CATEGORIES, NullTracer

#: A scenario hot enough to trip alarms (so *every* category fires).
ALARMING = SimulationConfig(
    policy="RR",
    duration=1200.0,
    total_clients=1200,
    seed=3,
    trace=True,
)


@pytest.fixture(scope="module")
def alarming_result():
    return run_simulation(ALARMING)


class TestCategoryCounts:
    def test_every_category_fires(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        assert set(counts) == set(TRACE_CATEGORIES)
        assert all(count > 0 for count in counts.values())

    def test_dns_records_match_resolution_counter(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        assert counts["dns"] == alarming_result.dns_resolutions
        assert counts["dns"] == alarming_result.metrics["dns.resolutions"]

    def test_ns_records_match_answer_counters(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        metrics = alarming_result.metrics
        assert counts["ns"] == (
            metrics["ns.cache_answers"] + metrics["ns.authoritative_answers"]
        )

    def test_session_records_match_session_counter(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        assert counts["session"] == alarming_result.total_sessions
        assert counts["session"] == alarming_result.metrics[
            "workload.sessions"
        ]

    def test_util_records_match_window_counter(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        assert counts["util"] == alarming_result.metrics["util.windows"]

    def test_alarm_records_match_transition_counters(self, alarming_result):
        counts = alarming_result.trace_category_counts()
        metrics = alarming_result.metrics
        assert metrics["alarm.signals"] == alarming_result.alarm_signals
        assert counts["alarm"] == (
            metrics["alarm.signals"] + metrics["alarm.normal_signals"]
        )
        # Every alarm transition reaches the scheduler as a sched record.
        assert counts["sched"] == counts["alarm"]

    def test_records_are_time_ordered(self, alarming_result):
        times = [record.time for record in alarming_result.trace]
        assert times == sorted(times)


class TestPayloadSchemas:
    def test_dns_payloads(self, alarming_result):
        for record in alarming_result.trace:
            if record.category != "dns":
                continue
            payload = record.payload
            assert payload["policy"] == "RR"
            assert 0 <= payload["domain"] < ALARMING.domain_count
            assert isinstance(payload["server"], int)
            assert payload["ttl"] >= 0
            assert 0 <= payload["weight"] <= 1

    def test_ns_payloads(self, alarming_result):
        hits = misses = 0
        for record in alarming_result.trace:
            if record.category != "ns":
                continue
            if record.payload["hit"]:
                hits += 1
                assert record.payload["expires_at"] >= record.time
            else:
                misses += 1
                assert "effective_ttl" in record.payload
                assert "overridden" in record.payload
        metrics = alarming_result.metrics
        assert hits == metrics["ns.cache_answers"]
        assert misses == metrics["ns.authoritative_answers"]

    def test_util_payloads(self, alarming_result):
        server_count = len(alarming_result.mean_utilization_per_server)
        for record in alarming_result.trace:
            if record.category != "util":
                continue
            payload = record.payload
            assert len(payload["utilizations"]) == server_count
            assert payload["max"] == max(payload["utilizations"])
            assert payload["utilizations"][payload["argmax"]] == payload["max"]

    def test_sched_payloads_track_exclusions(self, alarming_result):
        server_count = len(alarming_result.mean_utilization_per_server)
        for record in alarming_result.trace:
            if record.category != "sched":
                continue
            payload = record.payload
            everyone = len(payload["eligible"]) == server_count
            if payload["excluded"] and not everyone:
                # (When *all* servers are alarmed the scheduler state
                # falls back to the full set, so an excluded server can
                # legitimately appear eligible.)
                assert payload["server"] not in payload["eligible"]
            elif not payload["excluded"]:
                assert payload["server"] in payload["eligible"]
            assert 0 < len(payload["eligible"]) <= server_count


class TestCategoryFiltering:
    def test_only_selected_categories_recorded(self):
        config = dataclasses.replace(
            ALARMING, duration=600.0, trace_categories=("dns", "alarm")
        )
        result = run_simulation(config)
        assert set(result.trace_category_counts()) <= {"dns", "alarm"}
        assert result.trace_category_counts()["dns"] > 0


class TestWorkerParity:
    def test_trace_counts_identical_across_worker_counts(self):
        config = dataclasses.replace(
            ALARMING, duration=600.0, total_clients=400
        )
        configs = [config, dataclasses.replace(config, seed=11)]
        serial = ParallelExecutor(workers=1).run_simulations(configs)
        parallel = ParallelExecutor(workers=4).run_simulations(configs)
        for left, right in zip(serial, parallel):
            assert left.trace_category_counts() == (
                right.trace_category_counts()
            )
            assert left.trace == right.trace
            assert left.metrics == right.metrics
            assert left.summary() == right.summary()


class TestNullTracerPath:
    def test_untraced_run_never_constructs_a_record(self, monkeypatch):
        def explode(self, time, category, payload=None):
            raise AssertionError(
                "NullTracer.record called despite tracer.enabled guard"
            )

        monkeypatch.setattr(NullTracer, "record", explode)
        config = dataclasses.replace(
            ALARMING, duration=600.0, total_clients=400, trace=False
        )
        result = run_simulation(config)
        assert result.trace is None
        assert result.metrics["dns.resolutions"] > 0  # metrics still work


class TestArtifactBundle:
    def test_round_trip(self, tmp_path, alarming_result):
        paths = save_run_artifacts(
            alarming_result, tmp_path / "bundle", extra={"suite": "tests"}
        )
        restored = load_json(paths["result"])
        assert restored.summary() == alarming_result.summary()
        assert restored.metrics == alarming_result.metrics

        records, _ = read_jsonl(paths["trace"], record_from_dict)
        assert category_counts(records) == (
            alarming_result.trace_category_counts()
        )

        manifest = read_manifest(paths["manifest"])
        assert manifest["extra"] == {"suite": "tests"}
        assert config_from_dict(manifest["config"]) == ALARMING
