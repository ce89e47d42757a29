"""Unit tests for the process-parallel experiment executor."""

import pytest

from repro.errors import ConfigurationError, UnknownPolicyError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    ExecutionStats,
    ParallelExecutor,
    resolve_workers,
)
from repro.experiments.grid import run_grid
from repro.experiments.runner import run_cells

QUICK = SimulationConfig(policy="RR", duration=300.0, seed=9)


def _double(value):
    """Module-level so it pickles for the process-pool paths."""
    return value * 2


def _fail_on_three(value):
    if value == 3:
        raise ValueError(f"boom on {value}")
    return value


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=workers)

    def test_chunk_size_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=1, chunk_size=0)

    def test_workers_none_uses_cpu_count(self):
        assert resolve_workers(None) >= 1
        assert ParallelExecutor(workers=None).workers == resolve_workers(None)

    def test_repr_mentions_workers(self):
        assert "workers=2" in repr(ParallelExecutor(workers=2))


class TestSerial:
    def test_map_preserves_input_order(self):
        executor = ParallelExecutor(workers=1)
        assert executor.map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_map_accepts_unpicklable_callables(self):
        # The serial fallback must not require pickling: lambdas and
        # closures are fine.
        executor = ParallelExecutor(workers=1)
        offset = 10
        assert executor.map(lambda v: v + offset, [1, 2]) == [11, 12]

    def test_exceptions_propagate_untouched(self):
        executor = ParallelExecutor(workers=1)
        with pytest.raises(ValueError, match="boom on 3"):
            executor.map(_fail_on_three, [1, 2, 3, 4])

    def test_stats_captured(self):
        executor = ParallelExecutor(workers=1)
        executor.map(_double, [1, 2, 3])
        stats = executor.last_stats
        assert stats is not None
        assert stats.workers == 1
        assert stats.cell_count == 3
        assert stats.wall_time >= 0
        assert all(t >= 0 for t in stats.cell_times)
        assert stats.total_cell_time == pytest.approx(sum(stats.cell_times))

    def test_empty_batch(self):
        executor = ParallelExecutor(workers=1)
        assert executor.map(_double, []) == []
        assert executor.last_stats.cell_count == 0
        assert executor.last_stats.speedup >= 0.0


class TestParallel:
    def test_map_matches_serial_and_preserves_order(self):
        items = list(range(13))
        serial = ParallelExecutor(workers=1).map(_double, items)
        parallel = ParallelExecutor(workers=2).map(_double, items)
        assert parallel == serial

    def test_explicit_chunk_size(self):
        executor = ParallelExecutor(workers=2, chunk_size=2)
        assert executor.map(_double, [1, 2, 3, 4, 5]) == [2, 4, 6, 8, 10]
        assert executor.last_stats.cell_count == 5

    def test_worker_exception_propagates(self):
        executor = ParallelExecutor(workers=2, chunk_size=1)
        with pytest.raises(ValueError, match="boom on 3"):
            executor.map(_fail_on_three, [1, 2, 3, 4])

    def test_single_item_runs_inline(self):
        # A one-cell batch never pays for a process pool.
        executor = ParallelExecutor(workers=4)
        offset = 5
        assert executor.map(lambda v: v + offset, [1]) == [6]

    def test_auto_chunking_covers_all_items(self):
        executor = ParallelExecutor(workers=2)
        items = list(range(23))
        assert executor.map(_double, items) == [v * 2 for v in items]
        assert executor.last_stats.cell_count == 23


class TestRunSimulations:
    def test_serial_parallel_parity(self):
        configs = [QUICK, QUICK.replace(policy="DAL")]
        serial = ParallelExecutor(workers=1).run_simulations(configs)
        parallel = ParallelExecutor(workers=2).run_simulations(configs)
        for a, b in zip(serial, parallel):
            assert a.policy == b.policy
            assert a.max_utilization_samples == b.max_utilization_samples
            assert a.summary() == b.summary()

    def test_simulation_error_propagates_from_worker(self):
        executor = ParallelExecutor(workers=2, chunk_size=1)
        with pytest.raises(UnknownPolicyError):
            executor.run_simulations(
                [QUICK, QUICK.replace(policy="NO-SUCH-POLICY")]
            )

    def test_unknown_policy_error_survives_pickling(self):
        # Worker exceptions cross the process boundary pickled; an
        # exception whose args don't match its constructor breaks the
        # whole pool (BrokenProcessPool) instead of reporting the cell.
        import pickle

        err = UnknownPolicyError("NOPE", ["RR", "DAL"])
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, UnknownPolicyError)
        assert clone.name == "NOPE"
        assert clone.known == ["RR", "DAL"]
        assert str(clone) == str(err)


class TestExecutionStats:
    def test_speedup_and_aggregates(self):
        stats = ExecutionStats(
            workers=2, wall_time=2.0, cell_times=[1.0, 2.0, 1.0]
        )
        assert stats.cell_count == 3
        assert stats.total_cell_time == pytest.approx(4.0)
        assert stats.mean_cell_time == pytest.approx(4.0 / 3)
        assert stats.max_cell_time == pytest.approx(2.0)
        assert stats.speedup == pytest.approx(2.0)

    def test_zero_wall_time_guarded(self):
        stats = ExecutionStats(workers=1, wall_time=0.0, cell_times=[])
        assert stats.speedup == 0.0
        assert stats.mean_cell_time == 0.0
        assert stats.max_cell_time == 0.0

    def test_empty_batch_speedup_is_zero_even_with_wall_time(self):
        # An empty batch has nothing to speed up, whatever the clock says.
        stats = ExecutionStats(workers=4, wall_time=1.0, cell_times=[])
        assert stats.speedup == 0.0

    def test_zero_wall_time_with_cells_is_infinite_not_zero(self):
        # Work happened in unmeasurable time: 0.0 would masquerade as
        # the empty-batch value and read as a slowdown in reports.
        stats = ExecutionStats(workers=1, wall_time=0.0, cell_times=[0.5])
        assert stats.speedup == float("inf")

    def test_summary_rows_render(self):
        stats = ExecutionStats(workers=2, wall_time=1.0, cell_times=[0.5])
        labels = [label for label, _ in stats.summary_rows()]
        assert "workers" in labels
        assert "speedup vs serial" in labels
        assert dict(stats.summary_rows())["speedup vs serial"] == "0.50x"

    @pytest.mark.parametrize(
        "stats",
        [
            ExecutionStats(workers=1, wall_time=0.0, cell_times=[0.5]),
            ExecutionStats(workers=1, wall_time=1.0, cell_times=[]),
            ExecutionStats(workers=1, wall_time=0.0, cell_times=[]),
        ],
    )
    def test_summary_rows_render_na_for_degenerate_speedup(self, stats):
        rows = dict(stats.summary_rows())
        assert rows["speedup vs serial"] == "n/a"


class TestFromCompletions:
    """Stats aggregation for backends whose cells finish out of order."""

    def test_out_of_order_completions_sorted_by_cell(self):
        stats = ExecutionStats.from_completions(
            2, 1.0, [(2, 0.3, "w0"), (0, 0.1, "w1"), (1, 0.2, "w0")]
        )
        assert stats.cell_times == [0.1, 0.2, 0.3]
        assert stats.cell_count == 3
        assert stats.workers == 2

    def test_duplicate_completion_first_wins(self):
        # A re-leased cell can complete twice (the original worker was
        # only presumed dead); only the first completion may count, or
        # retries would inflate cell counts and total cell time.
        stats = ExecutionStats.from_completions(
            2, 1.0, [(1, 0.2, "w0"), (1, 5.0, "w1"), (0, 0.1, "w0")]
        )
        assert stats.cell_count == 2
        assert stats.cell_times == [0.1, 0.2]
        assert stats.total_cell_time == pytest.approx(0.3)

    def test_empty_completions(self):
        stats = ExecutionStats.from_completions(1, 0.5, [])
        assert stats.cell_count == 0
        assert stats.speedup == 0.0


class TestWorkersWithExecutor:
    """run_cells and its wrappers refuse an executor beside a worker count."""

    @pytest.mark.parametrize("workers", [2, 4, None])
    def test_run_cells_rejects_both(self, workers):
        executor = ParallelExecutor(workers=1)
        with pytest.raises(ConfigurationError, match="not both"):
            run_cells(QUICK, [{"seed": 1}], workers=workers, executor=executor)
        assert executor.last_stats is None

    def test_wrapper_rejects_both(self):
        with pytest.raises(ConfigurationError, match="not both"):
            run_grid(
                QUICK,
                {"policy": ["RR", "DAL"]},
                workers=4,
                executor=ParallelExecutor(workers=1),
            )

    def test_executor_with_default_workers_runs(self):
        executor = ParallelExecutor(workers=1)
        results, stats = run_cells(
            QUICK.replace(duration=60.0), [{"seed": 1}], executor=executor
        )
        assert len(results) == 1
        assert stats is executor.last_stats
