"""Unit tests for repro.workload.trace."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.workload.trace import ArrivalSchedule


class TestScheduleConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([])

    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(5.0, 1.0)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 1.0), (10.0, 2.0), (10.0, 3.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, -1.0)])

    def test_infinite_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, math.inf)])

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 0.0), (10.0, 0.0)])

    def test_periodic_needs_period_past_last_breakpoint(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 1.0), (10.0, 2.0)], periodic=True)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule(
                [(0.0, 1.0), (10.0, 2.0)], periodic=True, period=10.0
            )


class TestRateLookup:
    def test_piecewise_constant_steps(self):
        schedule = ArrivalSchedule([(0.0, 1.0), (10.0, 3.0), (20.0, 0.5)])
        assert schedule.rate_at(0.0) == 1.0
        assert schedule.rate_at(9.999) == 1.0
        assert schedule.rate_at(10.0) == 3.0
        assert schedule.rate_at(19.0) == 3.0
        assert schedule.rate_at(20.0) == 0.5
        assert schedule.rate_at(1e9) == 0.5

    def test_negative_time_clamps_to_start(self):
        schedule = ArrivalSchedule([(0.0, 2.0), (10.0, 4.0)])
        assert schedule.rate_at(-5.0) == 2.0

    def test_periodic_wraps(self):
        schedule = ArrivalSchedule(
            [(0.0, 1.0), (50.0, 3.0)], periodic=True, period=100.0
        )
        assert schedule.rate_at(25.0) == 1.0
        assert schedule.rate_at(75.0) == 3.0
        assert schedule.rate_at(125.0) == 1.0
        assert schedule.rate_at(175.0) == 3.0

    def test_peak_rate(self):
        schedule = ArrivalSchedule([(0.0, 1.0), (10.0, 3.0), (20.0, 0.5)])
        assert schedule.peak_rate == 3.0


class TestBuilders:
    def test_constant(self):
        schedule = ArrivalSchedule.constant(2.5)
        assert schedule.profile == "constant"
        assert schedule.rate_at(0.0) == 2.5
        assert schedule.rate_at(1e6) == 2.5

    def test_ramp_monotone_and_bounded(self):
        schedule = ArrivalSchedule.ramp(1.0, 5.0, 100.0)
        assert schedule.profile == "ramp"
        rates = [schedule.rate_at(t) for t in range(0, 140, 5)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == 1.0
        assert rates[-1] == 5.0
        assert schedule.rate_at(1e6) == 5.0

    def test_ramp_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.ramp(1.0, 5.0, 0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.ramp(1.0, 5.0, 100.0, segments=0)

    def test_diurnal_wave_shape(self):
        schedule = ArrivalSchedule.diurnal(2.0, 0.5, 3600.0)
        assert schedule.profile == "diurnal"
        assert schedule.periodic
        assert schedule.period == 3600.0
        # Peak in the first half of the wave, trough in the second.
        assert schedule.rate_at(900.0) > 2.0
        assert schedule.rate_at(2700.0) < 2.0
        # Wraps a full period later.
        assert schedule.rate_at(900.0) == schedule.rate_at(4500.0)
        assert schedule.peak_rate <= 2.0 * 1.5

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 1.5, 3600.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 0.5, 3600.0, segments=1)


class TestReplay:
    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            {"t": 0.0, "rate": 1.0},
            {"t": 60.0, "rate": 4.0},
            {"t": 120.0, "rate": 2.0},
        ]
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n\n"
        )
        schedule = ArrivalSchedule.from_jsonl(str(path))
        assert schedule.profile == "replay"
        assert schedule.rate_at(30.0) == 1.0
        assert schedule.rate_at(90.0) == 4.0
        assert schedule.peak_rate == 4.0

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "rate": 1.0}\nnot json\n')
        with pytest.raises(ConfigurationError, match=":2"):
            ArrivalSchedule.from_jsonl(str(path))

    @pytest.mark.parametrize(
        "lines, line_number",
        [
            (['{"t": "0", "rate": true}', '{"t": 10, "rate": "2.5"}'], 1),
            (['{"t": 0, "rate": 1.0}', '{"t": 10, "rate": "2.5"}'], 2),
        ],
        ids=["string-time-bool-rate", "string-rate"],
    )
    def test_mistyped_field_rejected_naming_the_line(
        self, tmp_path, lines, line_number
    ):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ConfigurationError, match=f"trace.jsonl:{line_number}: replay line field"
        ):
            ArrivalSchedule.from_jsonl(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0}\n')
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.from_jsonl(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n")
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.from_jsonl(str(path))


class TestDescribe:
    def test_provenance_summary(self):
        schedule = ArrivalSchedule.diurnal(2.0, 0.5, 3600.0, segments=12)
        described = schedule.describe()
        assert described["profile"] == "diurnal"
        assert described["breakpoints"] == 12
        assert described["periodic"] is True
        assert described["period"] == 3600.0
        assert described["peak_rate"] == schedule.peak_rate
