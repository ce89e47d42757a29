"""Trace-driven workload source: replayed arrival schedules.

The synthetic populations model a *closed* system — a fixed set of
clients cycling through sessions forever. Real authoritative-DNS load is
better described by an *open* arrival process whose rate ramps and swings
diurnally (see PAPERS.md: "Modeling and Predicting DNS Server Load",
Kanuparthy et al.'s rate-driven ingress measurements). This module
provides that source:

:class:`ArrivalSchedule`
    A piecewise-constant session arrival-rate schedule (sessions/second)
    with builders for constant rates, linear ramps, diurnal sine waves,
    and replay of access-log-style JSONL rate traces.
:class:`TraceDrivenPopulation`
    An open population driven by a schedule: per-shard thinned Poisson
    arrival processes (Lewis–Shedler against the schedule's peak rate —
    superposition-exact, so the shard count never changes the aggregate
    law) spawn *sessions*, not clients. Session state lives in flat
    slot arrays recycled through a free pool, so memory is bounded by
    the number of *concurrent* sessions — independent of how many
    arrivals a run replays. Each session resolves once (a fresh client
    identity), issues its geometric page bursts separated by think
    times, and releases its slot.
:class:`TraceSessionWake`
    The source's heap-entry class. In event mode a wake is a pooled
    session's page cycle, or (negative slot ``-1 - shard_id``) one
    shard's arrival process, and re-arms a callback. Under a
    fast-forward environment the class registers as the fluid task: the
    arrival and session wakes become ``(time, key, slot)`` entries on a
    :class:`~repro.sim.fastforward.WakeCalendar`, one head wake stands
    for them on the engine heap, and the sharded population's drain,
    :func:`~repro.workload.fluid.calendar_drain`, steps them natively on
    its open-loop path, bit-identical to the event engine (same eids,
    same draws, same float operations).

Selected with ``SimulationConfig.workload_source = "trace"`` / CLI
``--workload-source trace``; the schedule shape comes from the
``trace_profile`` / ``trace_rate`` / ``trace_amplitude`` /
``trace_period`` / ``trace_path`` fields. The source is deterministic
for a given seed (all draws come from the named ``workload.*`` streams)
but makes no bit-parity claim against the synthetic populations — it
models a different system. Under a fast-forward environment it takes
the fluid lane unless the gate :func:`~repro.workload.fluid.session_kernel`
finds a fallback reason (geography, dynamic domains, a non-standard
session model); those reasons are counted and the source event-steps.
On the fluid lane each accepted arrival starts its session through the
population's :class:`~repro.workload.fluid.SessionKernel`, the same
session start the synthetic populations' drains call.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappush
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from ..obs.jsonl import json_fields, read_jsonl
from ..sim.events import Event, _NORMAL_KEY
from ..sim.fastforward import FluidTask, WakeCalendar
from ..sim.rng import RandomStreams
from ..sim.stats import RunningStats as _RttStats
from ..sim.tracing import NullTracer
from .domains import DomainSet
from .dynamics import StaticDomains
from .fluid import calendar_drain, session_kernel
from .sessions import SessionModel

__all__ = ["ArrivalSchedule", "TraceDrivenPopulation", "TraceSessionWake"]

_INFINITY = float("inf")

#: Default piecewise sampling resolution of the analytic profiles.
RAMP_SEGMENTS = 32
DIURNAL_SEGMENTS = 48


@dataclass(frozen=True)
class RatePoint:
    """One replay line: the arrival rate from time ``t`` on."""

    t: float
    rate: float


def _rate_point(data: dict) -> RatePoint:
    """One ``{"t": ..., "rate": ...}`` replay line, typed."""
    return RatePoint(
        **json_fields(RatePoint, data, "replay line", ConfigurationError)
    )


def _real(value, what: str) -> float:
    """``value`` as a float; :class:`ConfigurationError` unless it is a real
    number (``bool`` and numeric strings are refused, not coerced)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{what} must be a real number, got {value!r}")
    return float(value)


class ArrivalSchedule:
    """A piecewise-constant session arrival-rate schedule.

    Parameters
    ----------
    breakpoints:
        ``(time, rate)`` pairs, strictly increasing in time, first time
        0.0, rates >= 0 (sessions/second). Between breakpoints the rate
        is the last breakpoint's; past the final breakpoint it stays
        constant (or wraps when ``periodic``).
    periodic:
        Treat the schedule as one period of length ``period`` and wrap
        ``rate_at`` around it (diurnal profiles).
    period:
        Period length; defaults to the last breakpoint time + its
        segment width for built profiles, required explicitly otherwise
        when ``periodic``.
    """

    __slots__ = ("_times", "_rates", "periodic", "period", "profile")

    def __init__(
        self,
        breakpoints: Sequence[Tuple[float, float]],
        periodic: bool = False,
        period: Optional[float] = None,
        profile: str = "custom",
    ):
        if not breakpoints:
            raise ConfigurationError("an arrival schedule needs breakpoints")
        times: List[float] = []
        rates: List[float] = []
        for t, rate in breakpoints:
            t = _real(t, "a breakpoint time")
            rate = _real(rate, "an arrival rate")
            if not -_INFINITY < t < _INFINITY:
                raise ConfigurationError(
                    f"breakpoint times must be finite, got {t!r}"
                )
            if times and t <= times[-1]:
                raise ConfigurationError(
                    f"breakpoint times must be strictly increasing "
                    f"(got {t!r} after {times[-1]!r})"
                )
            if not 0.0 <= rate < _INFINITY:
                raise ConfigurationError(
                    f"arrival rates must be finite and >= 0, got {rate!r}"
                )
            times.append(t)
            rates.append(rate)
        if times[0] != 0.0:
            raise ConfigurationError(
                f"the first breakpoint must be at t=0, got {times[0]!r}"
            )
        if max(rates) <= 0.0:
            raise ConfigurationError("the schedule never has a positive rate")
        self._times = array("d", times)
        self._rates = array("d", rates)
        self.periodic = bool(periodic)
        if period is not None:
            period = _real(period, "the period")
        if self.periodic:
            if period is None or not times[-1] < period < _INFINITY:
                raise ConfigurationError(
                    f"a periodic schedule needs a finite period > last "
                    f"breakpoint time, got {period!r}"
                )
            self.period = float(period)
        else:
            self.period = None
        self.profile = profile

    @property
    def peak_rate(self) -> float:
        """The schedule's maximum rate (the thinning majorant)."""
        return max(self._rates)

    def rate_at(self, t: float) -> float:
        """Arrival rate in effect at time ``t`` (sessions/second)."""
        if self.periodic:
            t = t % self.period
        elif t < 0.0:
            t = 0.0
        # times[0] == 0.0, so the index is always >= 1.
        return self._rates[bisect_right(self._times, t) - 1]

    # -- builders ----------------------------------------------------------

    @classmethod
    def constant(cls, rate: float) -> "ArrivalSchedule":
        """A stationary arrival rate."""
        return cls([(0.0, rate)], profile="constant")

    @classmethod
    def ramp(
        cls,
        base_rate: float,
        peak_rate: float,
        ramp_duration: float,
        segments: int = RAMP_SEGMENTS,
    ) -> "ArrivalSchedule":
        """A linear ramp from ``base_rate`` to ``peak_rate``.

        Sampled into ``segments`` piecewise-constant steps over
        ``ramp_duration``; the rate holds at ``peak_rate`` afterwards.
        """
        if ramp_duration <= 0:
            raise ConfigurationError(
                f"ramp_duration must be > 0, got {ramp_duration!r}"
            )
        if segments < 1:
            raise ConfigurationError(f"segments must be >= 1, got {segments!r}")
        width = ramp_duration / segments
        points = [
            (
                i * width,
                base_rate + (peak_rate - base_rate) * (i / segments),
            )
            for i in range(segments)
        ]
        points.append((ramp_duration, peak_rate))
        return cls(points, profile="ramp")

    @classmethod
    def diurnal(
        cls,
        mean_rate: float,
        amplitude: float,
        period: float,
        segments: int = DIURNAL_SEGMENTS,
    ) -> "ArrivalSchedule":
        """A diurnal wave: ``mean * (1 + amplitude * sin(2 pi t/period))``.

        Sampled at segment midpoints into a periodic piecewise-constant
        schedule. ``amplitude`` is relative, in [0, 1].
        """
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period!r}")
        if not 0.0 <= amplitude <= 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1], got {amplitude!r}"
            )
        if segments < 2:
            raise ConfigurationError(f"segments must be >= 2, got {segments!r}")
        width = period / segments
        points = []
        for i in range(segments):
            midpoint = (i + 0.5) * width
            rate = mean_rate * (
                1.0 + amplitude * math.sin(2.0 * math.pi * midpoint / period)
            )
            points.append((i * width, max(0.0, rate)))
        return cls(points, periodic=True, period=period, profile="diurnal")

    @classmethod
    def from_jsonl(cls, path: str) -> "ArrivalSchedule":
        """Replay a rate trace from a JSONL file.

        One object per line: ``{"t": <seconds>, "rate": <sessions/s>}``,
        times strictly increasing from 0. Blank lines are skipped; any
        other unreadable line raises
        :class:`~repro.errors.ConfigurationError` naming its line.
        """
        points, _ = read_jsonl(path, _rate_point)
        if not points:
            raise ConfigurationError(f"{path}: empty arrival trace")
        return cls([(p.t, p.rate) for p in points], profile="replay")

    def describe(self) -> dict:
        """Schedule summary for provenance manifests."""
        return {
            "profile": self.profile,
            "breakpoints": len(self._times),
            "peak_rate": self.peak_rate,
            "periodic": self.periodic,
            "period": self.period,
        }

    def __repr__(self) -> str:
        return (
            f"<ArrivalSchedule {self.profile} "
            f"breakpoints={len(self._times)} peak={self.peak_rate:g}/s>"
        )


class TraceSessionWake(FluidTask, Event):
    """A heap entry of the trace source.

    Like :class:`~repro.workload.shards.ShardClientWake` — an
    :class:`~repro.sim.events.Event` for the reference engine and a
    :class:`~repro.sim.fastforward.FluidTask` for the fast-forward lane.
    It owns no session state; everything lives in the population's flat
    slot arrays, indexed by :attr:`slot`.

    In event mode a wake with slot ``>= 0`` is one pooled session's page
    cycle: when its session ends, the wake (and its slot) returns to the
    free pool for the next arrival. A recycled wake never has a pending
    heap entry — a session's last page burst does not schedule one — so
    reuse can never alias two live entries. A negative slot ``-1 -
    shard_id`` marks the permanent wake of one arrival shard. On the
    fluid lane the population has one wake, its *head* (slot ``None``),
    whose heap key is always its calendar's earliest entry (see
    :class:`TraceDrivenPopulation`), and :attr:`drain` is
    :func:`~repro.workload.fluid.calendar_drain` on its open-loop path:
    arrival entries, and sessions that free their slot after the last
    page.
    """

    __slots__ = ("population", "slot")

    def __init__(
        self, env, population: "TraceDrivenPopulation", slot: Optional[int]
    ):
        self.env = env
        self.population = population
        self.slot = slot
        self._callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._processed = False

    drain = classmethod(calendar_drain)

    def __repr__(self) -> str:
        if self.slot is None:
            return (
                f"<TraceSessionWake head "
                f"held={self.population._calendar.held}>"
            )
        return f"<TraceSessionWake slot={self.slot}>"


class TraceDrivenPopulation:
    """Open, schedule-driven session workload (see module docstring).

    Drop-in attribute surface for the simulation wiring
    (``dns_control_fraction``, totals, ``network_rtt_stats``,
    ``snapshot_state``); ``engine`` is ``"fluid"`` when the population
    registered :class:`TraceSessionWake` as a fast-forward task, else
    ``"event"``.

    Parameters largely mirror
    :class:`~repro.workload.clients.ClientPopulation`; the additions:

    schedule:
        The :class:`ArrivalSchedule` to replay.
    shard_count:
        Number of independent thinned arrival processes (``None`` =
        sized from the expected concurrent-session count and
        ``shard_size``).
    shard_size:
        Target concurrent sessions per shard when auto-sizing.
    """

    __slots__ = (
        "env",
        "cluster",
        "resolution_chain",
        "domains",
        "session_model",
        "schedule",
        "total_clients",
        "tracer",
        "dynamics",
        "client_address_caching",
        "client_cache_hits",
        "layout",
        "network_rtt_stats",
        "_think_rng",
        "_pages_rng",
        "_hits_rng",
        "_arrival_rng",
        "_peak_rate",
        "_arrival_lambd",
        "_think_sample",
        "_pages_sample",
        "_hits_sample",
        "dns_routed_hits",
        "total_hits",
        "total_pages",
        "total_sessions",
        "total_arrivals",
        "active_sessions",
        "peak_active_sessions",
        "shard_count",
        "_shard_started",
        "_shard_arrivals",
        "_remaining",
        "_server",
        "_resolved",
        "_session_domain",
        "_page_rtt",
        "_wakes",
        "_free",
        "_cb",
        "_arrival_cb",
        "processes",
        "engine",
        "_kernel",
        "_head",
        "_calendar",
    )

    def __init__(
        self,
        env,
        cluster,
        resolution_chain,
        domains: DomainSet,
        session_model: SessionModel,
        schedule: ArrivalSchedule,
        streams: RandomStreams,
        total_clients: int = 0,
        tracer=None,
        dynamics=None,
        layout=None,
        metrics=None,
        shard_count: Optional[int] = None,
        shard_size: int = 4096,
    ):
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size!r}"
            )
        self.env = env
        self.cluster = cluster
        self.resolution_chain = resolution_chain
        self.domains = domains
        self.session_model = session_model
        self.schedule = schedule
        #: Nominal closed-population scale this schedule stands in for
        #: (0 = pure open workload); informational only.
        self.total_clients = total_clients
        self.tracer = tracer if tracer is not None else NullTracer()
        self.dynamics = dynamics if dynamics is not None else StaticDomains()
        #: Sessions are fresh client identities; there is nothing to
        #: cache client-side (config validation rejects the combination).
        self.client_address_caching = False
        self.client_cache_hits = 0
        self.layout = layout
        self.network_rtt_stats = _RttStats()
        self._think_rng = streams.stream("workload.think")
        self._pages_rng = streams.stream("workload.pages")
        self._hits_rng = streams.stream("workload.hits")
        #: Dedicated stream: arrival thinning + domain draws stay
        #: independent of the per-session think/pages/hits draws.
        self._arrival_rng = streams.stream("workload.arrivals")
        self._think_sample = session_model.think_time.sampler(self._think_rng)
        self._pages_sample = session_model.pages_per_session.sampler(
            self._pages_rng
        )
        self._hits_sample = session_model.hits_per_page.sampler(self._hits_rng)
        self.dns_routed_hits = 0
        self.total_hits = 0
        self.total_pages = 0
        self.total_sessions = 0
        #: Arrivals accepted by the thinning (== sessions started).
        self.total_arrivals = 0
        self.active_sessions = 0
        self.peak_active_sessions = 0
        if shard_count is None:
            # Expected concurrent sessions at peak rate (Little's law:
            # arrival rate x mean session duration), one shard per
            # `shard_size` of them, clamped to a sane range.
            mean_session = (
                session_model.pages_per_session.mean
                * session_model.think_time.mean
            )
            concurrent = schedule.peak_rate * mean_session
            shard_count = max(1, min(64, -(-int(concurrent) // shard_size)))
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count!r}"
            )
        self.shard_count = shard_count
        # The thinning majorant and each shard's candidate rate.
        self._peak_rate = schedule.peak_rate
        self._arrival_lambd = self._peak_rate / shard_count
        #: 1 once a shard's first wake (the process-start mirror) ran.
        self._shard_started = bytearray(shard_count)
        self._shard_arrivals = array("q", bytes(8 * shard_count))
        # Flat slot-pool session state; grows to the high-water mark of
        # concurrent sessions and is recycled thereafter.
        self._remaining = array("q")
        self._server = array("q")
        self._resolved = bytearray()
        self._session_domain = array("q")
        self._page_rtt = array("d") if layout is not None else None
        #: Event mode's session wakes, one per slot (the fluid lane
        #: keeps its wakes on the calendar and builds none).
        self._wakes: List[TraceSessionWake] = []
        self._free: List[int] = []
        self._cb = [self._on_wake]
        self._arrival_cb = [self._on_arrival]
        self._kernel = session_kernel(env, self, TraceSessionWake)
        self.engine = "event" if self._kernel is None else "fluid"
        if metrics is not None:
            metrics.register("workload.sessions", lambda: self.total_sessions)
            metrics.register("workload.pages", lambda: self.total_pages)
            metrics.register("workload.hits", lambda: self.total_hits)
            metrics.register(
                "workload.dns_routed_hits", lambda: self.dns_routed_hits
            )
            metrics.register(
                "workload.client_cache_hits", lambda: self.client_cache_hits
            )
            metrics.register("workload.arrivals", lambda: self.total_arrivals)
            metrics.register(
                "workload.active_sessions", lambda: self.active_sessions
            )
            metrics.register(
                "workload.session_slots", lambda: len(self._remaining)
            )
        if self._kernel is None:
            # Event mode: one permanent wake per arrival shard. Its
            # urgent entry at the current time takes the eid a process
            # start would take.
            processes = []
            for shard_id in range(shard_count):
                wake = TraceSessionWake(env, self, -1 - shard_id)
                wake._callbacks = self._arrival_cb
                env._eid = eid = env._eid + 1
                heappush(env._queue, (env._now + 0.0, eid, wake))
                processes.append(wake)
            self.processes = processes
            return
        # Fluid lane: the same urgent entries, filed on the calendar as
        # (time, key, -1 - shard_id), behind one head on the engine heap.
        # Arrival candidates come at the peak rate, and each session
        # wakes once per page after the first: peak_rate * (mean_pages
        # + 1) wakes per second bounds the rate.
        self.processes = []
        self._calendar = calendar = WakeCalendar(
            schedule.peak_rate * (session_model.pages_per_session.mean + 1.0)
        )
        for shard_id in range(shard_count):
            env._eid = eid = env._eid + 1
            calendar.file((env._now + 0.0, eid, -1 - shard_id))
        self._head = TraceSessionWake(env, self, None)
        calendar.push_head(env, self._head)

    @property
    def dns_control_fraction(self) -> float:
        """Fraction of hits in sessions the DNS directly routed."""
        return self.dns_routed_hits / self.total_hits if self.total_hits else 0.0

    # -- arrivals ----------------------------------------------------------

    def _on_arrival(self, wake: TraceSessionWake) -> None:
        """One shard's thinned Poisson arrival process (Lewis–Shedler).

        Candidate arrivals come from a homogeneous Poisson process at
        ``peak_rate / shard_count``; each candidate at time ``t`` is
        accepted with probability ``rate_at(t) / peak_rate``. The
        superposition of the shards is exactly a nonhomogeneous Poisson
        process with intensity ``rate_at`` — independent of the shard
        count. A shard's first wake only draws its first candidate gap.
        """
        env = self.env
        now = env._now
        shard_id = -1 - wake.slot
        rng = self._arrival_rng
        if not self._shard_started[shard_id]:
            self._shard_started[shard_id] = 1
        elif rng.random() * self._peak_rate <= self.schedule.rate_at(now):
            self._shard_arrivals[shard_id] += 1
            self._start_session(now)
        delay = rng.expovariate(self._arrival_lambd)
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        env._eid = eid = env._eid + 1
        heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
        wake._callbacks = self._arrival_cb
        wake._processed = False

    def _claim_slot(self) -> int:
        """A free session slot, growing the arrays at the high-water mark."""
        free = self._free
        if free:
            return free.pop()
        slot = len(self._remaining)
        self._remaining.append(0)
        self._server.append(0)
        self._resolved.append(0)
        self._session_domain.append(0)
        if self._page_rtt is not None:
            self._page_rtt.append(0.0)
        return slot

    def _start_session(self, now: float) -> None:
        """Begin one session: resolve, first page burst, schedule rest."""
        session_id = self.total_arrivals
        self.total_arrivals += 1
        domain_id = self.domains.sample_domain(self._arrival_rng.random())
        dynamics = self.dynamics
        if not dynamics.is_static:
            domain_id = dynamics.current_domain(domain_id, now)
        chain = self.resolution_chain
        before = chain.authoritative_answers
        record = chain.resolve(domain_id, now, session_id)
        resolved_by_dns = chain.authoritative_answers > before
        pages = int(self._pages_sample())
        self.total_sessions += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                now,
                "session",
                {
                    "client": session_id,
                    "domain": domain_id,
                    "server": record.server_id,
                    "pages": pages,
                    "dns": resolved_by_dns,
                },
            )
        if pages < 1:
            return  # a zero-page session contributes nothing
        slot = self._claim_slot()
        if slot == len(self._wakes):
            self._wakes.append(TraceSessionWake(self.env, self, slot))
        self._session_domain[slot] = domain_id
        self._server[slot] = record.server_id
        self._resolved[slot] = 1 if resolved_by_dns else 0
        self._remaining[slot] = pages
        if self.layout is not None:
            self._page_rtt[slot] = self.layout.rtt(domain_id, record.server_id)
        self.active_sessions += 1
        if self.active_sessions > self.peak_active_sessions:
            self.peak_active_sessions = self.active_sessions
        self._run_page(self._wakes[slot], now)

    def _run_page(self, wake: TraceSessionWake, now: float) -> None:
        """Issue one page burst; schedule the next or end the session."""
        slot = wake.slot
        domain_id = self._session_domain[slot]
        hits = int(self._hits_sample())
        self.cluster.servers[self._server[slot]].offer(now, hits, domain_id)
        self.total_pages += 1
        self.total_hits += hits
        if self._resolved[slot]:
            self.dns_routed_hits += hits
        if self.layout is not None:
            self.network_rtt_stats.add(self._page_rtt[slot])
        remaining = self._remaining[slot] - 1
        self._remaining[slot] = remaining
        if remaining <= 0:
            # Session over: release the slot. No heap entry is pending
            # for this wake, so the next claimant cannot alias it.
            self.active_sessions -= 1
            self._free.append(slot)
            return
        env = self.env
        delay = self._think_sample()
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        wake._callbacks = self._cb
        wake._processed = False
        env._eid = eid = env._eid + 1
        heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))

    def _on_wake(self, wake: TraceSessionWake) -> None:
        """Dispatch a pending mid-session page burst."""
        self._run_page(wake, self.env._now)

    # -- reporting ---------------------------------------------------------

    def shard_stats(self) -> dict:
        """Arrival-process accounting for provenance / workload info."""
        arrivals = self._shard_arrivals
        return {
            "shard_count": self.shard_count,
            "arrivals_min": min(arrivals) if arrivals else 0,
            "arrivals_max": max(arrivals) if arrivals else 0,
            "arrivals_total": sum(arrivals),
            "session_slots": len(self._remaining),
            "peak_active_sessions": self.peak_active_sessions,
            "schedule": self.schedule.describe(),
        }

    def snapshot_state(self) -> dict:
        """Workload counters + open-session census (for checkpoints)."""
        return {
            "total_clients": self.total_clients,
            "total_sessions": self.total_sessions,
            "total_pages": self.total_pages,
            "total_hits": self.total_hits,
            "dns_routed_hits": self.dns_routed_hits,
            "client_cache_hits": self.client_cache_hits,
            "alive": self.active_sessions,
            "network_rtt_stats": self.network_rtt_stats.snapshot_state(),
            "arrivals": self.total_arrivals,
            "session_slots": len(self._remaining),
        }

    def __repr__(self) -> str:
        return (
            f"<TraceDrivenPopulation {self.schedule.profile} "
            f"shards={self.shard_count} active={self.active_sessions} "
            f"sessions={self.total_sessions}>"
        )
