"""Simulation assembly: wire all substrates for one configured run.

:class:`Simulation` is the composition root. Given a
:class:`~repro.experiments.config.SimulationConfig` it builds the engine,
cluster, estimator, scheduler + TTL policy, DNS + name servers, monitor +
alarms, and client population, runs the clock, and returns a
:class:`~repro.experiments.metrics.SimulationResult`.
"""

from __future__ import annotations

from typing import Optional

from ..core.estimator import (
    MeasuredEstimator,
    OracleEstimator,
    SlidingWindowEstimator,
)
from ..core.registry import build_policy, parse_policy_name
from ..core.state import SchedulerState
from ..dns.authoritative import AuthoritativeDns
from ..dns.resolver import ResolutionChain
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Environment
from ..sim.fastforward import FastForwardEnvironment
from ..sim.rng import RandomStreams
from ..sim.tracing import NullTracer, Tracer
from ..web.monitor import AlarmProtocol, UtilizationMonitor
from ..workload.clients import ClientPopulation
from ..workload.domains import DomainSet
from ..workload.dynamics import RotatingHotDomains
from ..workload.shards import ShardedClientPopulation
from ..workload.trace import TraceDrivenPopulation
from .config import SimulationConfig
from .metrics import MaxUtilizationCollector, SimulationResult


#: Valid engine modes: ``"event"`` is the reference per-event dispatch,
#: ``"fastforward"`` batch-advances quiescent client wakes natively (see
#: :mod:`repro.sim.fastforward`) with bit-identical trajectories.
ENGINE_MODES = ("event", "fastforward")


class Simulation:
    """One fully wired simulation (see module docstring).

    All components are exposed as attributes after construction so tests
    and notebooks can poke at any layer before/after :meth:`run`.

    ``engine_mode`` selects the dispatch engine — a *run-control*
    parameter, deliberately not a :class:`SimulationConfig` field: both
    modes produce bit-identical trajectories, so the mode must not leak
    into config hashes, checkpoint digests or result comparisons (it is
    recorded in checkpoints and provenance manifests instead).
    """

    def __init__(self, config: SimulationConfig, engine_mode: str = "event"):
        if engine_mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine mode {engine_mode!r}; "
                f"choose from {ENGINE_MODES}"
            )
        self.config = config
        self.engine_mode = engine_mode
        self.spec = parse_policy_name(config.policy)

        self.env = (
            FastForwardEnvironment()
            if engine_mode == "fastforward"
            else Environment()
        )
        self.streams = RandomStreams(config.seed)
        self.tracer = (
            Tracer(config.trace_categories) if config.trace else NullTracer()
        )
        #: Run-wide metrics registry; every subsystem below registers its
        #: counters/gauges into it (pull-based — zero hot-path cost).
        self.metrics = MetricsRegistry()

        # -- web site -----------------------------------------------------
        self.cluster = config.build_cluster()

        # -- domains: nominal (what the DNS believes) vs actual (what the
        #    clients do). The IDEAL policy forces a uniform actual
        #    distribution; the error experiments perturb the actual one.
        nominal = (
            DomainSet.uniform(config.domain_count)
            if self.spec.uniform_workload
            else config.build_domains()
        )
        actual = nominal
        if config.workload_error > 0:
            actual = nominal.perturb_hottest(config.workload_error)
        self.nominal_domains = nominal
        self.actual_domains = actual

        # -- estimator ------------------------------------------------------
        if config.estimator == "oracle":
            # The oracle reflects the *nominal* shares: under perturbation
            # the DNS estimates stay stale, exactly as in the paper.
            self.estimator = OracleEstimator(nominal.shares)
        elif config.estimator == "measured":
            self.estimator = MeasuredEstimator(
                self.env,
                self.cluster.servers,
                config.domain_count,
                interval=config.estimator_interval,
                smoothing=config.estimator_smoothing,
                prior=nominal.shares,
            )
        else:  # "window"
            self.estimator = SlidingWindowEstimator(
                self.env,
                self.cluster.servers,
                config.domain_count,
                interval=config.estimator_interval,
                window_intervals=config.estimator_window_intervals,
                prior=nominal.shares,
            )

        # -- geography (optional extension) -------------------------------------
        if config.geography != "none":
            from ..geo.placement import GeographicLayout

            factory = (
                GeographicLayout.random
                if config.geography == "random"
                else GeographicLayout.clustered
            )
            self.layout = factory(
                config.domain_count,
                self.cluster.server_count,
                seed=config.seed,
                base_rtt=config.geo_base_rtt,
                rtt_per_unit=config.geo_rtt_per_unit,
            )
        else:
            self.layout = None

        # -- scheduler + TTL policy -------------------------------------------
        self.state = SchedulerState(self.cluster, self.estimator)
        self.state.layout = self.layout
        self.scheduler, self.ttl_policy = build_policy(
            self.spec, self.state, self.streams, config.constant_ttl
        )

        # -- DNS + name servers -------------------------------------------------
        self.dns = AuthoritativeDns(
            self.scheduler,
            self.ttl_policy,
            tracer=self.tracer,
            metrics=self.metrics,
            domain_weight=self._domain_weight,
            policy_label=self.spec.name,
        )
        self.resolution_chain = ResolutionChain(
            self.dns,
            config.domain_count,
            min_accepted_ttl=config.min_accepted_ttl,
            default_ttl=config.ns_default_ttl,
            override_mode=config.ns_override_mode,
            nameservers_per_domain=config.nameservers_per_domain,
            tracer=self.tracer,
            metrics=self.metrics,
        )

        # -- monitoring + alarms -----------------------------------------------
        self.collector = MaxUtilizationCollector(
            self.cluster.server_count,
            warmup=config.warmup,
            keep_series=config.keep_utilization_series,
        )
        if config.alarm_feedback:
            self.alarm_protocol: Optional[AlarmProtocol] = AlarmProtocol(
                self.cluster.server_count,
                threshold=config.alarm_threshold,
                listener=self._on_alarm,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        else:
            self.alarm_protocol = None
        # Timeline of the DNS-controlled request fraction, sampled once
        # per utilization window by piggybacking on the monitor's sink
        # (the population is wired a few lines below; by the first
        # window — interval seconds in — it exists).
        control_series = self.metrics.timeseries("workload.control_fraction")
        collector_sink = self.collector.sink

        def _windowed_sink(now, utilizations):
            collector_sink(now, utilizations)
            control_series.record(now, self.population.dns_control_fraction)

        self.monitor = UtilizationMonitor(
            self.env,
            self.cluster.servers,
            interval=config.utilization_interval,
            alarm_protocol=self.alarm_protocol,
            sample_sink=_windowed_sink,
            tracer=self.tracer,
            metrics=self.metrics,
        )

        # -- workload -------------------------------------------------------------
        if config.hot_rotation_interval > 0:
            dynamics = RotatingHotDomains(
                config.hot_rotation_interval, config.hot_rotation_count
            )
        else:
            dynamics = None
        if config.workload_source == "trace":
            self.population = TraceDrivenPopulation(
                self.env,
                self.cluster,
                self.resolution_chain,
                actual,
                config.build_session_model(),
                config.build_arrival_schedule(),
                self.streams,
                total_clients=config.total_clients,
                tracer=self.tracer,
                dynamics=dynamics,
                layout=self.layout,
                metrics=self.metrics,
                shard_size=config.shard_size,
            )
        elif config.effective_population() == "lazy":
            self.population = ShardedClientPopulation(
                self.env,
                self.cluster,
                self.resolution_chain,
                actual,
                config.build_session_model(),
                config.total_clients,
                self.streams,
                tracer=self.tracer,
                dynamics=dynamics,
                client_address_caching=config.client_address_caching,
                layout=self.layout,
                metrics=self.metrics,
                shard_size=config.shard_size,
            )
        else:
            self.population = ClientPopulation(
                self.env,
                self.cluster,
                self.resolution_chain,
                actual,
                config.build_session_model(),
                config.total_clients,
                self.streams,
                tracer=self.tracer,
                dynamics=dynamics,
                client_address_caching=config.client_address_caching,
                layout=self.layout,
                metrics=self.metrics,
            )

    @property
    def engine_info(self) -> dict:
        """Provenance of the dispatch engine actually in effect.

        Reports the requested mode, the effective mode (fast-forward
        falls back to reference event-stepping for ineligible
        configurations), the native fast-client count (for the trace
        source: its session slots, since its ``total_clients`` is only
        nominal), and the counted fallback reasons. Kept out of the
        digested metrics registry so checkpoint digests and ``repro
        report --compare`` stay mode-agnostic; the provenance manifest
        records it instead.
        """
        info = {
            "engine_mode": self.engine_mode,
            "effective_mode": self.engine_mode,
            "fast_clients": 0,
            "fallbacks": {},
        }
        if isinstance(self.env, FastForwardEnvironment):
            info["fallbacks"] = dict(self.env.fallback_reasons)
            population = self.population
            if population.engine != "fluid":
                info["effective_mode"] = "event"
            elif isinstance(population, TraceDrivenPopulation):
                info["fast_clients"] = population.shard_stats()["session_slots"]
            else:
                info["fast_clients"] = population.total_clients
        return info

    @property
    def workload_info(self) -> dict:
        """Provenance of the workload implementation actually in effect.

        Names the population class, the workload source, and — for the
        sharded/trace implementations — their shard accounting. Like
        :attr:`engine_info`, deliberately outside the digested metrics
        registry: all populations of one config are bit-identical (or,
        for the trace source, a different config), so the choice must
        not leak into digests or result comparisons.
        """
        info = {
            "source": self.config.workload_source,
            "population": type(self.population).__name__,
        }
        shard_stats = getattr(self.population, "shard_stats", None)
        if shard_stats is not None:
            info["shards"] = shard_stats()
        return info

    def _domain_weight(self, domain_id: int) -> float:
        """Estimated hidden-load share of ``domain_id`` (trace payloads)."""
        return self.estimator.share(domain_id)

    def _on_alarm(self, now: float, server_id: int, alarmed: bool) -> None:
        """Forward alarm transitions into the scheduler state.

        The :class:`AlarmProtocol` itself emits the ``"alarm"`` record;
        here the consequence for scheduling — the eligible-server set
        shrinking or regrowing — is traced as a ``"sched"`` record.
        """
        self.state.set_alarm(now, server_id, alarmed)
        if self.tracer.enabled:
            self.tracer.record(
                now,
                "sched",
                {
                    "server": server_id,
                    "excluded": alarmed,
                    "eligible": self.state.eligible_servers(),
                },
            )

    def advance(self, until: float) -> None:
        """Advance the clock to ``until`` (at most ``config.duration``).

        Segmenting a run into several ``advance`` calls dispatches the
        exact same events in the exact same order as one straight
        ``run(until=duration)`` — the property the checkpointing layer
        (:mod:`repro.experiments.checkpointing`) is built on and the
        resume-equivalence tests pin bit-for-bit.
        """
        self.env.run(until=min(float(until), self.config.duration))

    def snapshot_state(self) -> dict:
        """Canonical serializable state of every wired component.

        The composition for checkpoint digests: engine position, RNG
        substream states, DNS + NS caches, server fluid state, scheduler
        alarm view, estimator accumulators, monitor/alarm counters,
        workload census, collector samples and the metrics registry
        snapshot. Everything here is JSON-safe and deterministic for a
        given trajectory prefix, so two runs agree on this dict if and
        only if they are the same run so far.
        """
        state = {
            "engine": {
                "now": self.env.now,
                "dispatched": self.env.dispatched,
            },
            "rng": self.streams.state_dict(),
            "scheduler": self.state.snapshot_state(),
            "estimator": self.estimator.snapshot_state(),
            "dns": self.dns.stats.snapshot_state(),
            "resolution_chain": self.resolution_chain.snapshot_state(),
            "servers": [
                server.snapshot_state() for server in self.cluster
            ],
            "monitor": self.monitor.snapshot_state(),
            "alarm_protocol": (
                self.alarm_protocol.snapshot_state()
                if self.alarm_protocol is not None
                else None
            ),
            "population": self.population.snapshot_state(),
            "collector": self.collector.snapshot_state(),
            "metrics": self.metrics.snapshot(),
            "trace_records": (
                len(self.tracer) if self.tracer.enabled else None
            ),
        }
        return state

    def run(self) -> SimulationResult:
        """Advance the clock to ``config.duration`` and collect results."""
        self.advance(self.config.duration)
        return self.collect()

    def collect(self) -> SimulationResult:
        """Assemble the :class:`SimulationResult` for the current clock."""
        config = self.config
        now = self.env.now
        measured = max(now - config.warmup, 1e-12)
        total_resolutions = (
            self.resolution_chain.cache_answers
            + self.resolution_chain.authoritative_answers
        )
        ttl_stats = self.dns.stats.ttl
        page_count = sum(s.response_times.count for s in self.cluster)
        if page_count:
            mean_response = (
                sum(
                    s.response_times.mean * s.response_times.count
                    for s in self.cluster
                    if s.response_times.count
                )
                / page_count
            )
            max_response = max(
                s.response_times.maximum
                for s in self.cluster
                if s.response_times.count
            )
        else:
            mean_response = 0.0
            max_response = 0.0
        return SimulationResult(
            policy=self.spec.name,
            max_utilization_samples=list(self.collector.max_samples),
            mean_utilization_per_server=[
                stats.mean if stats.count else 0.0
                for stats in self.collector.per_server
            ],
            dns_resolutions=self.dns.stats.resolutions,
            address_request_rate=self.dns.stats.resolutions / now,
            dns_resolution_fraction=(
                self.dns.stats.resolutions / total_resolutions
                if total_resolutions
                else 0.0
            ),
            dns_control_fraction=self.population.dns_control_fraction,
            mean_granted_ttl=ttl_stats.mean if ttl_stats.count else 0.0,
            alarm_signals=(
                self.alarm_protocol.alarm_signals if self.alarm_protocol else 0
            ),
            ns_ttl_overrides=self.resolution_chain.ttl_overrides,
            mean_page_response_time=mean_response,
            max_page_response_time=max_response,
            mean_network_rtt=(
                self.population.network_rtt_stats.mean
                if self.population.network_rtt_stats.count
                else 0.0
            ),
            total_hits=self.population.total_hits,
            total_sessions=self.population.total_sessions,
            duration=measured,
            config=config,
            trace=list(self.tracer) if self.tracer.enabled else None,
            metrics=self.metrics.snapshot(),
            utilization_series=self.collector.series,
        )


def run_simulation(
    config: SimulationConfig, engine_mode: str = "event"
) -> SimulationResult:
    """Build and run one simulation (the one-call entry point).

    ``engine_mode="fastforward"`` runs the hybrid fluid/event engine
    (:mod:`repro.sim.fastforward`) — bit-identical results, measurably
    faster on eligible configurations.
    """
    return Simulation(config, engine_mode=engine_mode).run()
