"""Simulation configuration — the paper's Table 1 and Table 2 as code.

:class:`SimulationConfig` is an immutable description of one simulation
run: the policy under test, the system shape (servers, heterogeneity,
capacity), the workload (domains, clients, session model), the control
parameters (alarm threshold, utilization interval, TTLs) and the
robustness knobs (non-cooperative minimum TTL, workload perturbation,
estimator choice). Defaults reproduce Table 1.

Two Table 1 values are corrupted in the available scan of the paper and
are therefore explicit, documented choices here (see DESIGN.md):
``mean_think_time = 15 s`` (the value consistent with the stated 2/3
average utilization), ``alarm_threshold = 0.9`` and
``utilization_interval = 32 s``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.distributions import DiscreteUniform, Exponential, Geometric
from ..sim.tracing import TRACE_CATEGORIES
from ..web.cluster import (
    DEFAULT_TOTAL_CAPACITY,
    HETEROGENEITY_LEVELS,
    ServerCluster,
)
from ..workload.domains import DomainSet
from ..workload.sessions import SessionModel
from ..workload.shards import DEFAULT_SHARD_SIZE
from ..workload.trace import ArrivalSchedule

#: Table 1 — default simulated duration: five hours of site activity.
PAPER_DURATION = 5 * 3600.0

ESTIMATOR_KINDS = ("oracle", "measured", "window")

#: Client-population implementations. ``"eager"`` spawns one generator
#: process per client (the historical model); ``"lazy"`` is the sharded
#: flat-slot population (:mod:`repro.workload.shards`) — bit-identical
#: trajectories, bounded memory; ``"auto"`` picks lazy at or above
#: :data:`LAZY_POPULATION_THRESHOLD` clients.
POPULATION_KINDS = ("auto", "eager", "lazy")

#: ``"auto"`` switches to the lazy population at this client count.
LAZY_POPULATION_THRESHOLD = 100_000

#: Workload sources: the closed synthetic population or the open
#: trace-driven arrival process (:mod:`repro.workload.trace`).
WORKLOAD_SOURCES = ("synthetic", "trace")

#: Arrival-rate profiles of the trace-driven source.
TRACE_PROFILES = ("constant", "ramp", "diurnal", "replay")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run (defaults = Table 1)."""

    # -- policy ---------------------------------------------------------
    #: Policy name (see :func:`repro.core.parse_policy_name`).
    policy: str = "RR"
    #: Constant/reference TTL in seconds.
    constant_ttl: float = 240.0

    # -- web site (Tables 1-2) -------------------------------------------
    #: Heterogeneity level in percent (one of Table 2's rows); ignored
    #: when ``relative_capacities`` is given.
    heterogeneity: int = 20
    #: Explicit relative capacities, overriding ``heterogeneity``.
    relative_capacities: Optional[Tuple[float, ...]] = None
    #: Total site capacity in hits per second.
    total_capacity: float = DEFAULT_TOTAL_CAPACITY

    # -- workload ---------------------------------------------------------
    #: Number of connected client domains K.
    domain_count: int = 20
    #: Zipf exponent of the client partition (1.0 = pure Zipf).
    zipf_exponent: float = 1.0
    #: Force a uniform client distribution (the IDEAL envelope); also
    #: set automatically when the policy is ``IDEAL``.
    uniform_domains: bool = False
    #: Total number of clients.
    total_clients: int = 500
    #: Mean think time between page requests (seconds).
    mean_think_time: float = 15.0
    #: Mean page requests per session.
    mean_pages_per_session: float = 20.0
    #: Hits per page: discrete uniform inclusive bounds.
    hits_per_page: Tuple[int, int] = (5, 15)
    #: Workload perturbation e (Figs. 6-7): the busiest domain's share is
    #: increased by this fraction while estimates stay unperturbed.
    workload_error: float = 0.0
    #: Non-stationary workload (extension): rotate the identities of the
    #: hottest domains every this many seconds (0 = static workload).
    hot_rotation_interval: float = 0.0
    #: How many top domains take part in the rotation.
    hot_rotation_count: int = 5
    #: Clients cache their own address mapping across sessions while the
    #: TTL is valid (extension; the paper's base model resolves once per
    #: session through the domain NS only).
    client_address_caching: bool = False
    #: Client-population implementation: ``"auto"``, ``"eager"`` or
    #: ``"lazy"`` (see :data:`POPULATION_KINDS`). All choices produce
    #: bit-identical trajectories; this only selects the data layout.
    population: str = "auto"
    #: ``"synthetic"`` (closed population, the paper's model) or
    #: ``"trace"`` (open arrival process replaying a rate schedule).
    workload_source: str = "synthetic"
    #: Arrival-rate profile of the trace source (see
    #: :data:`TRACE_PROFILES`).
    trace_profile: str = "constant"
    #: Mean session arrival rate in sessions/second; 0 derives the rate
    #: that offers the same load as ``total_clients`` synthetic clients.
    trace_rate: float = 0.0
    #: Relative rate swing of the ramp/diurnal profiles, in [0, 1].
    trace_amplitude: float = 0.5
    #: Period of the diurnal profile in seconds.
    trace_period: float = 3600.0
    #: JSONL rate-trace path (required by the ``"replay"`` profile).
    trace_path: Optional[str] = None
    #: Clients per accounting shard of the lazy population (and target
    #: concurrent sessions per arrival shard of the trace source).
    shard_size: int = DEFAULT_SHARD_SIZE

    # -- control loop -------------------------------------------------------
    #: Period of server utilization self-measurement (seconds). The scan
    #: of the paper prints "8 sec" but the digit preceding the 8 is
    #: corrupted; 32 s reproduces the paper's Fig. 1 values closely
    #: (8 s windows are too noisy: the max-of-7 statistic then rarely
    #: stays below 0.9 even under the Ideal policy).
    utilization_interval: float = 32.0
    #: Alarm threshold theta on windowed utilization.
    alarm_threshold: float = 0.9
    #: Disable the alarm feedback entirely (ablation).
    alarm_feedback: bool = True

    # -- name servers --------------------------------------------------------
    #: Non-cooperative NS threshold: recommended TTLs below this are
    #: overridden (Figs. 4-5). 0 = cooperative.
    min_accepted_ttl: float = 0.0
    #: How an NS overrides a too-small TTL: ``"clamp"`` caches for the
    #: threshold itself (the paper's "NSs imposing their own minimum TTL
    #: thresholds"); ``"default"`` caches for ``ns_default_ttl``.
    ns_override_mode: str = "clamp"
    #: TTL substituted by a non-cooperative NS in ``"default"`` mode.
    ns_default_ttl: float = 240.0
    #: Size of each domain's name-server set (the paper's "a (set of)
    #: local name server(s)"); clients are partitioned across the set.
    nameservers_per_domain: int = 1

    # -- estimation ------------------------------------------------------------
    #: ``"oracle"`` (exact static shares), ``"measured"`` (periodic
    #: collection from the servers + EWMA) or ``"window"`` (sliding
    #: window over recent collection intervals).
    estimator: str = "oracle"
    #: Collection period of the measured/window estimators (seconds).
    estimator_interval: float = 32.0
    #: EWMA smoothing of the measured estimator, in (0, 1].
    estimator_smoothing: float = 0.5
    #: Window length of the sliding-window estimator, in intervals.
    estimator_window_intervals: int = 8

    # -- geography (extension) ---------------------------------------------------
    #: ``"none"`` (the paper's model), ``"random"`` or ``"clustered"`` —
    #: attaches a geographic layout; page response metrics then include
    #: network RTT and the PROXIMITY/GEO-HYBRID policies become valid.
    geography: str = "none"
    #: RTT floor in seconds.
    geo_base_rtt: float = 0.005
    #: RTT per unit distance on the unit plane, in seconds.
    geo_rtt_per_unit: float = 0.100

    # -- run control --------------------------------------------------------------
    #: Simulated duration in seconds.
    duration: float = PAPER_DURATION
    #: Samples taken before this time are discarded.
    warmup: float = 0.0
    #: Master random seed.
    seed: int = 1
    #: Record a trace of the run (slower; for analysis). See
    #: :data:`repro.sim.tracing.TRACE_CATEGORIES` for what gets traced.
    trace: bool = False
    #: Categories to trace when ``trace`` is on (``None`` = all). Must be
    #: a subset of :data:`repro.sim.tracing.TRACE_CATEGORIES`.
    trace_categories: Optional[Tuple[str, ...]] = None
    #: Retain the full per-interval utilization vectors in the result
    #: (enables the :mod:`repro.analysis` time-series tools).
    keep_utilization_series: bool = False

    def __post_init__(self):
        # NaN passes every range check below and infinity passes most
        # (a run of ``duration=inf`` never returns), so every float field
        # is first required to be finite.
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.relative_capacities is None:
            if self.heterogeneity not in HETEROGENEITY_LEVELS:
                known = ", ".join(str(k) for k in sorted(HETEROGENEITY_LEVELS))
                raise ConfigurationError(
                    f"unknown heterogeneity level {self.heterogeneity!r}; "
                    f"known: {known} (or pass relative_capacities)"
                )
        if self.domain_count < 1:
            raise ConfigurationError("domain_count must be >= 1")
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be >= 0")
        if self.total_clients < 1:
            raise ConfigurationError("total_clients must be >= 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError("warmup must be in [0, duration)")
        if self.utilization_interval <= 0:
            raise ConfigurationError("utilization_interval must be > 0")
        if not 0 < self.alarm_threshold <= 1:
            raise ConfigurationError("alarm_threshold must be in (0, 1]")
        if self.constant_ttl <= 0:
            raise ConfigurationError("constant_ttl must be > 0")
        if self.min_accepted_ttl < 0:
            raise ConfigurationError("min_accepted_ttl must be >= 0")
        if self.ns_override_mode not in ("clamp", "default"):
            raise ConfigurationError(
                f"ns_override_mode must be 'clamp' or 'default', "
                f"got {self.ns_override_mode!r}"
            )
        if self.nameservers_per_domain < 1:
            raise ConfigurationError("nameservers_per_domain must be >= 1")
        if self.geography not in ("none", "random", "clustered"):
            raise ConfigurationError(
                f"geography must be 'none', 'random' or 'clustered', "
                f"got {self.geography!r}"
            )
        if self.geo_base_rtt < 0 or self.geo_rtt_per_unit < 0:
            raise ConfigurationError("geo RTT parameters must be >= 0")
        if self.workload_error < 0:
            raise ConfigurationError("workload_error must be >= 0")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ConfigurationError(
                f"estimator must be one of {ESTIMATOR_KINDS}, got {self.estimator!r}"
            )
        if self.estimator_window_intervals < 1:
            raise ConfigurationError("estimator_window_intervals must be >= 1")
        if self.hot_rotation_interval < 0:
            raise ConfigurationError("hot_rotation_interval must be >= 0")
        if self.hot_rotation_interval > 0:
            if not 2 <= self.hot_rotation_count <= self.domain_count:
                raise ConfigurationError(
                    "hot_rotation_count must be in [2, domain_count] when "
                    "rotation is enabled"
                )
        if self.hits_per_page[0] < 1 or self.hits_per_page[1] < self.hits_per_page[0]:
            raise ConfigurationError(f"bad hits_per_page {self.hits_per_page!r}")
        if self.population not in POPULATION_KINDS:
            raise ConfigurationError(
                f"population must be one of {POPULATION_KINDS}, "
                f"got {self.population!r}"
            )
        if self.workload_source not in WORKLOAD_SOURCES:
            raise ConfigurationError(
                f"workload_source must be one of {WORKLOAD_SOURCES}, "
                f"got {self.workload_source!r}"
            )
        if self.trace_profile not in TRACE_PROFILES:
            raise ConfigurationError(
                f"trace_profile must be one of {TRACE_PROFILES}, "
                f"got {self.trace_profile!r}"
            )
        if self.trace_rate < 0:
            raise ConfigurationError("trace_rate must be >= 0")
        if not 0.0 <= self.trace_amplitude <= 1.0:
            raise ConfigurationError("trace_amplitude must be in [0, 1]")
        if self.trace_period <= 0:
            raise ConfigurationError("trace_period must be > 0")
        if self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        if self.workload_source == "trace":
            if self.trace_profile == "replay" and not self.trace_path:
                raise ConfigurationError(
                    "trace_profile='replay' requires trace_path"
                )
            if self.client_address_caching:
                raise ConfigurationError(
                    "client_address_caching requires the synthetic "
                    "workload source (trace sessions are fresh client "
                    "identities with nothing to cache)"
                )
        if self.trace_categories is not None:
            # Normalize (JSON round-trips lists) and validate.
            categories = tuple(self.trace_categories)
            object.__setattr__(self, "trace_categories", categories)
            unknown = [c for c in categories if c not in TRACE_CATEGORIES]
            if unknown:
                known = ", ".join(TRACE_CATEGORIES)
                raise ConfigurationError(
                    f"unknown trace categories {unknown!r}; known: {known}"
                )

    # -- factories ---------------------------------------------------------

    def replace(self, **changes) -> "SimulationConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def build_cluster(self) -> ServerCluster:
        """The web-server cluster this config describes."""
        if self.relative_capacities is not None:
            return ServerCluster(self.relative_capacities, self.total_capacity)
        return ServerCluster.from_heterogeneity(
            self.heterogeneity, self.total_capacity
        )

    def build_domains(self) -> DomainSet:
        """The *nominal* (unperturbed) domain popularity."""
        if self.uniform_domains:
            return DomainSet.uniform(self.domain_count)
        return DomainSet.pure_zipf(self.domain_count, self.zipf_exponent)

    def effective_population(self) -> str:
        """Resolve the ``population`` field (``"auto"`` included)."""
        if self.population != "auto":
            return self.population
        return (
            "lazy"
            if self.total_clients >= LAZY_POPULATION_THRESHOLD
            else "eager"
        )

    @property
    def derived_trace_rate(self) -> float:
        """Session arrival rate of the trace source (sessions/second).

        ``trace_rate`` when set; otherwise the rate at which
        ``total_clients`` synthetic clients complete sessions — one
        session per client per ``mean_pages x mean_think`` seconds — so
        the open workload offers the closed population's load.
        """
        if self.trace_rate > 0:
            return self.trace_rate
        return self.total_clients / (
            self.mean_pages_per_session * self.mean_think_time
        )

    def build_arrival_schedule(self) -> ArrivalSchedule:
        """The arrival-rate schedule of the trace-driven source."""
        rate = self.derived_trace_rate
        profile = self.trace_profile
        if profile == "constant":
            return ArrivalSchedule.constant(rate)
        if profile == "ramp":
            return ArrivalSchedule.ramp(
                rate * (1.0 - self.trace_amplitude),
                rate * (1.0 + self.trace_amplitude),
                self.duration,
            )
        if profile == "diurnal":
            return ArrivalSchedule.diurnal(
                rate, self.trace_amplitude, self.trace_period
            )
        return ArrivalSchedule.from_jsonl(self.trace_path)

    def build_session_model(self) -> SessionModel:
        """Session/page/think-time distributions for this config."""
        return SessionModel(
            pages_per_session=Geometric(self.mean_pages_per_session),
            hits_per_page=DiscreteUniform(*self.hits_per_page),
            think_time=Exponential(self.mean_think_time),
        )

    @property
    def offered_utilization(self) -> float:
        """Expected average system utilization under this config."""
        return self.build_session_model().offered_load(
            self.total_clients, self.total_capacity
        )

    def describe(self) -> List[Tuple[str, str]]:
        """Human-readable (parameter, value) pairs, Table 1 style."""
        return [
            ("Policy", self.policy),
            ("Connected domains K", str(self.domain_count)),
            ("Client distribution",
             "uniform" if self.uniform_domains
             else f"pure Zipf (exponent {self.zipf_exponent:g})"),
            ("Total clients", str(self.total_clients)),
            ("Mean think time", f"{self.mean_think_time:g} s"),
            ("Mean pages per session", f"{self.mean_pages_per_session:g}"),
            ("Hits per page",
             f"uniform {{{self.hits_per_page[0]}..{self.hits_per_page[1]}}}"),
            ("Servers N",
             str(len(self.relative_capacities))
             if self.relative_capacities is not None else "7"),
            ("Heterogeneity", f"{self.heterogeneity}%"),
            ("Total capacity", f"{self.total_capacity:g} hits/s"),
            ("Average utilization", f"{self.offered_utilization:.3f}"),
            ("Utilization interval", f"{self.utilization_interval:g} s"),
            ("Alarm threshold theta", f"{self.alarm_threshold:g}"),
            ("Constant TTL", f"{self.constant_ttl:g} s"),
            ("Min accepted TTL", f"{self.min_accepted_ttl:g} s"),
            ("Workload perturbation", f"{self.workload_error:.0%}"),
            ("Estimator", self.estimator),
            ("Duration", f"{self.duration:g} s"),
            ("Seed", str(self.seed)),
        ]


#: The float-typed fields, each required to be finite by ``__post_init__``
#: (annotations are strings under ``from __future__ import annotations``).
_FLOAT_FIELDS = tuple(
    spec.name
    for spec in dataclasses.fields(SimulationConfig)
    if spec.type == "float"
)

#: The paper's default configuration (Table 1 with the documented choices
#: for the scan-corrupted entries).
PAPER_DEFAULTS = SimulationConfig()
