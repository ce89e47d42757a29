"""The client-session traffic model (paper, Section 4.1).

A session is one address resolution followed by several page requests;
each page request is a burst of hits (the HTML page plus embedded
objects). Defaults follow Table 1:

* pages per session — exponentially distributed, mean 20 (we use the
  discrete analogue, a geometric distribution on {1, 2, ...});
* hits per page — uniform on the discrete interval {5, ..., 15};
* think time between pages — exponential, mean 15 s.

The 15 s think-time mean is the value that makes the arithmetic of
Table 1 close: 500 clients x (10 hits / 15 s) = 333.3 hits/s offered to a
500 hits/s site = the stated 2/3 average utilization.

:class:`SessionPopulation` is what the three workload populations built
on this model share: the eager
:class:`~repro.workload.clients.ClientPopulation`, the sharded
:class:`~repro.workload.shards.ShardedClientPopulation` and the open
:class:`~repro.workload.trace.TraceDrivenPopulation`. It wires the
environment, cluster, resolution chain, domains and session model,
owns the ``workload.think``/``workload.pages``/``workload.hits`` streams
and their samplers, the population totals and their ``workload.*``
metrics, and writes the two calendar populations' event-mode session
head and page cycle once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heappush

from ..errors import ConfigurationError, SimulationError
from ..sim.distributions import DiscreteUniform, Distribution, Exponential, Geometric
from ..sim.events import _NORMAL_KEY
from ..sim.stats import RunningStats
from ..sim.tracing import NullTracer
from .dynamics import StaticDomains

DEFAULT_PAGES_PER_SESSION = 20.0
DEFAULT_MIN_HITS_PER_PAGE = 5
DEFAULT_MAX_HITS_PER_PAGE = 15
DEFAULT_MEAN_THINK_TIME = 15.0

_INFINITY = float("inf")


@dataclass
class SessionModel:
    """Distributions governing one client's traffic."""

    pages_per_session: Distribution = field(
        default_factory=lambda: Geometric(DEFAULT_PAGES_PER_SESSION)
    )
    hits_per_page: Distribution = field(
        default_factory=lambda: DiscreteUniform(
            DEFAULT_MIN_HITS_PER_PAGE, DEFAULT_MAX_HITS_PER_PAGE
        )
    )
    think_time: Distribution = field(
        default_factory=lambda: Exponential(DEFAULT_MEAN_THINK_TIME)
    )

    def __post_init__(self):
        # Written so that NaN fails every check (each comparison with
        # NaN is false) and infinity fails the upper bound.
        if not 0 < self.think_time.mean < _INFINITY:
            raise ConfigurationError(
                f"mean think time must be finite and > 0, "
                f"got {self.think_time.mean!r}"
            )
        if not 1 <= self.pages_per_session.mean < _INFINITY:
            raise ConfigurationError(
                f"mean pages per session must be finite and >= 1, "
                f"got {self.pages_per_session.mean!r}"
            )
        if not 1 <= self.hits_per_page.mean < _INFINITY:
            raise ConfigurationError(
                f"mean hits per page must be finite and >= 1, "
                f"got {self.hits_per_page.mean!r}"
            )

    @property
    def hit_rate_per_client(self) -> float:
        """Long-run hits per second generated by one client.

        Each page cycle consists of one think period followed by one page
        burst, so the rate is ``E[hits per page] / E[think time]``.
        """
        return self.hits_per_page.mean / self.think_time.mean

    def offered_load(self, client_count: int, total_capacity: float) -> float:
        """Expected system utilization for ``client_count`` clients."""
        if total_capacity <= 0:
            raise ConfigurationError(
                f"total_capacity must be > 0, got {total_capacity!r}"
            )
        return client_count * self.hit_rate_per_client / total_capacity

    def clients_for_utilization(
        self, utilization: float, total_capacity: float
    ) -> int:
        """Client count that offers the target average ``utilization``."""
        if not 0 < utilization:
            raise ConfigurationError(
                f"utilization must be > 0, got {utilization!r}"
            )
        return max(
            1, round(utilization * total_capacity / self.hit_rate_per_client)
        )


def trace_session(
    tracer, now: float, client: int, domain_id: int, server_id: int,
    pages: int, resolved_by_dns: bool,
) -> None:
    """Emit the ``session`` trace record of a started session.

    The one schema of that record: the event-mode session head and the
    fast lane's :meth:`~repro.workload.fluid.SessionKernel.start` both
    call this, and only while tracing.
    """
    tracer.record(now, "session", {
        "client": client, "domain": domain_id, "server": server_id,
        "pages": pages, "dns": resolved_by_dns,
    })


class SessionPopulation:
    """The wiring, streams, totals and event-mode cycle of a population.

    Parameters
    ----------
    env:
        Simulation environment.
    cluster:
        The web-server cluster receiving page bursts.
    resolution_chain:
        The DNS resolution path (per-domain name servers + DNS).
    domains:
        Domain popularity used to partition clients. For the
        estimation-error experiments pass the *perturbed* set here while
        the scheduler keeps estimates from the unperturbed set.
    session_model:
        Traffic distributions.
    total_clients:
        Size of the client population.
    streams:
        Named random streams (keeps workload draws independent from
        scheduler coin flips).
    tracer:
        Optional tracer; records one ``"session"`` event per session start.
    dynamics:
        Optional :class:`~repro.workload.dynamics.DomainDynamics` that
        remaps each client's domain identity over time (non-stationary
        workloads). Default: static domains.
    client_address_caching:
        When ``True``, each client also caches its own address mapping
        and reuses it across sessions while the TTL is valid ("caching of
        the address mapping is typically done at Name Servers and also at
        the clients"). ``False`` is the paper's base model: one NS lookup
        per session.
    layout:
        Optional geographic layout; when present, per-page network RTTs
        are accumulated in :attr:`network_rtt_stats`.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; the population
        registers pull callbacks for its session/page/hit totals.

    A subclass validates its own arguments, calls this ``__init__`` and
    builds its clients (or arrival processes). It sets :attr:`closed`:
    ``True`` for a closed loop of endless clients, each starting its
    next session after its last page and its first one after a stagger
    drawn from ``workload.stagger``; ``False`` for an open stream of
    arrivals, whose sessions end after their last page.

    Every event-mode session starts with :meth:`_session_head`, which
    keeps each client's own cached mapping (under
    ``client_address_caching``) in ``_cached_records`` and
    ``_cached_domain``, indexed by client. The two calendar populations
    keep each session in flat slot arrays (``_remaining``, ``_server``,
    ``_resolved``, ``_session_domain`` and, under a geographic layout,
    ``_page_rtt``), filed by :meth:`_store_session`, and run its pages
    through :meth:`_page`: together one resume of the eager client
    generator, draw for draw.
    """

    # The per-page counters are incremented once per page for the whole
    # run; slot storage makes those the cheap kind of attribute.
    __slots__ = (
        "env",
        "cluster",
        "resolution_chain",
        "domains",
        "session_model",
        "total_clients",
        "tracer",
        "dynamics",
        "client_address_caching",
        "client_cache_hits",
        "_cached_domain",
        "_cached_records",
        "layout",
        "network_rtt_stats",
        "_think_rng",
        "_pages_rng",
        "_hits_rng",
        "_stagger_rng",
        "_think_sample",
        "_pages_sample",
        "_hits_sample",
        "dns_routed_hits",
        "total_hits",
        "total_pages",
        "total_sessions",
        "processes",
        "engine",
        "_kernel",
        "_remaining",
        "_server",
        "_resolved",
        "_session_domain",
        "_page_rtt",
        "_cb",
        "_head",
        "_calendar",
    )

    #: Closed loop of endless clients (``True``) or open arrivals.
    closed: bool

    def __init__(
        self,
        env,
        cluster,
        resolution_chain,
        domains,
        session_model: SessionModel,
        total_clients: int,
        streams,
        tracer,
        dynamics,
        client_address_caching: bool,
        layout,
        metrics,
    ):
        self.env = env
        self.cluster = cluster
        self.resolution_chain = resolution_chain
        self.domains = domains
        self.session_model = session_model
        self.total_clients = total_clients
        self.tracer = tracer if tracer is not None else NullTracer()
        self.dynamics = dynamics if dynamics is not None else StaticDomains()
        self.client_address_caching = bool(client_address_caching)
        #: Sessions served from a client's own cached mapping.
        self.client_cache_hits = 0
        if self.client_address_caching:
            self._cached_domain = array("q", [-1]) * total_clients
            self._cached_records = [None] * total_clients
        else:
            self._cached_domain = self._cached_records = None
        self.layout = layout
        self.network_rtt_stats = RunningStats()
        self._think_rng = streams.stream("workload.think")
        self._pages_rng = streams.stream("workload.pages")
        self._hits_rng = streams.stream("workload.hits")
        self._stagger_rng = (
            streams.stream("workload.stagger") if self.closed else None
        )
        # Every event-mode path draws through these partials, which is
        # what makes the populations mirror each other exactly for
        # arbitrary session models.
        self._think_sample = session_model.think_time.sampler(self._think_rng)
        self._pages_sample = session_model.pages_per_session.sampler(
            self._pages_rng
        )
        self._hits_sample = session_model.hits_per_page.sampler(self._hits_rng)
        #: Hits issued in sessions resolved by the authoritative DNS.
        self.dns_routed_hits = 0
        self.total_hits = 0
        self.total_pages = 0
        self.total_sessions = 0
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

    @property
    def dns_control_fraction(self) -> float:
        """Fraction of hits in sessions the DNS directly routed.

        Typically a few percent: the crux of the scheduling problem.
        """
        return self.dns_routed_hits / self.total_hits if self.total_hits else 0.0

    @property
    def alive(self) -> int:
        """Clients (or open sessions) alive now; endless clients by default."""
        return self.total_clients

    def snapshot_state(self) -> dict:
        """Workload counters and liveness census (for checkpoints).

        Every running total plus the :attr:`alive` census changes
        whenever any client makes progress, so the snapshot pins the
        population's position in the trajectory for the resume digest.
        """
        return {
            "total_clients": self.total_clients,
            "total_sessions": self.total_sessions,
            "total_pages": self.total_pages,
            "total_hits": self.total_hits,
            "dns_routed_hits": self.dns_routed_hits,
            "client_cache_hits": self.client_cache_hits,
            "alive": self.alive,
            "network_rtt_stats": self.network_rtt_stats.snapshot_state(),
        }

    def _add_totals(
        self, pages: int, hits: int, sessions: int, routed: int
    ) -> None:
        """Flush a fast-lane drain's deferred counts into the totals."""
        self.total_pages += pages
        self.total_hits += hits
        self.total_sessions += sessions
        self.dns_routed_hits += routed

    # -- the event-mode session cycle --------------------------------------

    def _session_head(self, client: int, home: int, now: float):
        """Start ``client``'s session: ``(domain, server, pages, dns)``.

        The session's domain (``home`` remapped by the dynamics), the
        client's own cached mapping while it is valid or else a
        resolution (DNS-routed when ``authoritative_answers`` grew),
        then the pages draw, the session count and the ``session``
        trace record.
        """
        dynamics = self.dynamics
        domain_id = home if dynamics.is_static else dynamics.current_domain(home, now)
        caching = self.client_address_caching
        cached = self._cached_records[client] if caching else None
        if (
            cached is not None
            and self._cached_domain[client] == domain_id
            and cached.is_valid(now)
        ):
            record = cached
            resolved_by_dns = False
            self.client_cache_hits += 1
        else:
            chain = self.resolution_chain
            before = chain.authoritative_answers
            record = chain.resolve(domain_id, now, client)
            resolved_by_dns = chain.authoritative_answers > before
            if caching:
                self._cached_records[client] = record
                self._cached_domain[client] = domain_id
        server_id = record.server_id
        pages = int(self._pages_sample())
        self.total_sessions += 1
        if self.tracer.enabled:
            trace_session(
                self.tracer, now, client, domain_id, server_id, pages,
                resolved_by_dns,
            )
        return domain_id, server_id, pages, resolved_by_dns

    def _store_session(
        self,
        slot: int,
        domain_id: int,
        server_id: int,
        resolved_by_dns: bool,
        pages: int,
    ) -> None:
        """File an opened session in ``slot``'s cells."""
        self._session_domain[slot] = domain_id
        self._server[slot] = server_id
        self._resolved[slot] = 1 if resolved_by_dns else 0
        self._remaining[slot] = pages
        if self.layout is not None:
            self._page_rtt[slot] = self.layout.rtt(domain_id, server_id)

    def _page(self, wake, now: float) -> None:
        """One page burst of ``wake``'s session, then its next wake.

        The body of the eager generator's page loop: hits draw, offer,
        counters, then the think-sleep. A closed-loop client always
        sleeps (its next wake starts a session once no pages remain);
        an open session that ran its last page ends instead, through the
        open population's ``_end_session``.
        """
        slot = wake.slot
        hits = int(self._hits_sample())
        self.cluster.servers[self._server[slot]].offer(
            now, hits, self._session_domain[slot]
        )
        self.total_pages += 1
        self.total_hits += hits
        if self._resolved[slot]:
            self.dns_routed_hits += hits
        if self.layout is not None:
            self.network_rtt_stats.add(self._page_rtt[slot])
        remaining = self._remaining[slot] - 1
        self._remaining[slot] = remaining
        if remaining <= 0 and not self.closed:
            self._end_session(slot)
        else:
            self._rearm(wake, now, self._think_sample(), self._cb)

    def _rearm(self, wake, now: float, delay: float, callbacks) -> None:
        """Schedule ``wake`` ``delay`` after ``now`` with ``callbacks``.

        The timeout factory's eid/heap-key arithmetic and delay check;
        the engine nulled ``wake._callbacks`` and set ``_processed``
        before dispatching it, so re-arming is two attribute stores.
        """
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
        wake._callbacks = callbacks
        wake._processed = False
