"""Client processes driving the simulated web site.

Each client runs an endless loop of sessions. A session starts with one
address resolution through the client's domain name server (which may be
answered from the NS cache — then the DNS never sees it) and then issues
a geometric number of page bursts against the mapped server, separated by
exponential think times. The population is partitioned over domains per
the supplied :class:`~repro.workload.domains.DomainSet`.

The population also maintains the statistic the paper repeatedly cites:
the fraction of *data* requests the DNS directly controlled, i.e. hits
belonging to sessions whose resolution actually reached the authoritative
DNS (typically below a few percent — the crux of the scheduling problem).
"""

from __future__ import annotations

from typing import List, Optional

from ..dns.resolver import ResolutionChain
from ..errors import ConfigurationError
from ..sim.rng import RandomStreams
from .fluid import FluidClient, session_kernel
from ..sim.stats import RunningStats as _RttStats
from ..sim.tracing import NullTracer
from ..web.cluster import ServerCluster
from .domains import DomainSet
from .dynamics import StaticDomains
from .sessions import SessionModel


class ClientPopulation:
    """Spawns and tracks all client processes.

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
        Size of the client population (Table 1: 500).
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
        the clients"). Default ``False`` — one NS lookup per session, the
        paper's base model.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; the population
        registers pull callbacks for its session/page/hit totals.
    """

    # The per-page counters below are incremented once per page for the
    # whole run; slot storage makes those the cheap kind of attribute.
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
        "layout",
        "network_rtt_stats",
        "_think_rng",
        "_pages_rng",
        "_hits_rng",
        "_stagger_rng",
        "dns_routed_hits",
        "total_hits",
        "total_pages",
        "total_sessions",
        "client_domains",
        "processes",
        "engine",
        "_kernel",
    )

    def __init__(
        self,
        env,
        cluster: ServerCluster,
        resolution_chain: ResolutionChain,
        domains: DomainSet,
        session_model: SessionModel,
        total_clients: int,
        streams: RandomStreams,
        tracer=None,
        dynamics=None,
        client_address_caching: bool = False,
        layout=None,
        metrics=None,
    ):
        if total_clients < 1:
            raise ConfigurationError(
                f"total_clients must be >= 1, got {total_clients!r}"
            )
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
        #: Optional geographic layout; when present, per-page network
        #: RTTs are accumulated in :attr:`network_rtt_stats`.
        self.layout = layout
        self.network_rtt_stats = _RttStats()
        self._think_rng = streams.stream("workload.think")
        self._pages_rng = streams.stream("workload.pages")
        self._hits_rng = streams.stream("workload.hits")
        self._stagger_rng = streams.stream("workload.stagger")
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
        self.client_domains: List[int] = []
        for domain_id, count in enumerate(domains.client_counts(total_clients)):
            self.client_domains.extend([domain_id] * count)
        self._kernel = session_kernel(env, self, FluidClient)
        #: ``"fluid"`` when the clients run as native fast-forward
        #: steppers, ``"event"`` for reference generator processes.
        self.engine = "event" if self._kernel is None else "fluid"
        if self._kernel is not None:
            # Same spawn order, same eid consumption (one urgent init
            # entry per client), same stagger/think/pages/hits draws —
            # bit-identical to the generator path below.
            self.processes = [
                FluidClient(env, self, client_id, domain_id)
                for client_id, domain_id in enumerate(self.client_domains)
            ]
        else:
            self.processes = [
                env.process(self._client(client_id, domain_id))
                for client_id, domain_id in enumerate(self.client_domains)
            ]

    @property
    def dns_control_fraction(self) -> float:
        """Fraction of hits in sessions the DNS directly routed."""
        return self.dns_routed_hits / self.total_hits if self.total_hits else 0.0

    def _client(self, client_id: int, home_domain: int):
        # This generator executes once per page across the whole run —
        # every attribute lookup in its loops is paid hundreds of
        # thousands of times, so bind everything loop-invariant to
        # locals up front (methods included: `timeout`, the distribution
        # `sample`s and `record` save a LOAD_ATTR per call). The running
        # totals stay on `self` — they must be externally visible at any
        # simulation cutoff, including mid-session.
        env = self.env
        timeout = env.timeout
        session_model = self.session_model
        chain = self.resolution_chain
        resolve = chain.resolve
        servers = self.cluster.servers
        think_rng = self._think_rng
        pages_rng = self._pages_rng
        hits_rng = self._hits_rng
        think = session_model.think_time
        think_sample = think.sampler(think_rng)
        pages_sample = session_model.pages_per_session.sampler(pages_rng)
        hits_sample = session_model.hits_per_page.sampler(hits_rng)
        dynamics = self.dynamics
        static = dynamics.is_static
        caching = self.client_address_caching
        layout = self.layout
        rtt_stats_add = self.network_rtt_stats.add
        tracer = self.tracer
        tracing = tracer.enabled
        trace_record = tracer.record
        cached_record = None
        cached_domain = -1
        # Stagger session starts across one mean think time so the whole
        # population does not resolve at t=0 in lockstep.
        yield timeout(self._stagger_rng.uniform(0.0, think.mean))
        # `now` mirrors env.now: the clock cannot move between a resume
        # and the next yield, so one read per wakeup suffices.
        now = env.now
        while True:
            domain_id = (
                home_domain
                if static
                else dynamics.current_domain(home_domain, now)
            )
            if (
                caching
                and cached_record is not None
                and cached_domain == domain_id
                and cached_record.is_valid(now)
            ):
                record = cached_record
                resolved_by_dns = False
                self.client_cache_hits += 1
            else:
                before = chain.authoritative_answers
                record = resolve(domain_id, now, client_id)
                resolved_by_dns = chain.authoritative_answers > before
                if caching:
                    cached_record = record
                    cached_domain = domain_id
            offer = servers[record.server_id].offer
            pages = int(pages_sample())
            self.total_sessions += 1
            if tracing:
                trace_record(
                    now,
                    "session",
                    {
                        "client": client_id,
                        "domain": domain_id,
                        "server": record.server_id,
                        "pages": pages,
                        "dns": resolved_by_dns,
                    },
                )
            if layout is not None:
                page_rtt = layout.rtt(domain_id, record.server_id)
            for _ in range(pages):
                hits = int(hits_sample())
                offer(now, hits, domain_id)
                self.total_pages += 1
                self.total_hits += hits
                if resolved_by_dns:
                    self.dns_routed_hits += hits
                if layout is not None:
                    rtt_stats_add(page_rtt)
                yield timeout(think_sample())
                now = env.now

    def snapshot_state(self) -> dict:
        """Workload counters and liveness census (for checkpoints).

        The per-client generator frames themselves cannot be serialized;
        what *is* captured — every running total plus how many client
        processes are still alive — changes whenever any client makes
        progress, so it pins the population's position in the trajectory
        for the resume digest.
        """
        return {
            "total_clients": self.total_clients,
            "total_sessions": self.total_sessions,
            "total_pages": self.total_pages,
            "total_hits": self.total_hits,
            "dns_routed_hits": self.dns_routed_hits,
            "client_cache_hits": self.client_cache_hits,
            "alive": sum(1 for process in self.processes if process.is_alive),
            "network_rtt_stats": self.network_rtt_stats.snapshot_state(),
        }

    def __repr__(self) -> str:
        return (
            f"<ClientPopulation clients={self.total_clients} "
            f"domains={self.domains.domain_count} hits={self.total_hits}>"
        )
