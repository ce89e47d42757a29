"""The eager client population: one live process per client.

Each client runs an endless loop of sessions. A session starts with one
address resolution through the client's domain name server (which may be
answered from the NS cache — then the DNS never sees it) and then issues
a geometric number of page bursts against the mapped server, separated by
exponential think times. The population is partitioned over domains per
the supplied :class:`~repro.workload.domains.DomainSet`.

:class:`ClientPopulation` keeps only what is its own: the per-client
domain list, the reference generator :meth:`ClientPopulation._client`
and, on the fast-forward lane, one
:class:`~repro.workload.fluid.FluidClient` per client. Its wiring,
streams, totals and metrics, and the statistic the paper repeatedly
cites — :attr:`~repro.workload.sessions.SessionPopulation.dns_control_fraction`,
the share of hits in sessions whose resolution reached the
authoritative DNS — are :class:`~repro.workload.sessions.SessionPopulation`'s,
shared with the sharded population and the trace source.
"""

from __future__ import annotations

from typing import List

from ..dns.resolver import ResolutionChain
from ..errors import ConfigurationError
from ..sim.rng import RandomStreams
from ..web.cluster import ServerCluster
from .domains import DomainSet
from .fluid import FluidClient, session_kernel
from .sessions import SessionModel, SessionPopulation


class ClientPopulation(SessionPopulation):
    """Spawns and tracks all client processes.

    The parameters are :class:`~repro.workload.sessions.SessionPopulation`'s;
    ``total_clients`` must be >= 1 (Table 1: 500).
    """

    __slots__ = ("client_domains",)

    closed = True

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
        super().__init__(
            env, cluster, resolution_chain, domains, session_model, total_clients,
            streams, tracer, dynamics, client_address_caching, layout, metrics,
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
    def alive(self) -> int:
        """Client processes still alive (the census of the snapshot)."""
        return sum(1 for process in self.processes if process.is_alive)

    def _client(self, client_id: int, home_domain: int):
        # The page loop runs once per page across the whole run — every
        # attribute lookup in it is paid hundreds of thousands of times,
        # so bind everything loop-invariant to locals up front (methods
        # included: `timeout` and the distribution `sample`s save a
        # LOAD_ATTR per call). The session head, once per session, is
        # the population's shared one. The running totals stay on `self`
        # — they must be externally visible at any simulation cutoff,
        # including mid-session.
        env = self.env
        timeout = env.timeout
        servers = self.cluster.servers
        think_sample = self._think_sample
        hits_sample = self._hits_sample
        layout = self.layout
        rtt_stats_add = self.network_rtt_stats.add
        # Stagger session starts across one mean think time so the whole
        # population does not resolve at t=0 in lockstep.
        yield timeout(
            self._stagger_rng.uniform(0.0, self.session_model.think_time.mean)
        )
        # `now` mirrors env.now: the clock cannot move between a resume
        # and the next yield, so one read per wakeup suffices.
        now = env.now
        while True:
            domain_id, server_id, pages, resolved_by_dns = self._session_head(
                client_id, home_domain, now
            )
            offer = servers[server_id].offer
            if layout is not None:
                page_rtt = layout.rtt(domain_id, server_id)
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

    def __repr__(self) -> str:
        return (
            f"<ClientPopulation clients={self.total_clients} "
            f"domains={self.domains.domain_count} hits={self.total_hits}>"
        )
