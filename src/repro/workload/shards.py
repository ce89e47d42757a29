"""Sharded lazy client population (flat-slot state, no generator frames).

:class:`ShardedClientPopulation` is the scale-oriented drop-in for
:class:`~repro.workload.clients.ClientPopulation`: instead of one live
generator process (frame + :class:`~repro.sim.process.Process` +
per-yield :class:`~repro.sim.events.Timeout`) per client, every client is
one pending wake plus a handful of cells in flat ``array`` shards on the
population. At 10^6 clients that replaces gigabytes of
frame/process/event objects with a few hundred megabytes of packed
state, which is what lets million-domain configurations run at all (see
``docs/PERFORMANCE.md``).

Bit-identical by construction
-----------------------------
The population mirrors the eager one draw for draw:

* construction consumes one eid per client for an urgent init entry, in
  the same client order (exactly as ``env.process`` spawning does);
* every wake draws from the *same* population-shared RNG streams through
  the *same* sampler partials, in the same order the generator body
  would — session start (resolve → pages draw → trace → layout RTT) and
  page cycle (hits draw → offer → counters → think draw);
* rescheduling uses the byte-exact eid/heap-key arithmetic of
  :func:`~repro.sim.events.timeout_factory`.

Since heap dispatch order is a pure function of the (time, key) entries
and every stream draw happens inside some dispatch, the trajectory — and
therefore results, metrics and checkpoint digests — is bit-identical to
the eager population for *any* configuration (dynamics, caching,
geography, arbitrary session models included). The eager-vs-lazy
equivalence suite (``tests/integration/test_population_equivalence.py``,
``tests/property/test_prop_population_equivalence.py``) enforces this.

Engine modes
------------
``event``
    One reusable :class:`ShardClientWake` heap entry per client. Each
    wake re-arms a shared one-element callbacks list on itself; the
    reference engine dispatches it like any other event. This is the
    universal mirror described above.
``fluid``
    Under a :class:`~repro.sim.fastforward.FastForwardEnvironment`, when
    the gate :func:`~repro.workload.fluid.session_kernel` finds no
    fallback reason, the wake class registers as the fluid task and its
    drain, :func:`~repro.workload.fluid.calendar_drain` (the trace
    source's drain too), batch-steps quiescent windows: session starts
    through the population's :class:`~repro.workload.fluid.SessionKernel`,
    page bursts through :meth:`WebServer.offer
    <repro.web.server.WebServer.offer>`, client state read from the flat
    shards. The client wakes are not on the engine heap: they are
    ``(time, key, slot)`` entries on the population's
    :class:`~repro.sim.fastforward.WakeCalendar`, and the engine heap
    holds one head :class:`ShardClientWake` (slot ``-1``) keyed as the
    calendar's earliest entry. The t=0 start burst is an ordered phase:
    the N urgent init eids are reserved at construction and dispatched
    in slot order, with no entry pushed for them. One heap entry per
    client would make every reschedule sift through a heap of N
    cache-cold entries; the calendar's near run stays small at any N.
    The order is the engine's, and
    :attr:`FastForwardEnvironment.dispatched
    <repro.sim.fastforward.FastForwardEnvironment.dispatched>` subtracts
    the N − 1 wakes held off the heap, so dispatch counts, checkpoint
    positions and ``run_events`` cuts are exact. Ineligible
    configurations count their fallback reasons and take the ``event``
    path inside the same environment.
"""

from __future__ import annotations

from array import array
from heapq import heappush

from ..errors import ConfigurationError, SimulationError
from ..sim.events import Event, _NORMAL_KEY
from ..sim.fastforward import FluidTask, WakeCalendar
from ..sim.rng import RandomStreams
from ..sim.stats import RunningStats as _RttStats
from ..sim.tracing import NullTracer
from .domains import DomainSet
from .dynamics import StaticDomains
from .fluid import calendar_drain, session_kernel
from .sessions import SessionModel

__all__ = ["ShardClientWake", "ShardedClientPopulation", "DEFAULT_SHARD_SIZE"]

_INFINITY = float("inf")

#: Clients per accounting shard. Shards are *logical* slot ranges — they
#: bound the granularity of per-shard counters (sessions started), not
#: any hot-path data structure, so the default only needs to keep the
#: shard table small relative to the population.
DEFAULT_SHARD_SIZE = 4096


class ShardClientWake(FluidTask, Event):
    """A heap entry of a sharded population.

    The wake is simultaneously an :class:`~repro.sim.events.Event` (so
    the reference engine dispatches it through its normal callback
    branch) and a :class:`~repro.sim.fastforward.FluidTask` (so the
    fast-forward drain can step it natively). It owns no session state —
    everything lives in the population's flat shards, indexed by
    :attr:`slot`.

    In event mode there is one wake per client. Construction mirrors
    :class:`~repro.sim.process._Initialize`: one urgent entry at the
    current time, consuming the eid a generator client's spawn would
    consume (``PRIORITY_URGENT`` is 0, so the fused heap key is the bare
    eid). On the fluid lane the population has one wake, its *head*
    (slot ``-1``), whose heap key is always its client calendar's
    earliest entry (see :class:`ShardedClientPopulation`), and
    :attr:`drain` is :func:`~repro.workload.fluid.calendar_drain` on its
    closed-loop path.
    """

    __slots__ = ("population", "slot")

    def __init__(self, env, population: "ShardedClientPopulation", slot: int):
        self.env = env
        self.population = population
        self.slot = slot
        self._callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._processed = False
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + 0.0, eid, self))

    drain = classmethod(calendar_drain)

    def __repr__(self) -> str:
        if self.slot < 0:
            return (
                f"<ShardClientWake head "
                f"clients={self.population.total_clients}>"
            )
        return (
            f"<ShardClientWake slot={self.slot} "
            f"remaining={self.population._remaining[self.slot]}>"
        )


class ShardedClientPopulation:
    """All clients as flat-slot shards driven by reusable heap wakes.

    Drop-in for :class:`~repro.workload.clients.ClientPopulation` (same
    constructor signature plus ``shard_size``, same attribute surface,
    same metrics, same ``snapshot_state``), selected via
    ``SimulationConfig.population = "lazy"``. See the module docstring
    for the equivalence argument.
    """

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
        "_think_sample",
        "_pages_sample",
        "_hits_sample",
        "dns_routed_hits",
        "total_hits",
        "total_pages",
        "total_sessions",
        "shard_size",
        "shard_count",
        "_shard_sessions",
        "_remaining",
        "_server",
        "_resolved",
        "_home_domain",
        "_session_domain",
        "_cached_domain",
        "_cached_records",
        "_page_rtt",
        "_cb",
        "processes",
        "engine",
        "_kernel",
        "_head",
        "_start_time",
        "_first_eid",
        "_next_init",
        "_calendar",
    )

    def __init__(
        self,
        env,
        cluster,
        resolution_chain,
        domains: DomainSet,
        session_model: SessionModel,
        total_clients: int,
        streams: RandomStreams,
        tracer=None,
        dynamics=None,
        client_address_caching: bool = False,
        layout=None,
        metrics=None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ):
        if total_clients < 1:
            raise ConfigurationError(
                f"total_clients must be >= 1, got {total_clients!r}"
            )
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size!r}"
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
        self.client_cache_hits = 0
        self.layout = layout
        self.network_rtt_stats = _RttStats()
        self._think_rng = streams.stream("workload.think")
        self._pages_rng = streams.stream("workload.pages")
        self._hits_rng = streams.stream("workload.hits")
        self._stagger_rng = streams.stream("workload.stagger")
        # The same sampler partials the eager generator binds — the
        # event-mode wake handler draws through these, which is what
        # makes the mirror exact for arbitrary session models.
        self._think_sample = session_model.think_time.sampler(self._think_rng)
        self._pages_sample = session_model.pages_per_session.sampler(
            self._pages_rng
        )
        self._hits_sample = session_model.hits_per_page.sampler(self._hits_rng)
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
        self.shard_size = shard_size
        self.shard_count = (total_clients + shard_size - 1) // shard_size
        self._shard_sessions = array("q", bytes(8 * self.shard_count))
        # Flat per-client state. ``bytes(8 * n)`` zero-fills an "q"
        # array without building an n-element Python list first.
        self._server = array("q", bytes(8 * total_clients))
        self._resolved = bytearray(total_clients)
        home = array("q")
        for domain_id, count in enumerate(
            domains.iter_client_counts(total_clients)
        ):
            if count:
                home.extend([domain_id] * count)
        self._home_domain = home
        # Under static dynamics a session's domain IS the home domain;
        # the separate array exists only when identities can move.
        self._session_domain = (
            home if self.dynamics.is_static else array("q", home)
        )
        if self.client_address_caching:
            self._cached_domain = array("q", [-1]) * total_clients
            self._cached_records = [None] * total_clients
        else:
            self._cached_domain = None
            self._cached_records = None
        self._page_rtt = (
            array("d", bytes(8 * total_clients)) if layout is not None else None
        )
        # One shared single-element callbacks list, re-armed onto each
        # wake after dispatch. Safe because the engine iterates its
        # *local* reference after nulling the attribute.
        self._cb = [self._on_wake]
        self._kernel = session_kernel(env, self, ShardClientWake)
        self.engine = "event" if self._kernel is None else "fluid"
        if self._kernel is None:
            # Event mode: one wake per client; -1 marks the pending init
            # dispatch.
            self._remaining = array("q", [-1]) * total_clients
            cb = self._cb
            processes = []
            append = processes.append
            for slot in range(total_clients):
                wake = ShardClientWake(env, self, slot)
                wake._callbacks = cb
                append(wake)
            self.processes = processes
            return
        # Fluid lane (see the module docstring): the head stands for
        # the N contiguous urgent init eids reserved here, then for the
        # calendar's earliest entry. Clients wake about once per mean
        # think time, and the calendar stands for N entries throughout.
        self._remaining = array("q", bytes(8 * total_clients))
        self.processes = []
        self._first_eid = env._eid + 1
        self._head = ShardClientWake(env, self, -1)
        self._start_time = env._now + 0.0
        self._next_init = 0
        env._eid += total_clients - 1
        env._off_heap += total_clients - 1
        self._calendar = WakeCalendar(
            total_clients / session_model.think_time.mean
        )
        self._calendar.held = total_clients

    @property
    def dns_control_fraction(self) -> float:
        """Fraction of hits in sessions the DNS directly routed."""
        return self.dns_routed_hits / self.total_hits if self.total_hits else 0.0

    def _on_wake(self, wake: ShardClientWake) -> None:
        """Run one client wake (event-mode universal mirror).

        Transcribes one resume of ``ClientPopulation._client`` — same
        stream draws through the same sampler partials, same call order,
        same reschedule arithmetic — then re-arms the wake. The engine
        nulled ``wake._callbacks`` and set ``_processed`` before
        invoking this, so re-arming is two attribute stores.
        """
        env = self.env
        now = env._now
        slot = wake.slot
        remaining = self._remaining[slot]
        if remaining < 0:
            # First dispatch: stagger the session start across one mean
            # think time (the generator's pre-loop yield).
            self._remaining[slot] = 0
            delay = self._stagger_rng.uniform(
                0.0, self.session_model.think_time.mean
            )
            env._eid = eid = env._eid + 1
            heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
            wake._callbacks = self._cb
            wake._processed = False
            return
        session_domain = self._session_domain
        if remaining > 0:
            domain_id = session_domain[slot]
            resolved_by_dns = self._resolved[slot]
        else:
            while True:
                # Session start. The loop mirrors the generator's
                # `while True` head: a model drawing zero pages starts
                # the next session in the same wake, as `range(0)` would.
                home = self._home_domain[slot]
                dynamics = self.dynamics
                domain_id = (
                    home
                    if dynamics.is_static
                    else dynamics.current_domain(home, now)
                )
                chain = self.resolution_chain
                if (
                    self.client_address_caching
                    and self._cached_records[slot] is not None
                    and self._cached_domain[slot] == domain_id
                    and self._cached_records[slot].is_valid(now)
                ):
                    record = self._cached_records[slot]
                    resolved_by_dns = False
                    self.client_cache_hits += 1
                else:
                    before = chain.authoritative_answers
                    record = chain.resolve(domain_id, now, slot)
                    resolved_by_dns = chain.authoritative_answers > before
                    if self.client_address_caching:
                        self._cached_records[slot] = record
                        self._cached_domain[slot] = domain_id
                pages = int(self._pages_sample())
                self.total_sessions += 1
                self._shard_sessions[slot // self.shard_size] += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.record(
                        now,
                        "session",
                        {
                            "client": slot,
                            "domain": domain_id,
                            "server": record.server_id,
                            "pages": pages,
                            "dns": resolved_by_dns,
                        },
                    )
                if self.layout is not None:
                    self._page_rtt[slot] = self.layout.rtt(
                        domain_id, record.server_id
                    )
                self._server[slot] = record.server_id
                self._resolved[slot] = 1 if resolved_by_dns else 0
                session_domain[slot] = domain_id
                if pages > 0:
                    remaining = pages
                    break
        # One page cycle (the generator's for-loop body).
        hits = int(self._hits_sample())
        self.cluster.servers[self._server[slot]].offer(now, hits, domain_id)
        self.total_pages += 1
        self.total_hits += hits
        if resolved_by_dns:
            self.dns_routed_hits += hits
        if self.layout is not None:
            self.network_rtt_stats.add(self._page_rtt[slot])
        self._remaining[slot] = remaining - 1
        delay = self._think_sample()
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        env._eid = eid = env._eid + 1
        heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
        wake._callbacks = self._cb
        wake._processed = False

    def shard_stats(self) -> dict:
        """Per-shard accounting for provenance / workload info.

        Small summary (not the raw per-shard table) so manifests stay
        bounded at large populations.
        """
        sessions = self._shard_sessions
        return {
            "shard_size": self.shard_size,
            "shard_count": self.shard_count,
            "sessions_min": min(sessions) if sessions else 0,
            "sessions_max": max(sessions) if sessions else 0,
            "sessions_total": sum(sessions),
        }

    def snapshot_state(self) -> dict:
        """Workload counters and liveness census (for checkpoints).

        Key-for-key and value-for-value identical to the eager
        population's snapshot at any trajectory cut (wakes model endless
        clients, so the census always equals ``total_clients`` — exactly
        as the eager generators report).
        """
        return {
            "total_clients": self.total_clients,
            "total_sessions": self.total_sessions,
            "total_pages": self.total_pages,
            "total_hits": self.total_hits,
            "dns_routed_hits": self.dns_routed_hits,
            "client_cache_hits": self.client_cache_hits,
            "alive": self.total_clients,
            "network_rtt_stats": self.network_rtt_stats.snapshot_state(),
        }

    def __repr__(self) -> str:
        return (
            f"<ShardedClientPopulation clients={self.total_clients} "
            f"shards={self.shard_count} domains={self.domains.domain_count} "
            f"hits={self.total_hits}>"
        )
