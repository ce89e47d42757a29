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
    fallback reason, the wake class registers as the fluid task and
    :meth:`ShardClientWake.drain` batch-steps quiescent windows: session
    starts through the population's
    :class:`~repro.workload.fluid.SessionKernel`, page cycles inline,
    client state read from the flat shards. The client wakes are not on
    the engine heap: they are ``(time, key, slot)`` entries on the
    population's private calendar — time buckets ``BUCKET_WAKES`` wakes
    wide on average, the current one a small "near" heap — and the engine
    heap holds one head :class:`ShardClientWake` (slot ``-1``) keyed as
    the calendar's earliest entry. The t=0 start burst is an ordered
    phase: the N urgent init eids are reserved at construction and
    dispatched in slot order, with no entry pushed for them. One heap
    entry per client would make every reschedule sift through a heap of
    N cache-cold entries; the near heap stays small at any N. The order
    is the engine's (bucket indices are monotone in time and equal times
    share a bucket), and :attr:`FastForwardEnvironment.dispatched
    <repro.sim.fastforward.FastForwardEnvironment.dispatched>` subtracts
    the N − 1 wakes held off the heap, so dispatch counts, checkpoint
    positions and ``run_events`` cuts are exact. Ineligible
    configurations count their fallback reasons and take the ``event``
    path inside the same environment.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush, heapreplace
from math import log as _log

from ..errors import ConfigurationError, SimulationError
from ..sim.events import Event, _NORMAL_KEY
from ..sim.fastforward import FluidTask
from ..sim.rng import RandomStreams
from ..sim.stats import RunningStats as _RttStats
from ..sim.tracing import NullTracer
from .domains import DomainSet
from .dynamics import StaticDomains
from .fluid import session_kernel
from .sessions import SessionModel

__all__ = ["ShardClientWake", "ShardedClientPopulation", "DEFAULT_SHARD_SIZE"]

_INFINITY = float("inf")

#: Clients per accounting shard. Shards are *logical* slot ranges — they
#: bound the granularity of per-shard counters (sessions started), not
#: any hot-path data structure, so the default only needs to keep the
#: shard table small relative to the population.
DEFAULT_SHARD_SIZE = 4096

#: Mean client wakes per calendar bucket on the fluid lane. Clients wake
#: about once per mean think time, so a bucket ``BUCKET_WAKES * mean /
#: total_clients`` wide holds about this many entries: the near heap the
#: drain pops from stays small whatever the population size.
BUCKET_WAKES = 128


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
    earliest entry (see :class:`ShardedClientPopulation`).
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

    @classmethod
    def drain(cls, env, queue, target: float, budget: int = -1) -> None:
        """Dispatch the head's population's client wakes natively (fluid lane).

        The heap top is a population's head. Its wakes are dispatched
        in ``(time, key)`` order from the population's calendar while
        they are due by ``target``, ``budget`` wakes remain and they
        precede the earliest foreign entry — the smaller child of the
        heap root, fixed for the whole call because nothing a fluid wake
        does pushes onto the engine heap. On exit the head is re-keyed
        to the calendar's new earliest entry: one engine-heap sift per
        drain, not per wake.

        Per wake this is the structural twin of :meth:`FluidClient.drain
        <repro.workload.fluid.FluidClient.drain>` — the same kernel
        session start, the same inlined page cycle and
        ``WebServer.offer`` — with client state in the population's
        flat arrays. The start phase first dispatches the urgent init
        entries in slot order (each draws the stagger); every wake files
        its next entry under the timeout factory's eid/heap-key
        arithmetic. Only populations with no fallback reasons register
        this class, so the dynamic-domains / caching / geography /
        non-standard-model branches of the event-mode handler have no
        counterpart here.
        """
        head = queue[0][2]
        p = head.population
        # The earliest foreign entry: an entry (now, key) is due iff
        # now <= target and (now, key) < (bound_time, bound_key).
        size = len(queue)
        if size > 2:
            first = queue[1]
            second = queue[2]
            foreign = first if first < second else second
        else:
            foreign = queue[1] if size == 2 else (_INFINITY, 0)
        bound_time = foreign[0]
        bound_key = foreign[1]
        limit = bound_time if bound_time < target else target
        log = _log
        pop = heappop
        replace = heapreplace
        kernel = p._kernel
        inv_width = p._inv_width
        buckets = p._buckets
        pending = p._pending
        near = p._near
        cur = p._cur
        # Counters accumulate in locals and flush on exit (see
        # SessionKernel for the quiescence argument).
        pages_acc = hits_acc = sessions_acc = routed_acc = 0
        try:
            slot = p._next_init
            n = p.total_clients
            # The start phase: the urgent init entries, due in slot order
            # at the construction time (the _Initialize mirror). Each
            # draws its client's stagger and files the first wake. No
            # foreign entry falls between two of them, so only the budget
            # stops this phase: an entry with a smaller key was dispatched
            # before the head reached the top, and every other entry has
            # a later time, normal priority or an eid past the reserved
            # range.
            now = p._start_time
            while slot < n:
                delay = kernel.stagger()
                env._eid = eid = env._eid + 1
                t = now + delay
                entry = (t, _NORMAL_KEY | eid, slot)
                b = int(t * inv_width)
                try:
                    buckets[b].append(entry)
                except KeyError:
                    buckets[b] = [entry]
                    heappush(pending, b)
                slot += 1
                p._next_init = slot
                if slot == n:
                    cur = pop(pending)
                    near = buckets.pop(cur)
                    heapify(near)
                budget -= 1
                if budget == 0:
                    return
            start = kernel.start
            servers = kernel.servers
            think_random = kernel.think_random
            think_lambd = kernel.think_lambd
            hits_getrandbits = kernel.hits_getrandbits
            hits_low = kernel.hits_low
            hits_width = kernel.hits_width
            hits_bits = kernel.hits_bits
            remaining_arr = p._remaining
            server_arr = p._server
            resolved_arr = p._resolved
            home_arr = p._home_domain
            shard_sessions = p._shard_sessions
            shard_size = p.shard_size
            while True:
                item = near[0]
                now = item[0]
                if now >= limit and (
                    now > target
                    or now > bound_time
                    or now == bound_time and item[1] > bound_key
                ):
                    return
                slot = item[2]
                remaining = remaining_arr[slot]
                # The drain runs only under static dynamics, so a
                # session's domain is the home domain.
                domain_id = home_arr[slot]
                if remaining > 0:
                    server = servers[server_arr[slot]]
                    resolved_by_dns = resolved_arr[slot]
                else:
                    server_id, remaining, resolved_by_dns = start(
                        now, domain_id, slot
                    )
                    server = servers[server_id]
                    sessions_acc += 1
                    shard_sessions[slot // shard_size] += 1
                    server_arr[slot] = server_id
                    resolved_arr[slot] = 1 if resolved_by_dns else 0
                # One page cycle. Hits: randint(low, high) with the
                # rejection loop of Random._randbelow_with_getrandbits,
                # consumption-exact.
                r = hits_getrandbits(hits_bits)
                while r >= hits_width:
                    r = hits_getrandbits(hits_bits)
                hits = hits_low + r
                # WebServer.offer, inlined (same checks, same op order).
                if hits <= 0:
                    raise SimulationError(
                        f"a page burst must have >= 1 hit, got {hits!r}"
                    )
                last = server._last_update
                if now < last:
                    raise SimulationError(
                        f"time went backwards: {now!r} < {last!r}"
                    )
                backlog = server._backlog
                elapsed = now - last
                busy = backlog if backlog <= elapsed else elapsed
                backlog -= busy
                server._busy_in_window += busy
                server._last_update = now
                service = hits / server.capacity
                stats = server.response_times
                sojourn = backlog + service
                stats.count = count = stats.count + 1
                delta = sojourn - stats._mean
                stats._mean = mean = stats._mean + delta / count
                stats._m2 += delta * (sojourn - mean)
                if sojourn < stats.minimum:
                    stats.minimum = sojourn
                if sojourn > stats.maximum:
                    stats.maximum = sojourn
                server._backlog = backlog + service
                server._hits_in_window += hits
                server.total_hits += hits
                server.total_pages += 1
                domain_hits = server.domain_hits
                try:
                    domain_hits[domain_id] += hits
                except KeyError:
                    domain_hits[domain_id] = hits
                pages_acc += 1
                hits_acc += hits
                if resolved_by_dns:
                    routed_acc += hits
                remaining_arr[slot] = remaining - 1
                # Think-sleep: expovariate(lambd) inlined, then the
                # timeout factory's eid/heap-key arithmetic; the entry
                # goes to its time bucket, or into the near heap when it
                # falls in the current one.
                delay = -log(1.0 - think_random()) / think_lambd
                t = now + delay
                env._eid = eid = env._eid + 1
                entry = (t, _NORMAL_KEY | eid, slot)
                b = int(t * inv_width)
                if b == cur:
                    replace(near, entry)
                else:
                    try:
                        buckets[b].append(entry)
                    except KeyError:
                        buckets[b] = [entry]
                        heappush(pending, b)
                    pop(near)
                    if not near:
                        cur = pop(pending)
                        near = buckets.pop(cur)
                        heapify(near)
                budget -= 1
                if budget == 0:
                    return
        finally:
            p.total_pages += pages_acc
            p.total_hits += hits_acc
            p.total_sessions += sessions_acc
            p.dns_routed_hits += routed_acc
            p._near = near
            p._cur = cur
            if p._next_init < p.total_clients:
                replace(
                    queue,
                    (p._start_time, p._first_eid + p._next_init, head),
                )
            else:
                top = near[0]
                replace(queue, (top[0], top[1], head))

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
        "_inv_width",
        "_buckets",
        "_pending",
        "_near",
        "_cur",
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
        # calendar's earliest entry. The calendar is a dict of time
        # buckets of (time, key, slot) entries, a heap of the filed
        # bucket indices, and the current bucket as the near heap.
        self._remaining = array("q", bytes(8 * total_clients))
        self.processes = []
        self._first_eid = env._eid + 1
        self._head = ShardClientWake(env, self, -1)
        self._start_time = env._now + 0.0
        self._next_init = 0
        env._eid += total_clients - 1
        env._off_heap += total_clients - 1
        self._inv_width = total_clients / (
            BUCKET_WAKES * session_model.think_time.mean
        )
        self._buckets = {}
        self._pending = []
        self._near = []
        self._cur = None

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
