"""The fast lane of the workload: session kernel, eligibility gate, fluid client.

Three populations have a fast-forward lane: :class:`FluidClient` (eager
clients), :class:`~repro.workload.shards.ShardClientWake` (the sharded
population) and :class:`~repro.workload.trace.TraceSessionWake` (the
trace source). Each is a :class:`~repro.sim.fastforward.FluidTask` whose
``drain`` steps heap wakes natively instead of dispatching the
population's event-mode handlers. All three pass the one gate,
:func:`session_kernel`, and share one :class:`SessionKernel` per
population: its constants, its session start and its drain contract.

Each drain performs the byte-exact work of the event-mode wake it
replaces — the same eid allocations, the same RNG draws from the same
streams, the same float operations in the same order — so a fast-forward
run is bit-identical to the reference engine (trajectory, checkpoint
digests, results). The golden-trajectory fixture and the Hypothesis
equivalence suites enforce that claim; any drift between a drain, the
kernel and the event-mode handlers (or :meth:`WebServer.offer
<repro.web.server.WebServer.offer>`, inlined in the closed-loop drains)
fails them as a trajectory diff.

Where the speed comes from: per page cycle, the reference path pays a
generator resume (or a callback dispatch), a
:class:`~repro.sim.events.Timeout` allocation plus factory frame, and
three Python frames of ``random`` machinery (``randint`` → ``randrange``
→ ``_randbelow``) plus one for ``expovariate``. The native step replaces
all of that with straight-line code over bound C primitives
(``Random.random``, ``Random.getrandbits``), replicating each wrapper's
arithmetic exactly:

* ``Exponential`` think times: ``-log(1.0 - random()) / lambd`` — the
  body of ``random.Random.expovariate`` with the identical precomputed
  ``lambd``;
* ``DiscreteUniform`` hits: ``low + r`` with ``r`` drawn by the
  ``getrandbits(width.bit_length())`` rejection loop of
  ``Random._randbelow_with_getrandbits`` (consumption-exact, including
  rejections);
* ``Geometric`` pages: the inversion ``max(1, ceil(log(u) / log(1-p)))``
  with the same guard draws as :meth:`Geometric.sample
  <repro.sim.distributions.Geometric.sample>` (once per session, in
  :meth:`SessionKernel.start`).
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from math import ceil as _ceil, log as _log
from typing import List, Optional

from ..errors import SimulationError
from ..sim.distributions import DiscreteUniform, Exponential, Geometric
from ..sim.events import _NORMAL_KEY
from ..sim.fastforward import FastForwardEnvironment, FluidTask

__all__ = [
    "FluidClient",
    "SessionKernel",
    "fluid_fallback_reasons",
    "session_kernel",
]


def fluid_fallback_reasons(population) -> List[str]:
    """Why ``population`` cannot take the fluid lane (empty = eligible).

    Each named feature would make the fast-lane drains diverge from the
    event-mode handlers, so its presence forces event-stepping:

    ``dynamic-domains``
        Domain remapping over time (``dynamics.is_static`` false).
    ``client-address-caching``
        Per-client cached address mappings with TTL validity checks.
    ``geography``
        Geographic layouts accumulate per-page network RTTs.
    ``session-model``
        Session distributions other than the exact
        ``Geometric``/``DiscreteUniform``/``Exponential`` triple whose
        RNG arithmetic the stepper inlines.
    """
    reasons = []
    if not population.dynamics.is_static:
        reasons.append("dynamic-domains")
    if population.client_address_caching:
        reasons.append("client-address-caching")
    if population.layout is not None:
        reasons.append("geography")
    model = population.session_model
    if not (
        type(model.pages_per_session) is Geometric
        and type(model.hits_per_page) is DiscreteUniform
        and type(model.think_time) is Exponential
    ):
        reasons.append("session-model")
    return reasons


class SessionKernel:
    """The fast lane's population-shared session state and session start.

    One record per population, built once by :func:`session_kernel`
    and read by its task class's drain (:meth:`FluidClient.drain`,
    ``ShardClientWake.drain`` or ``TraceSessionWake.drain``). It binds
    what every client of the population shares — the chain and its
    bound ``resolve``, the servers, the tracer switch, the stagger draw
    — and builds the inlined-RNG constants once: ``think_lambd = 1.0 /
    mean`` (the ``lambd`` :meth:`Exponential.sampler
    <repro.sim.distributions.Exponential.sampler>` binds), the hits
    rejection-loop width and ``bit_length()``, and the pages
    ``log(1 - p)`` or the degenerate ``p == 1`` flag.

    :meth:`start` is the fast lane's one session start, called once per
    session; the per-page body (hits draw, offer, think draw, heap
    arithmetic) stays inline in each drain.

    Drain contract (quiescence and deferred counters): a drain runs only
    while the heap top is its own task class and due by the target, so
    nothing else executes inside one drain call — no monitor window,
    alarm, estimator collection or checkpoint snapshot observes the
    population mid-drain. Each drain therefore hoists the kernel's
    fields into locals when the population changes, keeps the
    population totals (sessions, pages, hits, DNS-routed hits) in local
    integers and flushes them on exit; every observer sees the values
    per-wake increments would have given. The counters are integers
    that no RNG draw or float operation reads, so deferring them is
    parity-exact.
    """

    __slots__ = (
        "chain",
        "resolve",
        "servers",
        "tracing",
        "trace_record",
        "stagger_uniform",
        "think_mean",
        "think_random",
        "think_lambd",
        "hits_getrandbits",
        "hits_low",
        "hits_width",
        "hits_bits",
        "pages_random",
        "pages_log_q",
        "pages_degenerate",
    )

    def __init__(self, population):
        self.chain = chain = population.resolution_chain
        self.resolve = chain.resolve
        self.servers = population.cluster.servers
        tracer = population.tracer
        self.tracing = tracer.enabled
        self.trace_record = tracer.record
        model = population.session_model
        # The open trace source has no stagger stream: its sessions
        # start at arrivals, not after a per-client stagger.
        stagger = getattr(population, "_stagger_rng", None)
        self.stagger_uniform = None if stagger is None else stagger.uniform
        self.think_mean = think_mean = model.think_time.mean
        self.think_random = population._think_rng.random
        self.think_lambd = 1.0 / think_mean
        hits = model.hits_per_page
        self.hits_getrandbits = population._hits_rng.getrandbits
        self.hits_low = hits.low
        self.hits_width = width = hits.high - hits.low + 1
        self.hits_bits = width.bit_length()
        p = model.pages_per_session._p
        self.pages_random = population._pages_rng.random
        self.pages_degenerate = p >= 1.0
        self.pages_log_q = 0.0 if self.pages_degenerate else _log(1.0 - p)

    def stagger(self) -> float:
        """A client's first delay: uniform over one mean think time."""
        return self.stagger_uniform(0.0, self.think_mean)

    def start(self, now: float, domain_id: int, client: int):
        """Start one session; returns ``(server_id, pages, resolved_by_dns)``.

        Mirrors the session head of the event-mode handlers: resolve,
        count the session as DNS-routed if ``authoritative_answers``
        grew, draw the page count as :meth:`Geometric.sample
        <repro.sim.distributions.Geometric.sample>` does (same guard
        draws), then emit the ``session`` trace record.
        """
        chain = self.chain
        before = chain.authoritative_answers
        server_id = self.resolve(domain_id, now, client).server_id
        resolved_by_dns = chain.authoritative_answers > before
        if self.pages_degenerate:
            pages = 1
        else:
            random = self.pages_random
            u = random()
            while u <= 0.0:  # pragma: no cover - random() in [0, 1)
                u = random()
            pages = _ceil(_log(u) / self.pages_log_q)
            if pages < 1:
                pages = 1
        if self.tracing:
            self.trace_record(
                now,
                "session",
                {
                    "client": client,
                    "domain": domain_id,
                    "server": server_id,
                    "pages": pages,
                    "dns": resolved_by_dns,
                },
            )
        return server_id, pages, resolved_by_dns


def session_kernel(env, population, task_class) -> Optional[SessionKernel]:
    """The eligibility gate: ``population``'s kernel, or ``None`` to event-step.

    Outside a :class:`~repro.sim.fastforward.FastForwardEnvironment`
    there is no fast lane. Inside one, every
    :func:`fluid_fallback_reasons` entry is counted on the environment
    and the population falls back to its event-mode handlers (which the
    environment dispatches through its reference branches). An eligible
    population registers ``task_class`` as the environment's fluid task
    and gets its :class:`SessionKernel`.
    """
    if not isinstance(env, FastForwardEnvironment):
        return None
    reasons = fluid_fallback_reasons(population)
    for reason in reasons:
        env.count_fallback(reason)
    if reasons:
        return None
    env.register_task_class(task_class)
    return SessionKernel(population)


class FluidClient(FluidTask):
    """One client's session loop as a native fast-forward stepper.

    Mirrors ``ClientPopulation._client(client_id, home_domain)`` state
    for state: construction consumes one eid for an urgent init entry
    (exactly as :class:`~repro.sim.process._Initialize` does for a
    generator client), the first step draws the stagger delay, and every
    later step runs one page cycle — session start
    (:meth:`SessionKernel.start`) when no pages remain, then one page
    burst and the next think-sleep. Everything population-shared lives
    on the population's kernel; the task holds only this client's state.
    """

    __slots__ = (
        "population",
        "client_id",
        "domain_id",
        "_remaining",
        "_server",
        "_resolved_by_dns",
    )

    def __init__(self, env, population, client_id: int, home_domain: int):
        self.population = population
        self.client_id = client_id
        self.domain_id = home_domain
        # -1 = the init dispatch is still pending; 0 = session start due.
        self._remaining = -1
        self._server = None
        self._resolved_by_dns = False
        # Mirror _Initialize: one urgent entry at the current time,
        # consuming the eid a generator client's spawn would consume
        # (PRIORITY_URGENT is 0, so the fused heap key is the bare eid).
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + 0.0, eid, self))

    @classmethod
    def drain(cls, env, queue, target: float, budget: int = -1) -> None:
        """Dispatch consecutive client wakes natively (the fluid lane).

        Per wake: init, session start and/or one page cycle — every
        line shadows a line of the reference client generator (or of
        ``WebServer.offer``, inlined for the per-page fast path) — same
        call order, same operand order. Change them together or the
        equivalence suites fail. The loop keeps going while the heap
        top is a :class:`FluidClient` entry due by ``target`` (and
        ``budget`` wakes remain; see :meth:`FluidTask.drain` for the
        heapreplace parity argument).
        """
        replace = heapreplace
        log = _log
        # Counters accumulate in locals and flush on exit; see
        # SessionKernel for the quiescence argument.
        population = None
        pages_acc = hits_acc = sessions_acc = routed_acc = 0
        try:
            while queue:
                item = queue[0]
                now = item[0]
                if now > target:
                    return
                task = item[2]
                if type(task) is not cls:
                    return
                p = task.population
                if p is not population:
                    if population is not None:  # pragma: no cover
                        # A second population mid-drain: flush the first
                        # one's counters before re-hoisting.
                        population.total_pages += pages_acc
                        population.total_hits += hits_acc
                        population.total_sessions += sessions_acc
                        population.dns_routed_hits += routed_acc
                        pages_acc = hits_acc = sessions_acc = routed_acc = 0
                    population = p
                    kernel = p._kernel
                    start = kernel.start
                    servers = kernel.servers
                    think_random = kernel.think_random
                    think_lambd = kernel.think_lambd
                    hits_getrandbits = kernel.hits_getrandbits
                    hits_low = kernel.hits_low
                    hits_width = kernel.hits_width
                    hits_bits = kernel.hits_bits
                remaining = task._remaining
                if remaining > 0:
                    server = task._server
                    resolved_by_dns = task._resolved_by_dns
                elif remaining == 0:
                    server_id, remaining, resolved_by_dns = start(
                        now, task.domain_id, task.client_id
                    )
                    server = servers[server_id]
                    sessions_acc += 1
                    task._server = server
                    task._resolved_by_dns = resolved_by_dns
                else:
                    # First dispatch (the _Initialize mirror).
                    task._remaining = 0
                    delay = kernel.stagger()
                    env._eid = eid = env._eid + 1
                    replace(queue, (now + delay, _NORMAL_KEY | eid, task))
                    budget -= 1
                    if budget == 0:
                        return
                    continue
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
                domain_id = task.domain_id
                # try/except beats dict.get on the hot path: the KeyError
                # fires once per (server, domain) pair, then never again.
                # Integer-only bookkeeping, so reordering vs the reference
                # `.get` is parity-safe (no RNG, no float arithmetic).
                try:
                    domain_hits[domain_id] += hits
                except KeyError:
                    domain_hits[domain_id] = hits
                # Population totals (the generator's per-page counter
                # block) — accumulated, flushed on exit.
                pages_acc += 1
                hits_acc += hits
                if resolved_by_dns:
                    routed_acc += hits
                task._remaining = remaining - 1
                # Think-sleep: expovariate(lambd) inlined, then the
                # timeout factory's eid/heap-key arithmetic.
                delay = -log(1.0 - think_random()) / think_lambd
                env._eid = eid = env._eid + 1
                replace(queue, (now + delay, _NORMAL_KEY | eid, task))
                budget -= 1
                if budget == 0:
                    return
        finally:
            if population is not None:
                population.total_pages += pages_acc
                population.total_hits += hits_acc
                population.total_sessions += sessions_acc
                population.dns_routed_hits += routed_acc

    def __repr__(self) -> str:
        return (
            f"<FluidClient client={self.client_id} "
            f"domain={self.domain_id} remaining={self._remaining}>"
        )
