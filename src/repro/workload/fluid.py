"""The fast lane of the workload: session kernel, eligibility gate, drains.

Three populations have a fast-forward lane: :class:`FluidClient` (eager
clients), :class:`~repro.workload.shards.ShardClientWake` (the sharded
population) and :class:`~repro.workload.trace.TraceSessionWake` (the
trace source). Each is a :class:`~repro.sim.fastforward.FluidTask` whose
``drain`` steps heap wakes natively instead of dispatching the
population's event-mode handlers. All three pass the one gate,
:func:`session_kernel`, and share one :class:`SessionKernel` per
population: its constants, its session start and its drain contract.
The populations themselves share
:class:`~repro.workload.sessions.SessionPopulation`, whose ``closed``
class attribute tells the kernel and the drain a closed loop of
endless clients from an open stream of arrivals.
The two calendar populations share one drain as well,
:func:`calendar_drain`, bound in each wake class as ``drain =
classmethod(calendar_drain)``.

Each drain performs the byte-exact work of the event-mode wake it
replaces — the same eid allocations, the same RNG draws from the same
streams, the same float operations in the same order — so a fast-forward
run is bit-identical to the reference engine (trajectory, checkpoint
digests, results). The golden-trajectory fixture and the Hypothesis
equivalence suites enforce that claim; any drift between a drain, the
kernel and the event-mode handlers fails them as a trajectory diff. No
drain calls :meth:`WebServer.offer <repro.web.server.WebServer.offer>`
per page: each appends the burst to the target server's pending run,
which :meth:`WebServer.offer_run <repro.web.server.WebServer.offer_run>`
applies with ``offer``'s arithmetic (see :mod:`repro.web.server`).

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

from bisect import insort
from heapq import heappush, heapreplace
from math import ceil as _ceil, log as _log
from typing import List, Optional

from ..errors import SimulationError
from ..sim.distributions import DiscreteUniform, Exponential, Geometric
from ..sim.events import _NORMAL_KEY
from ..sim.fastforward import FastForwardEnvironment, FluidTask
from ..web.server import RUN_WAKES, apply_runs
from .sessions import trace_session

__all__ = [
    "FluidClient",
    "SessionKernel",
    "calendar_drain",
    "fluid_fallback_reasons",
    "session_kernel",
]

_INFINITY = float("inf")


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
    and read by its task class's drain (:meth:`FluidClient.drain` or
    :func:`calendar_drain`). It binds what every client of the
    population shares — the chain and its bound ``resolve``, the
    servers, the tracer switch, the stagger draw of a closed population
    — and builds the inlined-RNG constants once:
    ``think_lambd = 1.0 / mean`` (the ``lambd``
    :meth:`Exponential.sampler
    <repro.sim.distributions.Exponential.sampler>` binds), the hits
    rejection-loop width and ``bit_length()``, and the pages
    ``log(1 - p)`` or the degenerate ``p == 1`` flag.

    :meth:`start` is the fast lane's one session start, called once per
    session; the per-page body (hits draw, burst, think draw, filing)
    is written once per drain: in :meth:`FluidClient.drain` and in
    :func:`calendar_drain`. :attr:`runs` holds each server's bound
    pending-run ``append``, by server id.

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
    parity-exact. Page bursts are deferred the same way: a drain
    appends each to its server's pending run and applies the runs on
    exit and every :data:`~repro.web.server.RUN_WAKES` pages. Inside a
    drain only a resolution can read server state (the LEAST-LOADED
    baseline reads ``backlog_seconds``), and every such reader applies
    the server's run first, so deferring the bursts is parity-exact too.
    """

    __slots__ = (
        "chain",
        "resolve",
        "servers",
        "runs",
        "tracing",
        "tracer",
        "stagger_random",
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
        self.servers = servers = population.cluster.servers
        self.runs = [server.pending.append for server in servers]
        self.tracer = tracer = population.tracer
        self.tracing = tracer.enabled
        model = population.session_model
        # An open population has no stagger stream: its sessions start
        # at arrivals, not after a per-client stagger.
        self.stagger_random = (
            population._stagger_rng.random if population.closed else None
        )
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
        """A client's first delay: uniform over one mean think time.

        The body of ``Random.uniform(0.0, think_mean)``, ``a + (b - a) *
        random()``, on the bound ``random``: the same float, one call.
        """
        return 0.0 + (self.think_mean - 0.0) * self.stagger_random()

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
            trace_session(
                self.tracer, now, client, domain_id, server_id, pages,
                resolved_by_dns,
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


def calendar_drain(cls, env, queue, target: float, budget: int = -1) -> None:
    """Dispatch a calendar population's wakes natively (the fluid lane).

    The drain of the sharded population and of the trace source, bound
    in each wake class as ``drain = classmethod(calendar_drain)``. The
    heap top is a population's head. Its wakes are dispatched in
    ``(time, key)`` order from the population's
    :class:`~repro.sim.fastforward.WakeCalendar` while they are due by
    ``target``, ``budget`` wakes remain and they precede the earliest
    foreign entry — the smaller child of the heap root, fixed for the
    whole call because nothing a fluid wake does pushes onto the engine
    heap. On exit the head is re-keyed to the calendar's new earliest
    entry: one engine-heap sift per drain, not per wake.

    Per wake it mirrors the population's event-mode handlers draw for
    draw, with session state in the population's flat slot arrays
    (``_remaining``, ``_server``, ``_resolved``, ``_session_domain``):
    the kernel's session start, the inlined hits draw, the burst
    appended to the server's pending run (applied on exit and every
    :data:`~repro.web.server.RUN_WAKES` pages), the inlined think draw
    and the filing of the next entry under the timeout factory's
    eid/heap-key arithmetic. The population's
    :attr:`~repro.workload.sessions.SessionPopulation.closed` covers the
    three ways the two populations differ:

    * **Start phase** (closed only). The sharded population's urgent
      init entries are dispatched first, in slot order, without being
      filed; each draws its client's stagger and files the first wake.
      While the phase is unfinished the head is keyed as the next init
      entry.
    * **Arrivals** (open only). An entry with slot ``-1 - shard_id`` is
      one shard's arrival process: it thins the candidate, may start a
      session on a claimed slot (whose first think wake takes its eid
      before the shard's next candidate, as in the event handler) and
      files the next candidate. The calendar's held count rises by one
      for an accepted arrival.
    * **Session end.** A closed-loop client whose last page ran still
      files its next wake, which starts its next session; an open-loop
      session's last page frees its slot and files nothing.

    Only populations with no fallback reasons register their wake class,
    so dynamic domains (a session's domain is the slot's domain),
    client caching, geography and non-standard session models have no
    branch here.
    """
    head = queue[0][2]
    p = head.population
    cal = p._calendar
    bound_time, bound_key = cal.bound(queue)
    limit = bound_time if bound_time < target else target
    log = _log
    kernel = p._kernel
    closed = p.closed
    inv_width = cal.inv_width
    buckets = cal.buckets
    pending = cal.pending
    advance = cal.advance
    cur = cal.cur
    near = cal.near
    pos = cal.pos
    held = cal.held
    # Counters accumulate in locals and flush on exit (see SessionKernel
    # for the quiescence argument).
    pages_acc = hits_acc = sessions_acc = routed_acc = 0
    if closed:
        shard_sessions = p._shard_sessions
        shard_size = p.shard_size
    else:
        sample_domain = p.domains.sample_domain
        rate_at = p.schedule.rate_at
        peak = p._peak_rate
        arrival_lambd = p._arrival_lambd
        arrival_random = p._arrival_rng.random
        claim_slot = p._claim_slot
        free = p._free
        started = p._shard_started
        shard_arrivals = p._shard_arrivals
        arrivals = p.total_arrivals
        active = p.active_sessions
        peak_active = p.peak_active_sessions
    try:
        if closed and p._next_init < p.total_clients:
            # The start phase: the urgent init entries, due in slot
            # order at the construction time (the _Initialize mirror).
            # No foreign entry falls between two of them, so only the
            # budget stops this phase: an entry with a smaller key was
            # dispatched before the head reached the top, and every
            # other entry has a later time, normal priority or an eid
            # past the reserved range.
            slot = p._next_init
            n = p.total_clients
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
                    cur, near = advance()
                    pos = 0
                budget -= 1
                if budget == 0:
                    return
        start = kernel.start
        servers = kernel.servers
        runs = kernel.runs
        apply_at = RUN_WAKES
        think_random = kernel.think_random
        think_lambd = kernel.think_lambd
        hits_getrandbits = kernel.hits_getrandbits
        hits_low = kernel.hits_low
        hits_width = kernel.hits_width
        hits_bits = kernel.hits_bits
        remaining_arr = p._remaining
        server_arr = p._server
        resolved_arr = p._resolved
        domain_arr = p._session_domain
        while True:
            item = near[pos]
            now = item[0]
            if now >= limit and (
                now > target
                or now > bound_time
                or now == bound_time and item[1] > bound_key
            ):
                return
            slot = item[2]
            arrival = slot < 0
            if not arrival:
                remaining = remaining_arr[slot]
                domain_id = domain_arr[slot]
                if remaining > 0:
                    server_id = server_arr[slot]
                    resolved_by_dns = resolved_arr[slot]
                else:
                    # A closed-loop client's next session.
                    server_id, remaining, resolved_by_dns = start(
                        now, domain_id, slot
                    )
                    sessions_acc += 1
                    shard_sessions[slot // shard_size] += 1
                    server_arr[slot] = server_id
                    resolved_arr[slot] = 1 if resolved_by_dns else 0
            else:
                # An arrival wake (_on_arrival): thin the candidate,
                # then maybe start a session (_start_session).
                shard_id = -1 - slot
                if not started[shard_id]:
                    started[shard_id] = 1
                    accepted = False
                else:
                    accepted = arrival_random() * peak <= rate_at(now)
                if accepted:
                    shard_arrivals[shard_id] += 1
                    session_id = arrivals
                    arrivals += 1
                    domain_id = sample_domain(arrival_random())
                    server_id, remaining, resolved_by_dns = start(
                        now, domain_id, session_id
                    )
                    sessions_acc += 1
                    slot = claim_slot()
                    domain_arr[slot] = domain_id
                    server_arr[slot] = server_id
                    resolved_arr[slot] = 1 if resolved_by_dns else 0
                    active += 1
                    if active > peak_active:
                        peak_active = active
                    held += 1
            if slot >= 0:
                # One page burst. Hits: randint(low, high) with the
                # rejection loop of Random._randbelow_with_getrandbits,
                # consumption-exact.
                r = hits_getrandbits(hits_bits)
                while r >= hits_width:
                    r = hits_getrandbits(hits_bits)
                hits = hits_low + r
                runs[server_id]((now, hits, domain_id))
                pages_acc += 1
                if pages_acc == apply_at:
                    apply_runs(servers)
                    apply_at += RUN_WAKES
                hits_acc += hits
                if resolved_by_dns:
                    routed_acc += hits
                remaining -= 1
                remaining_arr[slot] = remaining
                if remaining > 0 or closed:
                    # Think-sleep: expovariate(lambd) inlined, then the
                    # timeout factory's eid/heap-key arithmetic.
                    delay = -log(1.0 - think_random()) / think_lambd
                    if not 0.0 <= delay < _INFINITY:
                        raise SimulationError(
                            f"timeout delay must be finite and >= 0, "
                            f"got {delay!r}"
                        )
                    env._eid = eid = env._eid + 1
                    t = now + delay
                    entry = (t, _NORMAL_KEY | eid, slot)
                    b = int(t * inv_width)
                    if b == cur:
                        insort(near, entry, pos)
                    else:
                        try:
                            buckets[b].append(entry)
                        except KeyError:
                            buckets[b] = [entry]
                            heappush(pending, b)
                else:
                    # Open-loop session over: release the slot.
                    active -= 1
                    free.append(slot)
                    held -= 1
            if arrival:
                # The shard's next candidate: expovariate inlined.
                delay = -log(1.0 - arrival_random()) / arrival_lambd
                if not 0.0 <= delay < _INFINITY:
                    raise SimulationError(
                        f"timeout delay must be finite and >= 0, "
                        f"got {delay!r}"
                    )
                env._eid = eid = env._eid + 1
                t = now + delay
                entry = (t, _NORMAL_KEY | eid, item[2])
                b = int(t * inv_width)
                if b == cur:
                    insort(near, entry, pos)
                else:
                    try:
                        buckets[b].append(entry)
                    except KeyError:
                        buckets[b] = [entry]
                        heappush(pending, b)
            pos += 1
            if pos == len(near):
                cur, near = advance()
                pos = 0
            budget -= 1
            if budget == 0:
                return
    finally:
        apply_runs(kernel.servers)
        p._add_totals(pages_acc, hits_acc, sessions_acc, routed_acc)
        if not closed:
            p.total_arrivals = arrivals
            p.active_sessions = active
            p.peak_active_sessions = peak_active
        if closed and p._next_init < p.total_clients:
            heapreplace(
                queue, (p._start_time, p._first_eid + p._next_init, head)
            )
        else:
            cal.rekey(env, queue, head, cur, near, pos, held)


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
        "_run",
        "_resolved_by_dns",
    )

    def __init__(self, env, population, client_id: int, home_domain: int):
        self.population = population
        self.client_id = client_id
        self.domain_id = home_domain
        # -1 = the init dispatch is still pending; 0 = session start due.
        self._remaining = -1
        # The bound append of the session's server's pending run.
        self._run = None
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
        line shadows a line of the reference client generator — same
        call order, same operand order. Change them together or the
        equivalence suites fail. The page burst joins the server's
        pending run, applied on exit and every
        :data:`~repro.web.server.RUN_WAKES` pages (see
        :class:`SessionKernel`). The loop keeps going while the heap
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
                        apply_runs(servers)
                        population._add_totals(
                            pages_acc, hits_acc, sessions_acc, routed_acc
                        )
                        pages_acc = hits_acc = sessions_acc = routed_acc = 0
                    population = p
                    kernel = p._kernel
                    start = kernel.start
                    servers = kernel.servers
                    runs = kernel.runs
                    apply_at = pages_acc + RUN_WAKES
                    think_random = kernel.think_random
                    think_lambd = kernel.think_lambd
                    hits_getrandbits = kernel.hits_getrandbits
                    hits_low = kernel.hits_low
                    hits_width = kernel.hits_width
                    hits_bits = kernel.hits_bits
                remaining = task._remaining
                if remaining > 0:
                    run = task._run
                    resolved_by_dns = task._resolved_by_dns
                elif remaining == 0:
                    server_id, remaining, resolved_by_dns = start(
                        now, task.domain_id, task.client_id
                    )
                    run = runs[server_id]
                    sessions_acc += 1
                    task._run = run
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
                run((now, hits, task.domain_id))
                # Population totals (the generator's per-page counter
                # block) — accumulated, flushed on exit.
                pages_acc += 1
                if pages_acc == apply_at:
                    apply_runs(servers)
                    apply_at += RUN_WAKES
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
                apply_runs(servers)
                population._add_totals(
                    pages_acc, hits_acc, sessions_acc, routed_acc
                )

    def __repr__(self) -> str:
        return (
            f"<FluidClient client={self.client_id} "
            f"domain={self.domain_id} remaining={self._remaining}>"
        )
