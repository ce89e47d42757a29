"""Workload tapes: a cohort's shared client workload, drawn once.

The paper's figures put several DNS policies on one workload, and every
cell of a figure runs under the same seed. The closed client population
draws its trajectory — stagger, think times, pages per session, hits
per page — from its own named RNG streams, and nothing the policy does
feeds back into those draws: a resolution only decides *which* server a
session's pages go to. So cells equal in every field the population
reads (:data:`TAPE_FIELDS` at the experiments layer) wake the same
clients at the same times with the same hits. Such a group is a
**cohort**; this module lets it draw that workload once.

Workload pass (:meth:`WorkloadTape.record`)
    Runs the sharded population's own fast-lane drain,
    :func:`~repro.workload.fluid.calendar_drain`, unchanged, on a bare
    :class:`~repro.sim.fastforward.FastForwardEnvironment` against stub
    servers, a stub resolution chain and a stub domain set that gives
    every client a domain of its own, so the domain each page burst
    names is the waking client's slot. The tape keeps one entry per
    wake — time, slot and hits, the hits negated when the wake starts a
    session — in three ``array`` columns, plus a *tail*: the first wake
    past the duration, whose hits (never drawn) read 0. The start phase
    is not taped: its N init wakes are always due first, in slot order.
Replay (:class:`TapeWake`, :func:`replay_drain`)
    A member is a real :class:`~repro.experiments.simulation.Simulation`
    whose :class:`~repro.workload.shards.ShardedClientPopulation` reads
    the tape instead of drawing: per wake, a session start calls the
    member's own resolution chain, every page joins the target server's
    pending run (:meth:`WebServer.offer_run
    <repro.web.server.WebServer.offer_run>`), and the member allocates
    the eid its per-cell run would. The drain draws no RNG and touches
    no heap or calendar per wake.

Why the replay is exact
-----------------------
Client entries are ordered among themselves by ``(time, key)``, and a
client key's order is its eid's allocation order — whatever foreign
eids (monitor windows, estimator collections) were allocated in
between. By induction over dispatches, the k-th client wake of a member
is the k-th wake of the pass: if the first k agree, the successors they
filed were allocated in the same order, so the next one due agrees too.
A member therefore dispatches the tape's entries in tape order, and only
their interleaving with foreign entries depends on the member. That the
drain gets right by keeping each slot's next eid (``_eids``) and
stopping at the earliest foreign entry's ``(time, key)`` bound, exactly
as :func:`~repro.workload.fluid.calendar_drain` does. A member's
dispatch order, floats, eids and ``dispatched`` therefore equal a
per-cell run's, bit for bit; ``tests/integration/test_cohorts.py``
enforces it. The member's workload RNG streams are created but never
drawn, so its checkpoint digest would differ from a per-cell run's:
checkpointed cells never join a cohort.
"""

from __future__ import annotations

from array import array
from heapq import heappush, heapreplace
from itertools import chain, islice, repeat

from ..errors import SimulationError
from ..sim.events import _NORMAL_KEY
from ..sim.fastforward import FastForwardEnvironment, FluidTask, WakeCalendar
from ..sim.rng import RandomStreams
from ..web.server import RUN_WAKES, apply_runs

__all__ = ["TapeWake", "WorkloadTape", "replay_drain"]

#: Largest value an ``array('i')`` column holds.
_INT32_MAX = 2**31 - 1


def _describe_model(session_model) -> tuple:
    """The session model as a comparable header value (exact float reprs)."""
    return (
        repr(session_model.pages_per_session),
        repr(session_model.hits_per_page),
        repr(session_model.think_time),
    )


class _SlotDomains:
    """The pass's domain set: one client per domain, so a domain is a slot."""

    __slots__ = ("domain_count",)

    def __init__(self, total_clients: int):
        self.domain_count = total_clients

    def iter_client_counts(self, total_clients: int):
        return repeat(1, total_clients)


class _Recorder:
    """The pass's cluster, server and resolution chain in one stub.

    Every session resolves to server 0, this recorder. The drain appends
    each wake's ``(time, hits, slot)`` to its :attr:`pending` run, as to
    a :class:`~repro.web.server.WebServer`, and :meth:`offer_run` moves
    the run onto the tape: the domain a burst names is the client's slot
    (see :class:`_SlotDomains`), and the hits are negated when a
    resolution, hence a session start, came just before. :meth:`resolve`
    applies the pending run before it marks the start, so the mark lands
    on the start's own burst.
    """

    __slots__ = (
        "servers",
        "server_id",
        "authoritative_answers",
        "starting",
        "pending",
        "_times",
        "_slots",
        "_hits",
    )

    def __init__(self, tape: "WorkloadTape"):
        self.servers = [self]
        self.server_id = 0
        self.authoritative_answers = 0
        self.starting = False
        self.pending = []
        self._times = tape.times.extend
        self._slots = tape.slots.extend
        self._hits = tape.hits.extend

    def resolve(self, domain_id: int, now: float, client: int) -> "_Recorder":
        if self.pending:
            self.offer_run()
        self.starting = True
        return self

    def offer_run(self) -> None:
        run = self.pending
        if self.starting:
            self.starting = False
            now, hits, slot = run[0]
            run[0] = (now, -hits, slot)
        times, hits, slots = zip(*run)
        self._times(times)
        self._slots(slots)
        self._hits(hits)
        run.clear()


class WorkloadTape:
    """One closed population's wakes, recorded once and replayed per member.

    The header (:attr:`seed`, :attr:`total_clients`,
    :attr:`session_model`, :attr:`start_time`, :attr:`duration`) names
    everything the recorded trajectory depends on; :meth:`check` refuses
    a member whose config disagrees. Entry ``i`` is the wake at
    ``times[i]`` of client ``slots[i]``, offering ``abs(hits[i])`` hits
    and starting a session when ``hits[i] < 0``; the last entry is the
    tail (see the module docstring).
    """

    __slots__ = (
        "seed",
        "total_clients",
        "session_model",
        "start_time",
        "duration",
        "times",
        "slots",
        "hits",
    )

    def __init__(
        self,
        seed: int,
        total_clients: int,
        session_model,
        start_time: float,
        duration: float,
    ):
        self.seed = seed
        self.total_clients = total_clients
        self.session_model = _describe_model(session_model)
        self.start_time = float(start_time)
        self.duration = float(duration)
        high = getattr(session_model.hits_per_page, "high", None)
        self.times = array("d")
        self.slots = array("i" if total_clients <= _INT32_MAX else "q")
        self.hits = array(
            "i" if high is not None and high <= _INT32_MAX else "q"
        )

    @classmethod
    def record(
        cls,
        session_model,
        total_clients: int,
        seed: int,
        duration: float,
    ) -> "WorkloadTape":
        """Run the workload pass (see the module docstring)."""
        from .shards import ShardedClientPopulation

        env = FastForwardEnvironment()
        tape = cls(seed, total_clients, session_model, env.now, duration)
        recorder = _Recorder(tape)
        population = ShardedClientPopulation(
            env,
            recorder,
            recorder,
            _SlotDomains(total_clients),
            session_model,
            total_clients,
            RandomStreams(seed),
        )
        if population.engine != "fluid":
            raise SimulationError(
                f"cannot tape a workload that falls back to event "
                f"stepping: {sorted(env.fallback_reasons)}"
            )
        env.run(until=duration)
        calendar = population._calendar
        tail_time, _, tail_slot = calendar.near[calendar.pos]
        tape.times.append(tail_time)
        tape.slots.append(tail_slot)
        tape.hits.append(0)
        return tape

    def check(
        self,
        seed: int,
        total_clients: int,
        session_model,
        start_time: float,
        duration: float,
    ) -> None:
        """Raise :class:`SimulationError` unless the header matches."""
        mismatched = [
            f"{name}: tape {taped!r}, member {own!r}"
            for name, taped, own in (
                ("seed", self.seed, seed),
                ("total_clients", self.total_clients, total_clients),
                ("session_model", self.session_model,
                 _describe_model(session_model)),
                ("start_time", self.start_time, float(start_time)),
                ("duration", self.duration, float(duration)),
            )
            if taped != own
        ]
        if mismatched:
            raise SimulationError(
                "workload tape does not match this simulation ("
                + "; ".join(mismatched)
                + ")"
            )

    def entries(self):
        """An iterator over the ``(time, slot, hits)`` entries."""
        return zip(self.times, self.slots, self.hits)

    @property
    def wakes(self) -> int:
        """Recorded wakes (the tail excluded)."""
        return len(self.times) - 1

    def __repr__(self) -> str:
        return (
            f"<WorkloadTape seed={self.seed} clients={self.total_clients} "
            f"duration={self.duration:g} wakes={self.wakes}>"
        )


def replay_drain(cls, env, queue, target: float, budget: int = -1) -> None:
    """Dispatch a tape-fed population's wakes (the replay lane).

    Bound as :attr:`TapeWake.drain`. The heap top is the population's
    head, keyed as its next wake; wakes are dispatched in tape order
    while they are due by ``target``, ``budget`` wakes remain and they
    precede the earliest foreign entry (the bound of
    :meth:`WakeCalendar.bound
    <repro.sim.fastforward.WakeCalendar.bound>`, fixed for the call:
    nothing a wake does pushes onto the engine heap). A wake's heap key
    is its slot's ``_NORMAL_KEY | eid``, the eid being the one its
    predecessor allocated. On exit the head is re-keyed to the next
    wake, or to the next init entry while the start phase lasts.

    Per wake: at a session start, the member's resolution (counted as
    DNS-routed when ``authoritative_answers`` grew) picks the server
    whose pending run's bound ``append`` the slot keeps; then the wake's
    burst joins that run, and the wake takes the eid the per-cell run's
    think-sleep allocates. The eid counter and the population totals
    live in locals and are flushed on exit: nothing that runs inside a
    drain reads them (the quiescence argument of
    :class:`~repro.workload.fluid.SessionKernel`). Every wake takes one
    eid, so the pages dispatched are the eids taken. The runs are
    applied on exit and every :data:`~repro.web.server.RUN_WAKES`
    wakes; a resolution that reads a server's state applies its run
    first (see :mod:`repro.web.server`).
    """
    head = queue[0][2]
    p = head.population
    duration = p._tape.duration
    if target > duration:
        raise SimulationError(
            f"the workload tape ends at t={duration!r}; "
            f"cannot replay to t={target!r}"
        )
    bound_time, bound_key = WakeCalendar.bound(queue)
    limit = bound_time if bound_time < target else target
    eids = p._eids
    eid = first = env._eid
    entry = p._entry
    n = p.total_clients
    hits_acc = sessions_acc = routed_acc = 0
    try:
        if p._next_init < n:
            # The start phase: N init wakes in slot order, each filing
            # its client's first wake (see calendar_drain).
            slot = p._next_init
            while slot < n:
                eid += 1
                eids[slot] = eid
                first = eid
                slot += 1
                p._next_init = slot
                budget -= 1
                if budget == 0:
                    return
        entries = p._entries
        source = chain((entry,), entries)
        if budget > 0:
            source = islice(source, budget)
        chain_ = p.resolution_chain
        resolve = chain_.resolve
        servers = p.cluster.servers
        runs = p._runs
        apply_at = eid + RUN_WAKES
        domain_arr = p._session_domain
        server_arr = p._server
        resolved_arr = p._resolved
        shard_sessions = p._shard_sessions
        shard_size = p.shard_size
        for entry in source:
            now, slot, hits = entry
            if now >= limit and (
                now > target
                or now > bound_time
                or now == bound_time and _NORMAL_KEY | eids[slot] > bound_key
            ):
                break
            if hits < 0:
                hits = -hits
                before = chain_.authoritative_answers
                server_id = resolve(domain_arr[slot], now, slot).server_id
                server_arr[slot] = server_id
                runs[slot] = servers[server_id].pending.append
                resolved_arr[slot] = (
                    1 if chain_.authoritative_answers > before else 0
                )
                sessions_acc += 1
                shard_sessions[slot // shard_size] += 1
            runs[slot]((now, hits, domain_arr[slot]))
            hits_acc += hits
            if resolved_arr[slot]:
                routed_acc += hits
            eid += 1
            eids[slot] = eid
            if eid == apply_at:
                apply_runs(servers)
                apply_at += RUN_WAKES
        else:
            # The budget ran out: the next wake is the pending one.
            entry = next(entries)
    finally:
        apply_runs(p.cluster.servers)
        env._eid = eid
        p._entry = entry
        p._add_totals(eid - first, hits_acc, sessions_acc, routed_acc)
        if p._next_init < n:
            heapreplace(
                queue, (p._start_time, p._first_eid + p._next_init, head)
            )
        else:
            heapreplace(
                queue, (entry[0], _NORMAL_KEY | eids[entry[1]], head)
            )


class TapeWake(FluidTask):
    """The engine-heap head of a tape-fed population.

    Like the sharded population's head, it stands first for the N
    urgent init entries reserved at construction, then for the
    population's next wake; its :attr:`drain` is :func:`replay_drain`.
    """

    __slots__ = ("population",)

    def __init__(self, env, population):
        self.population = population
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + 0.0, eid, self))

    drain = classmethod(replay_drain)

    def __repr__(self) -> str:
        return (
            f"<TapeWake clients={self.population.total_clients} "
            f"next={self.population._entry[0]!r}>"
        )
