"""The resolution chain: client -> local name server -> authoritative DNS.

:class:`ResolutionChain` is the model's implementation of name-server
caching. The paper's model gives each client domain "a (set of) local
name server(s)"; ``nameservers_per_domain`` sizes that set. A client
always asks the same name server (NS) of its domain, its *slot*
``domain * nameservers_per_domain + client % nameservers_per_domain``
(clients are statically partitioned, as stub-resolver configurations are
in practice). With more than one NS per domain the per-domain cache state
fragments and the authoritative DNS sees proportionally more address
requests, i.e. it regains some control at the price of resolution
traffic. The chain also counts the statistic the paper highlights: the
fraction of resolutions the DNS directly controls.

Non-cooperative name servers distrust very small TTLs. A recommendation
below ``min_accepted_ttl`` is overridden when caching, in one of two
modes:

``"clamp"`` (default)
    Cache for ``min_accepted_ttl`` itself — the NS "imposes its own
    minimum TTL threshold", the worst-case scenario swept in the paper's
    Figs. 4-5.
``"default"``
    Cache for a fixed ``default_ttl`` (240 s), modelling resolvers that
    fall back to a house default instead of clamping.

Cache semantics
---------------
Each NS caches the single site name: one record with an absolute expiry
time. Every resolution observes its ``now``, which must be finite, and
advances the NS's high-water clock. A record whose expiry time has been
reached (``now >= expires_at``) is absent. It is removed lazily, by the
next resolution on that NS, which counts exactly one expiration. A zero
effective TTL caches a record that is immediately stale (it serves only
the one in-flight query, as real resolvers do); a non-finite effective
TTL is rejected, because no comparison against the clock could ever
expire it.

State layout
------------
An NS's whole state is one small :class:`_NsState` record in a dict keyed
by slot, created on the slot's first resolution: nothing is allocated per
domain up front, so 10^6 domains cost only the slots a run touches.
:attr:`ResolutionChain.nameservers` and
:meth:`ResolutionChain.nameserver_for` return :class:`NameServerView`
objects built on demand; a slot that was never resolved reads as the
empty state.
"""

from __future__ import annotations

from math import isfinite
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.tracing import NullTracer
from .authoritative import AuthoritativeDns
from .records import AddressRecord

#: Default TTL a non-cooperative NS substitutes for "too small" values.
DEFAULT_NS_TTL = 240.0

#: Cache key of the (single) replicated web site name, as it appears in
#: checkpoint snapshots.
SITE_KEY = "www"

#: Domain count at or above which :attr:`ResolutionChain.nameservers` and
#: :meth:`ResolutionChain.snapshot_state` list only the name servers of
#: domains that have resolved at least once. Below it they list every
#: NS (tests pin ``len(chain.nameservers) == domain_count`` there); above
#: it, listing 10^6 empty name servers would dominate checkpoint size.
#: Keyed on ``domain_count`` alone — not on which population drives the
#: run — so checkpoint digests of a given config agree across populations
#: and engine modes.
LAZY_NS_THRESHOLD = 100_000


class _NsState:
    """Cache contents, clock and counters of one local name server."""

    __slots__ = (
        "record",
        "expires_at",
        "clock",
        "hits",
        "misses",
        "expirations",
        "insertions",
        "overridden_ttls",
    )

    def __init__(self):
        self.record: Optional[AddressRecord] = None
        self.expires_at = 0.0
        self.clock = 0.0
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.insertions = 0
        self.overridden_ttls = 0


#: The state every slot has before its first resolution (never mutated).
_EMPTY = _NsState()


class NameServerView:
    """Read-only view of one local name server of a :class:`ResolutionChain`.

    Views are cheap and built on demand; they read the chain's live state,
    so a view taken before a resolution reflects it afterwards. Two views
    are equal when they show the same slot of the same chain.
    """

    __slots__ = ("chain", "slot")

    def __init__(self, chain: "ResolutionChain", slot: int):
        self.chain = chain
        self.slot = slot

    @property
    def _state(self) -> _NsState:
        return self.chain._slots.get(self.slot, _EMPTY)

    @property
    def domain_id(self) -> int:
        """The domain this NS serves."""
        return self.slot // self.chain.nameservers_per_domain

    @property
    def overridden_ttls(self) -> int:
        """Number of recommended TTLs this NS overrode."""
        return self._state.overridden_ttls

    @property
    def hits(self) -> int:
        """Resolutions answered from this NS's cache."""
        return self._state.hits

    @property
    def misses(self) -> int:
        """Resolutions this NS forwarded to the authoritative DNS."""
        return self._state.misses

    @property
    def expirations(self) -> int:
        """Expired records removed (each counted once, lazily)."""
        return self._state.expirations

    @property
    def insertions(self) -> int:
        """Records cached."""
        return self._state.insertions

    @property
    def clock(self) -> float:
        """The latest time this NS has observed."""
        return self._state.clock

    def _live(self, now: Optional[float]) -> Optional[_NsState]:
        state = self._state
        if now is None:
            now = state.clock
        elif not isfinite(now):
            raise ConfigurationError(f"now must be finite, got {now!r}")
        if state.record is None or now >= state.expires_at:
            return None
        return state

    def cached(self, now: Optional[float] = None) -> Optional[AddressRecord]:
        """The record a resolution at ``now`` would be answered with.

        ``None`` when the resolution would go to the authoritative DNS.
        ``now`` defaults to the NS's clock. Nothing is changed: no
        counter moves and no expired record is removed.
        """
        state = self._live(now)
        return None if state is None else state.record

    def expires_at(self, now: Optional[float] = None) -> Optional[float]:
        """Expiry time of the record that is *live* at ``now``, else ``None``.

        Agrees with :meth:`cached`: a record that has expired as of
        ``now`` (default: the NS's clock) has no expiry time to report.
        """
        state = self._live(now)
        return None if state is None else state.expires_at

    def snapshot_state(self) -> dict:
        """Cache contents, clock high-water mark and counters (JSON-safe).

        The cached record is listed even after it has expired, until the
        resolution that removes it: lazy removal is part of the state a
        resumed run must reproduce exactly (it decides future
        expirations).
        """
        state = self._state
        record = state.record
        return {
            "domain": self.domain_id,
            "overridden_ttls": state.overridden_ttls,
            "cache": {
                "clock": state.clock,
                "entries": (
                    [] if record is None
                    else [[repr(SITE_KEY), repr(record), state.expires_at]]
                ),
                "stats": {
                    "hits": state.hits,
                    "misses": state.misses,
                    "expirations": state.expirations,
                    "insertions": state.insertions,
                },
            },
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NameServerView)
            and other.chain is self.chain
            and other.slot == self.slot
        )

    def __repr__(self) -> str:
        return (
            f"<NameServerView domain={self.domain_id} slot={self.slot} "
            f"overrides={self.overridden_ttls}>"
        )


class ResolutionChain:
    """Routes client resolutions through per-domain name servers.

    Parameters
    ----------
    dns:
        The authoritative :class:`AuthoritativeDns`.
    domain_count:
        Number of client domains.
    min_accepted_ttl:
        Non-cooperative threshold applied by every NS (paper Figs. 4-5
        model the worst case where *all* NSs share the threshold);
        0 = fully cooperative.
    default_ttl:
        TTL substituted by an NS in ``"default"`` override mode.
    override_mode:
        ``"clamp"`` (paper) or ``"default"`` (see the module docstring).
    nameservers_per_domain:
        Size of each domain's NS set (paper base model: 1).
    tracer:
        Optional tracer; one ``"ns"`` record per resolution (cache hit,
        or authoritative fetch with override details).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; the chain
        registers its cache/authoritative answer counters and the
        aggregate TTL-override count.
    """

    OVERRIDE_MODES = ("clamp", "default")

    def __init__(
        self,
        dns: AuthoritativeDns,
        domain_count: int,
        min_accepted_ttl: float = 0.0,
        default_ttl: float = DEFAULT_NS_TTL,
        override_mode: str = "clamp",
        nameservers_per_domain: int = 1,
        tracer=None,
        metrics=None,
    ):
        if domain_count < 1:
            raise ConfigurationError(f"domain_count must be >= 1, got {domain_count!r}")
        if nameservers_per_domain < 1:
            raise ConfigurationError(
                f"nameservers_per_domain must be >= 1, "
                f"got {nameservers_per_domain!r}"
            )
        if min_accepted_ttl < 0:
            raise ConfigurationError(
                f"min_accepted_ttl must be >= 0, got {min_accepted_ttl!r}"
            )
        if default_ttl <= 0:
            raise ConfigurationError(f"default_ttl must be > 0, got {default_ttl!r}")
        if override_mode not in self.OVERRIDE_MODES:
            raise ConfigurationError(
                f"override_mode must be one of {self.OVERRIDE_MODES}, "
                f"got {override_mode!r}"
            )
        self.dns = dns
        self.domain_count = domain_count
        self.nameservers_per_domain = nameservers_per_domain
        self.min_accepted_ttl = float(min_accepted_ttl)
        self.default_ttl = float(default_ttl)
        self.override_mode = override_mode
        #: The TTL cached in place of a recommendation below the threshold.
        self._override_ttl = (
            self.min_accepted_ttl if override_mode == "clamp" else self.default_ttl
        )
        self._tracer = tracer if tracer is not None else NullTracer()
        #: Per-slot NS state, created on each slot's first resolution.
        self._slots: Dict[int, _NsState] = {}
        #: Resolutions answered from an NS cache.
        self.cache_answers = 0
        #: Resolutions answered by the authoritative DNS.
        self.authoritative_answers = 0
        #: Recommended TTLs overridden, summed over every NS.
        self.ttl_overrides = 0
        if metrics is not None:
            metrics.register("ns.cache_answers", lambda: self.cache_answers)
            metrics.register(
                "ns.authoritative_answers", lambda: self.authoritative_answers
            )
            metrics.register("ns.ttl_overrides", lambda: self.ttl_overrides)

    def effective_ttl(self, recommended: float) -> float:
        """The TTL every NS of this chain caches for a recommendation."""
        if recommended >= self.min_accepted_ttl:
            return recommended
        return self._override_ttl

    def _slot(self, domain_id: int, client_id: int) -> int:
        if not 0 <= domain_id < self.domain_count:
            raise IndexError(
                f"domain_id {domain_id!r} out of range [0, {self.domain_count})"
            )
        npd = self.nameservers_per_domain
        return domain_id * npd + client_id % npd

    @property
    def nameservers(self) -> List[NameServerView]:
        """Views of every *materialized* NS, ordered by slot.

        Below :data:`LAZY_NS_THRESHOLD` domains that is every NS of every
        domain. At or above it, only the NS sets of domains that have
        resolved at least once: the others are empty and have zero
        override counts, so aggregate statistics are unaffected.
        """
        npd = self.nameservers_per_domain
        if self.domain_count < LAZY_NS_THRESHOLD:
            slots = range(self.domain_count * npd)
        elif npd == 1:
            slots = sorted(self._slots)
        else:
            domains = sorted({slot // npd for slot in self._slots})
            slots = [d * npd + k for d in domains for k in range(npd)]
        return [NameServerView(self, slot) for slot in slots]

    def nameserver_for(self, domain_id: int, client_id: int = 0) -> NameServerView:
        """The NS a given client of ``domain_id`` is configured to use."""
        return NameServerView(self, self._slot(domain_id, client_id))

    def resolve(
        self, domain_id: int, now: float, client_id: int = 0
    ) -> AddressRecord:
        """Resolve the site name on behalf of a client in ``domain_id``.

        Served from the client's NS cache when it holds a live record;
        otherwise fetched from the authoritative DNS and cached for the
        effective TTL.
        """
        npd = self.nameservers_per_domain
        slot = domain_id * npd + client_id % npd
        state = self._slots.get(slot)
        if state is None:
            state = self._slots[self._slot(domain_id, client_id)] = _NsState()
        if not isfinite(now):
            raise ConfigurationError(f"now must be finite, got {now!r}")
        if now > state.clock:
            state.clock = now
        cached = state.record
        if cached is not None:
            if now < state.expires_at:
                state.hits += 1
                self.cache_answers += 1
                tracer = self._tracer
                if tracer.enabled:
                    expires_at = state.expires_at
                    tracer.record(
                        now,
                        "ns",
                        {
                            "domain": domain_id,
                            "hit": True,
                            "server": cached.server_id,
                            "expires_at": (
                                expires_at if state.clock < expires_at else None
                            ),
                        },
                    )
                return cached
            state.record = None
            state.expirations += 1
        state.misses += 1
        record = self.dns.resolve(domain_id, now)
        recommended = record.ttl
        ttl = self.effective_ttl(recommended)
        overridden = ttl != recommended
        if overridden:
            state.overridden_ttls += 1
            self.ttl_overrides += 1
            record = record.with_ttl(ttl)
        if not isfinite(ttl) or ttl < 0:
            raise ConfigurationError(f"TTL must be finite and >= 0, got {ttl!r}")
        state.record = record
        state.expires_at = now + ttl
        state.insertions += 1
        self.authoritative_answers += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.record(
                now,
                "ns",
                {
                    "domain": domain_id,
                    "hit": False,
                    "server": record.server_id,
                    "recommended_ttl": recommended,
                    "effective_ttl": ttl,
                    "overridden": overridden,
                },
            )
        return record

    @property
    def dns_control_fraction(self) -> float:
        """Fraction of resolutions the authoritative DNS answered.

        The paper notes this is often below 4% of the *data* requests;
        measured over resolutions it is higher, but both views are
        derivable (data-request control is tracked by the simulation).
        """
        total = self.cache_answers + self.authoritative_answers
        return self.authoritative_answers / total if total else 0.0

    def ttl_override_counts(self) -> Dict[int, int]:
        """Per-domain counts of NS-overridden TTL recommendations.

        Lists the domains of :attr:`nameservers`; the total over all
        domains is :attr:`ttl_overrides`.
        """
        counts: Dict[int, int] = {}
        for ns in self.nameservers:
            counts[ns.domain_id] = counts.get(ns.domain_id, 0) + ns.overridden_ttls
        return counts

    def snapshot_state(self) -> dict:
        """Answer counters plus every listed NS cache's state (for checkpoints).

        NS caches hold the entire "invisible to the DNS" side of the
        model — cached records, expiry times and the lazy-removal clocks
        all decide which future resolutions reach the authoritative
        server, so a resume digest must cover each one exactly.
        """
        return {
            "cache_answers": self.cache_answers,
            "authoritative_answers": self.authoritative_answers,
            "nameservers": [ns.snapshot_state() for ns in self.nameservers],
        }

    def __repr__(self) -> str:
        return (
            f"<ResolutionChain domains={self.domain_count} "
            f"ns_per_domain={self.nameservers_per_domain} "
            f"cache={self.cache_answers} authoritative={self.authoritative_answers}>"
        )
