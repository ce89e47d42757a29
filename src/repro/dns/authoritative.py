"""The authoritative DNS of the distributed web site.

This is the paper's "atypical centralized scheduler": the only component
with global (if partial and stale) knowledge, but one that observes and
controls only the small fraction of requests that miss every downstream
cache. It composes two pluggable strategies:

* a *scheduler* choosing which web server to return
  (:mod:`repro.core` — RR, RR2, PRR, PRR2, DRR, DRR2, DAL, ...), and
* a *TTL policy* choosing how long the mapping stays valid
  (:mod:`repro.core.ttl` — constant, TTL/2, TTL/K, TTL/S_*).

Observability: each resolution can emit one ``"dns"`` trace record —
the decision the paper's analysis revolves around (which server, for how
long, for a domain of which hidden-load weight) — and the standing
counters are registered into the run's metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..sim.stats import RunningStats
from ..sim.tracing import NullTracer
from .records import AddressRecord


@dataclass
class DnsStats:
    """Counters kept by the authoritative DNS."""

    resolutions: int = 0
    per_domain: Dict[int, int] = field(default_factory=dict)
    per_server: Dict[int, int] = field(default_factory=dict)
    ttl: RunningStats = field(default_factory=RunningStats)

    def record(self, domain_id: int, server_id: int, ttl: float) -> None:
        """Count one resolution of ``domain_id`` to ``server_id`` for ``ttl``."""
        self.resolutions += 1
        self.per_domain[domain_id] = self.per_domain.get(domain_id, 0) + 1
        self.per_server[server_id] = self.per_server.get(server_id, 0) + 1
        self.ttl.add(ttl)

    def snapshot_state(self) -> dict:
        """All counters as JSON-safe data (for checkpoints)."""
        return {
            "resolutions": self.resolutions,
            "per_domain": {
                str(domain): count
                for domain, count in sorted(self.per_domain.items())
            },
            "per_server": {
                str(server): count
                for server, count in sorted(self.per_server.items())
            },
            "ttl": self.ttl.snapshot_state(),
        }


class AuthoritativeDns:
    """Authoritative DNS combining a scheduler and a TTL policy.

    Parameters
    ----------
    scheduler:
        Object with ``select(domain_id, now) -> server_id``.
    ttl_policy:
        Object with ``ttl_for(domain_id, server_id, now) -> float``.
    tracer:
        Optional tracer; emits one ``"dns"`` record per resolution.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; the DNS registers
        pull callbacks for its resolution count and mean granted TTL.
    domain_weight:
        Optional ``domain_id -> float`` callback returning the domain's
        estimated hidden-load weight, included in ``"dns"`` records.
    policy_label:
        Canonical policy name for trace payloads (defaults to the
        scheduler's class name).
    """

    def __init__(
        self,
        scheduler,
        ttl_policy,
        tracer=None,
        metrics=None,
        domain_weight: Optional[Callable[[int], float]] = None,
        policy_label: Optional[str] = None,
    ):
        self.scheduler = scheduler
        self.ttl_policy = ttl_policy
        # Load-accumulating disciplines (DAL, MRL) learn each granted
        # TTL through this hook; bound once, not looked up per request.
        self._notify = getattr(scheduler, "notify_assignment", None)
        self.stats = DnsStats()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.domain_weight = domain_weight
        self.policy_label = policy_label or type(scheduler).__name__
        self._ttl_series = None
        if metrics is not None:
            metrics.register("dns.resolutions", lambda: self.stats.resolutions)
            metrics.register(
                "dns.mean_granted_ttl",
                lambda: self.stats.ttl.mean if self.stats.ttl.count else 0.0,
            )
            # Timeline of the TTLs actually assigned — the adaptive
            # policies' control signal over time, one point per
            # resolution (bounded by the series budget).
            self._ttl_series = metrics.timeseries("dns.assigned_ttl")

    def resolve(self, domain_id: int, now: float) -> AddressRecord:
        """Handle one address-mapping request from ``domain_id``."""
        server_id = self.scheduler.select(domain_id, now)
        ttl = self.ttl_policy.ttl_for(domain_id, server_id, now)
        notify = self._notify
        if notify is not None:
            notify(domain_id, server_id, ttl, now)
        self.stats.record(domain_id, server_id, ttl)
        if self._ttl_series is not None:
            self._ttl_series.record(now, ttl)
        if self.tracer.enabled:
            self.tracer.record(
                now,
                "dns",
                {
                    "policy": self.policy_label,
                    "domain": domain_id,
                    "server": server_id,
                    "ttl": ttl,
                    "weight": (
                        self.domain_weight(domain_id)
                        if self.domain_weight is not None
                        else None
                    ),
                },
            )
        return AddressRecord(server_id=server_id, ttl=ttl, issued_at=now)

    def address_request_rate(self, elapsed: float) -> float:
        """Observed address-mapping requests per second over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.stats.resolutions / elapsed

    def __repr__(self) -> str:
        return (
            f"<AuthoritativeDns scheduler={type(self.scheduler).__name__} "
            f"ttl_policy={type(self.ttl_policy).__name__} "
            f"resolutions={self.stats.resolutions}>"
        )
