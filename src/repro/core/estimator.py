"""Hidden-load-weight estimation.

The *hidden load weight* of a domain is the average number of data
requests that follow one address mapping handed to that domain — hidden
because those requests never pass through the DNS. Schedulers and TTL
policies only need the weights in *relative* form, which equals the
domain's share of the total client request rate.

Two estimators are provided:

:class:`OracleEstimator`
    Returns exact, static shares. This matches the paper's main
    experiments (which assume weights can be estimated) and is what the
    estimation-error experiments hold fixed while the *actual* workload is
    perturbed.
:class:`MeasuredEstimator`
    Implements the mechanism the paper describes: servers count incoming
    hits per source domain, the DNS periodically collects the counters and
    smooths them (EWMA). Provided as the realistic alternative and ablated
    against the oracle in the benchmarks.
:class:`SlidingWindowEstimator`
    A windowed variant in the spirit of the paper's reference [3]
    (Cardellini/Colajanni/Yu, *Efficient state estimator for load control
    in scalable Web server clusters*): shares are computed over the last
    ``window_intervals`` collection intervals, forgetting older traffic
    sharply instead of geometrically — better for non-stationary
    workloads, at the cost of more variance.

Every per-domain structure an estimator keeps is a flat
:class:`array.array` — estimates and priors in ``array('d')``, window
totals and observations in ``array('q')``, 8 bytes per domain instead
of a list's 32–36 — and :meth:`HiddenLoadEstimator.shares` returns a
fresh ``array('d')`` copy. The arrays are built by
:func:`~repro.core.flat.flat_map` with the list code's expressions, in
domain order, so every estimate is bit-identical to the list version.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError, EstimationError
from ..web.server import WebServer
from .flat import flat_map


class HiddenLoadEstimator:
    """Interface: current estimate of per-domain load shares.

    Attributes
    ----------
    version:
        Monotonic counter bumped on every estimate change; consumers
        (domain classifiers, TTL calibration) cache per version.
    """

    version: int = 0

    def shares(self) -> array:
        """Estimated fraction of total request rate per domain (sums to 1).

        A fresh ``array('d')`` copy the caller may keep or modify.
        """
        raise NotImplementedError

    def share(self, domain_id: int) -> float:
        """One domain's estimated share.

        Bit-equal to ``shares()[domain_id]`` by contract. The base
        implementation materializes the full array; subclasses override
        with O(1) lookups — per-decision call sites (schedulers, TTL
        policies, trace payloads) must use this instead of indexing
        ``shares()``, which copies K floats per call and dominates the
        decision path at large domain counts.
        """
        return self.shares()[domain_id]

    def relative_weights(self) -> List[float]:
        """Shares normalized so the most popular domain has weight 1."""
        shares = self.shares()
        peak = max(shares)
        if peak <= 0:
            raise EstimationError("estimated shares are all zero")
        return [share / peak for share in shares]

    @property
    def domain_count(self) -> int:
        return len(self.shares())

    def snapshot_state(self) -> dict:
        """Estimate state for checkpoints; subclasses extend this.

        The base snapshot (current shares + version) already pins every
        scheduling decision an estimator can influence; stateful
        subclasses add their internal accumulators so a resume digest
        also covers *future* estimates.
        """
        return {
            "kind": type(self).__name__,
            "version": self.version,
            "shares": list(self.shares()),
        }


class OracleEstimator(HiddenLoadEstimator):
    """Exact, static domain shares (the paper's baseline assumption).

    Accepts any iterable of shares (a :attr:`DomainSet.shares
    <repro.workload.domains.DomainSet.shares>` array included) and packs
    them into a flat ``array('d')`` — at 10^6 domains that is one 8 MB
    buffer instead of a 10^6-element list of boxed floats.
    """

    def __init__(self, shares: Iterable[float]):
        values = array("d", shares)
        if not values:
            raise ConfigurationError("need at least one domain share")
        total = sum(values)
        if not math.isfinite(total):
            raise ConfigurationError("domain shares must be finite")
        if min(values) <= 0:
            raise ConfigurationError("domain shares must be positive")
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"shares must sum to 1, got {total!r}")
        self._shares = values
        self.version = 0

    def shares(self) -> array:
        return self._shares[:]

    def share(self, domain_id: int) -> float:
        return self._shares[domain_id]

    def __repr__(self) -> str:
        return f"<OracleEstimator K={len(self._shares)}>"


class MeasuredEstimator(HiddenLoadEstimator):
    """Periodic collection of per-domain hit counters from the servers.

    Every ``interval`` seconds the estimator drains each server's
    per-domain counters and folds the observed shares into an
    exponentially weighted moving average:

    ``estimate <- (1 - smoothing) * estimate + smoothing * observed``

    Parameters
    ----------
    env:
        Simulation environment (a collection process is spawned).
    servers:
        Servers whose counters are collected.
    domain_count:
        Number of client domains.
    interval:
        Collection period in seconds.
    smoothing:
        EWMA weight of each new observation, in (0, 1].
    prior:
        Initial share estimate; uniform when omitted.
    """

    def __init__(
        self,
        env,
        servers: Sequence[WebServer],
        domain_count: int,
        interval: float = 32.0,
        smoothing: float = 0.5,
        prior: Optional[Sequence[float]] = None,
    ):
        if domain_count < 1:
            raise ConfigurationError(
                f"domain_count must be >= 1, got {domain_count!r}"
            )
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {smoothing!r}"
            )
        self.env = env
        self.servers = list(servers)
        self.interval = float(interval)
        self.smoothing = float(smoothing)
        self._estimate = _normalized_prior(prior, domain_count)
        self.version = 0
        self.collections = 0
        self.process = env.process(self._run())

    def shares(self) -> array:
        return self._estimate[:]

    def share(self, domain_id: int) -> float:
        return self._estimate[domain_id]

    def _collect_once(self) -> None:
        """Drain all server counters and fold into the EWMA estimate."""
        observed = _drain_observed(self.servers, len(self._estimate))
        total = sum(observed)
        self.collections += 1
        if total == 0:
            return  # quiet interval: keep the previous estimate
        alpha = self.smoothing
        floor = 1e-9  # keep every share positive so weights stay defined

        def smoothed(olds, counts):
            return [
                max(floor, (1.0 - alpha) * old + alpha * (obs / total))
                for old, obs in zip(olds, counts)
            ]

        estimate = flat_map("d", smoothed, self._estimate, observed)
        norm = sum(estimate)
        self._estimate = flat_map(
            "d", lambda chunk: [share / norm for share in chunk], estimate
        )
        self.version += 1

    def _run(self):
        while True:
            yield self.env.timeout(self.interval)
            self._collect_once()

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["collections"] = self.collections
        state["estimate"] = list(self._estimate)
        return state

    def __repr__(self) -> str:
        return (
            f"<MeasuredEstimator K={len(self._estimate)} "
            f"interval={self.interval} collections={self.collections}>"
        )


class SlidingWindowEstimator(HiddenLoadEstimator):
    """Shares over a sliding window of collection intervals.

    Every ``interval`` seconds the per-domain hit counters are drained
    from the servers into a ring of the last ``window_intervals``
    observations; the estimate is the share of each domain within the
    window's total. Compared to the EWMA of
    :class:`MeasuredEstimator`, old traffic is forgotten sharply, which
    tracks non-stationary workloads faster (see the workload-dynamics
    benchmark) at the cost of noisier estimates.

    Parameters
    ----------
    env, servers, domain_count, interval:
        As for :class:`MeasuredEstimator`.
    window_intervals:
        Number of recent collection intervals the estimate covers.
    prior:
        Initial share estimate used until the first non-empty window;
        uniform when omitted.
    """

    def __init__(
        self,
        env,
        servers: Sequence[WebServer],
        domain_count: int,
        interval: float = 32.0,
        window_intervals: int = 8,
        prior: Optional[Sequence[float]] = None,
    ):
        if domain_count < 1:
            raise ConfigurationError(
                f"domain_count must be >= 1, got {domain_count!r}"
            )
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        if window_intervals < 1:
            raise ConfigurationError(
                f"window_intervals must be >= 1, got {window_intervals!r}"
            )
        self.env = env
        self.servers = list(servers)
        self.interval = float(interval)
        self.window_intervals = int(window_intervals)
        self._window: Deque[array] = deque(maxlen=self.window_intervals)
        # running sum over the window
        self._totals = array("q", [0]) * domain_count
        self._prior = _normalized_prior(prior, domain_count)
        self.version = 0
        self.collections = 0
        self._norm_cache = None
        self.process = env.process(self._run())

    def shares(self) -> array:
        window_total = sum(self._totals)
        if window_total == 0:
            return self._prior[:]
        floor = 1e-9

        def floored(counts):
            return [max(floor, count / window_total) for count in counts]

        raw = flat_map("d", floored, self._totals)
        norm = sum(raw)
        return flat_map("d", lambda chunk: [value / norm for value in chunk], raw)

    def share(self, domain_id: int) -> float:
        window_total, norm = self._normalizers()
        if window_total == 0:
            return self._prior[domain_id]
        floor = 1e-9
        return max(floor, self._totals[domain_id] / window_total) / norm

    def _normalizers(self) -> tuple:
        """Cached ``(window_total, norm)`` of the current version.

        Recomputed once per estimate version — exactly the arithmetic of
        :meth:`shares` — so :meth:`share` stays O(1) per decision while
        returning bit-equal values.
        """
        cached = self._norm_cache
        if cached is not None and cached[0] == self.version:
            return cached[1], cached[2]
        window_total = sum(self._totals)
        if window_total == 0:
            norm = 1.0
        else:
            floor = 1e-9
            norm = sum(
                max(floor, count / window_total) for count in self._totals
            )
        self._norm_cache = (self.version, window_total, norm)
        return window_total, norm

    def _collect_once(self) -> None:
        observed = array("q", _drain_observed(self.servers, len(self._totals)))
        self.collections += 1
        if len(self._window) == self._window.maxlen:
            oldest = self._window[0]
            for domain_id, hits in enumerate(oldest):
                self._totals[domain_id] -= hits
        self._window.append(observed)
        for domain_id, hits in enumerate(observed):
            self._totals[domain_id] += hits
        self.version += 1

    def _run(self):
        while True:
            yield self.env.timeout(self.interval)
            self._collect_once()

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["collections"] = self.collections
        state["window"] = [list(observed) for observed in self._window]
        state["totals"] = list(self._totals)
        return state

    def __repr__(self) -> str:
        return (
            f"<SlidingWindowEstimator K={len(self._totals)} "
            f"window={self.window_intervals}x{self.interval}s "
            f"collections={self.collections}>"
        )


def _normalized_prior(
    prior: Optional[Sequence[float]], domain_count: int
) -> array:
    """The initial estimate: ``prior`` normalized to sum 1, else uniform."""
    if prior is None:
        return array("d", [1.0 / domain_count]) * domain_count
    if len(prior) != domain_count:
        raise ConfigurationError(
            f"prior has {len(prior)} entries for {domain_count} domains"
        )
    total = float(sum(prior))
    if total <= 0:
        raise ConfigurationError("prior shares must have positive sum")
    return flat_map("d", lambda chunk: [float(p) / total for p in chunk], prior)


def _drain_observed(
    servers: Sequence[WebServer], domain_count: int
) -> List[int]:
    """Drain every server's per-domain hit counters into one list.

    A transient list: its untouched slots all point at the shared ``0``,
    so it costs the 8 bytes per domain of an ``array('q')``, and adding
    into a list item is about twice as fast as into an array item.
    """
    observed = [0] * domain_count
    for server in servers:
        for domain_id, hits in server.drain_domain_hits().items():
            observed[domain_id] += hits
    return observed
