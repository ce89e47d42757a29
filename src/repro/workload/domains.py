"""Client domains and their popularity distribution.

The paper partitions clients among ``K`` domains by a *pure Zipf*
distribution: the probability that a client belongs to the i-th most
popular domain is proportional to ``1/i`` (an analysis of academic and
commercial sites found ~75% of requests coming from 10% of domains).
:class:`DomainSet` captures the domain shares, derives the quantities the
schedulers need (relative hidden-load weights, hot/normal classes) and
implements the workload perturbation used by the estimation-error
experiments (Figs. 6-7).

Scale
-----
The explicit :class:`DomainSet` stores one Python float per domain — the
right representation up to a few tens of thousands of domains, and the
one every paper-scale experiment uses. Million-domain workloads (the
regime where TTL/K policies get interesting) instead use the lazy
subclasses :class:`LazyZipfDomainSet` / :class:`LazyUniformDomainSet`,
which compute ``share(j)`` on demand — bit-identical to the explicit
values — and stream derived quantities (client counts, cumulative
sampling) so no ``K``-element Python list is ever allocated on the hot
path. :meth:`SimulationConfig.build_domains
<repro.experiments.config.SimulationConfig.build_domains>` switches
representation at :data:`LAZY_DOMAIN_THRESHOLD`.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from array import array
from typing import Iterator, List, Sequence

from ..errors import ConfigurationError
from ..sim.distributions import zipf_weights

#: Domain counts at or above this use the lazy share representation when
#: built from a :class:`~repro.experiments.config.SimulationConfig`.
#: Below it, the explicit list-backed set is faster and every historical
#: trajectory is pinned to it.
LAZY_DOMAIN_THRESHOLD = 100_000


def _largest_remainder_counts(
    shares_factory, domain_count: int, total_clients: int
) -> Iterator[int]:
    """Stream integer client counts per domain (largest-remainder).

    ``shares_factory`` must return a fresh iterator over the (normalized)
    shares on each call; the algorithm makes a bounded number of passes
    over it and keeps only ``O(total_clients)``-bounded working state, so
    a million-domain set never materializes a ``K``-element list here.

    Contract (see :meth:`DomainSet.client_counts`): counts sum exactly to
    ``total_clients``; among equal fractional remainders the
    lower-indexed (more popular) domain wins; and a domain whose exact
    share is at least 0.5 client is never rounded to zero while any
    other domain holds a grant above its own exact share — the
    *starvation repair* pass below. Repair only triggers when plain
    largest-remainder rounding starved such a domain (only possible when
    ``domain_count`` is of the order of ``total_clients`` or larger), so
    every paper-scale configuration reproduces the historical counts
    bit-for-bit.
    """
    # Pass 1: floors and the remainder to distribute.
    floor_sum = 0
    for share in shares_factory():
        floor_sum += int(share * total_clients)
    remainder = total_clients - floor_sum

    # Pass 2: the `remainder` largest fractional parts win one extra
    # client each. A capped min-heap keyed (fraction, -index) selects
    # exactly the set `sorted(..., key=fraction, reverse=True)[:r]`
    # would (stable sort: equal fractions resolve to the lower index).
    winners = frozenset()
    if remainder > 0:
        heap: List = []
        push, replace = heapq.heappush, heapq.heapreplace
        for j, share in enumerate(shares_factory()):
            x = share * total_clients
            key = (x - int(x), -j)
            if len(heap) < remainder:
                push(heap, key)
            elif key > heap[0]:
                replace(heap, key)
        winners = frozenset(-neg_j for _, neg_j in heap)

    # Pass 3: find starved domains (exact share >= 0.5 client, count 0).
    # At most 2 * total_clients domains can have exact >= 0.5 (the exact
    # shares sum to total_clients), so this list is client-bounded.
    starved: List = []
    for j, share in enumerate(shares_factory()):
        exact = share * total_clients
        if exact >= 0.5 and int(exact) == 0 and j not in winners:
            starved.append((-exact, j))
    adjust = {}
    if starved:
        starved.sort()  # most deserving (largest exact share) first
        # Pass 3b: donor candidates — domains that can give a client up
        # without being starved themselves, keyed by how far above their
        # exact share the rounding put them. One donation per collected
        # donor is always legal, so capping at len(starved) suffices.
        donors: List = []
        cap = len(starved)
        for j, share in enumerate(shares_factory()):
            exact = share * total_clients
            count = int(exact) + (j in winners)
            if count >= 2 or (count == 1 and exact < 0.5):
                key = (count - exact, -j)
                if len(donors) < cap:
                    heapq.heappush(donors, (key, j, count, exact))
                elif key > donors[0][0]:
                    heapq.heapreplace(donors, (key, j, count, exact))
        # Re-key as a max-heap (largest surplus first, then lowest
        # index) and serve the starved in order. A donor may donate
        # again (count permitting) once everyone else with a larger
        # surplus has donated.
        pool = [
            (-surplus, j, count, exact)
            for (surplus, _), j, count, exact in donors
        ]
        heapq.heapify(pool)
        for _, starved_j in starved:
            if not pool:
                break  # infeasible: more >=0.5 domains than grantable clients
            neg_surplus, j, count, exact = heapq.heappop(pool)
            adjust[starved_j] = adjust.get(starved_j, 0) + 1
            adjust[j] = adjust.get(j, 0) - 1
            count -= 1
            if count >= 2 or (count == 1 and exact < 0.5):
                heapq.heappush(pool, (neg_surplus + 1.0, j, count, exact))

    # Final pass: emit the counts.
    if adjust:
        for j, share in enumerate(shares_factory()):
            yield int(share * total_clients) + (j in winners) + adjust.get(j, 0)
    else:
        for j, share in enumerate(shares_factory()):
            yield int(share * total_clients) + (j in winners)


class DomainSet:
    """A set of client domains with normalized popularity shares.

    Parameters
    ----------
    shares:
        Fraction of the client population in each domain; must be positive
        and sum to 1 (within floating-point tolerance). Domains are indexed
        ``0..K-1`` in *descending* popularity.
    """

    def __init__(self, shares: Sequence[float]):
        values = [float(s) for s in shares]
        if not values:
            raise ConfigurationError("a domain set needs at least one domain")
        if any(s <= 0 for s in values):
            raise ConfigurationError("domain shares must be positive")
        total = sum(values)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"domain shares must sum to 1, got {total!r}")
        self.shares: List[float] = values
        self._cumulative: List[float] = []

    # -- constructors ------------------------------------------------------

    @classmethod
    def pure_zipf(cls, domain_count: int, exponent: float = 1.0) -> "DomainSet":
        """The paper's client partition: shares proportional to 1/rank."""
        return cls(zipf_weights(domain_count, exponent))

    @classmethod
    def uniform(cls, domain_count: int) -> "DomainSet":
        """Equal shares — the hypothesis under which plain RR works and
        which defines the paper's *Ideal* envelope curve."""
        if domain_count < 1:
            raise ConfigurationError(
                f"domain_count must be >= 1, got {domain_count!r}"
            )
        return cls([1.0 / domain_count] * domain_count)

    # -- share access ------------------------------------------------------

    def share(self, domain_id: int) -> float:
        """Popularity share of one domain (O(1))."""
        return self.shares[domain_id]

    def iter_shares(self) -> Iterator[float]:
        """Iterate shares in domain order without copying."""
        return iter(self.shares)

    # -- derived quantities --------------------------------------------------

    @property
    def domain_count(self) -> int:
        return len(self.shares)

    @property
    def relative_weights(self) -> List[float]:
        """Hidden-load weights relative to the most popular domain.

        ``w_j = lambda_j / lambda_max`` — the ratio the TTL/K formula uses
        (``TTL_j = TTL_min * lambda_max / lambda_j``).
        """
        peak = max(self.shares)
        return [share / peak for share in self.shares]

    def hottest_domain(self) -> int:
        """Index of the most popular domain.

        Ties resolve to the lowest index (``max`` keeps the first
        maximum), so a perturbation applied to a flat region of the
        distribution is deterministic.
        """
        return max(range(len(self.shares)), key=lambda j: self.shares[j])

    def client_counts(self, total_clients: int) -> List[int]:
        """Integer client counts per domain by largest-remainder rounding.

        Guarantees the counts sum exactly to ``total_clients``, and that
        rounding never starves a domain whose exact share is >= 0.5
        client while any other domain holds more clients than its own
        exact share justifies (a repair pass demotes the largest
        over-allocations; with more such >= 0.5 domains than clients the
        largest exact shares win). Zero-count domains otherwise distort
        the hidden-load weights the schedulers see, so the guarantee is
        load-bearing for large-``K``/small-population configurations.
        """
        return list(self.iter_client_counts(total_clients))

    def iter_client_counts(self, total_clients: int) -> Iterator[int]:
        """Stream :meth:`client_counts` without materializing a list."""
        if total_clients < 1:
            raise ConfigurationError(
                f"total_clients must be >= 1, got {total_clients!r}"
            )
        return _largest_remainder_counts(
            self.iter_shares, self.domain_count, total_clients
        )

    def sample_domain(self, u: float) -> int:
        """Map a uniform variate ``u`` in [0, 1) to a domain index.

        Inverse-CDF sampling used by the trace-driven workload source to
        attribute arrivals to domains with the configured popularity.
        The cumulative table is built once on first use.
        """
        if not self._cumulative:
            self._cumulative = list(itertools.accumulate(self.shares))
            self._cumulative[-1] = 1.0  # guard against float drift
        index = bisect.bisect_right(self._cumulative, u)
        return min(index, len(self.shares) - 1)

    # -- perturbation (Figs. 6-7) ---------------------------------------------

    def perturb_hottest(self, error: float) -> "DomainSet":
        """Increase the busiest domain's share by ``error`` (e.g. 0.3 = 30%).

        Paper, Section 5.2: "the request rate of the busiest domain is
        increased by e% and the request rates of the other domains are
        proportionally decreased to maintain the same total request rate.
        This effectively increases the skew of the client rate
        distribution, hence represents a worst case."

        The rebuilt shares are explicitly renormalized: the analytic
        rescale contracts any unit-sum drift inherited from the input,
        but the ``K`` multiplications each round, and at large ``K`` the
        accumulated error could otherwise approach the constructor's
        ``1e-9`` tolerance and reject a perfectly valid perturbation.
        """
        if error < 0:
            raise ConfigurationError(f"error must be >= 0, got {error!r}")
        if error == 0:
            return DomainSet(self.shares)
        if self.domain_count == 1:
            raise ConfigurationError("cannot perturb a single-domain set")
        hot = self.hottest_domain()
        hot_share = self.share(hot)
        new_hot_share = hot_share * (1.0 + error)
        if new_hot_share >= 1.0:
            raise ConfigurationError(
                f"perturbation {error!r} would give the hottest domain "
                f"share {new_hot_share!r} >= 1"
            )
        scale = (1.0 - new_hot_share) / (1.0 - hot_share)
        shares = [share * scale for share in self.iter_shares()]
        shares[hot] = new_hot_share
        total = sum(shares)
        if total != 1.0:
            shares = [share / total for share in shares]
        return DomainSet(shares)

    def __len__(self) -> int:
        return self.domain_count

    def __iter__(self):
        return self.iter_shares()

    def __repr__(self) -> str:
        return f"<DomainSet K={self.domain_count} top={max(self.shares):.3f}>"


class LazyDomainSet(DomainSet):
    """Base for domain sets that compute shares on demand.

    Subclasses define :meth:`share` / :meth:`iter_shares` analytically
    and never store a per-domain list; the :attr:`shares` *property*
    materializes one (O(K) — for interop and small-scale tests only).
    Every computed value is bit-identical to the explicit representation
    of the same distribution, so swapping representations can never
    change a trajectory — the domain-set property suite pins this.
    """

    def __init__(self, domain_count: int):
        if domain_count < 1:
            raise ConfigurationError(
                f"domain_count must be >= 1, got {domain_count!r}"
            )
        self._count = int(domain_count)

    @classmethod
    def pure_zipf(cls, domain_count: int, exponent: float = 1.0) -> "DomainSet":
        """Lazy counterpart of :meth:`DomainSet.pure_zipf`."""
        return LazyZipfDomainSet(domain_count, exponent)

    @classmethod
    def uniform(cls, domain_count: int) -> "DomainSet":
        """Lazy counterpart of :meth:`DomainSet.uniform`."""
        return LazyUniformDomainSet(domain_count)

    @property
    def shares(self) -> List[float]:  # type: ignore[override]
        """Materialized share list (O(K); prefer :meth:`iter_shares`)."""
        return list(self.iter_shares())

    @property
    def domain_count(self) -> int:
        return self._count

    def share(self, domain_id: int) -> float:
        raise NotImplementedError

    def iter_shares(self) -> Iterator[float]:
        return (self.share(j) for j in range(self._count))

    def client_counts(self, total_clients: int) -> Sequence[int]:
        """Counts as a compact typed array (values match the base class)."""
        return array("q", self.iter_client_counts(total_clients))


class LazyZipfDomainSet(LazyDomainSet):
    """Pure-Zipf shares computed on demand (million-domain scale).

    ``share(j)`` reproduces ``zipf_weights(K, exponent)[j]`` bit-for-bit:
    the same raw weight expression divided by the same total, summed in
    the same rank order.
    """

    def __init__(self, domain_count: int, exponent: float = 1.0):
        super().__init__(domain_count)
        if exponent < 0:
            raise ConfigurationError(
                f"exponent must be >= 0, got {exponent!r}"
            )
        self.exponent = float(exponent)
        # Identical additions in identical order to `sum(raw)` inside
        # zipf_weights, so every derived share matches it bitwise.
        self._total = sum(
            1.0 / (rank**self.exponent)
            for rank in range(1, self._count + 1)
        )
        #: Block size of the cumulative-share checkpoints backing
        #: :meth:`sample_domain` (built lazily; K/64 doubles).
        self._block = 64
        self._block_cumulative: array = array("d")

    def share(self, domain_id: int) -> float:
        if not 0 <= domain_id < self._count:
            raise IndexError(domain_id)
        return (1.0 / ((domain_id + 1) ** self.exponent)) / self._total

    def iter_shares(self) -> Iterator[float]:
        total = self._total
        exponent = self.exponent
        return (
            (1.0 / (rank**exponent)) / total
            for rank in range(1, self._count + 1)
        )

    def hottest_domain(self) -> int:
        """Rank 0: Zipf shares are strictly descending."""
        return 0

    def sample_domain(self, u: float) -> int:
        """Inverse-CDF sample via block checkpoints + a short walk.

        Memory is ``K / block`` doubles instead of a ``K``-list; each
        sample costs one bisect plus at most ``block`` share
        evaluations, computed inline with :meth:`share`'s expression
        (the walk's indices are in range by construction).
        """
        blocks = self._block_cumulative
        if not blocks:
            running = 0.0
            block = self._block
            for j, share in enumerate(self.iter_shares()):
                running += share
                if (j + 1) % block == 0:
                    blocks.append(running)
        block = self._block
        b = bisect.bisect_right(blocks, u)
        j = b * block
        running = blocks[b - 1] if b else 0.0
        last = self._count - 1
        exponent = self.exponent
        total = self._total
        while j < last:
            running += (1.0 / ((j + 1) ** exponent)) / total
            if u < running:
                return j
            j += 1
        return last

    def __repr__(self) -> str:
        return (
            f"<LazyZipfDomainSet K={self._count} "
            f"exponent={self.exponent:g}>"
        )


class LazyUniformDomainSet(LazyDomainSet):
    """Equal shares computed on demand (million-domain scale)."""

    def __init__(self, domain_count: int):
        super().__init__(domain_count)
        self._share = 1.0 / self._count

    def share(self, domain_id: int) -> float:
        if not 0 <= domain_id < self._count:
            raise IndexError(domain_id)
        return self._share

    def iter_shares(self) -> Iterator[float]:
        return itertools.repeat(self._share, self._count)

    def hottest_domain(self) -> int:
        """Ties resolve to the lowest index, exactly as the base class."""
        return 0

    def sample_domain(self, u: float) -> int:
        index = int(u * self._count)
        return min(index, self._count - 1)

    def __repr__(self) -> str:
        return f"<LazyUniformDomainSet K={self._count}>"
