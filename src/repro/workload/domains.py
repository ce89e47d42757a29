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
:class:`DomainSet` keeps its shares in one ``array('d')``: 8 bytes per
domain, against 32 for a list of Python floats. The paper's 20 domains
and the million-domain workloads where TTL/K policies get interesting
use the same representation, so no domain count can change which code a
run takes. Derived quantities are streamed (client counts) or kept as
arrays too (the cumulative table behind :meth:`DomainSet.sample_domain`),
so no ``K``-element Python list is built on any run path.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from array import array
from operator import mul, truediv
from typing import Iterable, Iterator, List

from ..errors import ConfigurationError
from ..sim.distributions import zipf_weights


def _largest_remainder_counts(
    shares: array, total_clients: int
) -> Iterator[int]:
    """Stream integer client counts per domain (largest-remainder).

    The algorithm makes a bounded number of passes over the (normalized)
    ``shares`` and keeps only ``O(total_clients)``-bounded working
    state, so a million-domain set never materializes a ``K``-element
    list here.

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
    for share in shares:
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
        for j, share in enumerate(shares):
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
    for j, share in enumerate(shares):
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
        for j, share in enumerate(shares):
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
        for j, share in enumerate(shares):
            yield int(share * total_clients) + (j in winners) + adjust.get(j, 0)
    else:
        for j, share in enumerate(shares):
            yield int(share * total_clients) + (j in winners)


class DomainSet:
    """A set of client domains with normalized popularity shares.

    Parameters
    ----------
    shares:
        Fraction of the client population in each domain; must be
        finite, positive and sum to 1 (within floating-point tolerance).
        Domains are indexed ``0..K-1`` in *descending* popularity. The
        values are copied into one ``array('d')``, exposed as
        :attr:`shares`.
    """

    def __init__(self, shares: Iterable[float]):
        values = array("d", shares)
        if not values:
            raise ConfigurationError("a domain set needs at least one domain")
        # Any NaN or infinity makes the sum non-finite, so this one
        # check covers every share; ``min`` alone could miss a NaN.
        total = sum(values)
        if not math.isfinite(total):
            raise ConfigurationError("domain shares must be finite")
        if min(values) <= 0:
            raise ConfigurationError("domain shares must be positive")
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"domain shares must sum to 1, got {total!r}")
        self.shares: array = values
        self._cumulative: array = array("d")

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
        return cls(array("d", [1.0 / domain_count]) * domain_count)

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

        Ties resolve to the lowest index (``index`` finds the first
        maximum), so a perturbation applied to a flat region of the
        distribution is deterministic.
        """
        return self.shares.index(max(self.shares))

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
        return _largest_remainder_counts(self.shares, total_clients)

    def sample_domain(self, u: float) -> int:
        """Map a uniform variate ``u`` in [0, 1) to a domain index.

        Inverse-CDF sampling used by the trace-driven workload source to
        attribute arrivals to domains with the configured popularity.
        The cumulative table (one ``array('d')``) is built once on first
        use; each sample is one bisect over it.
        """
        if not self._cumulative:
            self._cumulative = array("d", itertools.accumulate(self.shares))
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
        shares = array("d", map(mul, self.shares, itertools.repeat(scale)))
        shares[hot] = new_hot_share
        total = sum(shares)
        if total != 1.0:
            shares = array("d", map(truediv, shares, itertools.repeat(total)))
        return DomainSet(shares)

    def __len__(self) -> int:
        return self.domain_count

    def __iter__(self):
        return self.iter_shares()

    def __repr__(self) -> str:
        return f"<DomainSet K={self.domain_count} top={max(self.shares):.3f}>"
