"""Domain classification — the "i classes" of the TTL/i meta-algorithm.

The paper's policies partition the connected domains into classes by
hidden load weight:

* 1 class — degenerate (constant TTL, or server-capacity-only TTL/S_1);
* 2 classes — *hot* vs *normal* domains, split at the class threshold
  ``gamma`` (Table 1: ``gamma = 1/K``, i.e. domains holding more than an
  average share are hot); this is also how RR2 partitions domains;
* i classes — generalization used by the tier-count ablation;
* K classes — one class per domain (the TTL/K and TTL/S_K policies).

A classification is a pair ``(class_of, class_weights)`` where
``class_of[j]`` is the class index of domain ``j`` (0 = hottest class)
and ``class_weights[c]`` is the class's weight relative to the most
popular domain — the quantity TTL formulas divide by.

Both halves are flat: ``class_of`` is ``range(K)`` for one class per
domain and a compact unsigned-integer ``array`` otherwise, and
``class_weights`` is an ``array('d')``. The per-domain arrays are built
by :func:`~repro.core.flat.flat_map` with the list code's expressions,
so classifications are bit-identical to the list version while holding
1–8 bytes per domain instead of a list's 32–36.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .estimator import HiddenLoadEstimator
from .flat import flat_map

Classification = Tuple[Sequence[int], array]


def _relative_class_weights(
    shares: Sequence[float], class_of: Sequence[int], class_count: int
) -> array:
    """Mean share of each class, normalized by the peak domain share."""
    peak = max(shares)
    sums = [0.0] * class_count
    counts = [0] * class_count
    for share, cls in zip(shares, class_of):
        sums[cls] += share
        counts[cls] += 1
    weights = []
    for c in range(class_count):
        if counts[c] == 0:
            # An empty class can only arise transiently with a measured
            # estimator; give it the lightest possible weight.
            weights.append(min(shares) / peak)
        else:
            weights.append((sums[c] / counts[c]) / peak)
    return array("d", weights)


class DomainClassifier:
    """Base class; subclasses implement :meth:`classify_shares`."""

    def __init__(self, estimator: HiddenLoadEstimator):
        self.estimator = estimator
        self._cached_version: Optional[int] = None
        self._cached: Optional[Classification] = None

    def classify_shares(self, shares: Sequence[float]) -> Classification:
        """Classify the given (normalized) domain shares."""
        raise NotImplementedError

    def classification(self) -> Classification:
        """Current classification, cached per estimator version."""
        version = self.estimator.version
        if self._cached is None or self._cached_version != version:
            self._cached = self.classify_shares(self.estimator.shares())
            self._cached_version = version
        return self._cached

    def class_of(self, domain_id: int) -> int:
        return self.classification()[0][domain_id]

    def class_weight(self, class_id: int) -> float:
        return self.classification()[1][class_id]

    @property
    def class_count(self) -> int:
        return len(self.classification()[1])


class SingleClassClassifier(DomainClassifier):
    """Everything in one class with weight 1 (no domain adaptation).

    Used by the degenerate TTL/1 and TTL/S_1 policies: the TTL must not
    depend on the requesting domain at all, so the class weight is pinned
    to 1 rather than to any average.
    """

    def classify_shares(self, shares: Sequence[float]) -> Classification:
        return array("B", [0]) * len(shares), array("d", [1.0])


class TwoClassClassifier(DomainClassifier):
    """Hot/normal split at the class threshold ``gamma`` (paper default 1/K).

    A domain is *hot* when its share of the total request rate exceeds
    ``gamma``. Class 0 is hot, class 1 is normal.
    """

    def __init__(
        self, estimator: HiddenLoadEstimator, threshold: Optional[float] = None
    ):
        super().__init__(estimator)
        if threshold is not None and threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold!r}")
        self.threshold = threshold

    def classify_shares(self, shares: Sequence[float]) -> Classification:
        gamma = self.threshold if self.threshold is not None else 1.0 / len(shares)
        class_of = flat_map(
            "B",
            lambda chunk: [0 if share > gamma else 1 for share in chunk],
            shares,
        )
        if 0 not in class_of:
            # Degenerate uniform workload: hottest domain forms the hot class
            # so the two-tier machinery stays well-defined.
            class_of[max(range(len(shares)), key=lambda j: shares[j])] = 0
        return class_of, _relative_class_weights(shares, class_of, 2)


class LoadQuantileClassifier(DomainClassifier):
    """``tier_count`` classes of (approximately) equal aggregate load.

    Domains are sorted by descending share and greedily packed so each
    tier carries ~``1/tier_count`` of the total request rate. For
    ``tier_count = 2`` under a Zipf workload this closely matches the
    hot/normal split; for larger counts it generalizes TTL/i.
    """

    def __init__(self, estimator: HiddenLoadEstimator, tier_count: int):
        super().__init__(estimator)
        if tier_count < 1:
            raise ConfigurationError(f"tier_count must be >= 1, got {tier_count!r}")
        self.tier_count = tier_count

    def classify_shares(self, shares: Sequence[float]) -> Classification:
        count = len(shares)
        tiers = min(self.tier_count, count)
        order = sorted(range(count), key=lambda j: shares[j], reverse=True)
        class_of = array("B" if tiers <= 0x100 else "I", [0]) * count
        target = 1.0 / tiers
        tier, accumulated = 0, 0.0
        remaining = count
        for position, j in enumerate(order):
            class_of[j] = tier
            accumulated += shares[j]
            remaining -= 1
            # Advance to the next tier once this one holds its share of the
            # load, but never leave fewer domains than tiers still to fill.
            if (
                tier < tiers - 1
                and accumulated >= target * (tier + 1)
                and remaining >= tiers - tier - 1
            ):
                tier += 1
        return class_of, _relative_class_weights(shares, class_of, tiers)


class PerDomainClassifier(DomainClassifier):
    """One class per domain — the TTL/K and TTL/S_K policies.

    ``class_of`` is ``range(K)`` and the weights are one ``array('d')``
    of ``share / peak``: 8 bytes per domain for the whole classification.
    """

    def classify_shares(self, shares: Sequence[float]) -> Classification:
        peak = max(shares)
        weights = flat_map(
            "d", lambda chunk: [share / peak for share in chunk], shares
        )
        return range(len(shares)), weights
