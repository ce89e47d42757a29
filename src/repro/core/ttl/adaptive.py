"""The adaptive TTL policies — the paper's contribution (Section 3).

One configurable class covers the whole family:

* ``TTL/i`` (probabilistic schemes, Sec. 3.1): the TTL depends only on
  the requesting domain's class —
  ``TTL_j = scale / W_{class(j)}`` (for i = K this is the paper's
  ``TTL_j = (lambda_max / lambda_j) * TTL_min``).
* ``TTL/S_i`` (deterministic schemes, Sec. 3.2): additionally
  proportional to the chosen server's relative capacity —
  ``TTL_{i,j} = scale * alpha_i / W_{class(j)}`` (the paper's power-ratio
  factor ``rho`` is absorbed into the calibrated ``scale``).

The intent: make the hidden load unleashed by one mapping consume the
same *fraction of server capacity* regardless of which domain asked and
which server was chosen. A hot domain gets a short TTL (its requests are
re-spread quickly); a slow server gets a short TTL (it holds the hidden
load for less time).

``scale`` is recomputed (lazily, per estimator version) by the
calibration rule of :mod:`repro.core.ttl.calibration`, so every policy
produces the same average address-request rate as the 240 s constant
TTL — the paper's fairness condition.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from ...errors import ConfigurationError
from ..classes import DomainClassifier
from ..flat import flat_map
from ..state import SchedulerState
from .base import TtlPolicy
from .calibration import calibrated_scale, reference_request_rate


class AdaptiveTtlPolicy(TtlPolicy):
    """Domain- and (optionally) server-adaptive TTL assignment.

    Parameters
    ----------
    state:
        Shared scheduler state (capacities, estimator).
    classifier:
        Domain classifier defining the TTL tiers (1, 2, ..., K classes).
    scale_by_capacity:
        ``True`` for the deterministic TTL/S_i family, ``False`` for the
        probabilistic TTL/i family.
    selection_probabilities:
        The scheduler's stationary per-server selection probabilities,
        used only for calibration (uniform for DRR*, capacity-biased for
        PRR*).
    constant_ttl:
        The reference constant TTL whose address-request rate is matched
        (Table 1: 240 s).
    ttl_floor:
        Optional hard lower bound applied after the adaptive computation
        (0 = none). This models a DNS operator refusing to emit tiny
        TTLs; NS-side clamping is modelled separately.
    """

    def __init__(
        self,
        state: SchedulerState,
        classifier: DomainClassifier,
        scale_by_capacity: bool,
        selection_probabilities: Sequence[float],
        constant_ttl: float = 240.0,
        ttl_floor: float = 0.0,
    ):
        if len(selection_probabilities) != state.server_count:
            raise ConfigurationError(
                "selection_probabilities must have one entry per server"
            )
        if ttl_floor < 0:
            raise ConfigurationError(f"ttl_floor must be >= 0, got {ttl_floor!r}")
        self.state = state
        self.classifier = classifier
        self.scale_by_capacity = bool(scale_by_capacity)
        self.selection_probabilities = [float(p) for p in selection_probabilities]
        self.constant_ttl = float(constant_ttl)
        self.ttl_floor = float(ttl_floor)
        self._server_factors: List[float] = (
            list(state.relative_capacities)
            if self.scale_by_capacity
            else [1.0] * state.server_count
        )
        self._cached_version: Optional[int] = None
        self._cached: Optional[Tuple[Sequence[int], array, float]] = None
        tiers = "S_" if self.scale_by_capacity else ""
        self.name = f"TTL/{tiers}i"

    # -- calibration -------------------------------------------------------

    def _current(self) -> Tuple[Sequence[int], array, float]:
        """(class_of, class_weights, scale) for the current estimates."""
        version = self.state.estimator.version
        if self._cached is None or self._cached_version != version:
            class_of, class_weights = self.classifier.classification()
            if isinstance(class_of, range):
                # One class per domain: W_{class(j)} is class_weights[j].
                domain_weights = class_weights
            else:
                domain_weights = flat_map(
                    "d", lambda chunk: [class_weights[c] for c in chunk], class_of
                )
            reference = reference_request_rate(len(class_of), self.constant_ttl)
            scale = calibrated_scale(
                domain_weights,
                self._server_factors,
                self.selection_probabilities,
                reference,
            )
            self._cached = (class_of, class_weights, scale)
            self._cached_version = version
        return self._cached

    @property
    def scale(self) -> float:
        """The calibrated base TTL scale (seconds)."""
        return self._current()[2]

    def ttl_table(self) -> List[List[float]]:
        """Full ``[server][domain]`` TTL matrix (diagnostics/tests)."""
        class_of, class_weights, scale = self._current()
        return [
            [
                max(self.ttl_floor, scale * factor / class_weights[class_of[j]])
                for j in range(len(class_of))
            ]
            for factor in self._server_factors
        ]

    # -- TtlPolicy ----------------------------------------------------------

    def ttl_for(self, domain_id: int, server_id: int, now: float) -> float:
        class_of, class_weights, scale = self._current()
        ttl = (
            scale
            * self._server_factors[server_id]
            / class_weights[class_of[domain_id]]
        )
        return ttl if ttl >= self.ttl_floor else self.ttl_floor

    def __repr__(self) -> str:
        kind = "TTL/S" if self.scale_by_capacity else "TTL"
        return (
            f"<AdaptiveTtlPolicy {kind} classes={self.classifier.class_count} "
            f"scale={self.scale:.2f}s>"
        )
