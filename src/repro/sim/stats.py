"""Statistics collection for simulation outputs.

Provides the accumulators the experiment harness relies on:

* :class:`RunningStats` — numerically stable (Welford) moments of a
  sample stream.
* :class:`TimeWeightedStats` — time-integrated average of a piecewise
  constant signal (e.g. queue length, utilization between samples).
* :class:`EmpiricalCdf` — the paper's headline metric is the cumulative
  frequency of the per-interval maximum server utilization; this class
  turns a sample series into that curve.
* :func:`batch_means_ci` — confidence intervals for steady-state series
  with autocorrelation, via the classic batch-means method (the paper
  reports 95% intervals within 4% of the mean).
* :func:`t_interval` — the Student-t interval over independent values
  (batch means, replications, paired differences), with the critical
  value from :func:`t_critical`, computed here from the standard library.
"""

from __future__ import annotations

import bisect
import math
from statistics import NormalDist
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError


class RunningStats:
    """Streaming mean/variance/extremes via Welford's algorithm."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Running mean (requires at least one observation)."""
        if self.count == 0:
            raise SimulationError("no observations recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (requires >= 2 observations)."""
        if self.count < 2:
            raise SimulationError("variance needs at least two observations")
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Square root of :attr:`variance`."""
        return math.sqrt(self.variance)

    def snapshot_state(self) -> dict:
        """The full accumulator as JSON-safe data (for checkpoints).

        The infinite pre-first-observation extremes are mapped to
        ``None``: checkpoint digests reject non-finite floats, and with
        ``count == 0`` the extremes carry no information anyway.
        """
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "minimum": None if empty else self.minimum,
            "maximum": None if empty else self.maximum,
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "<RunningStats empty>"
        return f"<RunningStats n={self.count} mean={self._mean:.6g}>"


class TimeWeightedStats:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the previous value is
    weighted by the elapsed simulated time.
    """

    __slots__ = ("_last_time", "_last_value", "_area", "_start", "maximum")

    def __init__(self, initial_time: float = 0.0, initial_value: float = 0.0):
        self._start = float(initial_time)
        self._last_time = float(initial_time)
        self._last_value = float(initial_value)
        self._area = 0.0
        self.maximum = float(initial_value)

    def update(self, now: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``now`` on."""
        if now < self._last_time:
            raise SimulationError(
                f"time went backwards: {now!r} < {self._last_time!r}"
            )
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = float(value)
        if value > self.maximum:
            self.maximum = float(value)

    def mean(self, now: float) -> float:
        """Time-average of the signal over ``[start, now]``."""
        if now < self._last_time:
            raise SimulationError(
                f"time went backwards: {now!r} < {self._last_time!r}"
            )
        elapsed = now - self._start
        if elapsed <= 0:
            return self._last_value
        area = self._area + self._last_value * (now - self._last_time)
        return area / elapsed


class EmpiricalCdf:
    """Empirical cumulative distribution of a finite sample."""

    def __init__(self, samples: Sequence[float]):
        if not samples:
            raise SimulationError("cannot build a CDF from zero samples")
        self._sorted: List[float] = sorted(samples)
        self._n = len(self._sorted)

    @property
    def sample_count(self) -> int:
        """Number of samples backing the CDF."""
        return self._n

    def probability_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``.

        For the paper's metric this is ``Prob(MaxUtilization < x)``.
        """
        return bisect.bisect_left(self._sorted, threshold) / self._n

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q!r}")
        if q == 1.0:
            return self._sorted[-1]
        return self._sorted[int(q * self._n)]

    def evaluate(self, grid: Sequence[float]) -> List[Tuple[float, float]]:
        """CDF values at each point of ``grid`` as ``(x, P(X < x))``."""
        return [(x, self.probability_below(x)) for x in grid]

    def __repr__(self) -> str:
        return (
            f"<EmpiricalCdf n={self._n} min={self._sorted[0]:.4g} "
            f"max={self._sorted[-1]:.4g}>"
        )


_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta ``I_x(a, b)`` (modified Lentz).

    ``I_x(a, b) = x**a * (1 - x)**b / (a * B(a, b)) * _beta_fraction(a, b, x)``;
    it converges quickly for ``x < (a + 1) / (a + b + 2)``.
    """
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value: ``P(|T_dof| <= t) = confidence``.

    Closed forms for 1 and 2 degrees of freedom. Otherwise the start is
    the Cornish-Fisher expansion around the normal quantile (Abramowitz &
    Stegun 26.7.5, four terms), which alone is within 1e-13 relative
    beyond 1000 degrees of freedom. Up to 1000 it is refined by Newton
    steps on the upper tail ``I_{dof/(dof+t^2)}(dof/2, 1/2) / 2``, whose
    incomplete beta comes from :func:`_beta_fraction` and ``math.lgamma``.
    Against a reference quantile function the result is within 1e-11
    relative for confidence 0.5-0.999 and any dof (cross-checked in the
    unit tests); only the standard library is used.
    """
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must be in (0, 1), got {confidence!r}")
    if dof < 1:
        raise SimulationError(f"degrees of freedom must be >= 1, got {dof!r}")
    p = (1.0 - confidence) / 2.0  # upper-tail probability
    if dof == 1:
        return 1.0 / math.tan(math.pi * p)
    if dof == 2:
        return confidence * math.sqrt(2.0 / ((1.0 - confidence) * (1.0 + confidence)))
    nu = float(dof)
    z = NormalDist().inv_cdf(1.0 - p)
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
    g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
    g4 = z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
    t = z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu
    if dof > 1000 or t == 0.0:  # t == 0 only once confidence rounds away
        return t
    a = nu / 2.0
    log_norm = math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(math.pi)
    for _ in range(10):
        t2 = t * t
        x, y = nu / (nu + t2), t2 / (nu + t2)
        front = math.exp(log_norm - a * math.log1p(t2 / nu) + 0.5 * math.log(y))
        if x < (a + 1.0) / (a + 2.5):
            tail = 0.5 * front * _beta_fraction(a, 0.5, x) / a
        else:  # I_x(a, b) = 1 - I_y(b, a)
            tail = 0.5 - front * _beta_fraction(0.5, a, y)
        density = math.exp(log_norm - (a + 0.5) * math.log1p(t2 / nu)) / math.sqrt(nu)
        step = (tail - p) / density
        t += step
        if abs(step) <= 1e-14 * t:
            break
    return t


def t_interval(values: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Mean and Student-t half-width ``t_critical(confidence, n - 1) * s / sqrt(n)``.

    For independent, approximately normal ``values``: batch means,
    replications, paired differences. Needs at least two values.
    """
    n = len(values)
    if n < 2:
        raise SimulationError(f"a t interval needs at least two values, got {n}")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, t_critical(confidence, n - 1) * math.sqrt(variance / n)


def batch_means_ci(
    samples: Sequence[float],
    batches: int = 20,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Mean and confidence-interval half-width via batch means.

    The sample series is split into ``batches`` contiguous batches; the
    batch means are (approximately) independent, so a Student-t interval
    over them is valid even when consecutive samples are autocorrelated —
    exactly the situation for per-interval utilization samples from one
    long run.

    Returns
    -------
    (mean, half_width):
        Point estimate and 95% (by default) half-width. ``half_width`` is
        0 when the series is too short to batch.

    Raises :class:`SimulationError` for no samples, fewer than two
    batches, or a ``confidence`` outside (0, 1).
    """
    n = len(samples)
    if n == 0:
        raise SimulationError("cannot form a confidence interval from no samples")
    if batches < 2:
        raise SimulationError(f"batch means need at least two batches, got {batches!r}")
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must be in (0, 1), got {confidence!r}")
    mean = sum(samples) / n
    if n < 2 * batches:
        return mean, 0.0
    batch_size = n // batches
    usable = batch_size * batches
    means = [
        sum(samples[i : i + batch_size]) / batch_size
        for i in range(0, usable, batch_size)
    ]
    return mean, t_interval(means, confidence)[1]


def relative_ci_width(samples: Sequence[float], **kwargs) -> Optional[float]:
    """Half-width of the batch-means CI relative to the mean.

    Returns ``None`` when the mean is zero (the ratio is undefined).
    """
    mean, half = batch_means_ci(samples, **kwargs)
    if mean == 0:
        return None
    return half / abs(mean)
