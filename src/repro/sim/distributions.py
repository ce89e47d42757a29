"""Random-variate distributions used by the workload model.

Each distribution is a small immutable object with a ``sample(rng)``
method drawing one variate from a supplied :class:`random.Random` and a
``mean`` property used for load calculations and calibration. Keeping the
generator external lets one distribution object be shared across streams.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from array import array
from operator import truediv
from typing import Callable, List, Sequence

from ..errors import ConfigurationError

_INFINITY = float("inf")


class Distribution:
    """Base class for scalar random-variate distributions."""

    def sample(self, rng: random.Random) -> float:
        """Draw one variate using ``rng``."""
        raise NotImplementedError

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument sampler bound to ``rng`` for hot loops.

        Draws the exact same variate sequence as repeated
        ``sample(rng)`` calls. Subclasses whose sampling is a single
        ``rng`` method call override this with a ``functools.partial``
        on the bound method, which removes one Python stack frame per
        draw — per-page draws are among the most frequent calls in a
        full run.
        """
        return functools.partial(self.sample, rng)

    @property
    def mean(self) -> float:
        """Expected value of the distribution."""
        raise NotImplementedError


class Constant(Distribution):
    """A degenerate distribution returning ``value`` every time."""

    def __init__(self, value: float):
        if not -_INFINITY < value < _INFINITY:
            raise ConfigurationError(
                f"constant value must be finite, got {value!r}"
            )
        self.value = float(value)

    def sample(self, rng: random.Random) -> float:
        """Return ``value``; consumes no randomness from ``rng``."""
        return self.value

    @property
    def mean(self) -> float:
        """The constant itself."""
        return self.value

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


class Exponential(Distribution):
    """Exponential distribution with the given ``mean`` (not rate)."""

    def __init__(self, mean: float):
        if not 0 < mean < _INFINITY:
            raise ConfigurationError(
                f"exponential mean must be finite and > 0, got {mean!r}"
            )
        self._mean = float(mean)

    def sample(self, rng: random.Random) -> float:
        """Draw one exponential variate via ``rng.expovariate``."""
        return rng.expovariate(1.0 / self._mean)

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """Zero-arg sampler bound directly to ``rng.expovariate``."""
        return functools.partial(rng.expovariate, 1.0 / self._mean)

    @property
    def mean(self) -> float:
        """The configured mean (reciprocal of the rate)."""
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean!r})"


class Uniform(Distribution):
    """Continuous uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if high < low:
            raise ConfigurationError(f"uniform bounds reversed: [{low!r}, {high!r}]")
        if not -_INFINITY < low <= high < _INFINITY:
            raise ConfigurationError(
                f"uniform bounds must be finite: [{low!r}, {high!r}]"
            )
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random) -> float:
        """Draw one uniform variate via ``rng.uniform``."""
        return rng.uniform(self.low, self.high)

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """Zero-arg sampler bound directly to ``rng.uniform``."""
        return functools.partial(rng.uniform, self.low, self.high)

    @property
    def mean(self) -> float:
        """Midpoint of ``[low, high]``."""
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class DiscreteUniform(Distribution):
    """Integer uniform distribution on ``{low, ..., high}`` inclusive.

    The paper draws the number of hits per page from the discrete
    interval (5, 15).
    """

    def __init__(self, low: int, high: int):
        if high < low:
            raise ConfigurationError(f"bounds reversed: [{low!r}, {high!r}]")
        if not -_INFINITY < low <= high < _INFINITY:
            raise ConfigurationError(
                f"bounds must be finite: [{low!r}, {high!r}]"
            )
        self.low = int(low)
        self.high = int(high)

    def sample(self, rng: random.Random) -> int:
        """Draw one integer via ``rng.randint`` (both bounds inclusive)."""
        return rng.randint(self.low, self.high)

    def sampler(self, rng: random.Random) -> Callable[[], int]:
        """Zero-arg sampler bound directly to ``rng.randint``."""
        return functools.partial(rng.randint, self.low, self.high)

    @property
    def mean(self) -> float:
        """Midpoint of ``{low, ..., high}``."""
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"DiscreteUniform({self.low!r}, {self.high!r})"


class Geometric(Distribution):
    """Geometric distribution on ``{1, 2, ...}`` with the given mean.

    The discrete analogue of the paper's "exponentially distributed"
    number of page requests per session: memoryless, strictly positive,
    integer-valued.
    """

    def __init__(self, mean: float):
        if not 1 <= mean < _INFINITY:
            raise ConfigurationError(
                f"geometric mean must be finite and >= 1, got {mean!r}"
            )
        self._mean = float(mean)
        self._p = 1.0 / self._mean

    def sample(self, rng: random.Random) -> int:
        """Draw one geometric variate (>= 1) by CDF inversion."""
        # Inversion: ceil(log(U) / log(1 - p)) for U in (0, 1).
        if self._p >= 1.0:
            return 1
        u = rng.random()
        while u <= 0.0:  # pragma: no cover - random() is in [0, 1)
            u = rng.random()
        return max(1, math.ceil(math.log(u) / math.log(1.0 - self._p)))

    @property
    def mean(self) -> float:
        """The configured mean (``1 / p``)."""
        return self._mean

    def __repr__(self) -> str:
        return f"Geometric(mean={self._mean!r})"


class Empirical(Distribution):
    """Discrete distribution over arbitrary ``values`` with ``weights``."""

    def __init__(self, values: Sequence[float], weights: Sequence[float]):
        if len(values) != len(weights):
            raise ConfigurationError("values and weights must have equal length")
        if not values:
            raise ConfigurationError("empirical distribution needs at least one value")
        if any(w < 0 for w in weights):
            raise ConfigurationError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ConfigurationError("weights must not all be zero")
        self.values: List[float] = list(values)
        self.probabilities: List[float] = [w / total for w in weights]
        self._cumulative: List[float] = list(
            itertools.accumulate(self.probabilities)
        )
        self._cumulative[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random):
        """Draw one value by binary search over the cumulative weights."""
        index = bisect.bisect_right(self._cumulative, rng.random())
        return self.values[min(index, len(self.values) - 1)]

    @property
    def mean(self) -> float:
        """Probability-weighted average of ``values``."""
        return sum(v * p for v, p in zip(self.values, self.probabilities))

    def __repr__(self) -> str:
        return f"Empirical(n={len(self.values)})"


def zipf_weights(count: int, exponent: float = 1.0) -> array:
    """Normalized pure-Zipf popularity weights for ranks ``1..count``.

    The i-th element is ``(1 / i**exponent) / H`` where ``H`` is the
    generalized harmonic number, so the weights sum to 1. The paper
    partitions clients among domains with ``exponent = 1`` ("pure Zipf").

    Returned as one ``array('d')``: both passes (the powers, then the
    division by their sum) stream through C-level ``map`` so no
    ``count``-element list of floats is ever built — at a million
    domains that list alone would be ~32 MB.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count!r}")
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ConfigurationError(
            f"exponent must be finite and >= 0, got {exponent!r}"
        )
    # Every pinned trajectory depends on these exact values: keep the
    # expression ``1.0 / rank**exponent`` and the rank-order sum.
    powers = map(pow, range(1, count + 1), itertools.repeat(exponent))
    raw = array("d", map(truediv, itertools.repeat(1.0), powers))
    total = sum(raw)
    return array("d", map(truediv, raw, itertools.repeat(total)))


class Zipf(Distribution):
    """Zipf-distributed rank on ``{0, ..., count-1}`` (0 = most popular)."""

    def __init__(self, count: int, exponent: float = 1.0):
        self.count = int(count)
        self.exponent = float(exponent)
        self._empirical = Empirical(
            list(range(self.count)), zipf_weights(self.count, self.exponent)
        )

    @property
    def probabilities(self) -> List[float]:
        """Per-rank selection probabilities (descending)."""
        return list(self._empirical.probabilities)

    def sample(self, rng: random.Random) -> int:
        """Draw one rank from the underlying :class:`Empirical`."""
        return self._empirical.sample(rng)

    @property
    def mean(self) -> float:
        """Expected rank under the Zipf weights."""
        return self._empirical.mean

    def __repr__(self) -> str:
        return f"Zipf(count={self.count}, exponent={self.exponent})"
