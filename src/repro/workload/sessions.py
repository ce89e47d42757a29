"""The client-session traffic model (paper, Section 4.1).

A session is one address resolution followed by several page requests;
each page request is a burst of hits (the HTML page plus embedded
objects). Defaults follow Table 1:

* pages per session — exponentially distributed, mean 20 (we use the
  discrete analogue, a geometric distribution on {1, 2, ...});
* hits per page — uniform on the discrete interval {5, ..., 15};
* think time between pages — exponential, mean 15 s.

The 15 s think-time mean is the value that makes the arithmetic of
Table 1 close: 500 clients x (10 hits / 15 s) = 333.3 hits/s offered to a
500 hits/s site = the stated 2/3 average utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..sim.distributions import DiscreteUniform, Distribution, Exponential, Geometric

DEFAULT_PAGES_PER_SESSION = 20.0
DEFAULT_MIN_HITS_PER_PAGE = 5
DEFAULT_MAX_HITS_PER_PAGE = 15
DEFAULT_MEAN_THINK_TIME = 15.0

_INFINITY = float("inf")


@dataclass
class SessionModel:
    """Distributions governing one client's traffic."""

    pages_per_session: Distribution = field(
        default_factory=lambda: Geometric(DEFAULT_PAGES_PER_SESSION)
    )
    hits_per_page: Distribution = field(
        default_factory=lambda: DiscreteUniform(
            DEFAULT_MIN_HITS_PER_PAGE, DEFAULT_MAX_HITS_PER_PAGE
        )
    )
    think_time: Distribution = field(
        default_factory=lambda: Exponential(DEFAULT_MEAN_THINK_TIME)
    )

    def __post_init__(self):
        # Written so that NaN fails every check (each comparison with
        # NaN is false) and infinity fails the upper bound.
        if not 0 < self.think_time.mean < _INFINITY:
            raise ConfigurationError(
                f"mean think time must be finite and > 0, "
                f"got {self.think_time.mean!r}"
            )
        if not 1 <= self.pages_per_session.mean < _INFINITY:
            raise ConfigurationError(
                f"mean pages per session must be finite and >= 1, "
                f"got {self.pages_per_session.mean!r}"
            )
        if not 1 <= self.hits_per_page.mean < _INFINITY:
            raise ConfigurationError(
                f"mean hits per page must be finite and >= 1, "
                f"got {self.hits_per_page.mean!r}"
            )

    @property
    def hit_rate_per_client(self) -> float:
        """Long-run hits per second generated by one client.

        Each page cycle consists of one think period followed by one page
        burst, so the rate is ``E[hits per page] / E[think time]``.
        """
        return self.hits_per_page.mean / self.think_time.mean

    def offered_load(self, client_count: int, total_capacity: float) -> float:
        """Expected system utilization for ``client_count`` clients."""
        if total_capacity <= 0:
            raise ConfigurationError(
                f"total_capacity must be > 0, got {total_capacity!r}"
            )
        return client_count * self.hit_rate_per_client / total_capacity

    def clients_for_utilization(
        self, utilization: float, total_capacity: float
    ) -> int:
        """Client count that offers the target average ``utilization``."""
        if not 0 < utilization:
            raise ConfigurationError(
                f"utilization must be > 0, got {utilization!r}"
            )
        return max(
            1, round(utilization * total_capacity / self.hit_rate_per_client)
        )
