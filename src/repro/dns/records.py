"""Address-mapping records returned by the authoritative DNS."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class AddressRecord:
    """A name-to-address mapping with its validity period.

    Attributes
    ----------
    server_id:
        Index of the web server the site name was mapped to.
    ttl:
        Time-to-live in seconds granted by the DNS scheduler. This is the
        *recommended* TTL; a non-cooperative name server may substitute
        its own value when caching (see
        :class:`~repro.dns.resolver.ResolutionChain`).
    issued_at:
        Simulation time at which the mapping was issued.
    """

    server_id: int
    ttl: float
    issued_at: float

    def __post_init__(self):
        if self.ttl < 0:
            raise ConfigurationError(f"TTL must be >= 0, got {self.ttl!r}")

    @property
    def expires_at(self) -> float:
        """Absolute simulation time at which the mapping expires."""
        return self.issued_at + self.ttl

    def is_valid(self, now: float) -> bool:
        """Whether the mapping may still be used at time ``now``."""
        return now < self.expires_at

    def with_ttl(self, ttl: float) -> "AddressRecord":
        """A copy of this record carrying a different TTL."""
        return AddressRecord(self.server_id, ttl, self.issued_at)
