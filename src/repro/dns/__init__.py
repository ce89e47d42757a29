"""DNS infrastructure substrate.

Models the name-resolution path of the paper's system: an authoritative
DNS (scheduler + TTL policy) and the resolution chain of per-domain local
name servers, whose TTL caches and optional non-cooperative minimum-TTL
behaviour decide which requests the DNS ever sees.
"""

from .authoritative import AuthoritativeDns, DnsStats
from .records import AddressRecord
from .resolver import DEFAULT_NS_TTL, SITE_KEY, NameServerView, ResolutionChain

__all__ = [
    "AddressRecord",
    "AuthoritativeDns",
    "DEFAULT_NS_TTL",
    "DnsStats",
    "NameServerView",
    "ResolutionChain",
    "SITE_KEY",
]
