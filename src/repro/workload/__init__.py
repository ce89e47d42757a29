"""Workload substrate: domain popularity, session model, client processes."""

from .clients import ClientPopulation
from .domains import DomainSet
from .dynamics import DomainDynamics, RotatingHotDomains, StaticDomains
from .sessions import (
    DEFAULT_MAX_HITS_PER_PAGE,
    DEFAULT_MEAN_THINK_TIME,
    DEFAULT_MIN_HITS_PER_PAGE,
    DEFAULT_PAGES_PER_SESSION,
    SessionModel,
)
from .shards import DEFAULT_SHARD_SIZE, ShardClientWake, ShardedClientPopulation
from .trace import ArrivalSchedule, TraceDrivenPopulation

__all__ = [
    "ArrivalSchedule",
    "ClientPopulation",
    "DEFAULT_MAX_HITS_PER_PAGE",
    "DEFAULT_MEAN_THINK_TIME",
    "DEFAULT_MIN_HITS_PER_PAGE",
    "DEFAULT_PAGES_PER_SESSION",
    "DEFAULT_SHARD_SIZE",
    "DomainDynamics",
    "DomainSet",
    "RotatingHotDomains",
    "SessionModel",
    "ShardClientWake",
    "ShardedClientPopulation",
    "StaticDomains",
    "TraceDrivenPopulation",
]
