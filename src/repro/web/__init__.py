"""Web-server substrate: fluid servers, clusters, monitoring, alarms."""

from .cluster import (
    DEFAULT_TOTAL_CAPACITY,
    HETEROGENEITY_LEVELS,
    ServerCluster,
)
from .monitor import AlarmProtocol, UtilizationMonitor
from .queueing import QueueingWebServer
from .server import WebServer

__all__ = [
    "AlarmProtocol",
    "DEFAULT_TOTAL_CAPACITY",
    "HETEROGENEITY_LEVELS",
    "QueueingWebServer",
    "ServerCluster",
    "UtilizationMonitor",
    "WebServer",
]
