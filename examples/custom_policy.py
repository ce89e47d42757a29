#!/usr/bin/env python3
"""Extending the library: write and evaluate your own DNS policy.

The substrates are composable: a scheduler is any object with
``select(domain_id, now) -> server_id`` and a TTL policy is any object
with ``ttl_for(domain_id, server_id, now) -> float``. This example
implements

* ``PowerOfTwoChoicesScheduler`` — samples two eligible servers and
  takes the one with the lower capacity-normalized assigned load
  (the classic "power of two choices" policy, which postdates the
  paper), and
* ``HalvedHotTtl`` — a minimal adaptive TTL: hot domains get half the
  base TTL,

wires them into the same simulation stack the experiment harness uses,
and scores them against the paper's policies.

Usage::

    python examples/custom_policy.py [duration_seconds]
"""

import sys

from repro import SimulationConfig, run_simulation
from repro.core import Scheduler, TtlPolicy, TwoClassClassifier
from repro.core.estimator import OracleEstimator
from repro.core.state import SchedulerState
from repro.dns import AuthoritativeDns, ResolutionChain
from repro.experiments.metrics import MaxUtilizationCollector
from repro.sim import Environment, RandomStreams
from repro.web import AlarmProtocol, ServerCluster, UtilizationMonitor
from repro.workload import ClientPopulation, DomainSet, SessionModel


class PowerOfTwoChoicesScheduler(Scheduler):
    """Sample two eligible servers; keep the less (relatively) loaded."""

    name = "P2C"

    def __init__(self, state: SchedulerState, rng):
        super().__init__(state)
        self._rng = rng
        self._assigned_weight = [0.0] * state.server_count

    def select(self, domain_id: int, now: float) -> int:
        eligible = self.state.eligible_servers()
        first = eligible[self._rng.randrange(len(eligible))]
        second = eligible[self._rng.randrange(len(eligible))]
        alphas = self.state.relative_capacities

        def cost(server_id: int) -> float:
            return self._assigned_weight[server_id] / alphas[server_id]

        chosen = first if cost(first) <= cost(second) else second
        self._assigned_weight[chosen] += self.state.estimator.share(domain_id)
        return chosen


class HalvedHotTtl(TtlPolicy):
    """Hot domains get base/2, normal domains get the base TTL."""

    name = "HALVED-HOT"

    def __init__(self, classifier: TwoClassClassifier, base_ttl: float):
        self.classifier = classifier
        self.base_ttl = base_ttl

    def ttl_for(self, domain_id: int, server_id: int, now: float) -> float:
        if self.classifier.class_of(domain_id) == 0:  # hot
            return self.base_ttl / 2.0
        return self.base_ttl


def run_custom(duration: float, heterogeneity: int = 35, seed: int = 11):
    """Assemble the full stack by hand around the custom policy."""
    env = Environment()
    streams = RandomStreams(seed)
    cluster = ServerCluster.from_heterogeneity(heterogeneity)
    domains = DomainSet.pure_zipf(20)
    state = SchedulerState(cluster, OracleEstimator(domains.shares))

    scheduler = PowerOfTwoChoicesScheduler(state, streams.stream("scheduler"))
    ttl_policy = HalvedHotTtl(TwoClassClassifier(state.estimator), 240.0)

    dns = AuthoritativeDns(scheduler, ttl_policy)
    chain = ResolutionChain(dns, domains.domain_count)
    collector = MaxUtilizationCollector(cluster.server_count)
    alarms = AlarmProtocol(cluster.server_count, threshold=0.9,
                           listener=state.set_alarm)
    UtilizationMonitor(env, cluster.servers, interval=32.0,
                       alarm_protocol=alarms, sample_sink=collector.sink)
    ClientPopulation(env, cluster, chain, domains, SessionModel(), 500,
                     streams)

    env.run(until=duration)
    return collector.cdf()


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 2400.0

    print(f"Evaluating the custom P2C + halved-hot-TTL policy "
          f"({duration:g}s)...")
    custom_cdf = run_custom(duration)
    custom = custom_cdf.probability_below(0.98)

    print("Scoring reference policies on the same scenario...")
    reference = {}
    for policy in ("RR", "PRR2-TTL/2", "DRR2-TTL/S_K"):
        config = SimulationConfig(
            policy=policy, heterogeneity=35, duration=duration, seed=11
        )
        reference[policy] = run_simulation(config).prob_max_below(0.98)

    print()
    print("P(max utilization < 0.98), higher is better:")
    for name, value in [("P2C+HALVED-HOT (custom)", custom)] + list(
        reference.items()
    ):
        bar = "#" * int(40 * value)
        print(f"  {name:24s} {value:5.3f} |{bar}")
    print()
    print(
        "The custom policy illustrates the API; beating DRR2-TTL/S_K "
        "requires\nadapting the TTL to both domain load and server "
        "capacity, as the paper shows."
    )


if __name__ == "__main__":
    main()
