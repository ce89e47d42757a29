"""Discrete-event simulation substrate (the CSIM replacement).

The paper's simulators were written on top of the proprietary CSIM
package; this subpackage provides an equivalent process-oriented engine:

* :class:`Environment` — clock, event queue, ``run(until)``.
* :class:`Event`, :class:`Timeout` — waitable occurrences.
* :class:`Process` — generator-based concurrency.
* :class:`Store` — a blocking FIFO object buffer.
* :class:`RandomStreams` and the distribution classes — reproducible
  workload randomness.
* :class:`RunningStats`, :class:`EmpiricalCdf`,
  :func:`batch_means_ci`, :func:`t_interval`, :func:`t_critical` —
  output analysis.
* :class:`Checkpoint`, :func:`state_digest`, :func:`canonical_state` —
  deterministic run snapshots (see :mod:`repro.experiments.checkpointing`
  for the model-aware driver).
* :class:`FastForwardEnvironment`, :class:`FluidTask` — the hybrid
  fluid/event fast-forward engine mode, bit-identical to the reference
  engine (see :mod:`repro.sim.fastforward`).
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    canonical_state,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    state_digest,
    write_checkpoint,
)
from .distributions import (
    Constant,
    DiscreteUniform,
    Distribution,
    Empirical,
    Exponential,
    Geometric,
    Uniform,
    Zipf,
    zipf_weights,
)
from .engine import EmptySchedule, Environment
from .fastforward import FastForwardEnvironment, FluidTask
from .events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, Timeout
from .process import Process
from .resources import Store
from .rng import RandomStreams, derive_seed
from .stats import (
    EmpiricalCdf,
    RunningStats,
    batch_means_ci,
    relative_ci_width,
    t_critical,
    t_interval,
)
from .tracing import NullTracer, TraceRecord, Tracer

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "Constant",
    "DiscreteUniform",
    "Distribution",
    "Empirical",
    "EmpiricalCdf",
    "EmptySchedule",
    "Environment",
    "Event",
    "Exponential",
    "FastForwardEnvironment",
    "FluidTask",
    "Geometric",
    "NullTracer",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "RandomStreams",
    "RunningStats",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "Uniform",
    "Zipf",
    "batch_means_ci",
    "canonical_state",
    "derive_seed",
    "latest_checkpoint",
    "list_checkpoints",
    "read_checkpoint",
    "relative_ci_width",
    "state_digest",
    "t_critical",
    "t_interval",
    "write_checkpoint",
    "zipf_weights",
]
