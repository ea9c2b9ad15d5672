"""Frozen scenario + summary value objects for call-graph runs.

``GraphScenario`` is the cache-fingerprint unit for the ``dag`` sweep:
everything that shapes a run — topology, root trace, end-to-end target,
resilience knobs, fault/overload plans, the optional mid-graph brownout
— lives in one frozen dataclass, so the content-addressed run cache and
the ``float.hex`` determinism gates treat graph runs exactly like flat
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.faults import FaultPlan
from repro.graph.retry import RetryPolicy
from repro.graph.topology import GraphTopology
from repro.overload import OverloadPolicy
from repro.workloads import Trace

__all__ = ["BrownoutSpec", "GraphScenario", "GraphSummary"]


@dataclass(frozen=True)
class BrownoutSpec:
    """A rectangular burst of interfering load aimed at one node.

    Drives ``rate`` extra queries/s straight into the node's engine for
    ``[t_start, t_end)`` — the mid-chain overload that trips the node's
    breaker and lets the cascade scenarios exercise backpressure.
    """

    node: str
    t_start: float
    t_end: float
    rate: float

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(f"empty brownout window [{self.t_start}, {self.t_end})")
        if self.rate <= 0:
            raise ValueError(f"brownout rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class GraphScenario:
    """One reproducible call-graph experiment."""

    name: str
    topology: GraphTopology
    trace: Trace
    #: end-to-end latency target for the whole graph, seconds
    e2e_target: float
    duration: float
    seed: int
    #: None = single attempt per node (no retries)
    retry: Optional[RetryPolicy] = None
    backpressure: bool = True
    propagate_deadlines: bool = True
    faults: Optional[FaultPlan] = None
    overload: Optional[OverloadPolicy] = None
    #: rate the per-node IaaS rentals are sized for (None = trace peak)
    iaas_peak_rate: Optional[float] = None
    #: latency-reservoir override for long/hot runs
    reservoir: Optional[int] = None
    #: per-node serverless concurrency limits, aligned with
    #: ``topology.nodes`` order (None = platform default)
    limits: Optional[Tuple[Optional[int], ...]] = None
    brownout: Optional[BrownoutSpec] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.e2e_target <= 0:
            raise ValueError(f"e2e_target must be positive, got {self.e2e_target}")
        names = {n.name for n in self.topology.nodes}
        if self.limits is not None and len(self.limits) != len(self.topology.nodes):
            raise ValueError(
                f"limits has {len(self.limits)} entries for {len(self.topology.nodes)} nodes"
            )
        if self.brownout is not None and self.brownout.node not in names:
            raise ValueError(f"brownout node {self.brownout.node!r} not in topology")


@dataclass(frozen=True)
class GraphSummary:
    """End-to-end outcome of one graph run (orchestrator accounting)."""

    e2e_target: float
    #: requests the root generator offered
    offered: int
    #: requests for which every node completed
    completed: int
    #: completed requests whose end-to-end latency blew the target
    violations: int
    #: requests abandoned after a node's retry budget gave up
    failed: int
    #: end-to-end latencies of completed requests, completion order
    #: (tuple of floats — the unit the hex-identity gates compare)
    latencies: Tuple[float, ...]
    failed_by_node: Dict[str, int] = field(default_factory=dict)
    #: ``counters["retries"]`` summed over every node's ServiceMetrics
    retries: Dict[str, int] = field(default_factory=dict)
    #: per-edge dispatches shed because the target node was browned out
    backpressure_sheds: Dict[str, int] = field(default_factory=dict)

    @property
    def violation_fraction(self) -> float:
        """QoS-violating fraction of completed requests."""
        return self.violations / self.completed if self.completed else 0.0

    @property
    def violation_fraction_with_failures(self) -> float:
        """Failures count as violations (a dead request met no deadline)."""
        finished = self.completed + self.failed
        return (self.violations + self.failed) / finished if finished else 0.0

    @property
    def total_backpressure_sheds(self) -> int:
        return sum(self.backpressure_sheds.values())

    def p95(self) -> float:
        """Empirical 95th-percentile end-to-end latency (0.0 if empty)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(0, min(len(ordered) - 1, int(0.95 * len(ordered)) - 1))
        return ordered[rank]
