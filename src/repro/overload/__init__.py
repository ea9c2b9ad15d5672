"""Overload protection: admission control, queue-wait shedding, breakers.

The paper holds the 95th-percentile latency under the QoS target by
switching deployment modes (Eq. 5 / §IV-B), but nothing in the original
system stops an open-loop arrival process from driving either platform
past its capacity envelope.  This package supplies that missing guard
band:

* :class:`OverloadPolicy` — a frozen config describing queue bounds,
  the deadline-aware admission rule and the circuit breaker.
* :class:`CircuitBreaker` — a deterministic CLOSED/OPEN/HALF_OPEN state
  machine driven purely by sim time and observed outcomes.
* :class:`OverloadGovernor` — the per-microservice decision point shared
  by the serverless frontend and the IaaS dispatch path.

Everything here is RNG-free by construction: decisions are pure
functions of sim time and queue state, so ``OverloadPolicy.disabled()``
is bit-identical to running without the layer at all.
"""

from repro.overload.admission import conditional_wait, meets_deadline, predicted_sojourn
from repro.overload.breaker import BreakerState, CircuitBreaker
from repro.overload.governor import OverloadGovernor
from repro.overload.policy import OverloadPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "OverloadGovernor",
    "OverloadPolicy",
    "conditional_wait",
    "meets_deadline",
    "predicted_sojourn",
]
