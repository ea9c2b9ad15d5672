"""Self time per simulator layer from a deterministic profile of one run.

A layer is a package under ``src/repro/`` (``telemetry`` is a module of
its own).  A function's self time belongs to the layer whose source file
defines it, so a kernel callback counts toward the package that owns the
callback, not toward ``sim``.  Functions outside ``repro`` (builtins, the
standard library, numpy) are charged to the layers that called them, in
proportion to the self time each caller edge recorded.  ``graph`` and
``analysis`` are not on the measured simulation paths; their time, the
benchmark's own and anything no layer called go to ``other``.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import PurePath
from typing import Dict, Optional, Tuple

import repro

#: the measured layers, in report order
LAYERS: Tuple[str, ...] = (
    "sim",
    "cluster",
    "serverless",
    "iaas",
    "core",
    "telemetry",
    "workloads",
    "overload",
    "faults",
    "experiments",
)
OTHER = "other"

Func = Tuple[str, int, str]


def layer_of(filename: str, package: PurePath) -> Optional[str]:
    """The layer of a source file under the ``repro`` package directory; None outside it."""
    try:
        rest = PurePath(filename).relative_to(package).parts
    except ValueError:
        return None
    head = rest[0][:-3] if rest[0].endswith(".py") else rest[0]
    return head if head in LAYERS else OTHER


def self_times(profile) -> Dict[str, float]:
    """Seconds of self time per layer (every layer present, plus ``other``)."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    package = PurePath(repro.__file__).parent
    owners: Dict[Func, str] = {}

    def owner(func: Func) -> str:
        """The layer a function's time goes to: its own, else its main caller's."""
        known = owners.get(func)
        if known is not None:
            return known
        layer = layer_of(func[0], package)
        if layer is None:
            owners[func] = OTHER  # provisional, breaks call cycles
            callers = stats[func][4] if func in stats else {}
            if callers:
                # the caller edge with the most cumulative time
                main = max(callers, key=lambda c: callers[c][3])
                layer = owner(main)
            else:
                layer = OTHER
        owners[func] = layer
        return layer

    totals: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if layer_of(func[0], package) is not None or not callers:
            totals[owner(func)] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            totals[owner(func)] += tt
            continue
        for caller, edge in callers.items():
            totals[owner(caller)] += tt * edge[2] / edge_total
    return {layer: totals.get(layer, 0.0) for layer in LAYERS + (OTHER,)}
