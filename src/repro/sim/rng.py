"""Named, reproducible random-number substreams.

Every stochastic input in an experiment (arrival processes, service-time
jitter, cold-start durations, trace noise, ...) draws from its own
``numpy.random.Generator``.  Substreams are derived from a single root
seed plus the stream's name via ``numpy.random.SeedSequence.spawn``-style
keying, so:

* two streams with different names are statistically independent;
* the same (seed, name) pair always produces the same sequence,
  regardless of the order in which other streams were created or used.

This is what makes whole experiments bit-reproducible while still letting
components create their RNGs lazily.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["RngRegistry"]


#: draws per block of a :meth:`RngRegistry.lognormal_sampler`
_SAMPLER_BLOCK = 256


class RngRegistry:
    """Factory for named, independently seeded RNG substreams.

    A stream has exactly one consumer: either the generator handed out by
    :meth:`stream` (which :meth:`exponential`, :meth:`lognormal_around`
    and :meth:`uniform` draw from) or one :meth:`lognormal_sampler`.
    Mixing the two on one name raises ``ValueError``, because a sampler
    draws its stream ahead in blocks.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: sampler-owned streams: name -> (median, sigma, sampler)
        self._samplers: Dict[str, Tuple[float, float, Callable[[], float]]] = {}

    @property
    def seed(self) -> int:
        """The root seed all substreams are derived from."""
        return self._seed

    def _generator(self, name: str) -> np.random.Generator:
        # key the SeedSequence on a stable hash of the name so stream
        # identity does not depend on creation order
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
        return np.random.default_rng(seq)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Raises ``ValueError`` if a :meth:`lognormal_sampler` owns ``name``.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._samplers:
                raise ValueError(f"stream {name!r} is owned by a lognormal sampler")
            gen = self._streams[name] = self._generator(name)
        return gen

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def lognormal_around(self, name: str, median: float, sigma: float) -> float:
        """One lognormal draw with the given *median* from stream ``name``.

        Lognormal with small sigma is our default "noisy but positive"
        duration model (cold starts, code loading, per-query jitter).
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return float(median * np.exp(self.stream(name).normal(0.0, sigma)))

    def lognormal_sampler(self, name: str, median: float, sigma: float) -> Callable[[], float]:
        """A zero-argument sampler of the sequence :meth:`lognormal_around` draws.

        Hot paths call this once and keep the returned callable.  It draws
        ``normal(0, sigma)`` in blocks of 256 and serves
        ``median * exp(block)`` in order, which is bit-identical to the
        scalar draws one at a time.  The sampler owns stream ``name``:
        asking again with the same ``(median, sigma)`` returns the same
        sampler (so two callers interleave on the stream exactly as two
        scalar draw sites would), and a different ``(median, sigma)``, or
        a name :meth:`stream` already handed out, raises ``ValueError``.
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        owned = self._samplers.get(name)
        if owned is not None:
            if owned[0] != median or owned[1] != sigma:
                raise ValueError(
                    f"stream {name!r} already has a sampler with median={owned[0]}, "
                    f"sigma={owned[1]}; got median={median}, sigma={sigma}"
                )
            return owned[2]
        if name in self._streams:
            raise ValueError(f"stream {name!r} was already handed out; a sampler needs its own")
        normal = self._generator(name).normal
        exp = np.exp
        # raw doubles (no float objects held), served from the end, so
        # each block is stored reversed
        pending = array("d")

        def draw() -> float:
            if not pending:
                block = median * exp(normal(0.0, sigma, _SAMPLER_BLOCK))
                pending.frombytes(block[::-1].tobytes())
            return pending.pop()

        self._samplers[name] = (median, sigma, draw)
        return draw

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw on ``[low, high)`` from stream ``name``."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high})")
        return float(self.stream(name).uniform(low, high))

    def fork(self, salt: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one's.

        Used to give experiment repetitions (e.g. different benchmarks in
        one sweep) disjoint randomness under a single root seed.
        """
        derived = zlib.crc32(salt.encode("utf-8")) ^ (self._seed * 0x9E3779B1 & 0xFFFFFFFF)
        return RngRegistry(seed=derived)
