"""Reproducible random number streams.

Every stochastic routine in this package takes an :class:`RngStream` value,
or noise already drawn from one, rather than a live generator, so that a
simulation is a pure function of (parameters, stream).  Streams are
counter-based (Philox) and keyed by ``(seed, stream_id, lineage)``; identical
keys reproduce identical variate sequences, and distinct keys give
statistically independent streams that can be consumed from concurrent
workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for a reproducible substream.

    ``stream_id`` conventionally indexes the trajectory; ``lineage`` holds
    further derivation tags (e.g. one tag per noise source inside a solver).
    """

    seed: int
    stream_id: int = 0
    lineage: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.lineage))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, tag: int) -> "RngStream":
        """Derive an independent child stream identified by ``tag``."""
        return RngStream(self.seed, self.stream_id, self.lineage + (tag,))


# Stream keys, each named once.  Path j of a sweep runs on RngStream(seed, j), and
# each noise source owns one substream tag.  A solve's caller draws the noise it steps
# on; the harness draws L once per path for every solve of the path (coupled runs).
# Stream contract: each (path, stable source L or Z) is one sampler draw on a fresh
# generator of its substream, all its uniforms then all its exponentials, so a draw
# of any shape is the 1-d draw of as many values, reshaped (row i of a noise array
# is the i-th run of k values).  The chain keeps its own order (switching._CHUNK).
L_NOISE_TAG = 0  # slow-field noise L, k_trunc variates per grid step
CHAIN_TAG = 1  # the switching chain, simulated by the harness
Z_NOISE_TAG = 2  # fast-field noise Z, per (path, eps) or per frozen-fast run

# Stream ids reserved for averaged-drift estimation, clear of any path index.
# converge's fast-slow average runs on ESTIMATOR_STREAM; freeze's estimate at
# slow state z_id on ESTIMATOR_STREAM + z_id, its initial-condition pair on
# Y0_PAIR_STREAMS and its decay probe on DECAY_PROBE_STREAM.
ESTIMATOR_STREAM = 900_000
Y0_PAIR_STREAMS = (ESTIMATOR_STREAM + 50, ESTIMATOR_STREAM + 51)
DECAY_PROBE_STREAM = ESTIMATOR_STREAM + 60
