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
# is the i-th run of k values).
# Chain contract: each chain (one per path and eps) walks a fresh generator of its
# path's CHAIN_TAG substream in blocks.  Block b = 0, 1, ... draws m_b =
# min(64 * 2**b, 16384) values, standard_exponential(m_b) then random(m_b), and draw
# k of the walk is the pair (exponential k, uniform k).  The block schedule is thus
# part of the contract: retuning it moves the chains' output bits, the price of a
# chain drawing no values beyond the block it stops in.  On a single-class path (Qhat
# = 0) each eps would draw the same pairs and visit the same states, so where the eps'
# threshold tables agree one walk of the CHAIN_TAG substream serves them all, with the
# bits of per-eps walks (switching.chain_sampler; simulate_chain is its one-eps case).
L_NOISE_TAG = 0  # slow-field noise L, k_trunc variates per grid step
CHAIN_TAG = 1  # the switching chain, simulated by the harness
Z_NOISE_TAG = 2  # fast-field noise Z, per (path, eps) or per frozen-fast run

# Stream ids of averaged-drift estimation.  converge's fast-slow average runs on
# ESTIMATOR_STREAM; freeze's estimate at slow state z_id on ESTIMATOR_STREAM + z_id,
# its initial-condition pair on Y0_PAIR_STREAMS and its decay probe on
# DECAY_PROBE_STREAM.  A path id can reach these ids (config.MAX_RUN_SIZE admits
# n_paths up to 10^7), yet the keys stay distinct: a path's noise sources key
# (seed, path, tag), one substream tag, while each estimator or probe run keys
# (seed, stream id, run, Z_NOISE_TAG), two.
ESTIMATOR_STREAM = 900_000
Y0_PAIR_STREAMS = (ESTIMATOR_STREAM + 50, ESTIMATOR_STREAM + 51)
DECAY_PROBE_STREAM = ESTIMATOR_STREAM + 60
