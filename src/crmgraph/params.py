"""GGP hyperparameters and reproducible random streams."""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveAlphaError, OutOfRegionError

# numpy's Poisson sampler rejects a mean above int64 max - 10 sqrt(int64 max), about 9.2e18
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GgpParams:
    """Hyperparameters of the restricted generalized gamma process.

    alpha > 0 is the restriction size, sigma < 1 controls sparsity and the
    power-law exponent, tau >= 0 is the exponential tilt. The admissible
    region is (sigma <= 0 and tau > 0) or (0 < sigma < 1 and tau >= 0).
    """

    alpha: float
    sigma: float
    tau: float

    def __post_init__(self):
        a, s, t = float(self.alpha), float(self.sigma), float(self.tau)
        if not np.isfinite(a) or a <= 0:
            raise NonPositiveAlphaError(f"alpha must be positive, got {self.alpha}")
        if not (np.isfinite(s) and s < 1):
            raise OutOfRegionError(f"sigma must be finite and < 1, got {self.sigma}")
        if not (np.isfinite(t) and t >= 0):
            raise OutOfRegionError(f"tau must be finite and >= 0, got {self.tau}")
        if s <= 0 and t <= 0:
            raise OutOfRegionError(
                f"sigma <= 0 requires tau > 0, got sigma={self.sigma}, tau={self.tau}"
            )

    def with_tilt(self, c):
        """Parameters of the exponentially tilted process (tau -> tau + c)."""
        return GgpParams(self.alpha, self.sigma, self.tau + c)


def check_seed(seed, stream=0):
    """(seed, stream) as ints; DomainError unless both are integers (numpy's
    too, floats not), 0 <= seed < 2**128 and stream >= 0."""
    try:
        key = operator.index(seed), operator.index(stream)
        ok = 0 <= key[0] < 2**128 and key[1] >= 0
    except TypeError:
        ok = False
    if not ok:
        raise DomainError("need integers 0 <= seed < 2**128 and stream id >= 0, "
                          f"got seed={seed!r}, stream={stream!r}")
    return key


def rng_stream(seed, stream=0):
    """Generator keyed by (seed, stream id) through numpy's SeedSequence.

    The SFC64 bit generator is seeded by
    SeedSequence(seed, spawn_key=(stream,)), the sequence that
    SeedSequence(seed).spawn hands its child number `stream`. Identical
    (seed, stream) pairs yield identical draw sequences. A seed below
    2**128 fills the sequence's four-word entropy pool and the stream id
    follows it, so distinct pairs give distinct, statistically independent
    streams, and replicate-level work can be farmed out without
    coordination. DomainError unless check_seed accepts the pair: a longer
    seed would run into the stream id's words.
    """
    seed, stream = check_seed(seed, stream)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))
