"""Seeded samplers used by the workload generator.

All samplers take an explicit :class:`numpy.random.Generator` (see
:mod:`repro.util.rng`) and are fully vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_generator


def bounded_pareto(
    rng: np.random.Generator | int | None,
    alpha: float,
    lo: float,
    hi: float,
    size: int | tuple[int, ...] = 1,
) -> np.ndarray:
    """Draw from a Pareto distribution truncated to ``[lo, hi]``.

    Heavy-tailed with tail exponent ``alpha``; used for user activity,
    dataset lengths and job fan-out — quantities where a few instances
    dominate (§3.1's "other rules govern the sizes").

    Uses inverse-CDF sampling of the bounded Pareto:
    ``F^{-1}(u) = (lo^-a - u (lo^-a - hi^-a))^{-1/a}``.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 < lo <= hi:
        raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    rng = as_generator(rng)
    u = rng.random(size)
    la, ha = lo**-alpha, hi**-alpha
    return (la - u * (la - ha)) ** (-1.0 / alpha)


def bounded_lognormal(
    rng: np.random.Generator | int | None,
    mean: float,
    sigma: float,
    lo: float,
    hi: float,
    size: int | tuple[int, ...] = 1,
) -> np.ndarray:
    """Lognormal with the given *linear-space* mean, clipped to ``[lo, hi]``.

    ``sigma`` is the log-space standard deviation; ``mu`` is solved from
    the target mean (``mu = ln(mean) - sigma^2/2``).  Clipping (rather
    than rejection) keeps the draw count deterministic per call, which
    preserves stream reproducibility when parameters change.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if not 0 < lo <= hi:
        raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    rng = as_generator(rng)
    mu = np.log(mean) - sigma * sigma / 2.0
    return np.clip(rng.lognormal(mu, sigma, size), lo, hi)


def flattened_zipf_weights(
    n: int, alpha: float, uniform_floor: float = 0.0, shift: float = 1.0
) -> np.ndarray:
    """Popularity weights ``w_i ∝ (i + shift)^-alpha + floor·mean``.

    ``alpha`` is the Zipf exponent; ``uniform_floor`` mixes in a uniform
    component that *flattens* the head of the distribution.  The paper
    (§3.2) observes DZero popularity is *not* Zipf — scientists re-request
    the same data and interest is partitioned geographically — so the
    generator deliberately uses a flattened-Zipf rather than a pure Zipf.
    Weights are returned normalized to sum 1.
    """
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    if alpha < 0 or uniform_floor < 0:
        raise ValueError("alpha and uniform_floor must be non-negative")
    ranks = np.arange(n, dtype=np.float64)
    w = (ranks + shift) ** -alpha
    w = w + uniform_floor * w.mean()
    return w / w.sum()


def categorical_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized cumulative weights, the table :func:`draw_categorical`
    inverts.

    Build it once per weight vector and draw from it as often as needed:
    the generator draws many groups of jobs against the same dataset
    weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def draw_categorical(
    rng: np.random.Generator | int | None, cdf: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``size`` indices by inverse CDF from a :func:`categorical_cdf`.

    One ``searchsorted`` per call rather than ``rng.choice``'s per-draw
    setup, which matters when the generator draws millions of dataset
    picks.
    """
    u = as_generator(rng).random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def sample_categorical(
    rng: np.random.Generator | int | None,
    weights: np.ndarray,
    size: int,
) -> np.ndarray:
    """Draw ``size`` indices with the given (unnormalized) weights."""
    return draw_categorical(rng, categorical_cdf(weights), size)


def daily_rate_profile(
    rng: np.random.Generator | int | None,
    n_days: int,
    ramp: float = 1.5,
    weekly_dip: float = 0.35,
    burst_prob: float = 0.05,
    burst_scale: float = 3.0,
    noise_sigma: float = 0.35,
) -> np.ndarray:
    """Relative job-arrival rate per day over an ``n_days`` window.

    Models the qualitative shape of Figure 2: overall activity ramps up as
    the experiment matures (``ramp`` = end/start activity ratio), weekends
    dip by ``weekly_dip``, occasional reprocessing campaigns produce
    multi-day bursts, and day-to-day lognormal noise roughens everything.
    Returned weights are normalized to sum 1 (use as a multinomial over
    days).
    """
    if n_days <= 0:
        raise ValueError(f"need n_days > 0, got {n_days}")
    if ramp <= 0:
        raise ValueError(f"ramp must be positive, got {ramp}")
    rng = as_generator(rng)
    days = np.arange(n_days, dtype=np.float64)
    base = 1.0 + (ramp - 1.0) * days / max(n_days - 1, 1)
    weekday = days.astype(np.int64) % 7
    weekly = np.where(weekday >= 5, 1.0 - weekly_dip, 1.0)
    bursts = np.ones(n_days)
    burst_starts = np.flatnonzero(rng.random(n_days) < burst_prob)
    for start in burst_starts:
        length = int(rng.integers(2, 8))
        bursts[start : start + length] *= burst_scale
    noise = rng.lognormal(0.0, noise_sigma, n_days)
    rate = base * weekly * bursts * noise
    return rate / rate.sum()
