"""Binary asymmetric channel induced by the signalling protocol.

Alice's bit choice (couple / don't couple) shifts Bob's excitation
probability from q to p = q + |lambda_A lambda_B S2|; this module turns
(p, q) into guessing advantage and Shannon capacity.  The closed-form
capacity is checked against an independent concave-maximization oracle,
and the small-signal expansion against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import DEFAULT_TOL
from .scenario import Scenario
from .signalling import s2_observable

__all__ = [
    "ChannelStats",
    "binary_entropy",
    "guess_success",
    "capacity_closed",
    "capacity_bruteforce",
    "capacity_bruteforce_grid",
    "capacity_expansion",
    "channel_stats",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelStats:
    """Channel parameters and capacities for one scenario.

    p is P(Bob reads 1 | Alice sent 1), q is P(1 | 0); orientation is
    normalized so q <= p (the sign of the signal is absorbed into the
    bit mapping).  All capacities in bits per use.
    """

    p: float
    q: float
    success: float
    capacity_closed: float
    capacity_expansion: float
    capacity_bruteforce: float


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy_arr(x: np.ndarray) -> np.ndarray:
    """binary_entropy for arrays, 0 log 0 handled without warnings."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def _entropy_diff(p: float, q: float) -> float:
    """h(p) - h(q), evaluated without cancellation when p is near q.

    Writing p = q + d and splitting the logarithms gives
    d log2((1-q)/q) - [p log1p(d/q) + (1-p) log1p(-d/(1-q))]/ln2,
    every term O(d); used whenever the log1p arguments are small.
    """
    d = p - q
    interior = min(p, 1.0 - p, q, 1.0 - q)
    if interior > 0.0 and abs(d) <= 0.5 * interior:
        return (
            d * math.log2((1.0 - q) / q)
            - (
                p * math.log1p(d / q)
                + (1.0 - p) * math.log1p(-d / (1.0 - q))
            ) / _LN2
        )
    return binary_entropy(p) - binary_entropy(q)


def capacity_closed(p: float, q: float) -> float:
    """Shannon capacity of the binary asymmetric channel, closed form.

    C = [-q h(p) + p h(q)]/(q - p) + log2(1 + 2^E) with
    E = (h(p) - h(q))/(q - p); equivalently -qE - h(q) + log2(1 + 2^E),
    which is the algebra used here (it avoids the 1/(q-p) blow-up of the
    first term's two pieces separately).  p = q returns 0.

    The formula's absolute accuracy is at the 1e-16 level, so as the
    capacity, about d^2 / (8 ln2 v) with d = p - q and v = q(1-q), sinks
    toward that floor its relative error grows like 8 ln2 eps v / d^2:
    2e-4 at d = 1e-6 and q = 1/2, all of it at d = 1e-8.  The limit
    d^2 / (8 ln2 v) has relative error about |d (1 - 2q)| / (2v), large
    next to a certain click (q near 0 or 1), so it is taken to second
    order, d^2 / (8 ln2 v) (1 - d (1 - 2q) / (2v)), below
    |d| = 2.5e-4 v^(3/4), about where its O((d/v)^2) error meets the
    formula's.  Next to q = 1 the formula's terms are each about
    |log2((1 - q)/q)| and cancel, so there the outputs are relabelled,
    C(p, q) = C(1 - p, 1 - q), which is exact for p, q >= 1/2, and the
    formula is taken next to q = 0.  Against 80-digit references, on |d|
    from 1.3e-20 to 1e-3 of either sign, the result stays within 3e-7
    relative for q in [0.01, 0.99], 2e-6 for q in [1e-4, 1 - 1e-4], 2e-4
    for q in [1e-8, 1 - 1e-8] and 2e-3 for q in [1e-10, 1 - 1e-10].
    Below q ~ 1e-12, d can exceed q, and neither route is an expansion
    there.
    Capacity is provably nonnegative, so noise-level negatives are
    clamped to 0.
    """
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v!r}")
    if p == q:
        return 0.0
    if q > 0.5 and p >= 0.5:  # relabel the outputs; both differences exact
        p, q = 1.0 - p, 1.0 - q
    d, v = p - q, q * (1.0 - q)
    if abs(d) < 2.5e-4 * v ** 0.75:  # the limit, to second order in d
        return max(d * d / (8.0 * _LN2 * v)
                   * (1.0 - d * (1.0 - 2.0 * q) / (2.0 * v)), 0.0)
    e = _entropy_diff(p, q) / (q - p)
    # log2(1 + 2^e) without overflow for |e| up to ~1/|q-p|
    softplus = max(e, 0.0) + math.log2(1.0 + 2.0 ** (-abs(e)))
    return max(-q * e - binary_entropy(q) + softplus, 0.0)


def _mutual_information(pi, p, q, h_p, h_q):
    """I(pi) = h(pi p + (1-pi) q) - pi h(p) - (1-pi) h(q), vectorized.

    ``h_p`` and ``h_q`` are h(p) and h(q), which do not depend on pi, so
    callers that evaluate many priors compute them once.  ``pi`` may
    stack several priors along a leading axis.
    """
    y = pi * p + (1.0 - pi) * q
    return _entropy_arr(y) - pi * h_p - (1.0 - pi) * h_q


def _ternary_search(p, q, h_p, h_q, pi_tol: float):
    """Maximize the concave I(pi) over [0, 1] elementwise; returns the
    bracket midpoint.  Works on equal-shape arrays (at least 1-d), with
    their entropies ``h_p`` and ``h_q``; each step evaluates both probes
    in one stacked call, one binary-entropy array per step."""
    a = np.zeros(np.broadcast(p, q).shape)
    b = np.ones_like(a)
    while float(np.max(b - a)) > pi_tol:
        probes = np.stack((a + (b - a) / 3.0, b - (b - a) / 3.0))
        at_m1, at_m2 = _mutual_information(probes, p, q, h_p, h_q)
        lower_wins = at_m1 < at_m2
        a = np.where(lower_wins, probes[0], a)
        b = np.where(lower_wins, b, probes[1])
    return 0.5 * (a + b)


def _bruteforce_pi_tol(p, q, tol):
    """Bracket width giving I-error <= tol via the curvature bound
    |I''| = (p-q)^2 / (ln2 y(1-y)), y(1-y) >= min(p(1-p), q(1-q))."""
    m = np.minimum(p * (1.0 - p), q * (1.0 - q))
    d2 = np.maximum((p - q) ** 2, 1e-300)
    width = np.sqrt(8.0 * _LN2 * tol * m / d2)
    return float(np.min(np.clip(width, 1e-12, 1e-4)))


def capacity_bruteforce(p: float, q: float) -> float:
    """Capacity by direct concave maximization over the input prior.

    Independent of :func:`capacity_closed`: ternary search on the mutual
    information I(pi), which is concave in pi.  The bracket is shrunk
    until the quadratic-curvature error bound sits below 1e-10 bits.
    """
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v!r}")
    if p == q:
        return 0.0
    return float(capacity_bruteforce_grid(p, q)[0])


def capacity_bruteforce_grid(p, q, tol: float = 1e-10) -> np.ndarray:
    """Vectorized :func:`capacity_bruteforce` over arrays of (p, q)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    h_p, h_q = _entropy_arr(p), _entropy_arr(q)
    pi = _ternary_search(p, q, h_p, h_q, _bruteforce_pi_tol(p, q, tol))
    return np.maximum(_mutual_information(pi, p, q, h_p, h_q), 0.0)


def guess_success(p: float, q: float) -> float:
    """Single-shot guessing probability 1/2 p + 1/2 (1 - q) = 1/2 + (p-q)/2."""
    if p < q:
        raise ValueError(f"orientation requires p >= q, got p={p!r} < q={q!r}")
    return 0.5 + 0.5 * (p - q)


def capacity_expansion(
    s2_value: float,
    alpha_B: complex,
    beta_B: complex,
    lambda_product: float = 1.0,
) -> float:
    """Small-signal capacity expansion
    (lambda_A lambda_B)^2 (2/ln2) (S2 / (4 |alpha_B||beta_B|))^2, with
    ``lambda_product`` = lambda_A lambda_B."""
    mod = abs(alpha_B) * abs(beta_B)
    if mod == 0.0:
        raise ValueError(
            "capacity expansion undefined when Bob starts in an energy "
            "eigenstate (|alpha_B||beta_B| = 0)"
        )
    # squared as x * x: lambda ** 2 alone overflows once |lambda| > 1e154
    x = lambda_product * s2_value / (4.0 * mod)
    return (2.0 / _LN2) * x * x


def channel_stats(
    s: Scenario,
    lambda_product: float,
    noise_R: float = 0.0,
    tol: float = DEFAULT_TOL,
    s2: Optional[float] = None,
) -> ChannelStats:
    """Full channel characterization for one scenario.

    q = |alpha_B|^2 + R and p = q + |lambda_product * S2(T2)|, with
    S2(T2) from :func:`s2_observable` at ``tol`` unless the caller
    passes it as ``s2``.  Out-of-range probabilities are an error, never
    a silent clamp: the leading-order expressions have left their regime
    of validity there.
    """
    if noise_R < 0:
        raise ValueError(f"noise_R must be >= 0, got {noise_R!r}")
    q = abs(s.bob.state.alpha) ** 2 + noise_R
    if q > 1.0:
        raise ValueError(
            f"q = |alpha_B|^2 + R = {q!r} exceeds 1; noise_R too large"
        )
    s2_val = s2_observable(s, tol=tol).value if s2 is None else s2
    p = q + abs(lambda_product * s2_val)
    if p > 1.0:
        raise ValueError(
            f"p = q + |lambda s2| = {p!r} exceeds 1; the leading-order "
            "channel description breaks down for this coupling"
        )
    return ChannelStats(
        p=p,
        q=q,
        success=guess_success(p, q),
        capacity_closed=capacity_closed(p, q),
        capacity_expansion=capacity_expansion(
            s2_val, s.bob.state.alpha, s.bob.state.beta, lambda_product
        ),
        capacity_bruteforce=capacity_bruteforce(p, q),
    )
