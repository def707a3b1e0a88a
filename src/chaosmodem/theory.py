"""Closed-form receiver analysis: matched-filter response and BER formulas.

The transmit pulse p and its matched filter g(t) = p(-t) cascade into the
correlation response r(t) = (p * g)(t), which has an exact two-branch
closed form. Everything downstream (threshold construction, analytic BER
for the optimal and the decision-feedback thresholds) is built from r.

The oscillator is fixed at beta = ln 2 and omega = 2*pi (`waveform.BETA`,
`waveform.OMEGA`), and the closed forms need omega = 2*pi. The derived
module constants are

    A = (omega^2 - 3 beta^2) / (4 beta (omega^2 + beta^2))
    B = (3 omega^2 - beta^2) / (4 omega (omega^2 + beta^2))

and the response branches, with u = |t - tau| and D = exp(-beta u):

    u <  1:  A (D (2 - e^-beta) - e^-beta / D) cos(omega u)
           + B (D (2 - e^-beta) + e^-beta / D) sin(omega u) + 1 - u
    u >= 1:  D (2 - e^-beta - e^beta) (A cos(omega u) + B sin(omega u))

Both are validated against brute-force numerical convolution in the test
suite; the peak is R_PEAK = r(0) = 1 + A (2 - 2 e^-beta) ~ 1.3433. The
error rates use the standard library's `math.erfc`.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import MultipathSpec
from .waveform import BETA, OMEGA

_SQRT_PI = math.sqrt(math.pi)

A = (OMEGA * OMEGA - 3.0 * BETA * BETA) / (4.0 * BETA * (OMEGA * OMEGA + BETA * BETA))
B = (3.0 * OMEGA * OMEGA - BETA * BETA) / (4.0 * OMEGA * (OMEGA * OMEGA + BETA * BETA))
R_PEAK = 1.0 + A * (2.0 - 2.0 * math.exp(-BETA))


def response_r(t, tau: float = 0.0, alpha: float = 1.0):
    """Matched-filter cascade response alpha * r(t - tau).

    Accepts scalar or array ``t``; the response is even in (t - tau) and
    linear in the path gain alpha.
    """
    u = np.abs(np.asarray(t, dtype=float) - tau)
    D = np.exp(-BETA * u)
    eb = math.exp(-BETA)
    co = np.cos(OMEGA * u)
    si = np.sin(OMEGA * u)
    small = (A * (D * (2.0 - eb) - eb / D) * co
             + B * (D * (2.0 - eb) + eb / D) * si
             + 1.0 - u)
    large = D * (2.0 - eb - math.exp(BETA)) * (A * co + B * si)
    out = alpha * np.where(u >= 1.0, large, small)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def composite_response(t, channel: MultipathSpec):
    """Sum of per-path responses: sum_l alpha_l r(t - tau_l)."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape)
    for tau, alpha in zip(channel.delays, channel.gains):
        acc = acc + response_r(t, tau, alpha)
    if t.ndim == 0:
        return float(acc)
    return acc


def response_decay_radius(tol: float) -> int:
    """Smallest integer m >= 1 with the |t| >= 1 branch bounded below tol.

    |r(t)| <= e^{-beta |t|} |2 - e^-beta - e^beta| (|A| + |B|) for |t| >= 1,
    so the radius grows like log(1/tol)/beta.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    coef = abs(2.0 - math.exp(-BETA) - math.exp(BETA)) * (abs(A) + abs(B))
    if coef <= tol:
        return 1
    return max(1, math.ceil(math.log(coef / tol) / BETA))


def erfc(x):
    """Complementary error function: `math.erfc`, elementwise on arrays."""
    if np.isscalar(x) or np.ndim(x) == 0:
        return math.erfc(float(x))
    arr = np.asarray(x, dtype=float)
    return np.array([math.erfc(v) for v in arr.ravel()]).reshape(arr.shape)


def ber_optimal(P: float, sigma_w: float):
    """Error rate of the ISI-cancelling threshold: erfc(P / sqrt(2 s^2)) / 2."""
    if np.any(np.asarray(sigma_w) <= 0):
        raise ValueError("sigma_w must be positive")
    z = P / (np.sqrt(2.0) * np.asarray(sigma_w, dtype=float))
    out = 0.5 * erfc(z)
    if np.ndim(sigma_w) == 0:
        return float(out)
    return out


def compute_signal_power(channel: MultipathSpec) -> float:
    """Decision-point signal coefficient P = sum_l alpha_l r(tau_l)."""
    return float(sum(response_r(0.0, tau, alpha)
                     for tau, alpha in zip(channel.delays, channel.gains)))


def compute_isi_constant(channel: MultipathSpec) -> float:
    """Residual-ISI constant K of the future-symbol tail.

    K = sum_l alpha_l (2 - e^-beta - e^beta) e^{-beta tau_l}
        (A cos(omega tau_l) + B sin(omega tau_l)).

    The leading factor is negative; consumers take |K|.
    """
    lead = 2.0 - math.exp(-BETA) - math.exp(BETA)
    k = 0.0
    for tau, alpha in zip(channel.delays, channel.gains):
        k += alpha * lead * math.exp(-BETA * tau) * (
            A * math.cos(OMEGA * tau) + B * math.sin(OMEGA * tau))
    return float(k)


def ber_suboptimal(channel: MultipathSpec, sigma_w: float) -> float:
    """Error rate of the past-only decision-feedback threshold.

    Averages the optimal-threshold error over the uniform residual ISI of
    the uncancelled future symbols:

        sqrt(2 s^2) (e^beta - 1) / (4 |K|) *
        [ z1 erfc(z1) - z2 erfc(z2) - e^{-z1^2}/sqrt(pi) + e^{-z2^2}/sqrt(pi) ]

    with the limits z_{1,2} = (P +- |K|/(e^beta - 1)) / sqrt(2 s^2) of the
    uniform residual-ISI average. The signal coefficient P must be positive.
    For |K| < 1e-8 the 0/0 limit is taken analytically and the optimal
    formula is returned.
    """
    if sigma_w <= 0:
        raise ValueError("sigma_w must be positive")
    P = compute_signal_power(channel)
    if P <= 0:
        raise ValueError(f"P must be positive, got {P}")
    K = compute_isi_constant(channel)
    if abs(K) < 1e-8:
        return float(ber_optimal(P, sigma_w))
    s = math.sqrt(2.0) * sigma_w
    halfwidth = abs(K) / (math.exp(BETA) - 1.0)
    z1 = (P + halfwidth) / s
    z2 = (P - halfwidth) / s
    bracket = (z1 * math.erfc(z1) - z2 * math.erfc(z2)
               - math.exp(-z1 * z1) / _SQRT_PI + math.exp(-z2 * z2) / _SQRT_PI)
    return float(s * (math.exp(BETA) - 1.0) / (4.0 * abs(K)) * bracket)
