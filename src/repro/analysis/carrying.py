"""Carrying capacity of the per-round digest epidemic.

The recursion ψ (see :mod:`repro.analysis.recursion`) converges to a limit
γ — the *carrying capacity* — because it is monotonically increasing and
bounded by n. The paper (after Corless et al. [12]) gives the closed form

    γ = n · (fout + W(−fout · e^{−fout})) / fout

with W the principal branch of the Lambert-W function. γ is the stable
number of peers that receive at least one push digest per round once the
epidemic saturates: for fout=4 and n=100, γ ≈ 98.0; for fout=2, γ ≈ 79.7.
"""

from __future__ import annotations

import math


def _lambertw0(x: float) -> float:
    """Principal branch W0 of the Lambert-W function for −1/e < x <= 0.

    Halley's iteration on w·e^w = x (cubic convergence). Near the branch
    point −1/e, where W0 has a square-root singularity, it starts from
    the series in p = sqrt(2(e·x + 1)); elsewhere from W0(x) ≈ x − x².
    """
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = x - x * x
    for _ in range(20):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-17 * abs(w):
            break
    return w


def carrying_capacity(n: int, fout: int) -> float:
    """γ: the fixed point of ψ, via the principal Lambert-W branch.

    Args:
        n: network size (peers in the organization).
        fout: push fan-out; must be >= 2 for a non-degenerate epidemic
            (at fout = 1 the branching process is critical and W's
            argument hits the branch point −1/e).
    """
    if n < 2:
        raise ValueError(f"need at least 2 peers, got n={n}")
    if fout < 2:
        raise ValueError(f"carrying capacity requires fout >= 2, got {fout}")
    w = _lambertw0(-fout * math.exp(-fout))
    return n * (fout + w) / fout


def fixed_point_residual(n: int, fout: int, gamma: float) -> float:
    """Residual of γ in the fixed-point equation x = n(1 − (1−1/n)^{fout·x}).

    Near zero when ``gamma`` solves the equation — used to cross-check the
    closed form against the recursion. Note the closed form uses the
    continuous approximation (1 − 1/n)^x ≈ e^{−x/n}, so the residual is
    small but not machine-zero for finite n.
    """
    return gamma - n * (1.0 - math.exp(-fout * gamma / n))
