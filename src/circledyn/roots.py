"""Simultaneous polynomial root finding (Aberth-Ehrlich) with Newton polish.

Initial points sit on a circle of radius given by the Cauchy coefficient
bound, with a deterministic angular jitter so symmetric configurations
cannot trap the iteration.  Near-coincident converged roots are clustered
into multiplicity estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import as_poly, cluster_roots, deriv_coeffs, polyval
from .errors import NoConvergence, Stalled

MAX_ITER = 500
CLUSTER_RADIUS = 1e-6
_JITTER_SEED = 1729


@dataclass
class RootSet:
    """Roots with multiplicity estimates and per-root residuals."""

    roots: np.ndarray
    multiplicities: list = field(default_factory=list)
    residuals: np.ndarray = None
    converged: bool = True


def _cauchy_radius(c: np.ndarray) -> float:
    lead = abs(c[-1])
    if lead == 0:
        return 1.0
    return 1.0 + float(np.max(np.abs(c[:-1]))) / lead


def _initial_points(n: int, radius: float) -> np.ndarray:
    rng = np.random.default_rng(_JITTER_SEED)
    theta = 2.0 * np.pi * (np.arange(n) + 0.35) / n
    theta = theta + (rng.random(n) - 0.5) * (0.35 * np.pi / max(n, 1))
    return radius * np.exp(1j * theta)


def all_roots(p, tol: float = 1e-12) -> RootSet:
    """All deg(P) roots by Aberth-Ehrlich iteration, polished individually."""
    p = as_poly(p)
    if p.degree < 1:
        raise ValueError("all_roots requires degree >= 1")
    c = p.coeffs / p.coeffs[-1]
    n = len(c) - 1
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))

    # strip exact roots at the origin first: they cost conditioning for free
    n_zero = 0
    while n_zero < n and c[n_zero] == 0:
        n_zero += 1
    core = c[n_zero:]
    m = len(core) - 1

    if m == 0:
        z = np.zeros(0, dtype=complex)
    else:
        z = _initial_points(m, _cauchy_radius(core))
        dcore = deriv_coeffs(core)
        converged = False
        for _ in range(MAX_ITER):
            pv = polyval(core, z)
            dv = polyval(dcore, z)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = np.where(dv != 0, pv / np.where(dv != 0, dv, 1.0), 0.0)
                diff = z[:, None] - z[None, :]
                np.fill_diagonal(diff, np.inf)
                s = np.sum(1.0 / diff, axis=1)
                denom = 1.0 - newton * s
                step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
            bad = ~np.isfinite(step)
            if np.any(bad):
                step = np.where(bad, 0.1 * z + 0.05, step)
            z = z - step
            if np.max(np.abs(step)) <= tol * (1.0 + np.max(np.abs(z))):
                converged = True
                break
        if not converged:
            res = np.abs(polyval(core, z))
            bound = 1e-6 * float(np.max(np.maximum(1.0, np.abs(z)) ** m))
            if np.max(res) > bound:
                raise NoConvergence(
                    f"Aberth iteration did not converge in {MAX_ITER} iterations",
                    best=z,
                    iterations=MAX_ITER,
                )
        for _ in range(3):
            pv = polyval(core, z)
            dv = polyval(dcore, z)
            ok = np.abs(dv) > 1e-300
            z = np.where(ok, z - np.where(ok, pv / np.where(ok, dv, 1.0), 0.0), z)

    roots = np.concatenate([np.zeros(n_zero, dtype=complex), z])
    centers, mult = cluster_roots(roots, CLUSTER_RADIUS)

    residuals = np.abs(polyval(p.coeffs, centers))
    bound = tol * scale * np.maximum(1.0, np.abs(centers)) ** max(p.degree, 1)
    converged = bool(np.all(residuals <= np.maximum(bound, 1e-9 * scale)))
    return RootSet(
        roots=centers, multiplicities=mult, residuals=residuals, converged=converged
    )


def roots_with_multiplicity(p, tol: float = 1e-12) -> np.ndarray:
    """Flat root array, each root repeated to its multiplicity."""
    rs = all_roots(p, tol)
    out = []
    for r, m in zip(rs.roots, rs.multiplicities):
        out.extend([r] * m)
    return np.asarray(out, dtype=complex)


def newton_refine(p, z0: complex, steps: int = 30) -> complex:
    """Polish a root by (multiplicity-aware) Newton; residual never worsens."""
    p = as_poly(p)
    dp = p.deriv()
    ddp = dp.deriv()
    z = complex(z0)
    best = z
    best_res = abs(p(z))
    stalled = 0
    for _ in range(steps):
        pv = p(z)
        dv = dp(z)
        if abs(dv) < 1e-300:
            stalled += 1
            if stalled > 3:
                raise Stalled("derivative vanished during Newton refinement")
            z = z + 1e-8 * (1.0 + abs(z))
            continue
        # multiplicity estimate from the logarithmic derivative curvature
        g = pv * ddp(z) / (dv * dv)
        m = 1.0
        if abs(1.0 - g) > 1e-3:
            m = max(1.0, min(6.0, (1.0 / abs(1.0 - g))))
        z_new = z - m * pv / dv
        res = abs(p(z_new))
        if res < best_res:
            best, best_res = z_new, res
            stalled = 0
        else:
            stalled += 1
            z_new = z - 0.5 * pv / dv
            res = abs(p(z_new))
            if res < best_res:
                best, best_res = z_new, res
                stalled = 0
        z = z_new
        if best_res == 0.0:
            break
        if stalled > 5:
            break
    return best
