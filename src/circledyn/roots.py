"""Polynomial root finding: the companion-matrix eigensolve with Newton polish.

The roots of an explicit polynomial are the eigenvalues of its companion
matrix (the method of ``np.roots``, backward stable: Edelman & Murakami,
Math. Comp. 1995).  Each root then takes three Newton steps, each kept
only where it lowers |P|, and near-coincident roots are clustered into
multiplicity estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import as_poly, cluster_roots, deriv_coeffs, polyval
from .errors import RootFindingFailed

CLUSTER_RADIUS = 1e-6


@dataclass
class RootSet:
    """Roots with multiplicity estimates and per-root residuals."""

    roots: np.ndarray
    multiplicities: list = field(default_factory=list)
    residuals: np.ndarray = None
    converged: bool = True


def _companion_roots(c) -> list:
    """np.roots of the ascending coefficients c (c[-1] != 0) without its
    set-up, bit for bit: the eigenvalues of the same companion matrix of the
    coefficients above the vanishing low ones, then an exact 0 for each."""
    zeros = int(np.flatnonzero(c)[0])
    p = c[zeros:][::-1]
    if len(p) == 1:
        return [0j] * zeros
    a = np.eye(len(p) - 1, k=-1, dtype=complex)
    a[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(a).tolist() + [0j] * zeros


def all_roots(p, tol: float = 1e-12) -> RootSet:
    """All deg(P) roots by the companion eigensolve, polished by Newton."""
    p = as_poly(p)
    if p.degree < 1:
        raise ValueError("all_roots requires degree >= 1")
    c = p.coeffs / p.coeffs[-1]
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    try:
        z = np.array(_companion_roots(c), dtype=complex)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailed(f"companion eigensolve failed: {exc}") from exc

    # a step is kept only where it lowers |P|, so exact roots (at the
    # origin, say) stay exact
    dc = deriv_coeffs(c)
    with np.errstate(all="ignore"):
        pv = polyval(c, z)
        for _ in range(3):
            step = z - pv / polyval(dc, z)
            step_pv = polyval(c, step)
            better = np.abs(step_pv) < np.abs(pv)
            z = np.where(better, step, z)
            pv = np.where(better, step_pv, pv)

    centers, mult = cluster_roots(z, CLUSTER_RADIUS)
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
