"""Reference values the benchmark checks circledyn's outputs against.

Everything here is computed apart from circledyn: closed forms from the
paper and the literature, and plain numpy evaluation of polynomials whose
coefficients are written out here.  Nothing in this module imports the
package under test.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Verdicts the paper states for its case suite.
PAPER_VERDICTS = {
    "z^2-2": "CIRCLE_CASE_II",
    "z^3-3*z": "CIRCLE_CASE_II",
    "z^2": "CIRCLE_CASE_I",
    "z^2+1": "NO_REAL_STRUCTURE",
    "EX1(0.25)": "CIRCLE_CASE_III",
    "EX1(0.6)": "CIRCLE_CASE_I",
    "EX2(0.9)": "CIRCLE_CASE_III",
    "EX3(0.2,0.5,0.001)": "CIRCLE_CASE_III",
    "lattes": "LATTES",
}

# Exit code the CLI documents for each verdict.
VERDICT_EXIT = {"NO_REAL_STRUCTURE": 4}

# Polynomials in the suite, as descending numpy coefficient lists.
POLYS = {
    "z^2": [1.0, 0.0, 0.0],
    "z^2-2": [1.0, 0.0, -2.0],
    "z^3-3*z": [1.0, 0.0, -3.0, 0.0],
}


def mobius_mu(n: int) -> int:
    """The number-theoretic Moebius function."""
    if n < 1:
        raise ValueError("mu is defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def dynatomic_cycle_count(d: int, n: int) -> int:
    """Cycles of exact period n of a generic degree-d rational map.

    f^n(z) = z has d^n + 1 solutions on the sphere; Moebius inversion over
    the divisors of n leaves the points of exact period n (Morton and
    Silverman, Crelle 1995), and n of them make one cycle."""
    points = sum(
        mobius_mu(n // k) * (d**k + 1) for k in range(1, n + 1) if n % k == 0
    )
    if points % n:
        raise ArithmeticError(f"{points} period-{n} points do not form whole cycles")
    return points // n


# Moduli that repelling cycle multipliers of exact period n can take.
MULTIPLIER_MODULI = {
    "z^2": lambda n: (2.0**n,),
    "z^3-3*z": lambda n: (3.0**n, 9.0**n),
    "lattes": lambda n: (2.0**n, 4.0**n),
}


def modulus_allowed(key: str, n: int, modulus: float, rel: float = 1e-6) -> bool:
    return any(abs(modulus - m) <= rel * m for m in MULTIPLIER_MODULI[key](n))


def real_line_residual(points) -> float:
    """Largest |Im z| over finite points (infinity lies on the real line)."""
    z = np.asarray(points, dtype=complex)
    z = z[np.isfinite(z)]
    return float(np.max(np.abs(z.imag))) if z.size else 0.0


def unit_circle_residual(points) -> float:
    """Largest ||z| - 1| over the points."""
    z = np.asarray(points, dtype=complex)
    return float(np.max(np.abs(np.abs(z) - 1.0))) if z.size else 0.0


def critical_values(ascending_coeffs) -> np.ndarray:
    """Critical values of a real polynomial, left to right by critical point."""
    desc = np.asarray(ascending_coeffs, dtype=float)[::-1]
    crit = np.roots(np.polyder(desc))
    if crit.size and np.max(np.abs(crit.imag)) > 1e-6:
        raise ValueError("polynomial has non-real critical points")
    crit = np.sort(crit.real)
    return np.polyval(desc, crit)


def lyapunov_reference(key: str, degree: int) -> float:
    """Lyapunov exponent of the measure of maximal entropy: log d for a
    polynomial with connected Julia set, (1/2) log d for a Lattes map."""
    return 0.5 * math.log(degree) if key == "lattes" else math.log(degree)


# Poincare functions phi with phi(0) = p, phi'(0) = 1 and
# phi(lambda t) = f(phi(t)), in closed form:
#   z^2 at 1:       phi(t) = exp(t)
#   z^2-2 at -1:    phi(t) = 2 cos(2 pi/3 - t/sqrt 3)   (z = 2 cos theta)
#   z^3-3z at 0:    phi(t) = 2 sin(t/2)
_A = 2.0 * math.pi / 3.0
_B = 1.0 / math.sqrt(3.0)

LINEARIZERS = {
    "z^2": (
        lambda t: cmath.exp(t),
        lambda t: cmath.exp(t),
    ),
    "z^2-2": (
        lambda t: 2.0 * cmath.cos(_A - _B * t),
        lambda t: 2.0 * _B * cmath.sin(_A - _B * t),
    ),
    "z^3-3*z": (
        lambda t: 2.0 * cmath.sin(t / 2.0),
        lambda t: cmath.cos(t / 2.0),
    ),
}


def linearizer_coeffs(key: str, order: int) -> np.ndarray:
    """Taylor coefficients c_1 .. c_order of the closed-form phi."""
    out = np.zeros(order)
    for n in range(1, order + 1):
        if key == "z^2":
            c = 1.0
        elif key == "z^2-2":
            # d^n/dt^n 2 cos(a - b t) = 2 b^n cos(a - n pi/2)
            c = 2.0 * _B**n * math.cos(_A - n * math.pi / 2.0)
        else:
            # d^n/dt^n 2 sin(t/2) = 2^(1-n) sin(n pi/2)
            c = 2.0 ** (1 - n) * math.sin(n * math.pi / 2.0)
        out[n - 1] = c / math.factorial(n)
    return out


def iterate(key: str, z: complex, n: int) -> complex:
    coeffs = POLYS[key]
    for _ in range(n):
        z = np.polyval(coeffs, z)
    return complex(z)


def cycle_multiplier(key: str, z: complex, n: int) -> complex:
    deriv = np.polyder(POLYS[key])
    lam = 1.0 + 0.0j
    for _ in range(n):
        lam *= np.polyval(deriv, z)
        z = np.polyval(POLYS[key], z)
    return complex(lam)


def exact_period(key: str, z: complex, n: int, tol: float = 1e-8) -> bool:
    """z returns after n steps and after no proper divisor of n."""
    scale = 1.0 + abs(z)
    if abs(iterate(key, z, n) - z) > tol * scale:
        return False
    return all(
        abs(iterate(key, z, k) - z) > tol * scale for k in range(1, n) if n % k == 0
    )
