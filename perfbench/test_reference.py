"""Hand-checked values for the benchmark's reference helpers.

    python3 -m pytest perfbench -q
"""

import cmath
import math

import numpy as np
import pytest

import reference as ref


def test_mobius_mu():
    assert [ref.mobius_mu(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@pytest.mark.parametrize(
    "d, counts",
    [
        # z^2: 0, 1, infinity fixed; one 2-cycle {w, w^2} with w^3 = 1; ...
        (2, [3, 1, 2, 3, 6, 9, 18, 30, 56]),
        (3, [4, 3, 8, 18, 48, 116, 312]),
        (4, [5, 6, 20, 60, 204]),
    ],
)
def test_dynatomic_cycle_count(d, counts):
    assert [ref.dynatomic_cycle_count(d, n) for n in range(1, len(counts) + 1)] == counts


def test_modulus_allowed():
    assert ref.modulus_allowed("z^2", 3, 8.0)
    assert not ref.modulus_allowed("z^2", 3, 4.0)
    assert ref.modulus_allowed("z^3-3*z", 1, 9.0)
    assert ref.modulus_allowed("z^3-3*z", 2, 9.0)
    assert not ref.modulus_allowed("z^3-3*z", 2, 27.0)
    assert ref.modulus_allowed("lattes", 2, 16.0)


def test_circle_residuals():
    assert ref.real_line_residual([1.0, -2.0 + 1e-3j, complex(math.inf, 0.0)]) == pytest.approx(1e-3)
    assert ref.unit_circle_residual([1j, cmath.exp(0.3j), 1.5]) == pytest.approx(0.5)


def test_critical_values_of_logistic_and_chebyshev():
    # 4x(1 - x): critical point 1/2, value 1
    assert ref.critical_values([0.0, 4.0, -4.0]) == pytest.approx([1.0])
    # T_3(x) = 4x^3 - 3x: critical points -1/2, 1/2 with values 1, -1
    assert ref.critical_values([0.0, -3.0, 0.0, 4.0]) == pytest.approx([1.0, -1.0])


def test_lyapunov_reference():
    assert ref.lyapunov_reference("z^2", 2) == pytest.approx(math.log(2))
    assert ref.lyapunov_reference("lattes", 4) == pytest.approx(math.log(2))


@pytest.mark.parametrize("key, p, lam", [("z^2", 1.0, 2.0), ("z^2-2", -1.0, -2.0), ("z^3-3*z", 0.0, -3.0)])
def test_linearizer_closed_forms(key, p, lam):
    phi, dphi = ref.LINEARIZERS[key]
    assert phi(0) == pytest.approx(p)
    assert dphi(0) == pytest.approx(1.0)
    for t in (0.3, -0.7 + 0.2j):
        # functional equation phi(lambda t) = f(phi(t))
        assert phi(lam * t) == pytest.approx(np.polyval(ref.POLYS[key], phi(t)))
        # the Taylor coefficients sum to phi
        c = ref.linearizer_coeffs(key, 40)
        series = p + sum(c[n - 1] * t**n for n in range(1, 41))
        assert series == pytest.approx(phi(t), abs=1e-12)
    assert ref.linearizer_coeffs("z^2", 5) == pytest.approx([1, 1 / 2, 1 / 6, 1 / 24, 1 / 120])
    assert ref.linearizer_coeffs("z^3-3*z", 4) == pytest.approx([1, 0, -1 / 24, 0])


def test_exact_period_and_multiplier():
    w = cmath.exp(2j * math.pi / 3)  # z^2 2-cycle {w, w^2}
    assert ref.exact_period("z^2", w, 2)
    assert not ref.exact_period("z^2", 1.0, 2)
    assert abs(ref.cycle_multiplier("z^2", w, 2)) == pytest.approx(4.0)
    # z^2 - 2 has the 2-cycle (-1 +- sqrt 5)/2 with multiplier -4
    q = (-1 + math.sqrt(5)) / 2
    assert ref.exact_period("z^2-2", q, 2)
    assert ref.cycle_multiplier("z^2-2", q, 2) == pytest.approx(-4.0)
