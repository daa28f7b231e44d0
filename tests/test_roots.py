import numpy as np
import pytest

from circledyn import Poly, all_roots
from circledyn.errors import RootFindingFailed


def test_cube_roots_of_unity():
    rs = all_roots(Poly([-1.0, 0.0, 0.0, 1.0]), 1e-12)
    assert rs.converged
    assert len(rs.roots) == 3
    expect = sorted(
        (np.exp(2j * np.pi * k / 3) for k in range(3)),
        key=lambda z: (z.real, z.imag),
    )
    for got, want in zip(rs.roots, expect):
        assert abs(got - want) < 1e-10
    assert np.all(rs.residuals < 1e-12)


def test_fixed_point_polynomial_of_squaring():
    # z^4 - z: the period-2 equation for the squaring map
    rs = all_roots(Poly([0.0, -1.0, 0.0, 0.0, 1.0]), 1e-12)
    got = sorted(rs.roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expect = sorted(
        [0.0, 1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)],
        key=lambda z: (round(np.real(z), 9), round(np.imag(z), 9)),
    )
    assert len(got) == 4
    for a, b in zip(got, expect):
        assert abs(a - b) < 1e-9


def test_double_root_multiplicity():
    p = Poly(np.convolve([-0.5, 1.0], [-0.5, 1.0]))
    rs = all_roots(p, 1e-12)
    assert list(rs.multiplicities) == [2]
    assert abs(rs.roots[0] - 0.5) < 1e-6
    # z^2 (z^2 - 1): the double root at the origin stays an exact 0j
    rs = all_roots(Poly([0.0, 0.0, -1.0, 0.0, 1.0]), 1e-12)
    assert list(rs.multiplicities) == [1, 2, 1]
    assert repr(complex(rs.roots[1])) == "0j"


def test_real_coefficients_conjugate_closure():
    rng = np.random.default_rng(17)
    for _ in range(4):
        p = Poly(rng.normal(size=7))
        rs = all_roots(p, 1e-12)
        roots = list(rs.roots)
        for r in roots:
            conj_dist = min(abs(r.conjugate() - s) for s in roots)
            assert conj_dist < 1e-9 * max(1.0, abs(r))


def test_sum_and_product_identities():
    rng = np.random.default_rng(23)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = Poly(c)
    from circledyn.roots import roots_with_multiplicity

    roots = roots_with_multiplicity(p)
    n = p.degree
    total = np.sum(roots)
    prod = np.prod(roots)
    assert abs(total - (-p.coeffs[n - 1] / p.coeffs[n])) < 1e-7 * max(1.0, abs(total))
    want = (-1) ** n * p.coeffs[0] / p.coeffs[n]
    assert abs(prod - want) < 1e-7 * max(1.0, abs(want))


def test_deterministic_ordering():
    p = Poly([2.0, -3.0, 0.5, 1.0, -1.0, 1.0])
    a = all_roots(p, 1e-12)
    b = all_roots(p, 1e-12)
    assert np.array_equal(a.roots, b.roots)
    assert a.multiplicities == b.multiplicities


def test_failed_eigensolve_is_a_root_finding_failure(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(RootFindingFailed, match="companion eigensolve failed"):
        all_roots(Poly([-1.0, 0.0, 1.0]))


def test_newton_steps_never_worsen_the_eigensolve():
    # (z - 1)^40 perturbed by 1e-9: the companion eigenvalues meet the
    # residual bound, and an unguarded Newton step from them would not
    c = np.polynomial.polynomial.polyfromroots([1.0] * 40)
    c[0] += 1e-9
    assert all_roots(Poly(c)).converged
