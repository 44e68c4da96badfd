"""Tests for the dense linear algebra helpers."""

import math

import numpy as np
import pytest

from constrained_recovery import linalg

from helpers import random_density, random_pure, random_unitary


def test_vec_row_major_convention():
    m = np.arange(6, dtype=complex).reshape(2, 3)
    assert np.array_equal(linalg.vec(m), np.arange(6, dtype=complex))
    assert np.array_equal(linalg.unvec(linalg.vec(m), (2, 3)), m)


def test_vec_sandwich_identity():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = linalg.vec(a @ x @ b)
    rhs = np.kron(a, b.T) @ linalg.vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    sig = random_density(rng, 3)
    joint = np.kron(rho, sig)
    assert np.allclose(linalg.partial_trace(joint, (2, 3), (0,)), rho, atol=1e-12)
    assert np.allclose(linalg.partial_trace(joint, (2, 3), (1,)), sig, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    reduced = linalg.partial_trace(rho, (2, 2), (1,))
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(11)
    parts = [random_density(rng, d) for d in (2, 2, 3)]
    joint = linalg.tensor(*parts)
    mid = linalg.partial_trace(joint, (2, 2, 3), (1,))
    assert np.allclose(mid, parts[1], atol=1e-12)
    outer = linalg.partial_trace(joint, (2, 2, 3), (0, 2))
    assert np.allclose(outer, np.kron(parts[0], parts[2]), atol=1e-12)


def test_herm_sqrt_known_values():
    a = np.diag([4.0, 9.0]).astype(complex)
    assert np.allclose(linalg.herm_sqrt(a), np.diag([2.0, 3.0]), atol=1e-12)


def test_herm_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.herm_sqrt(np.diag([1.0, -0.5]))


def test_herm_sqrt_squares_back():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 5)
    r = linalg.herm_sqrt(rho)
    assert np.allclose(r @ r, rho, atol=1e-10)


def test_herm_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_herm_sqrt_commutes_with_unitary_conjugation():
    rng = np.random.default_rng(37)
    rho = random_density(rng, 4)
    u = random_unitary(rng, 4)
    lhs = linalg.herm_sqrt(u @ rho @ u.conj().T)
    rhs = u @ linalg.herm_sqrt(rho) @ u.conj().T
    assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_herm_apply_matches_exponential_series():
    rng = np.random.default_rng(31)
    h = rng.normal(size=(3, 3))
    h = (h + h.T) / 2
    u = linalg.herm_apply(h, lambda w: np.exp(1j * w))
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    series = sum(
        np.linalg.matrix_power(1j * h, k) / math.factorial(k) for k in range(30)
    )
    assert np.allclose(u, series, atol=1e-10)


def test_fidelity_maximally_mixed_vs_pure():
    # Closed form: Tr|sqrt(1/2) P| for a rank-1 projector P is 1/sqrt(2).
    rho = np.eye(2) / 2
    sigma = np.diag([1.0, 0.0]).astype(complex)
    f = linalg.state_fidelity(rho, sigma)
    assert f == pytest.approx(0.7071067811865476, abs=1e-12)


def test_fidelity_pure_states_overlap():
    rng = np.random.default_rng(9)
    for _ in range(5):
        psi = random_pure(rng, 4)
        phi = random_pure(rng, 4)
        f = linalg.state_fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
        assert f == pytest.approx(abs(np.vdot(psi, phi)), abs=1e-10)


def test_fidelity_bounds_symmetry_self():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density(rng, 3)
        sig = random_density(rng, 3)
        f = linalg.state_fidelity(rho, sig)
        assert 0.0 <= f <= 1.0 + 1e-10
        assert linalg.state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        assert f == pytest.approx(linalg.state_fidelity(sig, rho), abs=1e-10)


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 4)
    sig = random_density(rng, 4)
    u = random_unitary(rng, 4)
    f1 = linalg.state_fidelity(rho, sig)
    f2 = linalg.state_fidelity(u @ rho @ u.conj().T, u @ sig @ u.conj().T)
    assert f2 == pytest.approx(f1, abs=1e-10)


def test_fidelity_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.state_fidelity(np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2) / 2)


def test_fidelity_rejects_wrong_trace():
    with pytest.raises(ValueError):
        linalg.state_fidelity(np.eye(2), np.eye(2) / 2)


def test_fidelity_orthogonal_pure_states():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert linalg.state_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_purify_round_trip():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5):
        rho = random_density(rng, d)
        psi = linalg.purify(rho)
        assert psi.shape == (d * d,)
        back = linalg.partial_trace(np.outer(psi, psi.conj()), (d, d), (0,))
        assert np.linalg.norm(back - rho) <= 1e-10


def test_purify_rank_deficient():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    psi = linalg.purify(rho)
    back = linalg.partial_trace(np.outer(psi, psi.conj()), (3, 3), (0,))
    assert np.linalg.norm(back - rho) <= 1e-12


def test_purify_deterministic():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 4)
    assert np.array_equal(linalg.purify(rho), linalg.purify(rho.copy()))


def test_psd_factor_reproduces_the_kept_spectrum_largest_first():
    rng = np.random.default_rng(25)
    u = random_unitary(rng, 5)
    w = np.array([-2e-13, 1e-14, 0.1, 0.3, 0.6])
    h = (u * w) @ u.conj().T
    f, lowest = linalg.psd_factor(h)
    assert f.shape == (5, 3)
    # the columns are u_i sqrt(w_i), largest eigenvalue first
    assert np.allclose(np.linalg.norm(f, axis=0) ** 2, [0.6, 0.3, 0.1], atol=1e-14)
    kept = (u[:, 2:] * w[2:]) @ u[:, 2:].conj().T
    assert np.linalg.norm(f @ f.conj().T - kept) <= 1e-14
    assert lowest == pytest.approx(-2e-13, abs=1e-15)


def test_psd_factor_cutoff_is_relative_to_max_one_and_the_top():
    h = np.diag([3e-12, 0.5]).astype(complex)
    # below the top eigenvalue 0.5 the scale is 1: 3e-12 > 1e-12 * 1 stays
    assert linalg.psd_factor(h)[0].shape == (2, 2)
    # a top eigenvalue of 1e4 scales the cutoff to 1e-8
    big = np.diag([3e-12, 5e-9, 1e4]).astype(complex)
    f, lowest = linalg.psd_factor(big)
    assert f.shape == (3, 1)
    assert lowest == 3e-12
    assert linalg.psd_factor(big, cutoff=1e-13)[0].shape == (3, 2)


def test_psd_factor_of_a_numerically_zero_matrix_has_no_columns():
    h = np.diag([-1e-14, 1e-15, 5e-13]).astype(complex)
    f, lowest = linalg.psd_factor(h)
    assert f.shape == (3, 0)
    assert lowest == -1e-14


def test_hermitian_basis_orthonormal_and_complete():
    for d in (2, 3):
        basis = linalg.hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.array([[linalg.hs_inner(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)
        for b in basis:
            assert linalg.is_hermitian(b)


def test_hermitian_basis_expands_arbitrary_matrices():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis = linalg.hermitian_basis(3)
    coeff = np.array([linalg.hs_inner(b, m) for b in basis])
    rebuilt = np.tensordot(coeff, basis, axes=(0, 0))
    assert np.allclose(rebuilt, m, atol=1e-12)


def test_null_space_known_rank():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    ns = linalg.null_space(a)
    assert ns.shape == (2, 3)
    assert np.allclose(a @ ns.T, 0.0, atol=1e-12)
    gram = ns @ ns.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormal_rows_drops_dependents():
    v = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], dtype=complex)
    basis, kept = linalg.orthonormal_rows(v, return_index=True)
    assert kept == [0, 2]
    gram = basis @ basis.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormal_rows_empty_input():
    out = linalg.orthonormal_rows(np.zeros((3, 4)))
    assert out.shape == (0, 4)


def test_matrix_codec_round_trip():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    a[0, 0] = complex(-0.0, -0.0)
    rows = linalg.encode_matrix(a)
    assert rows[1][0] == [a[1, 0].real, a[1, 0].imag]
    back = linalg.decode_matrix(rows)
    assert back.dtype == complex and np.array_equal(back.view(float), a.view(float))
    assert str(rows[0][0]) == "[-0.0, -0.0]"
    # a real matrix gets zero imaginary parts; a stack is encoded entrywise
    assert linalg.encode_matrix(np.eye(2))[0] == [[1.0, 0.0], [0.0, 0.0]]
    assert linalg.encode_matrix(np.stack([a, a])) == [rows, rows]


def test_matrix_decoder_refuses_ragged_rows_and_bare_numbers():
    with pytest.raises(ValueError, match="unequal lengths"):
        linalg.decode_matrix([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]])
    with pytest.raises(ValueError, match="pairs"):
        linalg.decode_matrix([[1.0, 0.0], [0.0, 1.0]])
