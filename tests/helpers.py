"""Shared random generators for the test suite.

All generators take an explicit ``numpy.random.Generator`` so individual
tests stay reproducible.
"""

import numpy as np


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d, rank=None):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus(rng, d_out, d_in, k):
    """Kraus operators of a random trace-preserving map (split isometry)."""
    g = rng.normal(size=(d_out * k, d_in)) + 1j * rng.normal(size=(d_out * k, d_in))
    q, _ = np.linalg.qr(g)
    return [q[i * d_out:(i + 1) * d_out, :] for i in range(k)]


def random_physical_channel(rng, c, k=3):
    """Random TP channel whose Kraus operators have definite parity.

    Each operator is a random matrix projected onto a randomly chosen
    parity sector of the involution ``c``, after which the set is
    normalized to be trace preserving (the normalizer commutes with ``c``
    so the parities survive).
    """
    from constrained_recovery.channels import Channel

    d = c.shape[0]
    ops = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        ops.append((a + sign * c @ a @ c) / 2.0)
    total = sum(e.conj().T @ e for e in ops)
    w, u = np.linalg.eigh(total)
    if w[0] <= 1e-8 * w[-1]:
        return random_physical_channel(rng, c, k)
    root = u @ np.diag(w**-0.5) @ u.conj().T
    return Channel([e @ root for e in ops])


def planted_algebra(rng, sectors):
    """Two generic generators of a hidden block algebra (+) M_n (x) 1_m.

    ``sectors`` is a list of (n, m) pairs; returns (generators, basis_change,
    ambient_dim). The generated algebra has dimension sum(n^2) and its
    commutant sum(m^2).
    """
    d = sum(n * m for n, m in sectors)
    u = random_unitary(rng, d)
    gens = []
    for _ in range(2):
        blocks = []
        for n, m in sectors:
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            blocks.append(np.kron(g, np.eye(m)))
        full = np.zeros((d, d), dtype=complex)
        at = 0
        for blk in blocks:
            r = blk.shape[0]
            full[at:at + r, at:at + r] = blk
            at += r
        gens.append(u @ full @ u.conj().T)
    return gens, u, d


def commutant_by_svd(a, tol=1e-10):
    """Reference commutant: the kernel of the stacked commutator maps.

    X -> [b, X] for every basis element b, as one (dim * d^2) x d^2 matrix in
    row-major vec convention, whose null space is found by SVD. Meant for
    ambient dimension 16 or less.
    """
    from constrained_recovery.algebra import AlgebraBasis

    d = a.ambient_dim
    eye = np.eye(d)
    maps = np.concatenate([np.kron(b, eye) - np.kron(eye, b.T) for b in a.basis])
    _, s, vh = np.linalg.svd(maps, full_matrices=False)
    null = vh[np.count_nonzero(s > tol * max(1.0, s[0])):]
    return AlgebraBasis(d, list(null.conj().reshape(-1, d, d)))
