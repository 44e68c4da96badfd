"""Dense linear algebra helpers shared across the package.

Everything operates on complex numpy arrays. Matrices are vectorized in
row-major (C) order throughout, so that vec(A X B) = (A kron B.T) vec(X).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "encode_matrix",
    "decode_matrix",
    "tensor",
    "partial_trace",
    "hs_inner",
    "is_hermitian",
    "as_hermitian",
    "herm_apply",
    "herm_sqrt",
    "psd_factor",
    "density_purification",
    "gram_rows",
    "null_space",
    "orthonormal_rows",
    "hermitian_basis",
    "state_fidelity",
    "purify",
]

_BASIS_CACHE = {}


def vec(m):
    """Row-major vectorization of a matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v, shape):
    """Inverse of :func:`vec` for the given (rows, cols) shape."""
    return np.asarray(v, dtype=complex).reshape(shape)


def encode_matrix(a):
    """A complex matrix (or stack) as row-major nested [real, imag] pairs; None stays None."""
    if a is None:
        return None
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def decode_matrix(rows):
    """Inverse of :func:`encode_matrix` for a matrix, refusing ragged rows."""
    if rows is None:
        return None
    if len({len(r) for r in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    pairs = np.asarray(rows, dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError("matrix entries are not [real, imag] pairs")
    return pairs.view(complex)[..., 0]


def tensor(*ops):
    """Kronecker product of one or more matrices, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m, dims, keep):
    """Trace out all tensor factors of a square matrix except those in ``keep``.

    ``dims`` lists the factor dimensions, ``keep`` the factor indices that
    survive (returned in their original order).
    """
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(keep))
    n = len(dims)
    m = np.asarray(m, dtype=complex).reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for t, i in enumerate(sorted(drop, reverse=True)):
        m = np.trace(m, axis1=i, axis2=i + n - t)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return m.reshape(d_keep, d_keep)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    return complex(np.vdot(a, b))


def is_hermitian(a, tol=1e-12):
    """Whether ``a`` equals its conjugate transpose within ``tol`` (scaled)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - a.conj().T)) <= tol * scale


def as_hermitian(a, what, dim=None):
    """``a`` as a complex Hermitian matrix, symmetrized as (a + a^dag) / 2.

    Raises ValueError, naming ``what``, when ``a`` is not square, not of
    dimension ``dim`` (if given) or not Hermitian up to 1e-8 relative.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"{what} has dimension {a.shape[0]}, expected {dim}")
    skew = np.linalg.norm(a - a.conj().T)
    if skew > 1e-8 * max(1.0, np.linalg.norm(a)):
        raise ValueError(f"{what} is not Hermitian (skew norm {skew:.2e})")
    return (a + a.conj().T) / 2.0


def herm_apply(a, fn):
    """Apply a scalar function to the eigenvalues of a Hermitian matrix."""
    w, u = np.linalg.eigh(a)
    return (u * fn(w)) @ u.conj().T


def herm_sqrt(h, tol=1e-10):
    """Positive semidefinite square root of a Hermitian matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero (downstream SDP outputs
    carry solver noise); anything below ``-tol`` raises, as does a
    non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol=max(tol, 1e-10)):
        raise ValueError("matrix is not Hermitian")
    w, u = np.linalg.eigh((h + h.conj().T) / 2)
    if w.size and float(w[0]) < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def psd_factor(h, cutoff=1e-12):
    """Factor F of a Hermitian ``h`` with F F^dag = h on its eigenvalues above
    ``cutoff`` times max(1, largest eigenvalue).

    Returns ``(F, lowest)``: column i of F is u_i sqrt(w_i), largest
    eigenvalue first, and ``lowest`` is the smallest eigenvalue, so that
    each caller applies its own positivity guard.
    """
    w, u = np.linalg.eigh(h)
    keep = w > cutoff * max(1.0, float(w[-1]))
    return u[:, keep][:, ::-1] * np.sqrt(w[keep][::-1]), float(w[0])


def density_purification(rho, dim):
    """The :func:`psd_factor` of a density matrix ``rho``, its purification
    of fewest columns.  ``rho`` must be Hermitian of dimension ``dim`` as
    :func:`as_hermitian` asks, of unit trace within 1e-8 and with no
    eigenvalue below -1e-9."""
    rho = as_hermitian(rho, "rho", dim=dim)
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("rho must have unit trace")
    psi, lowest = psd_factor(rho)
    if lowest < -1e-9:
        raise ValueError(f"state is not PSD (min eigenvalue {lowest:.3e})")
    return psi


def gram_rows(v):
    """Row (i, j) holds vec(V_i^dag V_j) for the stack ``v``, shape (n, a, m)."""
    n, a, m = v.shape
    flat = v.transpose(1, 0, 2).reshape(a, n * m)
    gram = (flat.conj().T @ flat).reshape(n, m, n, m)
    return gram.transpose(0, 2, 1, 3).reshape(n * n, m * m)


def null_space(a, rtol=1e-10):
    """Orthonormal basis for the right null space of ``a``, one vector per row."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1.0)))
    return vh[rank:].conj()


def orthonormal_rows(vectors, tol=1e-10, return_index=False):
    """Orthonormal basis for the row span, by modified Gram-Schmidt.

    Rows that are numerically dependent on earlier rows are dropped (residual
    below ``tol`` relative to the row norm, or below ``tol`` absolutely).
    With ``return_index`` the positions of the kept input rows are returned
    as a second value.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    basis = []
    kept = []
    for idx, row in enumerate(vectors):
        norm0 = float(np.linalg.norm(row))
        if norm0 <= tol:
            continue
        v = row.astype(complex, copy=True)
        for _ in range(2):  # second pass reorthogonalizes
            for b in basis:
                v -= np.vdot(b, v) * b
        norm = float(np.linalg.norm(v))
        if norm <= tol * norm0:
            continue
        basis.append(v / norm)
        kept.append(idx)
    if basis:
        out = np.array(basis)
    else:
        out = np.zeros((0, vectors.shape[1]), dtype=complex)
    if return_index:
        return out, kept
    return out


def hermitian_basis(d):
    """Orthonormal basis of d x d Hermitian matrices under the HS inner product.

    Diagonal units come first, then for each i < j the symmetric pair member
    and the antisymmetric one. For d = 2 the off-diagonal members are
    X/sqrt(2) and Y/sqrt(2). The (d*d, d, d) array is built once per
    dimension and is read-only.
    """
    if d not in _BASIS_CACHE:
        basis = np.zeros((d * d, d, d), dtype=complex)
        basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
        iu, ju = np.triu_indices(d, 1)
        sym = d + 2 * np.arange(iu.size)
        s = 1.0 / np.sqrt(2.0)
        basis[sym, iu, ju] = basis[sym, ju, iu] = s
        basis[sym + 1, iu, ju] = -1j * s
        basis[sym + 1, ju, iu] = 1j * s
        basis.setflags(write=False)
        _BASIS_CACHE[d] = basis
    return _BASIS_CACHE[d]


def state_fidelity(rho, sigma, tol=1e-8):
    """Root fidelity Tr|sqrt(rho) sqrt(sigma)| of two density matrices.

    Inputs must be Hermitian, positive semidefinite, and unit trace within
    ``tol``. The value is clamped to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for name, m in (("rho", rho), ("sigma", sigma)):
        if not is_hermitian(m, tol=tol):
            raise ValueError(f"{name} is not Hermitian")
        if abs(float(np.trace(m).real) - 1.0) > tol:
            raise ValueError(f"{name} does not have unit trace")
    a = herm_sqrt(rho, tol=tol)
    b = herm_sqrt(sigma, tol=tol)
    value = float(np.sum(np.linalg.svd(a @ b, compute_uv=False)))
    return min(1.0, max(0.0, value))


def purify(rho, tol=1e-8):
    """Purification of ``rho`` on H (x) H_ref with dim(H_ref) = dim(H).

    Returns a vector of length d*d whose partial trace over the second factor
    reproduces ``rho``. Eigenvalues are placed in descending order against the
    standard reference basis, and each eigenvector's phase is fixed so its
    first nonzero component is real positive, which makes the output
    deterministic.
    """
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, tol=tol):
        raise ValueError("rho is not Hermitian")
    d = rho.shape[0]
    w, u = np.linalg.eigh(rho)
    if w[0] < -tol:
        raise ValueError(f"rho is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    psi = np.zeros(d * d, dtype=complex)
    for slot, i in enumerate(order):
        v = u[:, i]
        nonzero = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        if nonzero.size:
            k = int(nonzero[0])
            v = v * (np.abs(v[k]) / v[k])
        e = np.zeros(d)
        e[slot] = 1.0
        psi += np.sqrt(w[i]) * np.kron(v, e)
    return psi
