"""Shared random generators and reference implementations for the test suite.

All generators take an explicit ``numpy.random.Generator`` so individual
tests stay reproducible. The references write the correctability
conditions out pair by pair, as a check against the stacked fits.
"""

import itertools

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


def commutant_expectation_by_dense_basis(b):
    """Reference for ``channels._commutant_expectation``: the conditional
    expectation of a dense basis of the commutant of ``b``, decomposed a
    second time."""
    from constrained_recovery import algebra

    return algebra.conditional_expectation(algebra.commutant(b))


def local_complement_defect_by_pinv(c, b, lc=None):
    """Reference for ``channels.local_complement_defect``: each preimage of
    a basis element B of ``b`` solved by the pseudo-inverse of the
    d^2 x k_p^2 matrix G with G(|m><n|) = F_m^dag F_n, F_m the Kraus
    operators of the conditional expectation onto the commutant, and the
    two sides compared one basis element at a time; the solve residual
    ||G x - vec B|| counts toward the defect."""
    from constrained_recovery import channels, linalg

    p = channels._commutant_expectation(b)
    lc = channels.local_complementary(c, b) if lc is None else lc
    k_p, k_n, d = p.n_kraus, c.n_kraus, c.out_dim
    # column m*k_p + n of ghat is vec(F_m^dag F_n)
    ghat = linalg.gram_rows(p._stack).T
    ghat_pinv = np.linalg.pinv(ghat, rcond=1e-10)
    v2 = c.stinespring.reshape(d, k_n * c.in_dim)
    g3 = lc._stack.reshape(d, k_p, k_n * c.in_dim)
    g2 = g3.reshape(d * k_p, k_n * c.in_dim)
    worst = 0.0
    for bop in b.basis:
        x = ghat_pinv @ linalg.vec(bop)
        solve_res = float(np.linalg.norm(ghat @ x - linalg.vec(bop)))
        x = linalg.unvec(x, (k_p, k_p))
        lhs = v2.conj().T @ (bop @ v2)
        rhs = g2.conj().T @ (x @ g3).reshape(d * k_p, -1)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)), solve_res)
    return worst


def generate_algebra_by_einsum(generators, d):
    """Reference for ``algebra.generate_algebra``: the same closure loop with
    its pairwise products written as ``np.einsum``; returns the basis rows."""
    from constrained_recovery import linalg
    from constrained_recovery.algebra import _extend_rows

    seed = [np.eye(d).reshape(-1)]
    for g in generators:
        seed += [g.reshape(-1), g.conj().T.reshape(-1)]
    rows = linalg.orthonormal_rows(np.stack(seed).astype(complex))
    fresh = rows
    while rows.shape[0] < d * d:
        cur, new = rows.reshape(-1, d, d), fresh.reshape(-1, d, d)
        candidates = np.concatenate([
            np.einsum("iab,jbc->ijac", cur, new).reshape(-1, d * d),
            np.einsum("iab,jbc->ijac", new, cur).reshape(-1, d * d),
            new.conj().transpose(0, 2, 1).reshape(-1, d * d),
        ])
        before = rows.shape[0]
        rows = _extend_rows(rows, candidates)
        if rows.shape[0] == before:
            break
        fresh = rows[before:]
    return rows


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron_majoranas(n_modes):
    """Reference Jordan-Wigner generators as dense kron chains: for site j
    (0-based), Z on the sites before j, Y (then X) on j and 1 after it."""
    gens = []
    for site in range(n_modes):
        for op in (_PAULI_Y, _PAULI_X):
            mat = np.ones((1, 1), dtype=complex)
            for j in range(n_modes):
                mat = np.kron(mat, _PAULI_Z if j < site else op if j == site else np.eye(2))
            gens.append(mat)
    return gens


def kron_monomial(gens, indices):
    """Reference Hermitian monomial: i**(s(s-1)/2) times the dense product
    of the generators ``gens[k - 1]`` for the ascending ``indices``."""
    mat = np.eye(len(gens[0]), dtype=complex)
    for k in indices:
        mat = mat @ gens[k - 1]
    s = len(indices)
    return (1j ** ((s * (s - 1) // 2) % 4)) * mat


def sandwich_even_residuals(c, gens_outside, x):
    """Reference for ``recovery._even_residuals``: the projections
    x -> (x + g x g)/2 for the dense parity ``c`` and generators outside,
    with dense products, and the Frobenius distance of x from the result."""
    p = x
    for g in [c] + list(gens_outside):
        p = (p + g @ p @ g) / 2
    return np.linalg.norm(x - p, axis=(1, 2))


def _scalar_fit(fixed, target):
    """Least-squares scalar with target ~ lam * fixed, and the misfit."""
    denom = float(np.vdot(fixed, fixed).real)
    if denom <= 1e-24:
        return 0.0, float(np.linalg.norm(target))
    lam = np.vdot(fixed, target) / denom
    return lam, float(np.linalg.norm(target - lam * fixed))


def tensor_local_reference(code, kraus, dims):
    """lambda and residual of the tensor-local condition, written out.

    Every pair (i, j) compares W^dag (E_i^dag E_j (x) B) W with
    lambda_ij W^dag (1 (x) B) W, with an explicit np.kron for each matrix
    unit B of the second factor and one least-squares scalar per pair.
    """
    d_a, d_b = dims
    w = code.isometry
    units = np.eye(d_b * d_b, dtype=complex).reshape(d_b * d_b, d_b, d_b)

    def stacked(g):
        return np.concatenate([(w.conj().T @ np.kron(g, b) @ w).ravel() for b in units])

    fixed = stacked(np.eye(d_a))
    n = len(kraus)
    lam = np.zeros((n, n), dtype=complex)
    resid_sq = 0.0
    for i in range(n):
        for j in range(n):
            lam[i, j], res = _scalar_fit(fixed, stacked(kraus[i].conj().T @ kraus[j]))
            resid_sq += res * res
    return lam, np.sqrt(resid_sq)


def fermion_local_reference(code, kraus, region):
    """lambda of both region parity sectors and the residual of the
    fermion-local condition, written out.

    Every pair (i, j) compares W^dag E_i^dag E_j B P W with
    lambda_ij W^dag B P W, B over the even Majorana monomials outside the
    region and their products with the region parity C.
    """
    from constrained_recovery import fermion

    d = code.physical_dim
    n_modes = int(round(np.log2(d)))
    system = fermion.FermionSystem(n_modes)
    parity = fermion.parity_operator(system, region)
    outside = [k for k in range(1, 2 * n_modes + 1) if k not in region]
    commutant = []
    for size in range(0, len(outside) + 1, 2):
        for subset in itertools.combinations(outside, size):
            t = np.asarray(fermion.majorana_monomial(system, subset))
            commutant += [t, parity.c @ t]
    w = code.isometry
    n = len(kraus)
    lams = []
    resid_sq = 0.0
    for p in (parity.p_plus, parity.p_minus):
        fixed = np.concatenate([(w.conj().T @ b @ p @ w).ravel() for b in commutant])
        lam = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                g = w.conj().T @ kraus[i].conj().T @ kraus[j]
                target = np.concatenate([(g @ b @ p @ w).ravel() for b in commutant])
                lam[i, j], res = _scalar_fit(fixed, target)
                resid_sq += res * res
        lams.append(lam)
    return lams[0], lams[1], np.sqrt(resid_sq)


def fixed_algebra(name, rng):
    """A fixed algebra of the FixesAlgebra corpora by name:

    - ``parity-d``: the span of 1 and the parity of log2(d) modes (two
      sectors, n_k = 1);
    - ``m2-d``: M_2 (x) 1_{d/2}, generated by X (x) 1 and Z (x) 1 (one
      sector, n_k = 2);
    - ``mixed-7``: a planted (M_2 (x) 1_2) (+) (M_1 (x) 1_3);
    - ``scalars-d``: C 1; ``full-d``: M_d.
    """
    from constrained_recovery import algebra, fermion

    kind, d = name.rsplit("-", 1)
    d = int(d)
    if kind == "parity":
        modes = d.bit_length() - 1
        system = fermion.FermionSystem(modes)
        gens = [np.asarray(fermion.parity_operator(system, tuple(range(1, 2 * modes + 1))).c)]
    elif kind == "m2":
        gens = [np.kron(p, np.eye(d // 2)) for p in (_PAULI_X, _PAULI_Z)]
    elif kind == "mixed":
        gens = planted_algebra(rng, [(2, 2), (1, 3)])[0]
    elif kind == "scalars":
        gens = []
    else:
        gens = [random_unitary(rng, d) for _ in range(2)]
    return algebra.generate_algebra(gens, d)


def fixes_algebra_reference(n, m, rho, b, tol):
    """Reference for the FixesAlgebra recovery side: the fidelity SDP on the
    full dimensions with the process matrix in the dense commutant basis,
    the builder's form before it took the algebra's block coordinates.

    The PSD block J is the process matrix in the basis B_u of the
    commutant: the Kraus operators are the columns of K, vec(B_u) its rows.
    The trace rows are K^dag (1 (x) h) K for every h on the input, d^2 rows
    of which dim B' are independent, and the link lift is
    conj(sum_ij B_u[i, j] gv[i, j, p, k]) with
    gv[i, j, p, k] = sum_c Q^dag[p, (i, c)] V[(j, c), k], Q the support of
    (m (x) id)(psi psi^dag) and V V^dag = (n (x) id)(psi psi^dag).  Returns
    the solution of ``sdp.solve`` at ``tol``.
    """
    from constrained_recovery import algebra, linalg, sdp

    d = b.ambient_dim
    psi = linalg.density_purification(rho, dim=n.in_dim)
    ref = psi.shape[1]

    def state_after(c):
        v = c._stack @ psi
        return np.einsum("kar,kbs->arbs", v, v.conj()).reshape(d * ref, -1)

    eta, sigma = state_after(n), state_after(m)
    q, _ = linalg.psd_factor(sigma)
    q /= np.linalg.norm(q, axis=0)
    r = q.shape[1]
    root, _ = linalg.psd_factor(eta)
    gv = np.einsum("icp,jck->ijpk", q.conj().reshape(d, ref, r),
                   root.reshape(d, ref, -1))
    basis_rows = np.stack(algebra.commutant(b).basis).reshape(-1, d * d).conj()
    link = basis_rows @ gv.transpose(0, 1, 3, 2).conj().reshape(d * d, -1)
    rows = [
        sdp.RowFamily(d, [(0, basis_rows, 1.0)]),
        sdp.RowFamily(r, [(0, link, -1.0), (1, np.eye(2 * r, r), 1.0)]),
        sdp.RowFamily(r, [(1, np.eye(2 * r, r, -r), 1.0)]),
    ]
    sigma_c = q.conj().T @ sigma @ q
    rhs = np.concatenate([
        np.trace(linalg.hermitian_basis(d), axis1=1, axis2=2).real,
        np.zeros(r * r),
        (linalg.hermitian_basis(r).reshape(r * r, -1) @ sigma_c.T.reshape(-1)).real,
    ])
    c_y = np.zeros((2 * r, 2 * r), dtype=complex)
    c_y[:r, r:] = c_y[r:, :r] = np.eye(r) / 2.0
    problem = sdp.SdpProblem([len(basis_rows), 2 * r], [None, c_y], rows, rhs, sense="max")
    return sdp.solve(problem, tol=tol)
