"""Dense semidefinite programming over Hermitian blocks.

The solver handles problems of the form

    optimize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i,   X_b >= 0,

with complex Hermitian blocks treated natively and the real inner
product ``<A, B> = Tr(A B)``.  It is a primal-dual path-following
method with Nesterov-Todd scaling, an infeasible identity start, and a
Mehrotra-style adaptive centering parameter.  Everything is dense and
deterministic, aimed at blocks of a few hundred rows at most.

The module also contains the builders that express fidelity
maximization between states, and between channel outputs optimized over
an intermediate processing channel, as problems in this standard form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import Channel, compose

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "Unconstrained",
    "Physical",
    "FixesAlgebra",
    "solve",
    "svec",
    "unsvec",
    "dump_problem",
    "load_problem",
    "build_state_fidelity_sdp",
    "build_recovery_fidelity_sdp",
]

_TRIU_CACHE = {}


def _triu(d):
    if d not in _TRIU_CACHE:
        _TRIU_CACHE[d] = np.triu_indices(d, 1)
    return _TRIU_CACHE[d]


def svec(h):
    """Real coordinates of a Hermitian matrix, isometric for <A,B> = Tr(AB).

    Layout: the real diagonal, then sqrt(2) times the real parts of the
    strict upper triangle, then sqrt(2) times its imaginary parts.
    """
    h = np.asarray(h)
    d = h.shape[0]
    iu, ju = _triu(d)
    off = h[iu, ju]
    root2 = np.sqrt(2.0)
    return np.concatenate(
        [np.diagonal(h).real, root2 * off.real, root2 * off.imag]
    )


def unsvec(v, d):
    """Inverse of :func:`svec` for dimension ``d``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d * d,):
        raise ValueError(f"expected length {d * d}, got {v.shape}")
    iu, ju = _triu(d)
    k = iu.size
    h = np.zeros((d, d), dtype=complex)
    h[np.arange(d), np.arange(d)] = v[:d]
    off = (v[d:d + k] + 1j * v[d + k:]) / np.sqrt(2.0)
    h[iu, ju] = off
    h[ju, iu] = off.conj()
    return h


def _svec_stack(stack):
    """Apply :func:`svec` to a stack of matrices, shape (m, d, d) -> (m, d*d)."""
    m, d, _ = stack.shape
    iu, ju = _triu(d)
    diag = stack[:, np.arange(d), np.arange(d)].real
    off = stack[:, iu, ju]
    root2 = np.sqrt(2.0)
    return np.concatenate([diag, root2 * off.real, root2 * off.imag], axis=1)


def _as_hermitian(a, what, dim=None):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"{what} has dimension {a.shape[0]}, expected {dim}")
    skew = np.linalg.norm(a - a.conj().T)
    if skew > 1e-8 * max(1.0, np.linalg.norm(a)):
        raise ValueError(f"{what} is not Hermitian (skew norm {skew:.2e})")
    return (a + a.conj().T) / 2.0


class SdpProblem:
    """Block-diagonal Hermitian SDP in equality standard form.

    Parameters
    ----------
    block_dims:
        Dimensions of the PSD variable blocks.
    objective:
        One Hermitian matrix per block (``None`` for a zero block).
    constraints:
        Rows; each row is a list of per-block Hermitian matrices with
        ``None`` for blocks the row does not touch.
    rhs:
        Real right-hand sides, one per row.
    sense:
        "min" or "max"; solutions report the value in this sense.
    """

    def __init__(self, block_dims, objective, constraints, rhs, sense="min"):
        self.block_dims = [int(d) for d in block_dims]
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        nb = len(self.block_dims)
        if len(objective) != nb:
            raise ValueError("objective must have one entry per block")
        self.objective = [
            np.zeros((d, d), dtype=complex) if c is None
            else _as_hermitian(c, f"objective block {b}", d)
            for b, (c, d) in enumerate(zip(objective, self.block_dims))
        ]
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if len(constraints) != rhs.size:
            raise ValueError("one rhs entry per constraint row required")
        self.rhs = rhs
        self.constraints = []
        for i, row in enumerate(constraints):
            if len(row) != nb:
                raise ValueError(f"constraint row {i} must cover every block")
            self.constraints.append([
                None if a is None
                else _as_hermitian(a, f"constraint {i}, block {b}", d)
                for b, (a, d) in enumerate(zip(row, self.block_dims))
            ])

    @property
    def n_constraints(self):
        return len(self.constraints)

    def __repr__(self):
        return (f"SdpProblem(blocks={self.block_dims}, "
                f"m={self.n_constraints}, sense={self.sense!r})")


@dataclass
class SdpSolution:
    status: str
    value: float
    dual_value: float
    block_values: list
    dual_values: np.ndarray
    dual_blocks: list
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _stacked_rows(problem):
    """Constraint rows as per-block dense stacks and one real svec matrix."""
    m = problem.n_constraints
    stacks = []
    svecs = []
    for b, d in enumerate(problem.block_dims):
        stack = np.zeros((m, d, d), dtype=complex)
        for i, row in enumerate(problem.constraints):
            if row[b] is not None:
                stack[i] = row[b]
        stacks.append(stack)
        svecs.append(_svec_stack(stack))
    a_svec = np.concatenate(svecs, axis=1) if svecs else np.zeros((m, 0))
    return stacks, a_svec


def _independent_rows(a, tol):
    """Rows of a real matrix that Gram-Schmidt in row order would keep.

    A row is kept when its norm exceeds ``tol`` and its component
    orthogonal to the rows kept before it exceeds ``tol`` times that
    norm, the rule of :func:`linalg.orthonormal_rows`.  One QR of the
    nonzero rows gives their coordinates R in an orthonormal basis, and
    |R_kk| is the residual of row k against every earlier row, exact up
    to the first dependent row.  That row is dropped, and the trailing
    block of R (the later rows' components orthogonal to the rows kept
    so far) is factored again; those factorizations are at most m x m.
    """
    norms = np.linalg.norm(a, axis=1)
    cand = np.flatnonzero(norms > tol)
    kept = []
    r = np.linalg.qr(a[cand].T, mode="r") if cand.size else None
    while cand.size:
        ok = np.abs(np.diagonal(r)) > tol * norms[cand[:r.shape[0]]]
        if ok.all():
            # rows past the diagonal lie in the span of the kept ones
            kept.extend(cand[:r.shape[0]])
            break
        bad = int(np.argmin(ok))
        kept.extend(cand[:bad])
        cand = cand[bad + 1:]
        if cand.size:
            r = np.linalg.qr(r[bad:, bad + 1:], mode="r")
    return np.asarray(kept, dtype=int)


def _reduce_rows(a_svec, rhs, feas_tol=1e-8):
    """Select an independent subset of rows; detect inconsistency.

    Returns (kept_indices, reason); ``reason`` is None unless the
    dropped rows contradict the kept ones.
    """
    kept = _independent_rows(a_svec, tol=1e-10)
    dropped = np.setdiff1d(np.arange(a_svec.shape[0]), kept)
    if dropped.size:
        basis = a_svec[kept]
        coef, *_ = np.linalg.lstsq(basis.T, a_svec[dropped].T, rcond=None)
        implied = coef.T @ rhs[kept]
        worst = float(np.max(np.abs(implied - rhs[dropped])))
        if worst > feas_tol * (1.0 + float(np.max(np.abs(rhs)))):
            return kept, (f"constraint rows are linearly dependent with "
                          f"inconsistent right-hand sides (misfit {worst:.2e})")
    return kept, None


def _clipped_eigh(h, floor_rel=1e-15):
    w, u = np.linalg.eigh(h)
    top = max(float(w[-1]), 0.0)
    w = np.clip(w, max(top * floor_rel, 1e-290), None)
    return w, u


def _max_step(w, u, delta):
    """Largest t with X + t*delta >= 0, where (w, u) diagonalize X > 0."""
    b = u.conj().T @ delta @ u
    s = b / np.sqrt(np.outer(w, w))
    lam = float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0])
    if lam >= -1e-13:
        return 1e16
    return -1.0 / lam


def solve(problem, tol=1e-7, max_iter=200):
    """Solve the SDP to the requested duality-gap and residual tolerance.

    Returns an :class:`SdpSolution`; ``status`` is "optimal" when the
    relative gap and both feasibility residuals fall below ``tol``,
    "infeasible" when the constraint rows are inconsistent or the
    iterates diverge, and "max_iter" otherwise (with the reason in
    ``diagnostics``).
    """
    dims = problem.block_dims
    sign = 1.0 if problem.sense == "min" else -1.0
    c_blocks = [sign * c for c in problem.objective]
    stacks_full, a_svec_full = _stacked_rows(problem)
    rhs_full = problem.rhs

    kept, reason = _reduce_rows(a_svec_full, rhs_full)
    diagnostics = {"rows": int(rhs_full.size), "rows_kept": int(kept.size)}
    if reason is not None:
        diagnostics["reason"] = reason
        return SdpSolution(
            status="infeasible", value=np.nan, dual_value=np.nan,
            block_values=[np.zeros((d, d), dtype=complex) for d in dims],
            dual_values=np.zeros(rhs_full.size), dual_blocks=list(c_blocks),
            primal_residual=np.inf, dual_residual=np.inf, gap=np.inf,
            iterations=0, diagnostics=diagnostics,
        )
    stacks = [s[kept] for s in stacks_full]
    a_svec = a_svec_full[kept]
    b_vec = rhs_full[kept]
    m = b_vec.size
    n_total = sum(dims)

    norm_c = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in c_blocks))
    row_norms = np.linalg.norm(a_svec, axis=1) if m else np.zeros(0)
    if m:
        s_x = max(1.0, float(np.max((1.0 + np.abs(b_vec)) / (1.0 + row_norms))))
        s_z = max(1.0, norm_c, float(np.max(row_norms)))
    else:
        s_x, s_z = 1.0, max(1.0, norm_c)
    x = [s_x * np.eye(d, dtype=complex) for d in dims]
    z = [s_z * np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)

    def operator(mats):
        return a_svec @ np.concatenate([svec(t) for t in mats]) if m else np.zeros(0)

    def adjoint(vec):
        return [np.einsum("i,iab->ab", vec, s) for s in stacks]

    status = "max_iter"
    it = 0
    stall = 0
    tau = 0.98
    pobj = dobj = 0.0
    rel_gap = p_res = d_res = np.inf

    for it in range(1, max_iter + 1):
        ax = operator(x)
        r_p = b_vec - ax
        aty = adjoint(y)
        r_d = [c_blocks[b] - aty[b] - z[b] for b in range(len(dims))]
        pobj = float(sum(np.trace(c_blocks[b] @ x[b]).real for b in range(len(dims))))
        dobj = float(b_vec @ y)
        mu = float(sum(np.trace(x[b] @ z[b]).real for b in range(len(dims)))) / n_total
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        p_res = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b_vec)))
        d_res = np.sqrt(sum(np.linalg.norm(r) ** 2 for r in r_d)) / (1.0 + norm_c)
        if rel_gap <= tol and p_res <= tol and d_res <= tol:
            status = "optimal"
            break
        if np.linalg.norm(y) > 1e13 or mu > 1e16:
            status = "infeasible"
            diagnostics["reason"] = ("iterates diverged; the problem is likely "
                                     "infeasible or unbounded")
            break

        # Nesterov-Todd scaling point per block
        w_scale = []
        x_eigs = []
        z_eigs = []
        for b in range(len(dims)):
            wx, ux = _clipped_eigh(x[b])
            x_eigs.append((wx, ux))
            xs = (ux * np.sqrt(wx)) @ ux.conj().T
            t = xs @ z[b] @ xs
            wt, ut = _clipped_eigh((t + t.conj().T) / 2.0)
            tis = (ut * wt**-0.5) @ ut.conj().T
            wmat = xs @ tis @ xs
            w_scale.append((wmat + wmat.conj().T) / 2.0)
            z_eigs.append(_clipped_eigh(z[b]))

        # Schur complement and its factorization
        schur = np.zeros((m, m))
        for b in range(len(dims)):
            waw = np.matmul(np.matmul(w_scale[b], stacks[b]), w_scale[b])
            schur += a_svec[:, _block_slice(dims, b)] @ _svec_stack(waw).T
        schur = (schur + schur.T) / 2.0
        scale = max(float(np.mean(np.diagonal(schur))), 1e-30) if m else 1.0
        factor_ok = False
        for jitter in (0.0, 1e-14, 1e-11, 1e-8):
            try:
                np.linalg.cholesky(schur + jitter * scale * np.eye(m))
                schur_j = schur + jitter * scale * np.eye(m)
                factor_ok = True
                break
            except np.linalg.LinAlgError:
                continue
        if not factor_ok:
            diagnostics["reason"] = "Schur complement factorization broke down"
            break

        wrdw = [w_scale[b] @ r_d[b] @ w_scale[b] for b in range(len(dims))]
        wrdw = [(t + t.conj().T) / 2.0 for t in wrdw]
        a_wrdw = operator(wrdw)

        # predictor: pure Newton step toward XZ = 0
        dy_aff = np.linalg.solve(schur_j, b_vec + a_wrdw) if m else np.zeros(0)
        aty_aff = adjoint(dy_aff)
        dz_aff = [r_d[b] - aty_aff[b] for b in range(len(dims))]
        dx_aff = []
        for b in range(len(dims)):
            t = -x[b] - w_scale[b] @ dz_aff[b] @ w_scale[b]
            dx_aff.append((t + t.conj().T) / 2.0)
        ap = min(1.0, min(_max_step(*x_eigs[b], dx_aff[b]) for b in range(len(dims))))
        ad = min(1.0, min(_max_step(*z_eigs[b], dz_aff[b]) for b in range(len(dims))))
        mu_aff = sum(
            np.trace((x[b] + ap * dx_aff[b]) @ (z[b] + ad * dz_aff[b])).real
            for b in range(len(dims))
        ) / n_total
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0))

        # corrector: recentered step reusing the same factorization
        r_nt = []
        for b in range(len(dims)):
            wz, uz = z_eigs[b]
            zinv = (uz / wz) @ uz.conj().T
            r_nt.append(sigma * mu * zinv - x[b])
        dy = (np.linalg.solve(schur_j, r_p - operator(r_nt) + a_wrdw)
              if m else np.zeros(0))
        aty_c = adjoint(dy)
        dz = [r_d[b] - aty_c[b] for b in range(len(dims))]
        dx = []
        for b in range(len(dims)):
            t = r_nt[b] - w_scale[b] @ dz[b] @ w_scale[b]
            dx.append((t + t.conj().T) / 2.0)
        ap = min(1.0, tau * min(_max_step(*x_eigs[b], dx[b]) for b in range(len(dims))))
        ad = min(1.0, tau * min(_max_step(*z_eigs[b], dz[b]) for b in range(len(dims))))
        if ap < 1e-10 and ad < 1e-10:
            stall += 1
            if stall >= 2:
                diagnostics["reason"] = "step sizes collapsed"
                break
        else:
            stall = 0
        for b in range(len(dims)):
            x[b] = x[b] + ap * dx[b]
            z[b] = z[b] + ad * dz[b]
        y = y + ad * dy

    y_full = np.zeros(rhs_full.size)
    if m:
        y_full[kept] = y
    if status == "max_iter":
        diagnostics.setdefault("reason", "iteration limit reached")
    diagnostics.setdefault("mu", mu if it else np.nan)
    diagnostics["relative_gap"] = rel_gap
    return SdpSolution(
        status=status,
        value=sign * pobj,
        dual_value=sign * dobj,
        block_values=x,
        dual_values=sign * y_full,
        dual_blocks=z,
        primal_residual=p_res,
        dual_residual=d_res,
        gap=rel_gap,
        iterations=it,
        diagnostics=diagnostics,
    )


def _block_slice(dims, b):
    start = sum(d * d for d in dims[:b])
    return slice(start, start + dims[b] * dims[b])


def _encode_matrix(a):
    if a is None:
        return None
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a, dtype=complex)]


def _decode_matrix(data):
    if data is None:
        return None
    return np.array([[complex(re, im) for re, im in row] for row in data])


def dump_problem(problem, path):
    """Write a problem as indented JSON (complex entries as [re, im] pairs)."""
    doc = {
        "sense": problem.sense,
        "block_dims": problem.block_dims,
        "objective": [_encode_matrix(c) for c in problem.objective],
        "constraints": [
            {"blocks": [_encode_matrix(a) for a in row], "rhs": float(r)}
            for row, r in zip(problem.constraints, problem.rhs)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_problem(path):
    """Inverse of :func:`dump_problem`."""
    with open(path) as fh:
        doc = json.load(fh)
    return SdpProblem(
        block_dims=doc["block_dims"],
        objective=[_decode_matrix(c) for c in doc["objective"]],
        constraints=[[_decode_matrix(a) for a in row["blocks"]]
                     for row in doc["constraints"]],
        rhs=[row["rhs"] for row in doc["constraints"]],
        sense=doc["sense"],
    )


# ---------------------------------------------------------------------------
# fidelity builders


@dataclass
class Unconstrained:
    """No restriction on the optimized channel."""


@dataclass(eq=False)
class Physical:
    """Restrict the recovery to maps of the form p . r . q.

    ``p`` and ``q`` are idempotent channels (typically charge dephasing);
    the optimum over such maps equals an unconstrained optimum over the
    channels composed with them, which is how the builder encodes it.
    """

    p: Channel
    q: Channel


@dataclass(eq=False)
class FixesAlgebra:
    """Restrict the optimized channel to fix an algebra of observables.

    The channel's adjoint must act as the identity on every element of
    ``algebra``, which holds exactly when all Kraus operators lie in the
    algebra's commutant; the builder parameterizes the process matrix in
    that operator basis.
    """

    algebra: object


def _support_isometry(sigma, cutoff=1e-12):
    w, u = np.linalg.eigh(sigma)
    keep = w > cutoff * max(float(w[-1]), 1.0)
    if not np.any(keep):
        raise ValueError("state has numerically empty support")
    return u[:, keep]


def build_state_fidelity_sdp(rho, sigma):
    """Fidelity between two states as a maximization in standard form.

    The optimal value of the returned problem equals
    ``Tr sqrt(sqrt(rho) sigma sqrt(rho))``.  Each corner of the
    two-by-two block variable is compressed onto the support of its own
    state (the fidelity does not change, and the cross block of any
    feasible point is automatically supported there), which keeps the
    pinned corners positive definite and the problem strictly feasible
    even for rank-deficient inputs.
    """
    rho = _as_hermitian(rho, "rho")
    sigma = _as_hermitian(sigma, "sigma", dim=rho.shape[0])
    p = _support_isometry(rho)
    q = _support_isometry(sigma)
    rp = p.shape[1]
    rq = q.shape[1]
    rho_c = p.conj().T @ rho @ p
    sigma_c = q.conj().T @ sigma @ q
    overlap = q.conj().T @ p
    dim = rp + rq
    rows = []
    rhs = []
    for h in linalg.hermitian_basis(rp):
        top = np.zeros((dim, dim), dtype=complex)
        top[:rp, :rp] = h
        rows.append([top])
        rhs.append(float(np.trace(h @ rho_c).real))
    for h in linalg.hermitian_basis(rq):
        bot = np.zeros((dim, dim), dtype=complex)
        bot[rp:, rp:] = h
        rows.append([bot])
        rhs.append(float(np.trace(h @ sigma_c).real))
    c = np.zeros((dim, dim), dtype=complex)
    c[:rp, rp:] = overlap.conj().T / 2.0
    c[rp:, :rp] = overlap / 2.0
    return SdpProblem([dim], [c], rows, rhs, sense="max")


def _compact_purification(rho, tol=1e-12):
    """Matrix psi with rho = psi psi^dag and minimal reference dimension."""
    rho = _as_hermitian(rho, "rho")
    w, u = np.linalg.eigh(rho)
    if w[0] < -1e-9:
        raise ValueError(f"state is not PSD (min eigenvalue {w[0]:.3e})")
    keep = w > tol * max(float(w[-1]), 1.0)
    w = w[keep]
    u = u[:, keep]
    order = np.argsort(w)[::-1]
    return u[:, order] * np.sqrt(w[order])


def _state_after(channel, psi_m):
    """(channel x id) applied to the purification, as a 4-index tensor.

    ``psi_m`` has shape (d_in, r); the result has indices [out, ref,
    out', ref'].
    """
    vs = np.stack([e @ psi_m for e in channel.kraus])
    return np.einsum("kar,kbs->arbs", vs, vs.conj())


@dataclass
class _LinkPlan:
    """A fidelity SDP plus the data needed to read the optimizer back."""

    problem: SdpProblem
    op_basis: np.ndarray | None
    act_out: int
    act_in: int
    left_dim: int
    sigma_support: np.ndarray
    label: str

    def choi(self, solution):
        """Process matrix of the optimized channel, on out (x) in."""
        j_small = solution.block_values[0]
        if self.op_basis is None:
            return j_small
        qv = self.op_basis.reshape(self.op_basis.shape[0], -1).T
        return qv @ j_small @ qv.conj().T


def _matrix_units(d_out, d_in):
    eye = np.eye(d_out * d_in, dtype=complex)
    return eye.reshape(d_out * d_in, d_out, d_in)


def _contract_basis(basis, t):
    """out[j, u, v] = sum_kl t[u, k, v, l] h_j[k, l], Hermitian in (u, v).

    ``basis`` stacks the h_j, shape (d*d, d, d); ``t`` has shape
    (n, d, n, d).  One matmul covers the whole basis.
    """
    n, d = t.shape[:2]
    out = basis.reshape(d * d, d * d) @ t.transpose(1, 3, 0, 2).reshape(d * d, n * n)
    out = out.reshape(d * d, n, n)
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _build_link_problem(eta, sigma, left_dim, act_in, act_out, ref_dim,
                        op_basis=None, label="unconstrained"):
    """Fidelity between a fixed state and a channel-parameterized one.

    ``eta`` is the state of left (x) act_in (x) ref before the optimized
    channel acts on the middle factor; ``sigma`` is the fixed comparison
    state on left (x) act_out (x) ref.  ``op_basis``, when given, is an
    orthonormal (vec inner product) family of act_out x act_in operators
    spanning the allowed Kraus space; the process matrix is
    parameterized in that basis, which keeps the feasible set exactly
    the constrained channels while preserving strict feasibility.
    """
    d_eta = left_dim * act_in * ref_dim
    eta = _as_hermitian(eta, "eta", dim=d_eta)
    sigma = _as_hermitian(sigma, "sigma", dim=left_dim * act_out * ref_dim)
    if op_basis is None:
        ops = _matrix_units(act_out, act_in)
        identity_basis = True
    else:
        ops = np.asarray(op_basis, dtype=complex)
        if ops.ndim != 3 or ops.shape[1:] != (act_out, act_in):
            raise ValueError(
                f"operator basis must have shape (*, {act_out}, {act_in})"
            )
        gram = ops.reshape(ops.shape[0], -1).conj() @ ops.reshape(ops.shape[0], -1).T
        if np.linalg.norm(gram - np.eye(ops.shape[0])) > 1e-8:
            raise ValueError("operator basis is not orthonormal")
        identity_basis = False
    n_ops = ops.shape[0]

    q_sigma = _support_isometry(sigma)
    r = q_sigma.shape[1]
    sigma_c = q_sigma.conj().T @ sigma @ q_sigma
    basis_in = linalg.hermitian_basis(act_in)
    basis_r = linalg.hermitian_basis(r)

    # ops_cols[i, (u, j)] = B_u[i, j]
    ops_cols = ops.transpose(1, 0, 2).reshape(act_out, n_ops * act_in)
    # g[(u, p), :] = row p of Q^dag (1 (x) B_u (x) 1), every u in one matmul
    q_dag = q_sigma.conj().T.reshape(r, left_dim, act_out, ref_dim)
    g = q_dag.transpose(0, 1, 3, 2).reshape(-1, act_out) @ ops_cols
    g = g.reshape(r, left_dim, ref_dim, n_ops, act_in)
    g = g.transpose(3, 0, 1, 4, 2).reshape(n_ops * r, d_eta)
    # s[u, p, v, q] = (Q^dag (1 (x) B_u (x) 1) eta (1 (x) B_v (x) 1)^dag Q)[p, q]
    s = (g @ eta @ g.conj().T).reshape(n_ops, r, n_ops, r)
    link = _contract_basis(basis_r, s.conj())
    # pair[u, j, v, l] = sum_i conj(B_u[i, j]) B_v[i, l]
    pair = (ops_cols.conj().T @ ops_cols).reshape(n_ops, act_in, n_ops, act_in)
    tp = _contract_basis(basis_in, pair)

    rows = []
    rhs = []
    y_dim = 2 * r
    # trace preservation of the optimized channel
    for h, a_j in zip(basis_in, tp):
        rows.append([a_j, None])
        rhs.append(float(np.trace(h).real))
    # the top-left corner of the fidelity block equals the channel output
    for h, n_j in zip(basis_r, link):
        y_row = np.zeros((y_dim, y_dim), dtype=complex)
        y_row[:r, :r] = h
        rows.append([-n_j, y_row])
        rhs.append(0.0)
    # the bottom-right corner is pinned to the fixed state
    for h in basis_r:
        y_row = np.zeros((y_dim, y_dim), dtype=complex)
        y_row[r:, r:] = h
        rows.append([None, y_row])
        rhs.append(float(np.trace(h @ sigma_c).real))
    c_y = np.zeros((y_dim, y_dim), dtype=complex)
    c_y[:r, r:] = np.eye(r) / 2.0
    c_y[r:, :r] = np.eye(r) / 2.0
    problem = SdpProblem([n_ops, y_dim], [None, c_y], rows, rhs, sense="max")
    return _LinkPlan(
        problem=problem,
        op_basis=None if identity_basis else ops,
        act_out=act_out,
        act_in=act_in,
        left_dim=left_dim,
        sigma_support=q_sigma,
        label=label,
    )


def _recovery_plan(n, m, rho, constraint):
    """Plan for max over recoveries r of the fidelity of (r.n, m) at rho."""
    if n.in_dim != m.in_dim:
        raise ValueError("channels must share the input dimension")
    rho = _as_hermitian(rho, "rho", dim=n.in_dim)
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("rho must have unit trace")
    if isinstance(constraint, Physical):
        n_eff = compose(constraint.q, n)
        m_eff = compose(constraint.p, m)
        plan = _recovery_plan(n_eff, m_eff, rho, Unconstrained())
        plan.label = "physical"
        return plan
    psi_m = _compact_purification(rho)
    ref = psi_m.shape[1]
    eta = _state_after(n, psi_m)
    sigma = _state_after(m, psi_m)
    d_mid = n.out_dim
    d_fin = m.out_dim
    if isinstance(constraint, FixesAlgebra):
        from . import algebra as algebra_mod

        b = constraint.algebra
        if d_mid != d_fin or b.ambient_dim != d_mid:
            raise ValueError(
                "fixed-algebra recovery needs matching dimensions"
            )
        commutant = algebra_mod.commutant(b)
        ops_rows = linalg.orthonormal_rows(
            np.stack([linalg.vec(x) for x in commutant.basis])
        )
        ops = ops_rows.reshape(-1, d_mid, d_mid)
        label = f"fixes_algebra(dim={b.dim})"
    elif isinstance(constraint, Unconstrained):
        ops = None
        label = "unconstrained"
    else:
        raise TypeError(f"unsupported constraint {constraint!r}")
    return _build_link_problem(
        eta.reshape(d_mid * ref, d_mid * ref),
        sigma.reshape(d_fin * ref, d_fin * ref),
        left_dim=1, act_in=d_mid, act_out=d_fin, ref_dim=ref,
        op_basis=ops, label=label,
    )


def build_recovery_fidelity_sdp(n, m, rho, constraints=None):
    """Standard-form SDP for the optimal recovery fidelity.

    Maximizes the purified fidelity between ``r . n`` and ``m`` at the
    state ``rho`` over trace-preserving completely positive ``r``,
    subject to ``constraints`` (an :class:`Unconstrained`,
    :class:`Physical`, or :class:`FixesAlgebra` instance).  The optimal
    value of the returned problem is the fidelity.
    """
    if constraints is None:
        constraints = Unconstrained()
    return _recovery_plan(n, m, rho, constraints).problem
