"""Exact correctability checks and optimal recovery fidelities.

The checks decide algebraically whether a noise channel can be reversed
on a code subspace, possibly in the presence of a conserved charge or a
locality structure that restricts which recoveries are allowed.  The
fidelity routines answer the quantitative version of the same question
through semidefinite programming, both directly (optimizing the
recovery map) and on the environment side (optimizing a map between
channel dilations), so the two optimal values can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import algebra as algebra_mod
from . import channels as channels_mod
from . import linalg
from . import sdp
from .channels import Channel

__all__ = [
    "Code",
    "CorrectabilityReport",
    "FidelityResult",
    "DualityReport",
    "Unconstrained",
    "Physical",
    "FixesAlgebra",
    "kl_check",
    "superselection_kl_check",
    "tensor_local_check",
    "fermion_local_check",
    "optimal_recovery_fidelity",
    "environment_side_fidelity",
    "verify_duality",
    "worst_case_fidelity_seesaw",
    "extract_recovery",
    "build_state_fidelity_sdp",
    "build_recovery_fidelity_sdp",
]

# seed of the seesaw's random code-state samples when the caller gives none
SEESAW_DEFAULT_SEED = 20240817


@dataclass
class Code:
    """An isometric encoding of a logical space into a physical space."""

    logical_dim: int
    physical_dim: int
    isometry: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.isometry, dtype=complex)
        if w.shape != (self.physical_dim, self.logical_dim):
            raise ValueError(
                f"isometry has shape {w.shape}, expected "
                f"({self.physical_dim}, {self.logical_dim})"
            )
        if np.linalg.norm(w.conj().T @ w - np.eye(self.logical_dim)) > 1e-10:
            raise ValueError("isometry columns are not orthonormal")
        self.isometry = w

    @property
    def projector(self):
        return self.isometry @ self.isometry.conj().T


@dataclass
class CorrectabilityReport:
    """Outcome of an exact correctability check.

    ``verdict`` is "correctable", "not_correctable", or "indeterminate"
    (the last when a structural precondition of the check fails, so the
    algebraic conditions are neither necessary nor sufficient).
    ``residual`` is the Frobenius misfit of the defining conditions and
    ``coefficients`` holds the fitted data (error densities or scalars).
    """

    verdict: str
    residual: float
    coefficients: dict = field(default_factory=dict)
    sufficiency_flags: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "correctable"


class _FormedWhenRead:
    """A dataclass field that may be given a zero-argument function in place
    of its value; the function forms the value on the first read, which is
    kept.  A read on the class raises AttributeError, so the field has no
    default."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(eq=False)
class FidelityResult:
    """An optimal (or heuristic) channel fidelity with its optimizer.

    ``optimizer`` is the process matrix of the optimizing map, on
    ``out_dim (x) in_dim``; ``status`` mirrors the solver ("optimal",
    "max_iter", "infeasible") or reads "heuristic" for see-saw output.
    A solve passes a function in place of the matrix, and the matrix is
    formed when first read: for a problem built on the supports of its
    states it is the extension of the solved map to the full dimensions
    (see :func:`_link_plan`), which for a code of a few dimensions in a
    large register may not fit in memory.  The repr leaves it out, and
    results compare by identity, so no comparison forms it.
    """

    value: float
    optimizer: np.ndarray = _FormedWhenRead()
    duality_gap: float
    iterations: int
    constraint_set: str
    status: str
    out_dim: int = 0
    in_dim: int = 0

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in fields(self) if f.name != "optimizer")
        return f"FidelityResult({shown})"


@dataclass
class DualityReport:
    recovery: FidelityResult
    environment: FidelityResult
    difference: float
    passed: bool
    indeterminate: bool = False

    def __bool__(self):
        return self.passed


# a row of fixed data with at most this norm carries no information
_NULL_ROW = 1e-10


def _as_channel(kraus):
    """A Kraus set as a :class:`Channel`, which raises on an empty set or on
    mismatched shapes; its ``_stack`` holds the operators as one array."""
    return kraus if isinstance(kraus, Channel) else Channel(kraus, check=False)


def _density_conditions(mat, tol):
    """Hermitian part, plus whether it is PSD with unit trace within tol."""
    h = (mat + mat.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(h)
    ok = eigs[0] >= -10 * tol and abs(float(np.trace(h).real) - 1.0) <= 10 * tol
    return h, ok


def _verdict(structural, residual, tol, densities_ok):
    """Indeterminate when a structural precondition fails; otherwise
    correctable when the conditions fit within tol with valid densities."""
    if not structural:
        return "indeterminate"
    if residual > tol or not densities_ok:
        return "not_correctable"
    return "correctable"


def _fit(fixed, targets):
    """Least-squares coefficients ``c`` of ``targets ~ c @ fixed`` and the
    Frobenius misfit.

    Every check compares the two sides of one condition,
    ``W^dag E_i^dag E_j B W = lambda_ij W^dag B W`` over the operators B
    that its recoveries leave alone (the operator-algebra form of the
    Knill-Laflamme conditions): a row of ``targets`` stacks the left side
    of one pair (i, j) over all B, and ``fixed`` the right sides it may
    combine.  A row of ``fixed`` with norm at most 1e-10 carries no
    information and gets coefficient 0.
    """
    keep = np.linalg.norm(fixed, axis=1) > _NULL_ROW
    coeff = np.zeros((len(targets), len(fixed)), dtype=complex)
    if keep.any():
        coeff[:, keep] = targets @ np.linalg.pinv(fixed[keep], rcond=1e-10)
    return coeff, float(np.linalg.norm(targets - coeff @ fixed))


def kl_check(code, kraus, tol=1e-8):
    """Exact correctability of a Kraus set on a code subspace.

    The code corrects the errors exactly when the compressions
    ``W^dag E_j^dag E_i W`` are all proportional to the identity; the
    proportionality coefficients ``sigma[i, j]`` then form a density
    matrix.  This is :func:`tensor_local_check` with a trivial second
    factor, whose ``lambda`` is the transpose of ``sigma``.
    """
    rep = tensor_local_check(code, kraus, (code.physical_dim, 1), tol)
    return replace(rep, coefficients={"sigma": rep.coefficients["lambda"].T})


def _check_noise(code, kraus, dims=None):
    """The Kraus operators of a correctability check, as one stack.

    ``dims`` = (d_A, d_B), by default (d, 1), must factor the code's
    physical dimension d, and the operators must act on the first factor.
    Every check runs this first, and the scenario loader runs it on the
    code and channel of a check task.
    """
    d = code.physical_dim
    d_a, d_b = (d, 1) if dims is None else (int(x) for x in dims)
    if d_a * d_b != d:
        raise ValueError(f"dims {d_a}x{d_b} do not factor the code's physical dimension {d}")
    ops = _as_channel(kraus)._stack
    if ops.shape[1:] != (d_a, d_a):
        raise ValueError(f"Kraus operators have shape {ops.shape[1:]}, expected ({d_a}, {d_a})")
    return ops


def _check_projectors(code, kraus, projectors, tol=1e-8):
    """The Kraus stack (see :func:`_check_noise`) and the projectors as one
    stack, after checking that they are a complete family of mutually
    orthogonal projectors on the physical space; the scenario loader runs
    this on a superselection task."""
    ops, dim = _check_noise(code, kraus), code.physical_dim
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    if not mats:
        raise ValueError("need at least one projector")
    for i, p in enumerate(mats):
        if p.shape != (dim, dim):
            raise ValueError(f"projector {i} has shape {p.shape}, expected "
                             f"({dim}, {dim})")
        if np.linalg.norm(p - p.conj().T) > tol or \
                np.linalg.norm(p @ p - p) > tol:
            raise ValueError(f"projector {i} is not an orthogonal projector")
        for j in range(i):
            if np.linalg.norm(mats[j] @ p) > tol:
                raise ValueError(f"projectors {j} and {i} overlap")
    if np.linalg.norm(sum(mats) - np.eye(dim)) > tol:
        raise ValueError("projectors do not sum to the identity")
    return ops, np.stack(mats)


def superselection_kl_check(code, kraus, projectors, tol=1e-8):
    """Correctability when recoveries must respect a charge decomposition.

    ``projectors`` is a complete orthogonal family of charge sectors.
    The errors are correctable by sector-respecting recoveries exactly
    when ``W^dag E_n^dag P_j E_m W`` is a combination of the compressed
    sector projectors ``W^dag P_i W`` whose coefficient blocks form one
    conditional error density per input sector.  The decomposition of
    the code by sectors (the projectors commuting with the code
    projector) is a structural precondition; when it fails the verdict
    is indeterminate.
    """
    ops, mats = _check_projectors(code, kraus, projectors)
    w = code.isometry
    n_ops = len(ops)
    n_sec = len(mats)

    proj = code.projector
    commute = float(np.linalg.norm(mats @ proj - proj @ mats, axis=(1, 2)).max())
    projectors_commute = commute <= max(tol, 1e-10) * 10
    fixed_sector = bool(np.any(np.linalg.norm(mats @ w - w, axis=(1, 2)) <= max(tol, 1e-10) * 10))

    # row i of fixed is vec(W^dag P_i W); row (j, n, m) of the targets is
    # vec(W^dag E_n^dag P_j E_m W), a Gram block of the stack P_j E W
    fixed = (w.conj().T @ mats @ w).reshape(n_sec, -1)
    lifted = ops @ w
    coeff, residual = _fit(fixed, np.concatenate([linalg.gram_rows(p @ lifted) for p in mats]))
    # coeff[i, j]: the error density of input sector i into output sector j
    coeff = coeff.reshape(n_sec, n_ops, n_ops, n_sec).transpose(3, 0, 1, 2)
    coeff = (coeff + coeff.conj().swapaxes(2, 3)) / 2.0
    determined = np.linalg.norm(fixed, axis=1) > _NULL_ROW
    blocks = coeff[determined]
    totals = np.trace(blocks, axis1=2, axis2=3).real.sum(axis=1)
    densities_ok = bool(
        (np.linalg.eigvalsh(blocks)[..., 0] >= -10 * tol).all()
        and (np.abs(totals - 1.0) <= 10 * tol).all()
    )
    # the code has no weight in an undetermined sector; any completion works
    coeff[~determined] = np.eye(n_ops) / (n_sec * n_ops)

    return CorrectabilityReport(
        verdict=_verdict(projectors_commute, residual, tol, densities_ok),
        residual=residual,
        coefficients={"sector_densities": coeff},
        sufficiency_flags={
            "projectors_commute_with_code": projectors_commute,
            "fixed_charge_sector": fixed_sector,
            "sector_densities_valid": densities_ok,
        },
    )


def tensor_local_check(code, kraus, dims, tol=1e-8):
    """Correctability against noise on the first tensor factor when the
    recovery may only act there as well.

    ``dims`` is the (d_A, d_B) bipartition of the physical space and the
    Kraus operators act on the first factor.  The condition compares
    ``W^dag (E_i^dag E_j (x) B) W`` with ``lambda_ij W^dag (1 (x) B) W``
    over a basis of the second factor.  Read as a d_A x (d_B k) matrix,
    W turns the left sides over all B into the Gram blocks
    ``(E_i W)^dag (E_j W)``, and the right side into ``W^dag W``.
    """
    ops = _check_noise(code, kraus, dims)
    w = code.isometry.reshape(ops.shape[1], -1)
    lam, residual = _fit((w.conj().T @ w).reshape(1, -1), linalg.gram_rows(ops @ w))
    lam, lam_ok = _density_conditions(lam.reshape(len(ops), -1), tol)
    return CorrectabilityReport(
        verdict=_verdict(True, residual, tol, lam_ok),
        residual=residual,
        coefficients={"lambda": lam},
        sufficiency_flags={"error_density_valid": lam_ok},
    )


def _even_residuals(system, c, outside, x):
    """Frobenius distance of each matrix of the stack ``x`` from the even
    algebra of a region with parity ``c`` (a signed permutation, see
    :func:`fermion._product`) and Majoranas ``outside`` it.

    That algebra is the commutant of ``c`` and of every ``w_k`` outside.
    Each map ``x -> (x + g x g)/2`` projects onto the commutant of one such
    involution ``g``; all are diagonal in the Majorana-monomial basis, so
    they commute and their product is the orthogonal projection.  Each
    ``g x g`` is two gathers with phases.
    """
    from . import fermion as fermion_mod

    p = x
    for g in [c] + [fermion_mod._monomial(system, (k,)) for k in outside]:
        p = (p + fermion_mod._right(fermion_mod._left(g, p), g)) / 2
    return np.linalg.norm(x - p, axis=(1, 2))


def _check_region(code, kraus, region):
    """The Kraus stack of :func:`_check_noise`, the mode count of the code's
    register (its dimension a power of two) and ``region`` sorted, which
    must be an even number of distinct Majorana indices of that register.
    :func:`fermion_local_check` runs this first, and the scenario loader
    runs it on a fermion-local task.
    """
    from . import fermion as fermion_mod

    ops = _check_noise(code, kraus)
    d = code.physical_dim
    n_modes = int(round(np.log2(d)))
    if n_modes < 1 or 2 ** n_modes != d:
        raise ValueError(f"physical dimension {d} is not a power of two")
    return ops, n_modes, fermion_mod._majorana_set(n_modes, region, even=True)


def fermion_local_check(code, kraus, region, tol=1e-8):
    """Correctability of even noise on a Majorana region by recoveries
    confined to the same region.

    The physical space must be a register of fermionic modes (dimension
    a power of two), ``region`` an even set of its Majorana indices (see
    :func:`_check_region`), and every Kraus operator must lie in the even
    algebra of ``region`` (a ValueError otherwise).  Membership is
    tested with parity projections, with no basis of the algebra built
    (see :func:`_even_residuals`).  The condition compares
    ``W^dag E_i^dag E_j B P W`` with ``lambda W^dag B P W`` over the
    relative commutant of the region algebra and both region parity
    sectors ``P``.
    """
    from . import fermion as fermion_mod

    ops, n_modes, region = _check_region(code, kraus, region)
    d = code.physical_dim
    system = fermion_mod.FermionSystem(n_modes)
    c = fermion_mod._monomial(system, region)
    outside = [i for i in range(1, 2 * n_modes + 1) if i not in region]
    inside = _even_residuals(system, c, outside, ops) <= 1e-8
    if not inside.all():
        raise ValueError(
            f"Kraus operator {int(np.argmin(inside))} is not in the even "
            f"algebra of the region {region}"
        )

    w = code.isometry
    # the code projector, then each Kraus operator, against the region parity
    x = np.concatenate([code.projector[None], ops])
    commute = (np.linalg.norm(fermion_mod._left(c, x) - fermion_mod._right(x, c), axis=(1, 2))
               <= max(tol, 1e-10) * 10)
    code_parity_ok, kraus_parity_ok = bool(commute[0]), bool(commute[1:].all())

    # W^dag E_i^dag E_j for every pair, as rows (i, j, x) of one matrix
    heads = ((w.conj().T @ ops.conj().transpose(0, 2, 1))[:, None] @ ops).reshape(-1, d)
    # B P W for both parity sectors P, B over the relative commutant of the
    # region algebra: the even monomials outside the region and their
    # products with the region parity
    cw = fermion_mod._left(c, w)
    pw = np.concatenate([(w + cw) / 2.0, (w - cw) / 2.0], axis=1)
    right = []
    for monomial in fermion_mod._even_monomials(system, outside):
        bpw = fermion_mod._left(monomial, pw)
        right += [bpw, fermion_mod._left(c, bpw)]
    right = np.stack(right, axis=1).reshape(d, len(right), 2, -1)

    lam = {}
    resid_sq = 0.0
    densities_ok = True
    for s, name in enumerate(("plus", "minus")):
        # columns (x, b, y): entry (x, y) of W^dag (.) B_b P W
        r = right[:, :, s].reshape(d, -1)
        fixed = (w.conj().T @ r).reshape(1, -1)
        coeff, res = _fit(fixed, (heads @ r).reshape(-1, fixed.size))
        lam[name] = coeff.reshape(len(ops), -1)
        resid_sq += res * res
        # a sector the code has no weight in has no condition to meet
        if float(np.linalg.norm(fixed)) > _NULL_ROW:
            lam[name], ok = _density_conditions(lam[name], tol)
            densities_ok = densities_ok and ok
    residual = float(np.sqrt(resid_sq))

    return CorrectabilityReport(
        verdict=_verdict(code_parity_ok and kraus_parity_ok, residual, tol, densities_ok),
        residual=residual,
        coefficients={f"lambda_{name}": lam[name] for name in lam},
        sufficiency_flags={
            "code_parity_compatible": code_parity_ok,
            "kraus_parity_preserving": kraus_parity_ok,
            "sector_densities_valid": densities_ok,
        },
    )


# ---------------------------------------------------------------------------
# fidelity SDPs


@dataclass
class Unconstrained:
    """No restriction on the optimized channel."""


@dataclass(eq=False)
class Physical:
    """Restrict the recovery to maps of the form p . r . q.

    ``p`` and ``q`` are idempotent channels (typically charge dephasing);
    the optimum over such maps equals an unconstrained optimum over the
    channels composed with them, which is how the builder encodes it.

    The recovery side is solved in one PSD block per pair of sectors
    (Gatermann & Parrilo, JPAA 192 (2004)).  Let Pi_1 .. Pi_K be the
    sectors of p (see :func:`_sectors`): Ad_U . p = p for every
    U_k = 1 - 2 Pi_k, so every output of p commutes with every Pi_k, and
    Ad_U . p = p holds on the whole torus U_theta = sum_k e^{i theta_k}
    Pi_k; likewise for the sectors Pi'_l of q with phases phi.  The
    fidelity of r . q . n with p . m is then unchanged when r becomes
    Ad_{U_theta} . r . Ad_{U'_phi}^dag, and it is concave in r, so some
    optimal r is covariant under both tori: each of its Kraus operators
    maps one q-sector l into one p-sector k, a block of s_k s'_l per
    pair, for the supports of the linked states inside the sectors (see
    :func:`_link_plan`).  At full support, parity on both sides gives four
    blocks of d^2/4, a K-sector pinching on both sides K^2.  A channel
    that fails the check of :func:`_sectors` counts as one sector, so a
    split on one side alone gives K blocks.  The environment side keeps
    one sector.
    """

    p: Channel
    q: Channel

    @cached_property
    def sectors(self):
        """The sectors (p's, q's) of the recovery side as d x 1 x d_k arrays
        (see :func:`_sectors`), found once per constraint."""
        out = _sectors(self.p)
        return out, out if self.q is self.p else _sectors(self.q)


@dataclass(eq=False)
class FixesAlgebra:
    """Restrict the optimized channel to fix an algebra of observables.

    The channel's adjoint must act as the identity on every element of
    ``algebra`` (B), which holds exactly when all Kraus operators lie in
    B' = (+)_k 1_{n_k} (x) M_{m_k}, read in the coordinates where
    U_k B U_k^dag = M_{n_k} (x) 1_{m_k} (:func:`algebra.block_structure`).
    """

    algebra: object


def _support(h):
    """Isometry onto the support of a positive ``h``: the columns of its
    :func:`linalg.psd_factor`, normalized."""
    f, _ = linalg.psd_factor(h)
    if not f.shape[1]:
        raise ValueError("state has numerically empty support")
    return f / np.linalg.norm(f, axis=0)


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
    rho = linalg.as_hermitian(rho, "rho")
    sigma = linalg.as_hermitian(sigma, "sigma", dim=rho.shape[0])
    p = _support(rho)
    q = _support(sigma)
    rp = p.shape[1]
    rq = q.shape[1]
    rho_c = p.conj().T @ rho @ p
    sigma_c = q.conj().T @ sigma @ q
    overlap = q.conj().T @ p
    dim = rp + rq
    # the two diagonal corners are pinned to the compressed states
    rows = [sdp.RowFamily(rp, [(0, np.eye(dim, rp), 1.0)]),
            sdp.RowFamily(rq, [(0, np.eye(dim, rq, -rp), 1.0)])]
    rhs = np.concatenate([
        (linalg.hermitian_basis(r).reshape(r * r, -1) @ state.T.reshape(-1)).real
        for r, state in ((rp, rho_c), (rq, sigma_c))
    ])
    c = np.zeros((dim, dim), dtype=complex)
    c[:rp, rp:] = overlap.conj().T / 2.0
    c[rp:, :rp] = overlap / 2.0
    return sdp.SdpProblem([dim], [c], rows, rhs, sense="max")


def _state_after(channel, psi):
    """(channel x id) applied to the purification, as a square matrix.

    ``psi`` has shape (d_in, r); the result acts on out (x) ref.
    """
    vs = np.stack([e @ psi for e in channel.kraus])
    t = np.einsum("kar,kbs->arbs", vs, vs.conj())
    return t.reshape(channel.out_dim * psi.shape[1], -1)


@dataclass
class _LinkPlan:
    """A fidelity SDP plus the data needed to read the optimizer back.

    The optimized channel maps act_in to act_out; ``blocks`` holds the
    (output, input) sectors of each block (:func:`_build_link_problem`),
    ``supports`` the isometries (V_out, V_in) from its coordinates to the
    act factors, as lists of act x n x s arrays by sector
    (:func:`_act_supports`), and ``sectors`` the input sectors of a fixed
    algebra M_n (x) 1 as act_in x n x m arrays (see :func:`_link_plan`).
    """

    problem: sdp.SdpProblem
    act_out: int
    act_in: int
    sigma_support: np.ndarray
    out_sizes: list
    in_sizes: list
    blocks: list
    supports: tuple = ()
    sectors: list | None = None

    def choi(self, solution):
        """Process matrix of the optimized channel, on out (x) in.

        The solved map extends to R(x) = V_out R_s(V_in^dag x V_in) V_out^dag
        + T(x).  A Kraus operator K from input sector l (columns C of V_in,
        read as act_in x n x s_l) to output sector k (columns A of V_out)
        becomes sum_nu A_nu K C_nu^dag, of vec L vec K with L = sum_nu A_nu
        (x) conj(C_nu); n > 1 only under a fixed algebra B.  A block X adds
        L X L^dag = L (L X)^dag, with L never formed.  T has the Kraus
        operators |t><e_j|, t leading V_out and e_j spanning 1 - P_in, or
        under B per sector 1_{n_k} (x) |t_k><e_j|, t_k leading its output
        support and e_j spanning the rest of m_k.  Every Kraus operator of
        R, and of the C of :func:`_link_plan`, is then a tuple
        U^dag ((+)_k 1 (x) K_k) U in the algebra B', so is every product of
        them, and R and C . R fix B.  R is a channel: its Kraus operators
        add up to (+)_k 1 (x) (P_in^k + 1 - P_in^k) = 1.
        """
        d_out, d_in = self.act_out, self.act_in
        outs, ins = self.supports
        # T per sector of a fixed algebra, else on all of act_in; c[:, 0] =
        # s[:, 0] F for the input support F, and rest spans its complement
        groups = zip(outs, ins, self.sectors) if self.sectors else [
            (np.concatenate(outs, axis=2), np.concatenate(ins, axis=2), np.eye(d_in)[:, None])]
        out = np.zeros((d_out * d_in,) * 2, dtype=complex)
        for a, c, s in groups:
            rest = np.linalg.qr(s[:, 0].conj().T @ c[:, 0], mode="complete")[0][:, c.shape[2]:]
            pad = np.einsum("xn,ynj->xyj", a[:, :, 0], (s @ rest).conj()).reshape(d_out * d_in, -1)
            out += pad @ pad.conj().T

        def lift(k, l, y):
            # L y, y on rows (a, b): A, then conj(C) on the rows (nu, b)
            z = outs[k].reshape(-1, outs[k].shape[2]) @ y.reshape(outs[k].shape[2], -1)
            c = ins[l].reshape(d_in, -1).conj()
            return (c @ z.reshape(d_out, c.shape[1], -1)).reshape(d_out * d_in, -1)

        for pairs, x in zip(self.blocks, solution.block_values):
            at = [0, *accumulate(outs[k].shape[2] * ins[l].shape[2] for k, l in pairs)]
            half = sum(lift(k, l, x[at[j]:at[j + 1]]) for j, (k, l) in enumerate(pairs))
            for j, (k, l) in enumerate(pairs):
                out += lift(k, l, half[:, at[j]:at[j + 1]].conj().T)
        return out


def _build_link_problem(eta, sigma, ref_dim, out_sizes, in_sizes, lefts=None):
    """Fidelity between a fixed state and a channel-parameterized one.

    ``eta`` is the state of act_in (x) ref before the optimized channel
    acts on the first factor; ``sigma`` is the fixed comparison state on
    act_out (x) ref.  The act factors are cut into
    consecutive sectors of ``out_sizes`` and ``in_sizes``, and the process
    matrix is one PSD block per pair (k, l) of nonempty sectors: exactly
    the channels whose Kraus operators each map sector l into sector k,
    with strict feasibility kept.  Given ``lefts``, sector k is lefts[k]
    (x) its size on both sides, as for a fixed algebra, and one block
    holds the Kraus tuples (+)_k 1 (x) K_k, each sector's trace family on
    its part (a selection lift).  With Q the support of sigma and
    eta = V V^dag, the link lift of sectors (k, l) is
    gv[i, j, p, k] = sum_{a, c} Q^dag[p, (a, i, c)] V[(a, j, c), k] on their
    rows of Q and V, a over the sector's lefts[k].  The y block, the
    fidelity's 2 x 2 block matrix, comes last.
    """
    ns = lefts or [1] * (len(out_sizes) + len(in_sizes))
    at_out, at_in = (np.cumsum([0, *(n * s for n, s in zip(ns, sizes))])
                     for sizes in (out_sizes, in_sizes))
    eta = linalg.as_hermitian(eta, "eta", dim=at_in[-1] * ref_dim)
    sigma = linalg.as_hermitian(sigma, "sigma", dim=at_out[-1] * ref_dim)

    q_sigma = _support(sigma)
    r = q_sigma.shape[1]
    sigma_c = q_sigma.conj().T @ sigma @ q_sigma
    y_dim = 2 * r
    # eta = V V^dag, V's columns smallest eigenvalue first.  The order moves
    # only rounding, but the tests' tol=1e-10 solves stop within a few
    # percent of tol, so their iteration counts depend on it
    root = linalg.psd_factor(eta)[0][:, ::-1]
    k = root.shape[1]

    def lifts(q, v, n, s_out, s_in):
        # conj(gv[i, j, p, k]) on the rows q of Q and v of V, rows (i, j)
        q_dag = q.conj().T.reshape(r, n, s_out, ref_dim)
        q_dag = q_dag.transpose(2, 0, 1, 3).reshape(s_out * r, -1)
        v = v.reshape(n, s_in, ref_dim, k).transpose(0, 2, 1, 3)
        out = (q_dag @ v.reshape(-1, s_in * k)).reshape(s_out, r, s_in, k)
        return out.transpose(0, 2, 3, 1).conj().reshape(s_out * s_in, k * r)

    if lefts:
        blocks = [[(j, j) for j in range(len(lefts))]]
        parts = [lifts(q_sigma[at_out[j] * ref_dim:at_out[j + 1] * ref_dim],
                       root[at_in[j] * ref_dim:at_in[j + 1] * ref_dim], *sizes)
                 for j, sizes in enumerate(zip(lefts, out_sizes, in_sizes))]
        at, links = np.cumsum([0, *map(len, parts)]), [np.concatenate(parts)]
        # trace preservation: the 1_out (x) h rows of each sector's part
        trace_rows = [sdp.RowFamily(si, [(0, None if len(parts) == 1 else
                                          np.eye(at[-1], len(part), -at[j]), 1.0)])
                      for j, (si, part) in enumerate(zip(in_sizes, parts))]
    else:
        full = lifts(q_sigma, root, 1, at_out[-1], at_in[-1])
        full = full.reshape(at_out[-1], at_in[-1], -1)
        blocks = [[(ko, li)] for ko, so in enumerate(out_sizes) if so
                  for li, si in enumerate(in_sizes) if si]
        links = [full[at_out[ko]:at_out[ko + 1], at_in[li]:at_in[li + 1]].reshape(-1, k * r)
                 for ((ko, li),) in blocks]
        # trace preservation: the 1_out (x) h rows of the blocks out of
        # each input sector, summed
        trace_rows = [sdp.RowFamily(si, [(b, None, 1.0) for b, ((_, lj),) in enumerate(blocks)
                                         if lj == li]) for li, si in enumerate(in_sizes) if si]
    dims = [len(lift) for lift in links]
    y = len(dims)
    rows = trace_rows + [
        # the top-left corner of the fidelity block equals the channel output
        sdp.RowFamily(r, [(b, lift, -1.0) for b, lift in enumerate(links)]
                      + [(y, np.eye(y_dim, r), 1.0)]),
        # the bottom-right corner is pinned to the fixed state
        sdp.RowFamily(r, [(y, np.eye(y_dim, r, -r), 1.0)]),
    ]
    rhs = np.concatenate(
        [np.trace(linalg.hermitian_basis(f.dim), axis1=1, axis2=2).real for f in trace_rows]
        + [np.zeros(r * r),
           (linalg.hermitian_basis(r).reshape(r * r, -1) @ sigma_c.T.reshape(-1)).real])
    c_y = np.zeros((y_dim, y_dim), dtype=complex)
    c_y[:r, r:] = np.eye(r) / 2.0
    c_y[r:, :r] = np.eye(r) / 2.0
    problem = sdp.SdpProblem(dims + [y_dim], [None] * y + [c_y], rows, rhs, sense="max")
    return _LinkPlan(problem=problem, act_out=sum(out_sizes), act_in=sum(in_sizes),
                     sigma_support=q_sigma, out_sizes=list(out_sizes),
                     in_sizes=list(in_sizes), blocks=blocks)


def _moved_by(channel, projector):
    """||J(Ad_U . channel) - J(channel)||_F for U = 1 - 2 ``projector`` and
    J the Choi matrix, with no Choi matrix formed.  For A and B with columns
    vec((1 - projector) E_i) and vec(projector E_i), the difference is
    -2 (A B^dag + B A^dag), two orthogonal terms (A^dag B = 0), so its norm
    is 2 sqrt 2 ||A B^dag|| = 2 sqrt 2 ||R_A R_B^dag||, R the QR factors.
    """
    ops = channel._stack.reshape(channel.n_kraus, -1)
    b = (projector @ channel._stack).reshape(channel.n_kraus, -1)
    r_a, r_b = (np.linalg.qr(x.T, mode="r") for x in (ops - b, b))
    return 2 * np.sqrt(2) * float(np.linalg.norm(r_a @ r_b.conj().T))


def _sectors(channel):
    """Isometries V_k onto the sectors of a square ``channel``, d x 1 x d_k.

    The sectors are the minimal central projectors Pi_k = V_k V_k^dag of
    the algebra the Kraus operators generate, with V_k the flattened sector
    arrays of :func:`algebra.block_structure`.  They are kept only when
    Ad_U . channel = channel for every U_k = 1 - 2 Pi_k, checked on Choi
    matrices within 1e-10 (:func:`_moved_by`), so the answer depends on
    the channel and not on its Kraus form; otherwise the one sector is
    the whole space.
    """
    d = channel.out_dim
    sectors = algebra_mod.block_structure(
        algebra_mod.generate_algebra(channel.kraus, d)).sectors
    if len(sectors) == 1 or any(_moved_by(channel, s.projector) > 1e-10 for s in sectors):
        return [np.eye(d)[:, None]]
    return [s.x.reshape(d, 1, -1) for s in sectors]


def _act_supports(state, act, ref, sectors, fixed=False):
    """``(V, state compressed by V)``: V's columns span the support of the
    act marginal of ``state`` on act (x) ref inside each of the
    ``sectors`` (act x n_k x m_k arrays S_k), as S_k (1 (x) F) for its
    support F on m_k, act x n_k x s_k: S_k itself when F is all of m_k, else
    the normalized :func:`linalg.psd_factor` columns.  Under a ``fixed``
    algebra F keeps at least one dimension.  Where V is the identity,
    ``state`` is kept."""
    marginal = np.einsum("ajbj->ab", state.reshape(act, ref, act, ref))
    cols = []
    for s in sectors:
        _, n, m = s.shape
        flat = s.reshape(act, -1)
        block = flat.conj().T @ marginal @ flat
        f = linalg.psd_factor(block if n == 1 else
                              np.trace(block.reshape(n, m, n, m), axis1=0, axis2=2))[0]
        f = np.eye(m, 1) if fixed and not f.shape[1] else f
        cols.append(s if f.shape[1] == m else
                    (s.reshape(-1, m) @ (f / np.linalg.norm(f, axis=0))).reshape(act, n, -1))
    v = np.concatenate([c.reshape(act, -1) for c in cols], axis=1)
    if v.shape[1] == act and np.array_equal(v, np.eye(act)):
        return cols, state
    lift = np.kron(v, np.eye(ref))
    return cols, lift.conj().T @ state @ lift


def _link_inputs(n, m, rho, constraint):
    """The constraint (``None`` read as :class:`Unconstrained`), its label
    and a purification of ``rho``, after the rules of both fidelity sides.

    ``n`` and ``m`` share an input dimension and ``rho`` is a state on it
    (see :func:`linalg.density_purification`).  :class:`Physical` needs
    ``q`` to act on the output of ``n`` and ``p`` on that of ``m``;
    :class:`FixesAlgebra` needs both outputs on its algebra's ambient
    space.  :func:`_link_plan` runs this first, and the scenario loader
    runs it on a fidelity task.
    """
    if constraint is None:
        constraint = Unconstrained()
    if isinstance(constraint, FixesAlgebra):
        b = constraint.algebra
        if n.out_dim != m.out_dim or b.ambient_dim != n.out_dim:
            raise ValueError("fixed-algebra constraints need matching dimensions")
        label = f"fixes_algebra(dim={b.dim})"
    elif isinstance(constraint, Physical):
        channels_mod._check_square(n.out_dim, q=constraint.q)
        channels_mod._check_square(m.out_dim, p=constraint.p)
        label = "physical"
    elif isinstance(constraint, Unconstrained):
        label = "unconstrained"
    else:
        raise TypeError(f"unsupported constraint {constraint!r}")
    if n.in_dim != m.in_dim:
        raise ValueError("channels must share the input dimension")
    return constraint, label, linalg.density_purification(rho, dim=n.in_dim)


def _link_plan(n, m, rho, constraint, environment):
    """The fidelity SDP of one side of the duality at ``rho``.

    The recovery side links r . n to m over recoveries r whose Kraus
    operators span all operators, or the commutant of a fixed algebra,
    or (for :class:`Physical`) the operators from a sector of q into one
    of p, one block per pair (see :attr:`Physical.sectors`).  The
    environment side links the complement of m to that of n; under
    :class:`FixesAlgebra` these are the local complements, and the
    processing fixes M_{k_p} (x) 1 on them (one sector of multiplicity
    k_p, the Kraus rank of the expectation onto B').  Returns the plan,
    the label and the map from its process matrix to the reported one.

    Every side is solved on the supports of the linked states: S_in of
    the act marginal of eta, the state the optimized channel acts on,
    and S_out of that of the fixed state sigma (each traced over ref).
    eta lives on S_in (x) ref, so the fidelity sees the channel R only on
    B(S_in).  It sees only the compression of R's output to S_out, and it
    does not fall when a positive term is added to that output, so C . R
    with C(x) = P_out x P_out +
    Tr((1 - P_out) x) tau (tau a state on S_out) is as good as R: some
    optimum maps B(S_in) into B(S_out).  On the Physical recovery side
    both marginals commute with the sectors, so the supports are taken
    sector by sector, and C keeps R covariant for tau in one sector.
    Under FixesAlgebra(B), in the coordinates of B's sectors
    (:func:`algebra.block_structure`, or of the local complements), a positive
    matrix lives on the sum of the supports of its diagonal blocks, and
    one on n_k (x) m_k on n_k (x) that of its trace over n_k: the supports
    are taken on each m_k, and C adds 1_{n_k} (x) |t_k><e_j| per sector,
    e_j spanning 1 - P_out^k and t_k in S_out^k, so that C . R still fixes
    B (:meth:`_LinkPlan.choi`, which extends the solved map to the full
    dimensions when read).  A side whose supports are the identity solves
    the full problem.
    """
    constraint, label, psi = _link_inputs(n, m, rho, constraint)
    src, dst, sectors, fixed, finish = n, m, None, None, lambda choi: choi
    if isinstance(constraint, Physical):
        p, q = constraint.p, constraint.q
        src, dst = channels_mod.compose(q, n), channels_mod.compose(p, m)
        if not environment:
            sectors = constraint.sectors

            def finish(choi):
                r = channels_mod.channel_from_choi(choi, m.out_dim, n.out_dim, renormalize=True)
                return channels_mod.compose(p, channels_mod.compose(r, q)).choi
    if isinstance(constraint, FixesAlgebra):
        fixed = [s.x for s in algebra_mod.block_structure(constraint.algebra).sectors]
        sectors = fixed, fixed
        if environment:
            p = channels_mod._commutant_expectation(constraint.algebra)
            src = channels_mod._local_complement(m, p)
            dst = channels_mod._local_complement(n, p)
            sectors = tuple([np.eye(c.out_dim).reshape(-1, p.n_kraus, c.out_dim // p.n_kraus)]
                            for c in (dst, src))
            fixed = sectors[1]
    elif environment:
        src, dst = channels_mod.complementary(dst), channels_mod.complementary(src)
    label = f"environment({label})" if environment else label
    eta, sigma = _state_after(src, psi), _state_after(dst, psi)
    act_in, act_out, ref = src.out_dim, dst.out_dim, psi.shape[1]
    out_sectors, in_sectors = sectors or ([np.eye(act_out)[:, None]], [np.eye(act_in)[:, None]])
    outs, sigma = _act_supports(sigma, act_out, ref, out_sectors, bool(fixed))
    ins, eta = _act_supports(eta, act_in, ref, in_sectors, bool(fixed))
    out_sizes, in_sizes = ([c.shape[2] for c in cols] for cols in (outs, ins))
    lefts = fixed and [s.shape[1] for s in fixed]
    plan = _build_link_problem(eta, sigma, ref, out_sizes, in_sizes, lefts)
    return replace(plan, act_out=act_out, act_in=act_in, supports=(outs, ins),
                   sectors=fixed), label, finish


def build_recovery_fidelity_sdp(n, m, rho, constraints=None):
    """Standard-form SDP for the optimal recovery fidelity.

    Maximizes the purified fidelity between ``r . n`` and ``m`` at the
    state ``rho`` over trace-preserving completely positive ``r``,
    subject to ``constraints`` (an :class:`Unconstrained`,
    :class:`Physical`, or :class:`FixesAlgebra` instance).  The optimal
    value of the returned problem is the fidelity.  The problem lives on
    the supports of the linked states (see :func:`_link_plan`).
    """
    return _link_plan(n, m, rho, constraints, environment=False)[0].problem


def _fidelity(n, m, rho, constraint, tol, environment):
    """Build and solve one side of the duality; see :func:`_link_plan`."""
    plan, label, finish = _link_plan(n, m, rho, constraint, environment)
    sol = sdp.solve(plan.problem, tol=tol)
    # a Physical sandwich keeps the dimensions of r
    return FidelityResult(
        value=float(np.clip(sol.value, 0.0, 1.0)),
        optimizer=lambda: finish(plan.choi(sol)),
        duality_gap=abs(sol.value - sol.dual_value),
        iterations=sol.iterations,
        constraint_set=label,
        status=sol.status,
        out_dim=plan.act_out,
        in_dim=plan.act_in,
    )


def optimal_recovery_fidelity(n, m, rho, constraint=None, tol=1e-7):
    """Largest fidelity between ``r . n`` and ``m`` at ``rho`` over
    admissible recoveries ``r`` from the output of ``n`` to the output
    of ``m``.

    The fidelity is taken on a purification of ``rho``; the returned
    optimizer is the process matrix of the best recovery found (for a
    physical constraint, of the already-sandwiched map).
    """
    return _fidelity(n, m, rho, constraint, tol, environment=False)


def environment_side_fidelity(n, m, rho, constraint=None, tol=1e-7):
    """Largest fidelity between the dilation environments of ``n`` and
    ``m`` at ``rho``, optimized over processings of the environment of
    ``m`` into the environment of ``n``.

    For a fixed-algebra constraint the environments are those of the
    local complements and the processing must fix M_{k_p} (x) 1, k_p the
    size of their first factor; the optimizer is 1_{k_p} (x) R, extended
    as on the recovery side and not renormalized.
    """
    return _fidelity(n, m, rho, constraint, tol, environment=True)


def verify_duality(n, m, rho, constraint=None, tol=1e-5, solver_tol=None):
    """Compare the recovery-side and environment-side optimal fidelities.

    Both sides are solved to ``solver_tol`` (by default a hundredth of
    ``tol``, floored at 1e-9) and must agree within ``tol``; if either
    solve fails to reach optimality the comparison is indeterminate.
    """
    if solver_tol is None:
        solver_tol = max(tol / 100.0, 1e-9)
    rec = optimal_recovery_fidelity(n, m, rho, constraint, tol=solver_tol)
    env = environment_side_fidelity(n, m, rho, constraint, tol=solver_tol)
    difference = abs(rec.value - env.value)
    indeterminate = rec.status != "optimal" or env.status != "optimal"
    passed = (not indeterminate) and difference <= tol
    return DualityReport(
        recovery=rec,
        environment=env,
        difference=difference,
        passed=passed,
        indeterminate=indeterminate,
    )


def _check_seesaw(n, m, code):
    """Refuse channels ``n`` and ``m`` that do not both act on the code's
    physical space; the scenario loader runs this on a seesaw task."""
    if n.in_dim != code.physical_dim or m.in_dim != code.physical_dim:
        raise ValueError("channels must act on the physical space")


def worst_case_fidelity_seesaw(n, m, code, rounds=10, tol=1e-7, seed=None):
    """Heuristic worst-case (over code states) recovery fidelity.

    Alternates between optimizing the recovery at the current input
    state and searching for the worst pure code state of that recovery
    (the worst case over states is attained at pure states).  The best
    round's pair is returned as a heuristic lower bound on the max-min
    fidelity; ``status`` is always "heuristic".  ``seed`` draws the
    random starting code states (``None``: :data:`SEESAW_DEFAULT_SEED`).
    """
    _check_seesaw(n, m, code)
    w = code.isometry
    k = code.logical_dim
    rng = np.random.default_rng(SEESAW_DEFAULT_SEED if seed is None else seed)
    samples = [np.eye(k, dtype=complex)[:, i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            for phase in (1.0, -1.0, 1j, -1j):
                v = samples[i] + phase * samples[j]
                samples.append(v / np.linalg.norm(v))
    for _ in range(256):
        v = rng.normal(size=k) + 1j * rng.normal(size=k)
        samples.append(v / np.linalg.norm(v))

    def worst_state(rec):
        rn = channels_mod.compose(rec, n)

        def value(x):
            # a pure code state is its own purification
            return channels_mod._output_fidelity(rn, m, (w @ x)[:, None])

        best_x = min(samples, key=value)
        best = value(best_x)
        x = best_x.copy()
        step = 0.2
        for _ in range(60):
            grad = np.zeros(k, dtype=complex)
            eps = 1e-6
            for t in range(k):
                for delta in (eps, 1j * eps):
                    probe = x + delta * np.eye(k, dtype=complex)[:, t]
                    probe /= np.linalg.norm(probe)
                    grad[t] += (value(probe) - best) / eps * (
                        1.0 if delta == eps else 1j
                    )
            if np.linalg.norm(grad) < 1e-12:
                break
            cand = x - step * grad / max(np.linalg.norm(grad), 1e-12)
            cand /= np.linalg.norm(cand)
            cand_val = value(cand)
            if cand_val < best - 1e-14:
                x, best = cand, cand_val
            else:
                step /= 2.0
                if step < 1e-6:
                    break
        return best, x

    rho = (w @ w.conj().T) / k
    best_value = -1.0
    best_result = None
    previous = None
    used = 0
    for r in range(max(1, int(rounds))):
        used = r + 1
        res = optimal_recovery_fidelity(n, m, rho, Unconstrained(), tol=1e-9)
        rec = extract_recovery(res)
        value, x_min = worst_state(rec)
        if value > best_value:
            best_value = value
            best_result = res
        phi = w @ x_min
        rho = 0.5 * rho + 0.5 * np.outer(phi, phi.conj())
        if previous is not None and abs(value - previous) < tol:
            break
        previous = value
    return replace(
        best_result,
        value=float(np.clip(best_value, 0.0, 1.0)),
        iterations=used,
        constraint_set="worst_case_seesaw(heuristic)",
        status="heuristic",
    )


def extract_recovery(result):
    """The optimizing map of a fidelity result as a channel."""
    if result.out_dim <= 0 or result.in_dim <= 0:
        raise ValueError("result does not carry optimizer dimensions")
    return channels_mod.channel_from_choi(
        result.optimizer, result.out_dim, result.in_dim, renormalize=True
    )
