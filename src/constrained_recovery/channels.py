"""CPTP channel calculus on dense Kraus operators.

Conventions used throughout:

* ``compose(a, b)`` applies ``b`` first, so it is the map "a after b".
* Choi matrices live on out (x) in with the row-major vec convention of
  :mod:`.linalg`, J = sum_k vec(E_k) vec(E_k)^dag.
* The Stinespring isometry is V = sum_i E_i (x) |i>, of shape
  (out_dim * n_kraus, in_dim), with the environment as the second (fast)
  tensor factor; the channel is Tr_2(V rho V^dag) and its complement is
  Tr_1(V rho V^dag).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import algebra as algebra_mod
from . import linalg

# numbers of the (environment x input)^2 matrices per basis element that one
# chunk of the local-complement defect holds
_DEFECT_CHUNK = 1 << 16

__all__ = [
    "Channel",
    "ChannelDistance",
    "ValidationReport",
    "PhysicalityReport",
    "FixesReport",
    "LocalityReport",
    "EquivalenceReport",
    "identity_channel",
    "kraus_from_choi",
    "channel_from_choi",
    "validate",
    "adjoint_apply",
    "compose",
    "tensor_channels",
    "complementary",
    "local_complementary",
    "local_complement_defect",
    "equivalent_complements",
    "distance",
    "is_physical",
    "fixes_algebra",
    "maps_into",
    "is_local",
    "entanglement_fidelity",
]


class Channel:
    """A completely positive trace-preserving map stored as Kraus operators.

    The Choi matrix and the Stinespring isometry are computed on first use
    and cached; instances are treated as immutable after construction.
    Construction applies a loose trace-preservation guard
    (residual above 1e-6 raises); :func:`validate` performs the strict
    checks. Pass ``check=False`` for completely positive pieces that are not
    trace preserving on their own, such as parity-split halves.
    """

    def __init__(self, kraus, check=True):
        ops = [np.asarray(e, dtype=complex) for e in kraus]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(e.shape != shape for e in ops):
            raise ValueError("Kraus operators must share a single 2d shape")
        self.out_dim, self.in_dim = int(shape[0]), int(shape[1])
        # each operator is stored once: the Kraus matrices are views of _stack
        self._stack = np.stack(ops)
        self._stack.flags.writeable = False
        self.kraus = list(self._stack)
        # sum_k E_k^dag E_k as one product of the stacked operators
        f = self._stack.reshape(-1, self.in_dim)
        ksum = f.conj().T @ f
        self.tp_residual = float(np.linalg.norm(ksum - np.eye(self.in_dim), 2))
        if check and self.tp_residual > 1e-6:
            raise ValueError(
                f"Kraus operators are not trace preserving "
                f"(residual {self.tp_residual:.2e}); pass check=False for a "
                f"completely positive non-channel piece"
            )

    @cached_property
    def choi(self):
        vecs = self._stack.reshape(self.n_kraus, -1)
        return vecs.T @ vecs.conj()

    @cached_property
    def stinespring(self):
        return self._stack.transpose(1, 0, 2).reshape(
            self.out_dim * self.n_kraus, self.in_dim
        )

    @property
    def n_kraus(self):
        return len(self.kraus)

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ValueError(
                f"state has shape {rho.shape}, expected "
                f"({self.in_dim}, {self.in_dim})"
            )
        return np.einsum("kab,bc,kdc->ad", self._stack, rho, self._stack.conj())

    def __repr__(self):
        return (
            f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, "
            f"n_kraus={self.n_kraus})"
        )


def identity_channel(dim):
    """The identity channel on a ``dim``-dimensional system."""
    return Channel([np.eye(dim)])


@dataclass
class ValidationReport:
    tp_residual: float
    choi_min_eig: float
    isometry_residual: float
    tol: float
    valid: bool

    def __bool__(self):
        return self.valid


def validate(c, tol=1e-9):
    """Check the channel invariants and report their residuals.

    Trace preservation is measured as the spectral norm of sum E^dag E - 1,
    Choi positivity as the minimum eigenvalue, and the Stinespring relation
    as the spectral norm of V^dag V - 1.
    """
    eye = np.eye(c.in_dim)
    ksum = adjoint_apply(c, np.eye(c.out_dim))
    tp = float(np.linalg.norm(ksum - eye, 2))
    w = np.linalg.eigvalsh((c.choi + c.choi.conj().T) / 2)
    vres = float(np.linalg.norm(c.stinespring.conj().T @ c.stinespring - eye, 2))
    ok = tp <= tol and float(w[0]) >= -tol and vres <= tol
    return ValidationReport(tp, float(w[0]), vres, tol, ok)


def adjoint_apply(c, x):
    """Apply the adjoint (Heisenberg-picture) map of ``c`` to an observable."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (c.out_dim, c.out_dim):
        raise ValueError(
            f"observable has shape {x.shape}, expected "
            f"({c.out_dim}, {c.out_dim})"
        )
    return np.einsum("kba,bc,kcd->ad", c._stack.conj(), x, c._stack)


def kraus_from_choi(choi, out_dim, in_dim, cutoff=1e-12):
    """Kraus operators of a CP map recovered from its Choi matrix.

    Eigenvectors with eigenvalue above ``cutoff`` (relative to the largest,
    floored at an absolute scale of 1) become Kraus operators, largest first.
    A numerically zero Choi matrix yields a single zero operator.
    """
    choi = np.asarray(choi, dtype=complex)
    f, _ = linalg.psd_factor((choi + choi.conj().T) / 2, cutoff)
    if not f.shape[1]:
        return [np.zeros((out_dim, in_dim), dtype=complex)]
    return list(f.T.reshape(-1, out_dim, in_dim))


def channel_from_choi(choi, out_dim, in_dim, cutoff=1e-12, renormalize=False):
    """Build a channel from a Choi matrix.

    With ``renormalize`` every Kraus operator is right-multiplied by
    K^(-1/2), K = sum E^dag E, restoring exact trace preservation; this is
    the standard fix for process matrices extracted from an SDP solve, which
    satisfy the trace condition only up to solver tolerance.
    """
    ops = kraus_from_choi(choi, out_dim, in_dim, cutoff)
    if renormalize:
        stack = np.stack(ops)
        ksum = np.einsum("kba,kbc->ac", stack.conj(), stack)
        w, u = np.linalg.eigh(ksum)
        if float(w[0]) <= 1e-12:
            raise ValueError("cannot renormalize: sum E^dag E is singular")
        inv_root = (u * (1.0 / np.sqrt(w))) @ u.conj().T
        ops = [e @ inv_root for e in ops]
    return Channel(ops, check=False)


def compose(a, b, reduce=True):
    """The composition "a after b", with Kraus set {A_i B_j}.

    The product family is ordered with the a-index outermost. When ``reduce``
    is set and the family exceeds out_dim * in_dim operators, an equivalent
    minimal Kraus set is extracted from the Choi matrix; pass
    ``reduce=False`` to keep the full product family (the local-complement
    construction relies on its index structure).
    """
    if a.in_dim != b.out_dim:
        raise ValueError(
            f"cannot compose: left input dim {a.in_dim} != right output "
            f"dim {b.out_dim}"
        )
    ops = [ea @ eb for ea in a.kraus for eb in b.kraus]
    out = Channel(ops, check=False)
    if reduce and len(ops) > a.out_dim * b.in_dim:
        out = channel_from_choi(out.choi, a.out_dim, b.in_dim)
    return out


def tensor_channels(a, b):
    """The product channel acting as ``a`` on the first factor and ``b`` on the second."""
    ops = [np.kron(ea, eb) for ea in a.kraus for eb in b.kraus]
    return Channel(ops, check=False)


def complementary(c):
    """The environment-side channel of ``c``, in canonical Gram form.

    With Kraus operators E_i the complement sends rho to the n_kraus-sized
    matrix with entries Tr(rho E_j^dag E_i) at (i, j), which equals the
    environment marginal Tr_1(V rho V^dag) of the cached dilation. Its a-th
    Kraus operator collects the a-th rows of all the E_i.
    """
    ops = [c._stack[:, a, :] for a in range(c.out_dim)]
    return Channel(ops, check=False)


def local_complementary(c, b):
    """Complement of ``c`` that also counts the part of the output hidden
    from the fixed algebra ``b`` as environment.

    Built as the ordinary complement of E composed after ``c``, E the
    conditional expectation onto the commutant of ``b``: with U_k b U_k^dag
    = M_{n_k} (x) 1_{m_k}, its Kraus operators are U_k^dag (|i><j| (x) 1)
    U_k / sqrt(n_k). The full product Kraus family is kept, so the output
    space factors as E's environment tensor that of ``c`` (in that order).
    """
    _check_output_algebra(c, b)
    return _local_complement(c, _commutant_expectation(b))


def _check_output_algebra(c, b):
    """Refuse an algebra ``b`` that is not on the output of ``c``, where a
    local complement looks; the scenario loader runs this on a
    local-complement task."""
    if b.ambient_dim != c.out_dim:
        raise ValueError(f"algebra ambient dim {b.ambient_dim} != channel output dim {c.out_dim}")


def _commutant_expectation(b):
    """The expectation onto the commutant of ``b``: :func:`algebra._expectation`
    of its sector arrays, last two axes swapped."""
    sectors = algebra_mod.block_structure(b).sectors
    return algebra_mod._expectation([s.x.swapaxes(1, 2) for s in sectors])


def _local_complement(c, p):
    """:func:`local_complementary` of ``c`` given ``p``, the conditional
    expectation onto the commutant of the fixed algebra."""
    return complementary(compose(p, c, reduce=False))


def local_complement_defect(c, b, lc=None):
    """Worst-case residual between the constructed local complement and its
    defining property.

    The defining property of the local complement lc of ``c`` for ``b``: for
    every B in ``b`` and every environment observable E, applying the adjoint
    of lc to (a preimage of B) tensor E equals V^dag (B (x) E) V with V the
    Stinespring isometry of ``c``. The preimage x, with sum x_mn F_m^dag F_n
    = B for the Kraus operators F = X_k (|i><j| (x) 1) X_k^dag / sqrt(n_k) of
    the expectation onto the commutant (X_k the sector arrays of ``b``), is
    the least-norm one, (+)_k 1_{n_k} (x) Tr_{m_k}(X_k^dag B X_k) / m_k; its
    solve residual is part of the defect. Returns the largest Frobenius
    residual over an orthonormal basis of ``b`` and all environment units.
    """
    return _checked_local_complement(c, b, lc)[1]


def _checked_local_complement(c, b, lc=None):
    """:func:`local_complementary` of ``c`` for ``b`` (or ``lc``) and its
    :func:`local_complement_defect`, from one decomposition of ``b``.

    Both sides are (environment x input) square matrices per basis element
    of ``b``, formed for ``_DEFECT_CHUNK`` numbers' worth of the basis at a
    time, so that the peak beyond the H_k below is one chunk's.
    """
    _check_output_algebra(c, b)
    sectors = [s.x for s in algebra_mod.block_structure(b).sectors]
    p = _commutant_expectation(b)
    lc = _local_complement(c, p) if lc is None else lc
    d, width = c.out_dim, c.n_kraus * c.in_dim
    # V^dag (B (x) 1) V, less G^dag (x (x) 1) G with G the Stinespring
    # isometry of lc, sum_k sum_jl b_k[j, l] H_k[j, l] with H_k[j, l] =
    # sum_i G_kij^dag G_kil; and the solve residual sum_k X_k (b_k (x) 1)
    # X_k^dag - B
    v, g = c.stinespring.reshape(d, width), lc._stack.reshape(d, p.n_kraus, width)
    parts, at = [], 0
    for x in sectors:
        _, n, m = x.shape
        # column j of G_k, over its rows (i, a), for each j
        cols = g[:, at:at + n * n].reshape(d, n, n, width).transpose(2, 0, 1, 3)
        cols = cols.reshape(n, d * n, width)
        h = (cols.conj().transpose(0, 2, 1)[:, None] @ cols[None]).reshape(n * n, -1)
        xt = x.transpose(0, 2, 1).reshape(d * m, n)
        parts.append((n, m, x.reshape(d, n * m), xt, xt.reshape(d, m * n).conj().T, h))
        at += n * n
    basis = b._rows.reshape(-1, d, d)
    step = max(1, _DEFECT_CHUNK // (width * width))
    worst = 0.0
    for lo in range(0, len(basis), step):
        chunk = basis[lo:lo + step]
        lhs, image = v.conj().T @ chunk @ v, -chunk
        for n, m, flat, xt, xt_adj, h in parts:
            blocks = (flat.conj().T @ chunk @ flat).reshape(-1, n, m, n, m)
            b_k = np.trace(blocks, axis1=2, axis2=4) / m
            image += (xt @ b_k).reshape(-1, d, m * n) @ xt_adj
            lhs -= (b_k.reshape(-1, n * n) @ h).reshape(lhs.shape)
        worst = max(worst, *(float(np.linalg.norm(r, axis=(1, 2)).max()) for r in (lhs, image)))
    return lc, worst


@dataclass
class ChannelDistance:
    choi_frobenius: float
    fidelity_lower_bound: Optional[float] = None


def distance(a, b, with_fidelity=False):
    """Frobenius distance between Choi matrices; zero iff equal superoperators.

    With ``with_fidelity`` the entanglement fidelity at the maximally mixed
    input is attached as a closeness indicator.
    """
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        raise ValueError("channels must share input and output dimensions")
    d = float(np.linalg.norm(a.choi - b.choi))
    f = None
    if with_fidelity:
        f = entanglement_fidelity(a, b, np.eye(a.in_dim) / a.in_dim)
    return ChannelDistance(d, f)


@dataclass
class PhysicalityReport:
    physical: bool
    residual: float
    tol: float

    def __bool__(self):
        return self.physical


def _check_square(dim, **channels):
    """Refuse each named channel unless it maps dimension ``dim`` to itself."""
    for name, c in channels.items():
        if (c.in_dim, c.out_dim) != (dim, dim):
            raise ValueError(
                f"{name} maps dimension {c.in_dim} to {c.out_dim}, not {dim} to itself"
            )


def _check_physical(n, p, q):
    """Refuse ``p`` unless it acts on the input of ``n`` and ``q`` unless it
    acts on the output; :func:`is_physical` runs this, and the scenario
    loader runs it on an is-physical task."""
    _check_square(n.in_dim, p=p)
    _check_square(n.out_dim, q=q)


def _check_square_with(n, *algebras):
    """Refuse ``n`` unless it maps a space to itself and every algebra lives
    on that space; :func:`fixes_algebra`, :func:`maps_into` and
    :func:`is_local` run this, and the scenario loader runs it on an
    is-local task."""
    _check_square(n.in_dim, channel=n)
    for a in algebras:
        if a.ambient_dim != n.in_dim:
            raise ValueError(f"algebra ambient dim {a.ambient_dim} != channel dim {n.in_dim}")


def is_physical(n, p, q, tol=1e-8):
    """Whether ``n`` acts on restricted observables only through restricted
    states: q n p = q n as superoperators.

    ``p`` and ``q`` must be idempotent channels (conditional expectations);
    idempotence is verified before the comparison. The residual is the
    Choi-Frobenius distance between the two sides.
    """
    _check_physical(n, p, q)
    for name, e in (("p", p), ("q", q)):
        if distance(compose(e, e), e).choi_frobenius > 1e-8:
            raise ValueError(f"{name} is not idempotent")
    lhs = compose(q, compose(n, p))
    rhs = compose(q, n)
    res = distance(lhs, rhs).choi_frobenius
    return PhysicalityReport(res <= tol, res, tol)


@dataclass
class FixesReport:
    fixes: bool
    adjoint_residual: float
    commutation_residual: float
    tol: float

    def __bool__(self):
        return self.fixes


def fixes_algebra(n, b, tol=1e-8):
    """Whether the adjoint of ``n`` fixes every element of the algebra ``b``.

    Reports the worst adjoint-fixing residual over the basis and, separately,
    the worst commutator of a Kraus operator with a basis element: a
    channel's adjoint fixes a dagger-algebra exactly when all its Kraus
    operators (in any representation) commute with the algebra, so both
    residuals must pass.
    """
    _check_square_with(n, b)
    adj = 0.0
    comm = 0.0
    for bop in b.basis:
        adj = max(adj, float(np.linalg.norm(adjoint_apply(n, bop) - bop)))
        for e in n.kraus:
            comm = max(comm, float(np.linalg.norm(e @ bop - bop @ e)))
    return FixesReport(adj <= tol and comm <= tol, adj, comm, tol)


def maps_into(n, a, tol=1e-8):
    """Whether the adjoint of ``n`` maps the algebra ``a`` into itself."""
    _check_square_with(n, a)
    if not a.dim:
        return True
    images = np.stack([adjoint_apply(n, aop) for aop in a.basis])
    return bool(algebra_mod.contains(a, images, tol).all())


@dataclass
class LocalityReport:
    local: bool
    fixes: "FixesReport"
    maps_into_a: bool
    strong: bool
    tol: float

    def __bool__(self):
        return self.local


def is_local(n, a, b, tol=1e-8):
    """Whether ``n`` is local for the pair (a, b): its adjoint maps ``a``
    into itself and fixes ``b``.

    ``b`` must commute with ``a`` elementwise (precondition, raises
    otherwise); the ``strong`` flag marks the case where ``b`` equals the
    full commutant a' of ``a``, read as dim b = dim a' = sum_s m_s^2.
    """
    _check_square_with(n, a, b)
    pre = 0.0
    for aop in a.basis:
        for bop in b.basis:
            pre = max(pre, float(np.linalg.norm(aop @ bop - bop @ aop)))
    if pre > tol:
        raise ValueError(
            f"b is not inside the commutant of a (worst commutator {pre:.2e})"
        )
    fx = fixes_algebra(n, b, tol)
    mi = maps_into(n, a, tol)

    strong = b.dim == sum(s.right_dim ** 2 for s in algebra_mod.block_structure(a).sectors)
    return LocalityReport(bool(fx) and mi, fx, mi, strong, tol)


def _output_fidelity(n, m, psi):
    """Fidelity of the outputs of ``n (x) id`` and ``m (x) id`` on the
    purification ``psi`` of psi psi^dag, as in :func:`entanglement_fidelity`."""
    a = (n._stack @ psi).reshape(n.n_kraus, -1)
    b = (m._stack @ psi).reshape(m.n_kraus, -1)
    return min(1.0, float(np.sum(np.linalg.svd(a.conj() @ b.T, compute_uv=False))))


def entanglement_fidelity(n, m, rho):
    """Fidelity of the outputs of two channels on a purification of ``rho``.

    With psi psi^dag = rho (:func:`linalg.density_purification`, which
    also checks ``rho``), the outputs are A A^dag and B B^dag, the columns
    of A and B being vec(E_k psi) and vec(F_j psi) for the Kraus operators
    of ``n`` and ``m``.  By Uhlmann's theorem their fidelity is the trace
    norm of the k_n x k_m matrix A^dag B, so no output state is formed and
    no square root is taken.
    """
    if n.in_dim != m.in_dim or n.out_dim != m.out_dim:
        raise ValueError("channels must share input and output dimensions")
    return _output_fidelity(n, m, linalg.density_purification(rho, dim=n.in_dim))


@dataclass
class EquivalenceReport:
    equivalent: bool
    forward_value: float
    backward_value: float
    forward_residual: float
    backward_residual: float
    indeterminate: bool = False

    def __bool__(self):
        return self.equivalent


def equivalent_complements(a, b, tol=1e-6):
    """Whether each channel can be obtained from the other by postprocessing.

    Runs two maximal-fidelity optimizations at the maximally mixed (full
    rank) input; at full rank the fidelity reaches 1 exactly when a
    postprocessing map matches the target everywhere, so both deficits must
    stay within ``tol``. The Choi residuals of the extracted optimizers are
    reported alongside; an SDP that stops short of optimality makes the
    verdict indeterminate.
    """
    from . import recovery

    if a.in_dim != b.in_dim:
        raise ValueError("channels must share the input dimension")
    rho = np.eye(a.in_dim) / a.in_dim

    def one_way(src, dst):
        res = recovery.optimal_recovery_fidelity(
            src, dst, rho, recovery.Unconstrained()
        )
        best = recovery.extract_recovery(res)
        resid = distance(compose(best, src), dst).choi_frobenius
        return res, resid

    fwd, fres = one_way(a, b)
    bwd, bres = one_way(b, a)
    stuck = fwd.status != "optimal" or bwd.status != "optimal"
    equivalent = (not stuck) and (1.0 - fwd.value <= tol) and (
        1.0 - bwd.value <= tol
    )
    return EquivalenceReport(
        equivalent, fwd.value, bwd.value, fres, bres, indeterminate=stuck
    )
