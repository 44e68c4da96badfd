"""Dense semidefinite programming over Hermitian blocks.

The solver handles problems of the form

    optimize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i,   X_b >= 0,

with complex Hermitian blocks treated natively and the real inner
product ``<A, B> = Tr(A B)``.  It is a primal-dual path-following
method with Nesterov-Todd scaling from an infeasible identity start.
Everything is dense and deterministic, aimed at blocks of a few hundred
rows at most.

Each iteration is Mehrotra's predictor-corrector (Mehrotra, "On the
implementation of a primal-dual interior point method", SIAM J. Optim. 2
(1992)) in the Nesterov-Todd frame of Todd, Toh & Tutuncu (below).  The
predictor is the affine Newton step toward X Z = 0, with largest
feasible step lengths alpha_p, alpha_d <= 1; its complementarity mu_aff
gives the centering sigma = (mu_aff / mu)^3.  In the frame G below,
G^-1 X G^-dag = G^dag Z G = D = diag(ev^(1/2)), and the corrector's
scaled direction R = G^-1 dX G^-dag + G^dag dZ G solves

    D R + R D = 2 sigma mu 1 - 2 D^2 - (M + M^dag)

entrywise, where M is the product of the scaled affine directions
G^-1 dX_aff G^-dag and G^dag dZ_aff G (:func:`_corrector`).  Without M
this is the plain recentering step toward X Z = sigma mu 1.  Both steps
share one Schur factorization.  The corrector's primal and dual steps
are a fraction tau = 0.9 + 0.09 min(alpha_p, alpha_d) of the largest
feasible ones, as in SDPT3 (Toh, Todd & Tutuncu, "SDPT3 -- a MATLAB
software package for semidefinite programming", Optim. Methods Softw. 11
(1999)).  ``SdpSolution.diagnostics`` keeps the last step's ``sigma``,
``step_fraction`` (tau), ``alpha_primal`` and ``alpha_dual``.

Each iteration factors every block once (:func:`_nt_scaling`): with
X = L L^dag and L^dag Z L = V diag(ev) V^dag, the scaling W with
W Z W = X is G G^dag for G = L V ev^(-1/4), and Z^-1 = Q Q^dag for
Q = L V ev^(-1/2), so one Cholesky factor and one eigendecomposition
serve both (Todd, Toh & Tutuncu, "On the Nesterov-Todd direction in
semidefinite programming", SIAM J. Optim. 8 (1998)).  The largest step
t with X + t dX >= 0 is -1/lambda_min(F dX F^dag) for any frame F with
F X F^dag = 1; the frames are ev^-1 V^dag L^dag Z = V^dag L^-1 for X and
Q^dag for Z, so no inverse is formed, and an exact ``eigvalsh`` gives
lambda_min (Toh, "A note on the calculation of step-lengths in
interior-point methods for semidefinite programming", Comput. Optim.
Appl. 21 (2002)).

Blocks iterate in stacks (:class:`_Stack`), after the block-diagonal
layout of SDPA (Yamashita, Fujisawa & Kojima, "Implementation and
evaluation of SDPA 6.0", Optim. Methods Softw. 18 (2003)).  Every block of
dimension at most ``_STACK_CUT`` = 16 joins one (k, n, n) array padded to
the largest of them, and every larger block is a stack of one, so the
scaling, both step lengths, the directions, mu and the update make one
batched call per stack, not one per block.  A block sits in the leading
corner of its matrix; the rest is padding, identity in X and Z and zero in
C and in the rows, which the svec map never reads.  The dual residual, the
right sides of both directions and the traces behind mu are masked to the
blocks' own entries, so the directions are zero on the padding and X and
Z keep it as the identity exactly.  A Cholesky factor, eigendecomposition
or product of block-diagonal matrices keeps the blocks apart, so the
padding's eigenvalues are exactly 1, and the clip floor of the scaling is
taken from each block's own eigenvalues (:func:`_clipped_eigh`).  The
primal and dual step lengths of a stack come from one ``eigvalsh`` of its
primal and dual frames together.  The Schur complement is still assembled
block by block, from each block's corner of W.

Every row belongs to a row family (:class:`RowFamily`), the c*c rows

    A_j = sum_t coef_t L_t (1_a (x) h_j) L_t^dag,   h_j in hermitian_basis(c),

with the lift L_t of term t of shape (block dim, a*c), columns indexed
(k, p), k-major, and any number of terms per block.  A row given densely
is the c = 1 family of each block's A = F+ F+^dag - F- F-^dag.  Each
iteration needs the Schur complement
S_ij = sum_b Tr(A_ib W_b A_jb W_b) at the Nesterov-Todd scaling W.  For
two terms f, g on one block the whole c_f^2 x c_g^2 block follows from
N = L_f^dag W L_g, viewed as N[k, y, l, z]:

    R[(y, z), (x, w)] = sum_kl N[k, y, l, z] conj(N[k, x, l, w]),
    S_fg = coef_f coef_g Re(Hm_f T Hm_g^T),   T[(x, y), (z, w)] = R[(y, z), (x, w)],

where Hm_c stacks vec(h_j).  That is one GEMM of c_f c_g x a_f a_g x
c_f c_g instead of c^2 products of block size, the partial-trace
reduction of structured rows in Fujisawa, Kojima & Nakata, "Exploiting
sparsity in primal-dual interior-point methods for semidefinite
programming", Math. Prog. 79 (1997).  A problem keeps its families as
families: :func:`solve` writes its one real row matrix straight from them,
and ``SdpProblem.constraints`` writes the dense rows only on request.  The
rows 1_a (x) h_j of an identity lift are mutually orthogonal, so a problem
that opens with such a family row-reduces with a QR of the later rows'
residuals alone.

The svec layout, where each Hermitian entry lands in the solver's real
coordinates and in its stacks, lives in :class:`_SvecMap` alone.  The
module knows nothing of channels: the fidelity problems are built in
:mod:`.recovery`.  Problems, their families kept, can be written to and
read from JSON files (:func:`dump_problem`, :func:`load_problem`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = [
    "RowFamily",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "svec",
    "unsvec",
    "dump_problem",
    "load_problem",
]

_ROOT2 = np.sqrt(2.0)
# misfit of a dropped row, relative to 1 + max |rhs|, that makes the rows inconsistent
_FEAS_TOL = 1e-8
# eigenvalue floor of :func:`_clipped_eigh`, relative to the largest eigenvalue
_EIG_FLOOR = 1e-15
# matrix entries per chunk of rows in :func:`_row_norms` (16 MB of float64)
_NORM_CHUNK = 1 << 21
# largest block dimension that joins the padded stack of small blocks: one
# batched call per stack saves microseconds per block, which the padding's
# extra flops outweigh past this size; a cut of 32 made blocks (32, 4)
# slower than one call per block, and a cut of 8 ran (16, 16, 16, 16, 8)
# at 0.86 of that time against 0.77 (per-shape timings in CHANGES.md)
_STACK_CUT = 16


def svec(h):
    """Real coordinates of a Hermitian matrix, isometric for <A,B> = Tr(AB).

    Layout: the real diagonal, then sqrt(2) times the real parts of the
    strict upper triangle, then sqrt(2) times its imaginary parts.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    return _SvecMap.of(h.shape[0]).svec(h.ravel())


def unsvec(v, d):
    """Inverse of :func:`svec` for dimension ``d``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d * d,):
        raise ValueError(f"expected length {d * d}, got {v.shape}")
    return _SvecMap.of(d).unsvec(v)[0][0]


def _contract_basis(basis, t):
    """out[j, u, v] = sum_kl t[u, k, v, l] h_j[k, l], Hermitian in (u, v).

    ``basis`` stacks the h_j, shape (d*d, d, d); ``t`` has shape
    (n, d, n, d).  One matmul covers the whole basis.
    """
    n, d = t.shape[:2]
    out = basis.reshape(d * d, d * d) @ t.transpose(1, 3, 0, 2).reshape(d * d, n * n)
    out = out.reshape(d * d, n, n)
    # in place, so that one copy (the conjugate) exists besides the result
    out += out.conj().transpose(0, 2, 1)
    out /= 2.0
    return out


class RowFamily:
    """The c*c constraint rows sum_t coef_t L_t (1_a (x) h_j) L_t^dag.

    ``h_j`` runs over ``linalg.hermitian_basis(dim)``.  ``terms`` holds
    ``(block, lift, coef)`` triples, any number per block; ``lift`` has
    shape (block dim, a * dim) with columns indexed (k, p), k-major, or
    is ``None`` for the identity (then a = block dim / dim).
    """

    def __init__(self, dim, terms):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("row family dimension must be positive")
        self.terms = [(int(b), None if lift is None else np.asarray(lift, dtype=complex),
                       float(coef)) for b, lift, coef in terms]

    def __len__(self):
        return self.dim * self.dim

    def check(self, block_dims):
        """Raise ValueError unless every term fits blocks of ``block_dims``:
        each block in range, each lift of shape (block dim, a * dim), each
        identity-lift block a multiple of dim."""
        c = self.dim
        for b, lift, _ in self.terms:
            if not 0 <= b < len(block_dims):
                raise ValueError(f"row family term on block {b} is out of range")
            n = block_dims[b]
            if lift is None:
                if n % c:
                    raise ValueError(f"block {b} of dimension {n} is not "
                                     f"1_a (x) {c} x {c}")
            elif lift.ndim != 2 or lift.shape[0] != n or lift.shape[1] % c:
                raise ValueError(f"lift on block {b} must have shape "
                                 f"({n}, a * {c}), got {lift.shape}")

    def _stack(self, terms, n):
        """Dense rows of ``terms``, (lift, coef) pairs on one block of
        dimension n, summed in order: a (c*c, n, n) stack."""
        c = self.dim
        basis = linalg.hermitian_basis(c)
        total = None
        for lift, coef in terms:
            if lift is None:
                stack = np.einsum("kl,jpq->jkplq", np.eye(n // c), basis).reshape(c * c, n, n)
            else:
                # t[u, p, v, q] = sum_k L[u, (k, p)] conj(L[v, (k, q)])
                lp = lift.reshape(n, -1, c).transpose(0, 2, 1).reshape(n * c, -1)
                t = (lp @ lp.conj().T).reshape(n, c, n, c)
                stack = _contract_basis(basis, t)
            if coef != 1.0:
                stack *= coef
            total = stack if total is None else total + stack
        return total

    def _block_terms(self):
        """``{block: [(lift, coef), ...]}``, each touched block's terms in order."""
        out = {}
        for b, lift, coef in self.terms:
            out.setdefault(b, []).append((lift, coef))
        return out

    def stacks(self, block_dims):
        """Dense rows per touched block, its terms summed: ``{block: (c*c, n, n) stack}``."""
        self.check(block_dims)
        return {b: self._stack(terms, block_dims[b]) for b, terms in self._block_terms().items()}


def _dense_family(row, dims, what):
    """The c = 1 family of a dense row, one Hermitian matrix A or None per
    block: A = F+ F+^dag - F- F-^dag, F+- the eigenvectors of its positive
    and negative eigenvalues times their roots, no term for a missing sign."""
    terms = []
    for b, (a, d) in enumerate(zip(row, dims)):
        if a is not None:
            w, v = np.linalg.eigh(linalg.as_hermitian(a, f"{what}, block {b}", d))
            terms += [(b, v[:, part] * np.sqrt(sign * w[part]), sign)
                      for sign, part in ((1.0, w > 0), (-1.0, w < 0)) if part.any()]
    return RowFamily(1, terms)


class SdpProblem:
    """Block-diagonal Hermitian SDP in equality standard form.

    Parameters
    ----------
    block_dims:
        Dimensions of the PSD variable blocks.
    objective:
        One Hermitian matrix per block (``None`` for a zero block).
    constraints:
        Rows; each entry is a :class:`RowFamily` standing for its c*c rows
        in order, or a list of per-block Hermitian matrices, ``None`` for
        blocks the row does not touch, which becomes a c = 1 family.
    rhs:
        Real right-hand sides, one per row (a family counts c*c).
    sense:
        "min" or "max"; solutions report the value in this sense.

    ``families`` lists ``(first row, family)``; :func:`solve` writes its
    real row matrix from them.  No row is stored densely: the
    ``constraints`` property writes every row out anew on each access.
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
            else linalg.as_hermitian(c, f"objective block {b}", d)
            for b, (c, d) in enumerate(zip(objective, self.block_dims))
        ]
        self.families = []
        i = 0
        for row in constraints:
            if not isinstance(row, RowFamily):
                if len(row) != nb:
                    raise ValueError(f"constraint row {i} must cover every block")
                row = _dense_family(row, self.block_dims, f"constraint {i}")
            row.check(self.block_dims)
            self.families.append((i, row))
            i += len(row)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if i != rhs.size:
            raise ValueError("one rhs entry per constraint row required")
        self.rhs = rhs

    @property
    def n_constraints(self):
        return self.rhs.size

    @property
    def constraints(self):
        """Every row in dense form: per-block matrices, ``None`` for blocks
        the row does not touch, written out anew on each access."""
        nb = len(self.block_dims)
        rows = [None] * self.n_constraints
        for start, family in self.families:
            stacks = family.stacks(self.block_dims)
            for j in range(len(family)):
                rows[start + j] = [stacks[b][j] if b in stacks else None for b in range(nb)]
        return rows

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


@dataclass
class _Stack:
    """Blocks that iterate as one (k, n, n) array, block ``blocks[i]`` of
    dimension ``dims[i]`` in the leading corner of matrix i.  The rest of a
    matrix is padding: identity in X and Z, zero everywhere else.  ``live``
    is 1 on the blocks' own entries and 0 on the padding, and ``last_own``
    the raveled position of each matrix's ``dims[i]``-th eigenvalue; both
    are None for a stack with no padding."""

    n: int
    blocks: list
    dims: list
    live: np.ndarray | None
    last_own: np.ndarray | None

    @classmethod
    def of(cls, blocks, dims):
        own = [dims[b] for b in blocks]
        n = max(own)
        if all(d == n for d in own):
            return cls(n, list(blocks), own, None, None)
        live = np.zeros((len(own), n, n))
        for mat, d in zip(live, own):
            mat[:d, :d] = 1.0
        return cls(n, list(blocks), own, live,
                   n * np.arange(len(own)) + np.asarray(own) - 1)

    def own(self, a):
        """``a`` with its padding set to zero, a new array when there is padding."""
        return a if self.live is None else a * self.live

    def identity(self, scale):
        """``scale`` times the identity on each block, the identity on the padding."""
        diag = np.ones((len(self.blocks), self.n))
        for row, d in zip(diag, self.dims):
            row[:d] = scale
        return diag[:, :, None] * np.eye(self.n, dtype=complex)


def _stack_layout(dims):
    """The stacks of a solve: every block of dimension at most
    :data:`_STACK_CUT` in one stack padded to the largest of them, and every
    larger block a stack of one, in the order of their first blocks."""
    groups = [[b] for b, d in enumerate(dims) if d > _STACK_CUT]
    small = [b for b, d in enumerate(dims) if d <= _STACK_CUT]
    if small:
        groups.append(small)
    return [_Stack.of(blocks, dims) for blocks in sorted(groups)]


class _SvecMap:
    """The svec layout of Hermitian blocks of ``dims``: the only code that
    knows where an entry lands in the solver's real coordinates and in its
    stacks.  In the real coordinates blocks run in order, as in the columns
    of the constraint matrix, each with the coordinates of :func:`svec`
    (``slices``).  The complex entries sit in ``stacks`` (:class:`_Stack`),
    each a (k, n, n) array raveled after the one before, with block
    ``blocks[i]`` in the leading corner of matrix i; by default every block
    is a stack of one.  Index arrays and one-block maps are cached per
    dimension; a map of several blocks is made once per solve and not kept."""

    _BLOCKS = {}
    _SLOTS = {}
    _MAPS = {}

    @classmethod
    def of(cls, d):
        """The map of one block of dimension ``d``, made once per dimension."""
        if d not in cls._MAPS:
            cls._MAPS[d] = cls([d])
        return cls._MAPS[d]

    @classmethod
    def _block(cls, d):
        """Raveled positions of the diagonal and of the strict upper and lower
        triangles (the lower as mirrors of the upper), then svec positions of
        the diagonal, real and imaginary parts, of one block of dimension ``d``.
        Made once per dimension and never written."""
        if d not in cls._BLOCKS:
            iu, ju = np.triu_indices(d, 1)
            k = iu.size
            cls._BLOCKS[d] = (np.arange(d) * (d + 1), iu * d + ju, ju * d + iu,
                              np.arange(d), d + np.arange(k), d + k + np.arange(k))
        return cls._BLOCKS[d]

    @classmethod
    def _slot(cls, d):
        """The svec position of each raveled entry of a block of dimension
        ``d``, a mirror entry taking its upper twin's.  Made once per
        dimension and never written."""
        if d not in cls._SLOTS:
            block = cls._block(d)
            slot = np.empty(d * d, dtype=int)
            slot[np.concatenate(block[:3])] = np.concatenate(block[3:])
            slot.setflags(write=False)
            cls._SLOTS[d] = slot
        return cls._SLOTS[d]

    def __init__(self, dims, stacks=None):
        self.dims = list(dims)
        self.stacks = stacks or [_Stack.of([b], self.dims) for b in range(len(self.dims))]
        # each block's stack and matrix, and where that matrix starts in the raveled stacks
        self.where = [None] * len(self.dims)
        origin = [0] * len(self.dims)
        self.cuts = []
        start = 0
        for s, st in enumerate(self.stacks):
            for i, b in enumerate(st.blocks):
                self.where[b] = (s, i)
                origin[b] = start + i * st.n * st.n
            self.cuts.append(slice(start, start + len(st.blocks) * st.n * st.n))
            start = self.cuts[-1].stop
        self.raveled = start
        self.slices = []
        parts = [[] for _ in range(6)]
        start = 0
        for b, d in enumerate(self.dims):
            n = self.stacks[self.where[b][0]].n
            block = self._block(d)
            for part, idx in zip(parts[:3], block[:3]):
                # row r of the block starts r * n after its corner
                part.append(origin[b] + idx + (idx // d) * (n - d))
            for part, idx in zip(parts[3:], block[3:]):
                part.append(start + idx)
            self.slices.append(slice(start, start + d * d))
            start += d * d
        self.size = start
        diag, upper, lower, diag_pos, re, im = (np.concatenate(p) for p in parts)
        # the float of the raveled complex stacks each coordinate reads, and its factor
        self.reads = np.empty(self.size, dtype=int)
        self.reads[diag_pos] = 2 * diag
        self.reads[re] = 2 * upper
        self.reads[im] = 2 * upper + 1
        self.factor = np.full(self.size, _ROOT2)
        self.factor[diag_pos] = 1.0
        # the coordinate each float of the raveled stacks is read from, and its
        # factor: 0 for the padding and the imaginary parts of diagonals
        self.writes = np.zeros(2 * self.raveled, dtype=int)
        self.weight = np.zeros(2 * self.raveled)
        for pos, coord, w in ((2 * diag, diag_pos, 1.0),
                              (2 * upper, re, 1 / _ROOT2), (2 * lower, re, 1 / _ROOT2),
                              (2 * upper + 1, im, 1 / _ROOT2), (2 * lower + 1, im, -1 / _ROOT2)):
            self.writes[pos] = coord
            self.weight[pos] = w

    def svec(self, flat, out=None):
        """svec of raveled stacks along the last axis, (..., raveled) -> (..., size),
        into ``out`` when given.  Only the blocks' diagonals and upper
        triangles are read, never the padding."""
        floats = np.ascontiguousarray(flat, dtype=complex).view(float)
        out = np.take(floats, self.reads, axis=-1, out=out)
        out *= self.factor
        return out

    def unsvec(self, v):
        """The stacks whose blocks are the Hermitian matrices with svec ``v``,
        zero on the padding."""
        floats = np.take(v, self.writes)
        floats *= self.weight
        flat = floats.view(complex)
        return [flat[cut].reshape(-1, st.n, st.n) for cut, st in zip(self.cuts, self.stacks)]

    def ravel(self, stacks):
        """The stacks raveled one after another, as :meth:`svec` reads them."""
        if len(stacks) == 1:
            return stacks[0].reshape(-1)
        return np.concatenate([a.reshape(-1) for a in stacks])

    def stacked(self, mats):
        """Stacks holding the (d, d) matrices ``mats``, one per block, zero on the padding."""
        out = [np.zeros((len(st.blocks), st.n, st.n), dtype=complex) for st in self.stacks]
        for (s, i), d, a in zip(self.where, self.dims, mats):
            out[s][i, :d, :d] = a
        return out

    def blocks(self, stacks):
        """Each block's (d, d) view of ``stacks``, in block order."""
        return [stacks[s][i, :d, :d] for (s, i), d in zip(self.where, self.dims)]

    def lift_columns(self, b, c):
        """Where svec of 1_a (x) h lands on block ``b``, for h of dimension c:
        entry [k, s] is the position of coordinate s of the k-th diagonal copy
        of h.  Coordinate s of h belongs to its entry (i, j), the mirror (j, i)
        for an imaginary part, and the copy's to (kc + i, kc + j)."""
        n = self.dims[b]
        small = self._block(c)
        i, j = np.divmod(np.concatenate(small[:3]), c)  # small[3:] is 0, 1, ..., c*c - 1
        k = c * np.arange(n // c)[:, None]
        return self.slices[b].start + self._slot(n)[(k + i) * n + k + j]


def _svec_rows(problem, coords=None):
    """Every constraint row as one real svec matrix, (m, sum of n^2).

    Rows are written family by family and block by block.  A block's lone
    identity-lift term writes copies of svec(coef h_j) at
    :meth:`_SvecMap.lift_columns`; any other block's complex rows, its
    terms' stacks summed, are formed, written and freed before the next.
    ``coords`` is the problem's :class:`_SvecMap` when the caller has one.
    """
    dims = problem.block_dims
    if coords is None:
        coords = _SvecMap(dims)
    a_svec = np.zeros((problem.n_constraints, coords.size))
    for start, family in problem.families:
        rows = slice(start, start + len(family))
        c = family.dim
        for b, terms in family._block_terms().items():
            n = dims[b]
            if len(terms) == 1 and terms[0][0] is None:
                coef = terms[0][1]
                small = _SvecMap.of(c).svec(coef * linalg.hermitian_basis(c).reshape(c * c, -1))
                a_svec[rows, coords.lift_columns(b, c)] = small[:, None, :]
            else:
                _SvecMap.of(n).svec(family._stack(terms, n).reshape(c * c, n * n),
                                    out=a_svec[rows, coords.slices[b]])
    return a_svec


def _row_norms(a):
    """Euclidean norm of each row, over chunks of rows so that no temporary
    of the matrix's size is made; each norm is that of the whole-matrix call."""
    norms = np.empty(a.shape[0])
    step = max(1, _NORM_CHUNK // max(a.shape[1], 1))
    for i in range(0, a.shape[0], step):
        norms[i:i + step] = np.linalg.norm(a[i:i + step], axis=1)
    return norms


def _orthogonal_lead(problem):
    """Number of leading rows that are mutually orthogonal by structure.

    That is the c*c rows 1_a (x) h_j of a family that opens the problem
    with a single identity-lift term, each of norm |coef| sqrt(a); 0
    otherwise.
    """
    if problem.families:
        family = problem.families[0][1]
        if len(family.terms) == 1 and family.terms[0][1] is None:
            return len(family)
    return 0


def _independent_rows(a, tol, norms, lead=0):
    """Rows of a real matrix that Gram-Schmidt in row order would keep.

    A row is kept when its norm (``norms``) exceeds ``tol`` and its
    component orthogonal to the rows kept before it exceeds ``tol`` times
    that norm, the rule of :func:`linalg.orthonormal_rows`.  One QR of the
    nonzero rows gives their coordinates R in an orthonormal basis, and
    |R_kk| is the residual of row k against every earlier row, exact up
    to the first dependent row.  That row is dropped, and the trailing
    block of R (the later rows' components orthogonal to the rows kept
    so far) is factored again; those factorizations are at most m x m.

    The first ``lead`` rows may be declared mutually orthogonal
    (:func:`_orthogonal_lead`).  When each is longer than ``tol``,
    Gram-Schmidt keeps them all, and the QR runs only on the later rows'
    components orthogonal to them, projected off with one GEMM.
    """
    if not (lead and np.all(norms[:lead] > tol)):
        lead = 0
    cand = lead + np.flatnonzero(norms[lead:] > tol)
    kept = list(range(lead))
    if cand.size:
        rows = a if cand.size == a.shape[0] else a[cand]
        if lead:
            head = a[:lead]
            proj = ((rows @ head.T) / norms[:lead] ** 2) @ head
            rows = np.subtract(rows, proj, out=proj)
        r = np.linalg.qr(rows.T, mode="r")
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


def _reduce_rows(a_svec, rhs, lead=0):
    """Select an independent subset of rows; detect inconsistency.

    Returns (kept_indices, reason); ``reason`` is None unless the
    dropped rows contradict the kept ones.  A dropped row of norm at most
    1e-10 (never a candidate for keeping) implies a zero right-hand side
    with no fit; the others are fitted by the kept rows.  ``lead`` is as
    in :func:`_independent_rows`.
    """
    norms = _row_norms(a_svec)
    kept = _independent_rows(a_svec, 1e-10, norms, lead)
    dropped = np.setdiff1d(np.arange(a_svec.shape[0]), kept)
    if dropped.size:
        implied = np.zeros(dropped.size)
        fit = norms[dropped] > 1e-10
        if fit.any():
            coef, *_ = np.linalg.lstsq(a_svec[kept].T, a_svec[dropped[fit]].T, rcond=None)
            implied[fit] = coef.T @ rhs[kept]
        worst = float(np.max(np.abs(implied - rhs[dropped])))
        if worst > _FEAS_TOL * (1.0 + float(np.max(np.abs(rhs)))):
            return kept, (f"constraint rows are linearly dependent with "
                          f"inconsistent right-hand sides (misfit {worst:.2e})")
    return kept, None


@dataclass
class _Term:
    """One family's term on a block, with its kept rows.

    ``rows`` is the run of positions the family's kept rows take in the
    Schur complement (kept rows keep their order, and a family's rows
    are consecutive), and ``sel`` picks them out of all c*c.
    """

    rows: slice
    sel: np.ndarray | slice
    lift: np.ndarray | None
    lift_h: np.ndarray | None
    a: int
    c: int
    coef: float
    hm: np.ndarray


def _schur_layout(problem, kept):
    """Each block's :class:`_Term` list for the rows ``kept``, made once per solve."""
    pos = np.full(problem.n_constraints, -1)
    pos[kept] = np.arange(kept.size)
    layout = [[] for _ in problem.block_dims]
    for start, family in problem.families:
        c = family.dim
        sel = np.flatnonzero(pos[start:start + len(family)] >= 0)
        if sel.size == 0:
            continue
        hm = linalg.hermitian_basis(c).reshape(c * c, c * c)
        first = int(pos[start + sel[0]])
        for b, lift, coef in family.terms:
            layout[b].append(_Term(
                rows=slice(first, first + sel.size),
                sel=slice(None) if sel.size == len(family) else sel,
                lift=lift, lift_h=None if lift is None else lift.conj().T,
                a=(problem.block_dims[b] if lift is None else lift.shape[1]) // c,
                c=c, coef=coef, hm=hm,
            ))
    return layout


def _family_schur(f, g, wl_g):
    """Schur block <A_i, W A_j W> of the kept rows of terms f and g.

    ``wl_g`` is W L_g (W itself for an identity lift).
    """
    n = wl_g if f.lift is None else f.lift_h @ wl_g
    # left[(y, z), (k, l)] = N[k, y, l, z], and R = left left^dag
    left = n.reshape(f.a, f.c, g.a, g.c).transpose(1, 3, 0, 2).reshape(
        f.c * g.c, f.a * g.a)
    r = left @ left.conj().T
    t = r.reshape(f.c, g.c, f.c, g.c).transpose(2, 0, 1, 3).reshape(
        f.c * f.c, g.c * g.c)
    out = (f.coef * g.coef) * (f.hm @ t @ g.hm.T).real
    return out[f.sel][:, g.sel]


def _schur(layout, w_scale, m):
    """Schur complement S_ij = sum_b Tr(A_ib W_b A_jb W_b) of the kept rows,
    one :func:`_family_schur` per pair of terms on a block."""
    schur = np.zeros((m, m))
    for terms, w in zip(layout, w_scale):
        wl = [w if t.lift is None else w @ t.lift for t in terms]
        for i, f in enumerate(terms):
            for j in range(i, len(terms)):
                g = terms[j]
                block = _family_schur(f, g, wl[j])
                schur[f.rows, g.rows] += block
                if j != i:
                    schur[g.rows, f.rows] += block.T
    return (schur + schur.T) / 2.0


def _dag(a):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _sym(a):
    """The Hermitian part of a matrix or of each matrix of a stack."""
    out = a + _dag(a)
    out *= 0.5
    return out


def _clipped_eigh(h, last_own=None):
    """``eigh`` of a Hermitian matrix or stack, each eigenvalue raised to at
    least ``_EIG_FLOOR`` times the largest of its block.

    ``last_own`` is the raveled position of each matrix's d-th eigenvalue
    (:class:`_Stack`), for a stack whose matrices end in p rows of padding.
    The padding's eigenvalues are exactly 1, so when the block's largest
    eigenvalue is at most 1 it sits just below the p ones.
    """
    w, u = np.linalg.eigh(h)
    top = w[..., -1]
    if last_own is not None:
        top = np.where(top > 1.0, top, w.reshape(-1)[last_own])
    w = np.maximum(w, np.maximum(top * _EIG_FLOOR, 1e-290)[..., None])
    return w, u


def _nt_scaling(x, z, last_own=None):
    """Nesterov-Todd scaling of a block pair X, Z > 0, or of each pair of
    two stacks, as in the module docstring.

    Returns ``(w, zinv, x_frame, z_frame)`` with W Z W = X, zinv = Z^-1,
    x_frame X x_frame^dag = 1 and z_frame Z z_frame^dag = 1.  Raises
    ``np.linalg.LinAlgError`` when X is not positive definite.
    ``last_own`` is as in :func:`_clipped_eigh`.
    """
    low = np.linalg.cholesky(x)
    lz = _dag(low) @ z
    ev, v = _clipped_eigh(_sym(lz @ low), last_own)
    root = ev[..., None, :] ** -0.25
    g = (low @ v) * root
    q = g * root
    q_h = _dag(q)
    x_frame = (_dag(v) / ev[..., :, None]) @ lz
    return _sym(g @ _dag(g)), q @ q_h, x_frame, q_h


def _corrector(x, zinv, x_frame, z_frame, dx_aff, dz_aff, sigma_mu):
    """Right side r = G R G^dag of dX + W dZ W = r for the corrector on one
    block or a stack, with R as in the module docstring.

    ``zinv``, ``x_frame`` and ``z_frame`` are the :func:`_nt_scaling`
    outputs, and ``dx_aff``, ``dz_aff`` the affine directions.  The frame is
    read off the step frames: D^-1 = diag(x_frame z_frame^dag),
    G^-1 = D^(1/2) x_frame and G^dag = D^(1/2) z_frame.  The part of R
    without M maps back to sigma mu Z^-1 - X; the rest is -H with
    H_ij = (M + M^dag)_ij / (D_i + D_j).
    """
    d = 1.0 / np.einsum("...ij,...ij->...i", x_frame, z_frame.conj()).real
    root = np.sqrt(d)[..., :, None]
    g_inv = root * x_frame
    g_dag = root * z_frame
    g = _dag(g_dag)
    m = (g_inv @ dx_aff @ _dag(g_inv)) @ (g_dag @ dz_aff @ g)
    h = (m + _dag(m)) / (d[..., :, None] + d[..., None, :])
    return sigma_mu * zinv - x - g @ h @ g_dag


def _max_step(frame, delta):
    """Largest t with X + t*delta >= 0, where frame X frame^dag = 1, for one
    matrix or each matrix of a stack; 1e16 where delta never leaves the cone."""
    s = frame @ delta @ _dag(frame)
    lam = np.linalg.eigvalsh(_sym(s))[..., 0]
    step = np.full(lam.shape, 1e16)
    np.divide(-1.0, lam, out=step, where=lam < -1e-13)
    return step


def solve(problem, tol=1e-7, max_iter=200):
    """Solve the SDP to the requested duality-gap and residual tolerance.

    Returns an :class:`SdpSolution`; ``status`` is "optimal" when the
    relative gap and both feasibility residuals fall below ``tol``,
    "infeasible" when the constraint rows are inconsistent or the
    iterates diverge, and "max_iter" otherwise (with the reason in
    ``diagnostics``).  ``diagnostics`` also records the problem's
    ``block_dims``, the ``stacks`` it iterated in, as ``[n, [blocks]]``
    each, its row counts before and after the row reduction (``rows``,
    ``rows_kept``), and ``row_matrix_bytes``, the size of the real matrix
    of kept rows that the iterations read.
    """
    dims = problem.block_dims
    sign = 1.0 if problem.sense == "min" else -1.0
    c_blocks = [sign * c for c in problem.objective]
    stacks = _stack_layout(dims)
    coords = _SvecMap(dims, stacks)
    a_svec = _svec_rows(problem, coords)
    rhs_full = problem.rhs

    kept, reason = _reduce_rows(a_svec, rhs_full, lead=_orthogonal_lead(problem))
    diagnostics = {"block_dims": list(dims),
                   "stacks": [[st.n, list(st.blocks)] for st in stacks],
                   "rows": int(rhs_full.size), "rows_kept": int(kept.size),
                   "row_matrix_bytes": int(kept.size) * a_svec.shape[1] * a_svec.itemsize}
    if reason is not None:
        diagnostics["reason"] = reason
        return SdpSolution(
            status="infeasible", value=np.nan, dual_value=np.nan,
            block_values=[np.zeros((d, d), dtype=complex) for d in dims],
            dual_values=np.zeros(rhs_full.size), dual_blocks=list(c_blocks),
            primal_residual=np.inf, dual_residual=np.inf, gap=np.inf,
            iterations=0, diagnostics=diagnostics,
        )
    if kept.size < rhs_full.size:
        a_svec = a_svec[kept]
    layout = _schur_layout(problem, kept)
    b_vec = rhs_full[kept]
    m = b_vec.size
    n_total = sum(dims)

    norm_c = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in c_blocks))
    norm_b = float(np.linalg.norm(b_vec))
    row_norms = _row_norms(a_svec)
    if m:
        s_x = max(1.0, float(np.max((1.0 + np.abs(b_vec)) / (1.0 + row_norms))))
        s_z = max(1.0, norm_c, float(np.max(row_norms)))
    else:
        s_x, s_z = 1.0, max(1.0, norm_c)
    # every per-block quantity below is a list with one (k, n, n) array per stack
    c_stacks = coords.stacked(c_blocks)
    x = [st.identity(s_x) for st in stacks]
    z = [st.identity(s_z) for st in stacks]
    y = np.zeros(m)

    def operator(mats):
        return a_svec @ coords.svec(coords.ravel(mats))

    def adjoint(vec):
        return coords.unsvec(vec @ a_svec)

    def trace_pairs(xs, zs):
        """sum_b Tr(X_b Z_b) over the blocks' own entries."""
        return float(sum(np.vdot(st.own(a), b).real for st, a, b in zip(stacks, xs, zs)))

    def direction(rhs, r):
        """This iteration's Newton direction (dX, dy, dZ) for the Schur right
        side ``rhs`` + A(W R_d W) and dX + W dZ W = r, zero on the padding
        when r is."""
        dy = np.linalg.solve(schur_j, rhs + a_wrdw) if m else np.zeros(0)
        dz = [rd - a for rd, a in zip(r_d, adjoint(dy))]
        dx = [_sym(t - w @ dt @ w) for t, w, dt in zip(r, w_scale, dz)]
        return dx, dy, dz

    def steps(dx, dz, fraction):
        """Primal and dual steps: ``fraction`` of the way to the boundary, at
        most 1.  One ``eigvalsh`` per stack serves both."""
        ap = ad = 1.0
        for frame, a, b in zip(frames, dx, dz):
            t = _max_step(frame, np.concatenate([a, b]))
            ap = min(ap, fraction * float(t[:len(a)].min()))
            ad = min(ad, fraction * float(t[len(a):].min()))
        return ap, ad

    status = "max_iter"
    it = 0
    stall = 0
    pobj = dobj = 0.0
    rel_gap = p_res = d_res = np.inf

    for it in range(1, max_iter + 1):
        ax = operator(x)
        r_p = b_vec - ax
        r_d = [st.own(c - a - b) for st, c, a, b in zip(stacks, c_stacks, adjoint(y), z)]
        # Tr(A B) = vdot(A, B) for Hermitian A; C is zero on the padding
        pobj = float(sum(np.vdot(c, a).real for c, a in zip(c_stacks, x)))
        dobj = float(b_vec @ y)
        mu = trace_pairs(x, z) / n_total
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        p_res = float(np.sqrt(r_p @ r_p)) / (1.0 + norm_b)
        d_res = np.sqrt(sum(np.vdot(r, r).real for r in r_d)) / (1.0 + norm_c)
        if rel_gap <= tol and p_res <= tol and d_res <= tol:
            status = "optimal"
            break
        if y @ y > 1e26 or mu > 1e16:
            status = "infeasible"
            diagnostics["reason"] = ("iterates diverged; the problem is likely "
                                     "infeasible or unbounded")
            break

        # Nesterov-Todd scaling point, Z^-1 and step frames per stack
        try:
            w_scale, zinv, x_frames, z_frames = zip(
                *(_nt_scaling(a, b, st.last_own) for st, a, b in zip(stacks, x, z)))
        except np.linalg.LinAlgError:
            diagnostics["reason"] = "primal iterate lost positive definiteness"
            break
        frames = [np.concatenate(pair) for pair in zip(x_frames, z_frames)]

        # Schur complement and its factorization
        schur = _schur(layout, coords.blocks(w_scale), m)
        scale = max(float(np.trace(schur)) / m, 1e-30) if m else 1.0
        factor_ok = False
        for jitter in (0.0, 1e-14, 1e-11, 1e-8):
            schur_j = schur + jitter * scale * np.eye(m) if jitter else schur
            try:
                np.linalg.cholesky(schur_j)
                factor_ok = True
                break
            except np.linalg.LinAlgError:
                continue
        if not factor_ok:
            diagnostics["reason"] = "Schur complement factorization broke down"
            break

        a_wrdw = operator([_sym(w @ r @ w) for w, r in zip(w_scale, r_d)])

        # predictor: pure Newton step toward XZ = 0
        dx_aff, _, dz_aff = direction(b_vec, [st.own(-a) for st, a in zip(stacks, x)])
        ap, ad = steps(dx_aff, dz_aff, 1.0)
        mu_aff = trace_pairs([a + ap * da for a, da in zip(x, dx_aff)],
                             [b + ad * db for b, db in zip(z, dz_aff)]) / n_total
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0))
        tau = 0.9 + 0.09 * min(ap, ad)

        # corrector: recentered second-order step reusing the same factorization
        r_nt = [st.own(_corrector(*args, sigma * mu))
                for st, *args in zip(stacks, x, zinv, x_frames, z_frames, dx_aff, dz_aff)]
        dx, dy, dz = direction(r_p - operator(r_nt), r_nt)
        ap, ad = steps(dx, dz, tau)
        diagnostics.update(sigma=sigma, step_fraction=tau, alpha_primal=ap, alpha_dual=ad)
        if ap < 1e-10 and ad < 1e-10:
            stall += 1
            if stall >= 2:
                diagnostics["reason"] = "step sizes collapsed"
                break
        else:
            stall = 0
        x = [a + ap * da for a, da in zip(x, dx)]
        z = [b + ad * db for b, db in zip(z, dz)]
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
        block_values=[a.copy() for a in coords.blocks(x)],
        dual_values=sign * y_full,
        dual_blocks=[b.copy() for b in coords.blocks(z)],
        primal_residual=p_res,
        dual_residual=d_res,
        gap=rel_gap,
        iterations=it,
        diagnostics=diagnostics,
    )


def dump_problem(problem, path):
    """Write a problem as indented JSON, format 2: ``sense``, ``block_dims``,
    the objective and each row family's ``dim``, ``rhs`` run and ``terms``,
    ``[block, lift or null for the identity, coef]``, matrices as
    :func:`linalg.encode_matrix` pairs."""
    doc = {
        "version": 2,
        "sense": problem.sense,
        "block_dims": problem.block_dims,
        "objective": [linalg.encode_matrix(c) for c in problem.objective],
        "families": [
            {"dim": family.dim,
             "rhs": problem.rhs[start:start + len(family)].tolist(),
             "terms": [[b, linalg.encode_matrix(lift), coef] for b, lift, coef in family.terms]}
            for start, family in problem.families
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_problem(path):
    """Inverse of :func:`dump_problem`, lifts bit for bit.  A file without a
    ``version`` is format 1, ``{"blocks", "rhs"}`` per row, read as c = 1
    families.  Raises ValueError for an unknown version or a misfit family."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version", 1)
    if version == 1:
        rows = [[linalg.decode_matrix(a) for a in row["blocks"]] for row in doc["constraints"]]
        runs = [[row["rhs"]] for row in doc["constraints"]]
    elif version == 2:
        rows = [RowFamily(f["dim"], [(b, linalg.decode_matrix(lift), coef)
                                     for b, lift, coef in f["terms"]]) for f in doc["families"]]
        runs = [f["rhs"] for f in doc["families"]]
        if [len(r) for r in runs] != [len(f) for f in rows]:
            raise ValueError("a row family's rhs run does not have one entry per row")
    else:
        raise ValueError(f"unknown problem file version {version!r}")
    return SdpProblem(
        block_dims=doc["block_dims"],
        objective=[linalg.decode_matrix(c) for c in doc["objective"]],
        constraints=rows,
        rhs=[r for run in runs for r in run],
        sense=doc["sense"],
    )
