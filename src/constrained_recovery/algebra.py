"""Finite-dimensional dagger-algebras of complex matrices.

An algebra is represented by an orthonormal basis of its linear span under
the Hilbert-Schmidt inner product Tr(X^dag Y). The module computes algebra
generation (closure under products and adjoints), commutants, centers,
minimal central projectors, the block (Wedderburn) factorization, and the
trace-preserving conditional expectation each algebra induces. Everything is
dense. An algebra's structure has one form, its list of :class:`Sector`:
per sector a projector and the (d, n, m) array on which the algebra is
M_n (x) 1_m. The algebra owns that list, found once, and every consumer
(the commutant, center and expectations here, the local complements and
link problems elsewhere) reads it through :func:`block_structure`. It is
found one of two ways:

* an algebra built with its sectors carries them, and its dense basis is
  written only when first read. :func:`fermion.physical_algebra` builds the
  even algebra of a Majorana region this way, from signed permutations;
* every other algebra (:func:`generate_algebra`, the results of
  :func:`commutant`, :func:`intersect` and the rest, and any basis given
  directly) has them found by :func:`_modules` at ``DEFAULT_SEED``, which
  finds and certifies the irreducible modules of the algebra and groups
  them into sectors, from two random elements of the commutant drawn by
  twirling over the basis: a few GEMMs of dim * d^3 flops and one d x d
  eigensolve, no d^2 x d^2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key

import numpy as np

from . import channels, linalg

__all__ = [
    "AlgebraBasis",
    "BlockStructure",
    "Sector",
    "DegenerateSplitError",
    "generate_algebra",
    "commutant",
    "center",
    "minimal_central_projectors",
    "block_structure",
    "conditional_expectation",
    "join",
    "intersect",
    "contains",
    "equal_spans",
    "relative_commutant",
]

DEFAULT_SEED = 1793
# tolerances and sizes of the private helpers; each is named where it is used
_DROP_TOL = 1e-10
_EXTEND_CHUNK = 2048
_UNLINKED = 1e-10
_LINKED = 1e-6
_CERTIFY_TOL = 1e-8
_CLUSTER_GUARD = 10.0
_ORDER_TOL = 1e-8


class DegenerateSplitError(RuntimeError):
    """Eigenvalue clusters sit too close to separate sectors reliably."""


class AlgebraBasis:
    """Orthonormal Hilbert-Schmidt basis of a dagger-algebra's span.

    Instances are immutable after construction. The constructor trusts the
    caller on orthonormality and algebraic closure; :func:`generate_algebra`
    is the safe entry point for arbitrary generating sets. A C-contiguous
    complex (k, d, d) array is adopted as the rows without a copy (and made
    read-only); any other sequence of matrices is copied.

    An algebra whose sectors are known is built from two functions of no
    arguments and its dimension ``dim``: ``basis`` returns its basis,
    written on the first read of ``basis`` or ``_rows``, and ``sectors``
    its list of :class:`Sector`, whose sum_k n_k^2 is ``dim``. Every
    algebra keeps its sectors once :func:`block_structure` reads them.
    """

    def __init__(self, ambient_dim, basis, sectors=None, dim=None):
        self.ambient_dim = int(ambient_dim)
        if sectors is not None and dim is None:
            raise ValueError("an algebra built with its sectors needs its dimension")
        self._find_sectors = sectors
        self._dim = dim
        if callable(basis):
            self._write = basis
        else:
            self._rows = self._adopt(basis)

    def _adopt(self, basis):
        d = self.ambient_dim
        if (isinstance(basis, np.ndarray) and basis.dtype == complex
                and basis.shape[1:] == (d, d) and basis.flags.c_contiguous):
            rows = basis.reshape(len(basis), d * d)
            basis.flags.writeable = False
        else:
            rows = np.empty((len(basis), d * d), dtype=complex)
            for row, b in zip(rows, basis):
                b = np.asarray(b)
                if b.shape != (d, d):
                    raise ValueError(f"basis element of shape {b.shape} in ambient dimension {d}")
                row[:] = b.reshape(-1)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _rows(self):
        return self._adopt(self._write())

    @cached_property
    def basis(self):
        # each element is stored once: the basis matrices are views of _rows
        return list(self._rows.reshape(-1, self.ambient_dim, self.ambient_dim))

    @cached_property
    def _sectors(self):
        """The sectors the algebra was built with, or else those of
        :func:`_modules` at ``DEFAULT_SEED``, ordered."""
        found = self._find_sectors
        return _ordered(found() if found else _module_sectors(self, DEFAULT_SEED))

    @property
    def dim(self):
        return len(self._rows) if self._dim is None else self._dim

    def __repr__(self):
        return f"AlgebraBasis(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _extend_rows(rows, candidates):
    for lo in range(0, candidates.shape[0], _EXTEND_CHUNK):
        stacked = np.vstack([rows, candidates[lo : lo + _EXTEND_CHUNK]])
        rows = linalg.orthonormal_rows(stacked, tol=_DROP_TOL)
    return rows


def generate_algebra(generators, ambient_dim):
    """Smallest identity-containing dagger-algebra containing the generators.

    Iterates span extension by pairwise products and adjoints until a fixed
    point; each round only multiplies against the freshly added directions.
    The basis is orthonormalized by modified Gram-Schmidt with drop tolerance
    1e-10.
    """
    d = int(ambient_dim)
    mats = [np.asarray(g, dtype=complex) for g in generators]
    for g in mats:
        if g.shape != (d, d):
            raise ValueError(f"generator of shape {g.shape} in dimension {d}")
    seed = [linalg.vec(np.eye(d))]
    for g in mats:
        seed.append(linalg.vec(g))
        seed.append(linalg.vec(g.conj().T))
    rows = linalg.orthonormal_rows(np.stack(seed))
    fresh = rows
    while rows.shape[0] < d * d:
        cur = rows.reshape(-1, d, d)
        new = fresh.reshape(-1, d, d)
        candidates = np.concatenate(
            [
                np.matmul(cur[:, None], new[None]).reshape(-1, d * d),
                np.matmul(new[:, None], cur[None]).reshape(-1, d * d),
                new.conj().transpose(0, 2, 1).reshape(-1, d * d),
            ]
        )
        before = rows.shape[0]
        rows = _extend_rows(rows, candidates)
        if rows.shape[0] == before:
            break
        fresh = rows[before:]
    return AlgebraBasis(d, rows.reshape(-1, d, d))


def commutant(a):
    """The algebra of everything commuting with every element of ``a``.

    ``a`` must hold an orthonormal basis of a unital dagger-algebra A, which
    is unitarily equivalent to (+)_k M_{n_k} (x) 1_{m_k}; its commutant is
    then (+)_k 1_{n_k} (x) M_{m_k}. With X_k the sector arrays of
    :func:`block_structure`, its basis is X_k (1 (x) |p><q|) X_k^dag /
    sqrt(n_k) for every sector and every p, q < m_k: sum_k m_k^2 orthonormal
    elements, written by one product per sector into the stack the result
    adopts. An algebra whose sectors are not carried is decomposed by
    :func:`_modules`, whose failed check raises ValueError, since the input
    is then not a dagger-algebra. An empty basis gives all of M_d.
    """
    d = a.ambient_dim
    if a.dim == 0:
        return AlgebraBasis(d, list(np.eye(d * d).reshape(d * d, d, d)))
    arrays = [s.x for s in block_structure(a).sectors]
    out = np.empty((sum(x.shape[2] ** 2 for x in arrays), d, d), dtype=complex)
    at = 0
    for x in arrays:
        _, n, m = x.shape
        # out[p, q] = X[:, :, p] X[:, :, q]^dag / sqrt(n), one broadcast matmul
        np.matmul((x / np.sqrt(n)).transpose(2, 0, 1)[:, None], x.conj().transpose(2, 1, 0)[None],
                  out=out[at:at + m * m].reshape(m, m, d, d))
        at += m * m
    return AlgebraBasis(d, out)


def _modules(a, seed=DEFAULT_SEED):
    """The irreducible modules of the algebra ``a``, grouped into sectors.

    The twirl T(X) = sum_i b_i X b_i^dag over the basis maps onto A'. Two
    random elements of A' are drawn through it: a Hermitian z, whose
    eigenspaces V_e are the irreducible A-modules, and a complex y. The
    compression B = V_e^dag y V_f of y between two eigenspaces of equal
    dimension is nonzero exactly when both belong to one sector, and
    B / ||B||_F is then a scaled unitary intertwiner U.

    Returns one (vs, units) pair per sector: vs stacks the isometries V_p of
    its m modules, shape (m, d, n), and units[p, q] = U between modules p
    and q, shape (m, m, n, n), with units[p, p] = 1 / sqrt(n). Every output
    is checked: each b is block-diagonal over the eigenspaces, each unit is
    proportional to a unitary and intertwines the blocks of every b, and
    sum_s n_s^2 equals ``a.dim``; a failed check raises ValueError. Draws
    whose eigenvalues or compressions sit too close to tell apart are
    redrawn (seeded from ``seed`` and the attempt, at most 8 draws).
    """
    d, k = a.ambient_dim, a.dim
    tall = a._rows.reshape(k * d, d)  # b_i stacked on top of each other
    adj = a._rows.reshape(k, d, d).conj().transpose(0, 2, 1).reshape(k * d, d)

    def twirl(x):
        wide = (tall @ x).reshape(k, d, d).transpose(1, 0, 2).reshape(d, k * d)
        return wide @ adj

    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        g = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        z = twirl(g[0] + g[0].conj().T)
        z = (z + z.conj().T) / 2
        y = twirl(g[1])
        w, v = np.linalg.eigh(z)
        try:
            clusters = _cluster_eigenvalues(w, 1e-8 * float(np.max(np.abs(w))))
            sectors = _group_sectors(v.conj().T @ y @ v, clusters)
        except DegenerateSplitError:
            continue
        break
    else:
        raise DegenerateSplitError(
            "could not split the commutant into sectors after 8 draws"
        )
    blocks = v.conj().T @ (tall @ v).reshape(k, d, d)
    return _certify(a, v, blocks, clusters, sectors)


def _group_sectors(yv, clusters):
    """Group eigenspaces into sectors by the compressions of y between them.

    ``yv`` is y in the eigenbasis. Returns one (members, units) pair per
    sector: the indices of its clusters, and units[p, q] = B / ||B||_F for
    the compression B between distinct members p and q (1 / sqrt(n) for
    p = q). A compression whose norm relative to ||y||_F lies between
    ``_UNLINKED`` and ``_LINKED`` cannot be classified and raises
    :class:`DegenerateSplitError`.
    """
    scale = float(np.linalg.norm(yv))
    by_size = {}
    for e, idx in enumerate(clusters):
        by_size.setdefault(idx.size, []).append(e)
    sectors = []
    for n, members in by_size.items():
        idx = np.stack([clusters[e] for e in members])
        # comp[p, q] is the compression between members p and q
        comp = yv[idx][:, :, idx].transpose(0, 2, 1, 3)
        norms = np.linalg.norm(comp, axis=(2, 3)) / scale
        np.fill_diagonal(norms, 1.0)
        if np.any((norms > _UNLINKED) & (norms < _LINKED)):
            raise DegenerateSplitError(
                "a compression between eigenspaces is too small to classify"
            )
        linked = norms >= _LINKED
        left = np.arange(len(members))
        while left.size:
            group = left[linked[left[0], left]]
            if np.any(linked[group] != linked[group[0]]):
                raise ValueError(
                    "eigenspaces do not fall into sectors; the input is not a "
                    "dagger-algebra"
                )
            pairs = np.ix_(group, group)
            units = comp[pairs] / (scale * norms[pairs])[:, :, None, None]
            units[np.arange(group.size), np.arange(group.size)] = np.eye(n) / np.sqrt(n)
            sectors.append(([members[p] for p in group], units))
            left = left[~linked[left[0], left]]
    return sectors


def _certify(a, v, blocks, clusters, sectors):
    """Check the sector split of ``a`` and return it as (vs, units) pairs.

    ``blocks`` holds V^dag b V for every basis element b of ``a``; the
    checks hold to ``_CERTIFY_TOL``.
    """
    err = "; the input is not a dagger-algebra"
    label = np.empty(v.shape[0], dtype=int)
    for e, idx in enumerate(clusters):
        label[idx] = e
    leak = float(np.max(np.linalg.norm(blocks[:, label[:, None] != label], axis=1)))
    if leak > _CERTIFY_TOL:
        raise ValueError(f"basis leaks between eigenspaces by {leak:.2e}{err}")
    if sum(clusters[members[0]].size ** 2 for members, _ in sectors) != a.dim:
        raise ValueError(f"sector dimensions do not add up to {a.dim}{err}")
    out = []
    for members, units in sectors:
        n = units.shape[-1]
        gram = n * units @ units.conj().transpose(0, 1, 3, 2) - np.eye(n)
        if float(np.max(np.linalg.norm(gram, axis=(2, 3)))) > _CERTIFY_TOL:
            raise ValueError(f"a compression is not a scaled unitary{err}")
        diag = np.stack([blocks[:, clusters[e]][:, :, clusters[e]] for e in members])
        for p in range(len(members)):
            # units[p, q] must carry the blocks of member q to those of p
            gap = diag[p][None] @ units[p][:, None] - units[p][:, None] @ diag
            if float(np.max(np.linalg.norm(gap, axis=(2, 3)))) > _CERTIFY_TOL:
                raise ValueError(f"a compression is not an intertwiner{err}")
        out.append((np.stack([v[:, clusters[e]] for e in members]), units))
    return out


def center(a):
    """The algebra a intersected with its commutant, spanned by its sector projectors."""
    projectors = minimal_central_projectors(a)
    return AlgebraBasis(a.ambient_dim, [p / np.linalg.norm(p) for p in projectors])


def join(a, b):
    """The algebra generated by the union of ``a`` and ``b``."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("algebras live in different ambient dimensions")
    return generate_algebra(a.basis + b.basis, a.ambient_dim)


def intersect(a, b, tol=1e-9):
    """Intersection of the two spans by the principal-angle method.

    Directions whose principal cosine reaches 1 - tol are kept; for algebra
    inputs the result is again an algebra.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("algebras live in different ambient dimensions")
    if a.dim == 0 or b.dim == 0:
        return AlgebraBasis(a.ambient_dim, [])
    m = a._rows.conj() @ b._rows.T
    u, s, _ = np.linalg.svd(m)
    k = int(np.count_nonzero(s >= 1.0 - tol))
    rows = u[:, :k].T @ a._rows
    return AlgebraBasis(a.ambient_dim, rows.reshape(-1, a.ambient_dim, a.ambient_dim))


def contains(a, x, tol=1e-8):
    """Whether the matrix ``x`` lies in the span of ``a`` (absolute residual).

    A stack of matrices, shape (k, d, d), is tested in one product over the
    basis and gives one boolean per matrix.
    """
    x = np.asarray(x, dtype=complex)
    d = a.ambient_dim
    if x.shape[-2:] != (d, d) or x.ndim not in (2, 3):
        raise ValueError("matrix dimension does not match the ambient algebra")
    v = x.reshape(-1, d * d)
    coeff = (a._rows @ v.conj().T).conj()  # no conjugated copy of the basis
    resid = np.linalg.norm(v - coeff.T @ a._rows, axis=1)
    inside = resid <= tol
    return bool(inside[0]) if x.ndim == 2 else inside


def equal_spans(a, b, tol=1e-7):
    """Whether two algebras have the same linear span (principal angles)."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    s = np.linalg.svd(a._rows.conj() @ b._rows.T, compute_uv=False)
    return float(s[-1]) >= 1.0 - tol


def relative_commutant(b, ambient, tol=1e-8):
    """Everything in ``ambient`` commuting with all of ``b``; needs b inside ambient."""
    if b.dim and not contains(ambient, np.stack(b.basis), tol).all():
        raise ValueError("b is not contained in the ambient algebra")
    return intersect(commutant(b), ambient)


def _cluster_eigenvalues(w, tol):
    """Group a sorted eigenvalue array into clusters separated by > tol.

    Raises :class:`DegenerateSplitError` when two adjacent clusters are
    closer than ``_CLUSTER_GUARD`` times the clustering tolerance, since the
    grouping would then depend on the tolerance itself.
    """
    gaps = np.diff(w)
    splits = np.nonzero(gaps > tol)[0]
    clusters = np.split(np.arange(w.size), splits + 1)
    for left, right in zip(clusters[:-1], clusters[1:]):
        if w[right[0]] - w[left[-1]] < _CLUSTER_GUARD * tol:
            raise DegenerateSplitError(
                f"eigenvalue clusters separated by only "
                f"{w[right[0]] - w[left[-1]]:.2e} (tolerance {tol:.0e})"
            )
    return clusters


@dataclass
class Sector:
    """A minimal central projector P and the (d, n, m) array ``x`` = U^dag,
    U U^dag = 1 and U^dag U = P, on whose last two axes the algebra is
    M_n (x) 1_m. ``left_dim`` n, ``right_dim`` m and the isometry U, of
    shape (n m, d), are read off ``x``."""

    projector: np.ndarray
    x: np.ndarray

    left_dim = property(lambda self: self.x.shape[1])
    right_dim = property(lambda self: self.x.shape[2])
    isometry = property(lambda self: self.x.reshape(len(self.x), -1).conj().T)


@dataclass
class BlockStructure:
    ambient_dim: int
    sectors: list
    seed: int


def block_structure(a, seed=DEFAULT_SEED):
    """Factor each central sector of ``a`` as (left matrix algebra) (x) 1.

    For each minimal central projector P_i, returns the :class:`Sector`
    (P_i, U_i^dag), U_i A U_i^dag = A_i (x) 1_{m_i} for every A in the
    algebra, in the order of :func:`_ordered`. These are the sectors ``a``
    owns: those it carries, whatever the seed, or those :func:`_modules`
    finds at ``DEFAULT_SEED``; only another seed draws again. Either way the
    report records ``seed``.
    """
    owned = a._find_sectors or seed == DEFAULT_SEED
    sectors = a._sectors if owned else _ordered(_module_sectors(a, seed))
    return BlockStructure(a.ambient_dim, list(sectors), seed)


def _module_sectors(a, seed):
    """The sectors of :func:`_modules` drawn with ``seed``: x[:, j, k] is the
    j-th vector of level k, V_k sqrt(n) units[k, 0] for the modules V_k of
    dimension n, on which ``a`` acts as on level 0; P = sum_k V_k V_k^dag."""
    return [Sector(np.einsum("kan,kbn->ab", vs, vs.conj()),
                   (np.sqrt(vs.shape[2]) * vs @ units[:, 0]).transpose(1, 2, 0))
            for vs, units in _modules(a, seed)]


def _ordered(sectors):
    """``sectors`` by the first of these to differ by more than ``_ORDER_TOL``,
    so that rounding in the projectors P sets no order: descending rank,
    ascending trace of P against diag(0..d-1), then the diagonal of P, its
    real and then its imaginary entries row by row, the larger first."""

    def key(s):
        p = s.projector
        diag = np.diag(p).real
        return np.concatenate([[s.left_dim * s.right_dim, -diag @ np.arange(len(p))],
                               diag, p.real.ravel(), p.imag.ravel()])

    def later(s, t):
        gap = key(t) - key(s)
        differ = np.flatnonzero(np.abs(gap) > _ORDER_TOL)
        return int(np.sign(gap[differ[0]])) if differ.size else 0

    return sorted(sectors, key=cmp_to_key(later))


def minimal_central_projectors(a, seed=DEFAULT_SEED):
    """Mutually orthogonal minimal projectors of the center, summing to 1.

    These are the sector projectors of :func:`block_structure`, in its order.
    """
    return [s.projector for s in block_structure(a, seed).sectors]


def conditional_expectation(a, seed=DEFAULT_SEED):
    """The Hilbert-Schmidt orthogonal projection onto ``a`` as a channel:
    identity on the left factor of each sector, normalized trace on the right."""
    return _expectation([s.x for s in block_structure(a, seed).sectors])


def _expectation(arrays):
    """The channel that keeps the middle factor of each (d, n, m) array X and
    traces the last: Kraus operators X[:, :, j] X[:, :, k]^dag / sqrt(m)."""
    ops = []
    for x in arrays:
        d, n, m = x.shape
        levels = x.transpose(2, 0, 1)
        kraus = np.einsum("jan,kbn->jkab", levels, levels.conj()) / np.sqrt(m)
        ops.extend(kraus.reshape(m * m, d, d))
    return channels.Channel(ops)
