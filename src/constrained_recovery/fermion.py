"""Fermionic systems under the parity superselection rule.

Majorana generators are realized on qubits through the Jordan-Wigner
transformation, with ``w[2j-1] = Z^(j-1) Y_j`` and ``w[2j] = Z^(j-1) X_j``
in 1-based indexing.  On one mode this gives ``w1 = Y`` and ``w2 = X``,
and the all-mode parity operator is the product of the ``Z_j``, so the
Fock vacuum ``|0...0>`` always carries parity +1.

Each generator, monomial and parity operator is a signed permutation: a
pair ``(perm, phase)`` of length-``dim`` arrays for the matrix whose row
``r`` holds ``phase[r]`` at column ``perm[r]`` and nothing else.  Row ``r``
of a product ``a @ b`` holds ``phase_a[r] phase_b[perm_a[r]]`` at column
``perm_b[perm_a[r]]``, so products of monomials, and their products with
dense matrices, are gathers; a dense d x d matrix is formed only where one
is returned.  :class:`FermionSystem` keeps ``w_a`` as row ``a-1`` of its
read-only arrays ``perm`` and ``phase``, and densely as ``majoranas[a-1]``,
written on first read.

Monomials in the generators are normalized to Hermitian involutions by
the phase ``i**(s*(s-1)/2)`` on an ascending product of ``s`` generators.
The physical (parity-even) observables of a region form a *-subalgebra
spanned by the even-degree monomials, whose sectors :func:`physical_algebra`
builds in closed form, and channels compatible with the
superselection rule admit Kraus representations built from operators of
definite parity; :func:`definite_parity_split` extracts that form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import AlgebraBasis, Sector
from .channels import Channel
from .recovery import Code

__all__ = [
    "FermionSystem",
    "MajoranaIndexError",
    "ParityData",
    "ParitySplit",
    "MajoranaRingScenario",
    "majorana",
    "majorana_monomial",
    "parity_operator",
    "physical_algebra",
    "definite_parity_split",
    "majorana_ring",
    "geometric_noise",
]


def _product(a, b):
    """The signed permutation of ``a @ b`` (see the module docstring)."""
    return b[0][a[0]], a[1] * b[1][a[0]]


def _left(g, x):
    """``g @ x`` for a signed permutation ``g`` and a stack ``x`` of matrices."""
    return g[1][:, None] * x[..., g[0], :]


def _right(x, g):
    """``x @ g`` for a stack ``x`` and a monomial ``g``, whose ``perm`` is an involution."""
    return x[..., g[0]] * g[1][g[0]]


class FermionSystem:
    """A register of fermionic modes with cached Majorana generators.

    Parameters
    ----------
    n_modes:
        Number of fermionic modes.  The Hilbert space dimension is
        ``2**n_modes`` and there are ``2*n_modes`` Majorana generators.
    """

    def __init__(self, n_modes):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        self.n_modes = n = int(n_modes)
        self.dim = 2**n
        # 0-based site j is bit n-1-j of the row index r; both generators of
        # the site flip that bit, and Z on the earlier sites gives the sign
        # (-1)^(occupied earlier sites); Y adds -i on an empty site, +i on an
        # occupied one
        rows = np.arange(self.dim)
        string = np.ones(self.dim)
        perm, phase = [], []
        for j in range(n):
            occupied = (rows >> (n - 1 - j)) & 1 == 1
            perm += [rows ^ (1 << (n - 1 - j))] * 2
            phase += [string * np.where(occupied, 1j, -1j), string + 0j]
            string = np.where(occupied, -string, string)
        self.perm, self.phase = np.array(perm), np.array(phase)
        self.perm.flags.writeable = self.phase.flags.writeable = False
        self._check_relations()

    @cached_property
    def majoranas(self):
        """The generators as dense d x d matrices, written on first read."""
        eye = np.eye(self.dim)
        return [_left(g, eye) for g in zip(self.perm, self.phase)]

    def _check_relations(self):
        # row r of w_a w_b holds value[a, b, r] at column col[a, b, r] (see
        # _product), so the anticommutators follow from gathers of length d.
        # A row's misfit is 0 exactly when the row is right
        rows = np.arange(self.dim)
        perm, sign = self.perm, self.phase
        other = np.arange(len(perm))[None, :, None]
        col = perm[other, perm[:, None, :]]
        value = sign[:, None, :] * sign[other, perm[:, None, :]]
        swap = (1, 0, 2)
        target = 2.0 * np.eye(len(perm))[:, :, None] * (col == rows)
        anti = np.where(col == col.transpose(swap),
                        np.abs(value + value.transpose(swap) - target),
                        np.hypot(np.abs(value), np.abs(value.transpose(swap))))
        worst = float(np.linalg.norm(anti, axis=2).max())
        if worst > 1e-10:
            raise RuntimeError(
                f"Majorana anticommutation relations violated by {worst:.2e}"
            )

    def __repr__(self):
        return f"FermionSystem(n_modes={self.n_modes})"


class MajoranaIndexError(ValueError, IndexError):
    """A Majorana index set refused by :func:`_majorana_set`: a ValueError,
    and an IndexError for an index out of range."""


def _majorana_set(n_modes, indices, even=False):
    """``indices`` as a sorted tuple, after checking that they are distinct
    Majorana indices of a register of ``n_modes`` modes (1..2 n_modes), and
    an even number of them when ``even``."""
    region = tuple(sorted(int(k) for k in indices))
    top = 2 * n_modes
    if (len(set(region)) != len(region) or not all(1 <= k <= top for k in region)
            or (even and len(region) % 2)):
        count = "an even number of " if even else ""
        raise MajoranaIndexError(
            f"indices {region} are not {count}distinct Majorana indices in 1..{top}"
        )
    return region


def majorana(system, index):
    """Return the Majorana generator ``w_index`` (1-based index)."""
    (index,) = _majorana_set(system.n_modes, (index,))
    return system.majoranas[index - 1]


def majorana_monomial(system, indices):
    """Hermitian unit monomial in the Majorana generators.

    Computes ``i**(s*(s-1)/2) * w_{k_1} ... w_{k_s}`` with the indices in
    ascending order, which is Hermitian and squares to the identity.  The
    empty monomial is the identity.
    """
    return _left(_monomial(system, _majorana_set(system.n_modes, indices)), np.eye(system.dim))


def _monomial(system, order):
    """The signed permutation of :func:`majorana_monomial` for the checked,
    ascending Majorana indices ``order``."""
    g = np.arange(system.dim), np.ones(system.dim, dtype=complex)
    for k in order:
        g = _product(g, (system.perm[k - 1], system.phase[k - 1]))
    s = len(order)
    return g[0], (1j ** ((s * (s - 1) // 2) % 4)) * g[1]


@dataclass
class ParityData:
    """Parity operator of a region together with its two eigenprojectors."""

    region: tuple
    c: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray


def parity_operator(system, region):
    """Parity (charge) operator of a set of Majorana indices.

    The region must contain an even number of indices so that the
    operator is parity-even itself.  For a union of whole modes the
    result is the product of the corresponding ``Z_j``, hence +1 on the
    Fock vacuum.
    """
    region = _majorana_set(system.n_modes, region, even=True)
    c = majorana_monomial(system, region)
    eye = np.eye(system.dim)
    return ParityData(region, c, p_plus=(eye + c) / 2.0, p_minus=(eye - c) / 2.0)


def physical_algebra(system, majoranas=None, *, modes=None):
    """Algebra of parity-even observables supported on a region.

    The region is given either as a set of Majorana indices or as a set
    of mode indices (keyword ``modes``); a mode contributes both of its
    Majorana generators.  The returned basis consists of the even-degree
    Hermitian monomials divided by ``sqrt(dim)``, which is already
    orthonormal in the Hilbert-Schmidt inner product.  A region of ``r``
    Majorana indices yields dimension ``2**(r-1)`` (or 1 when empty).
    The algebra carries its sectors (:func:`_region_sectors`); they are
    built on the first :func:`algebra.block_structure` read, and the dense
    basis on its first read.
    """
    if (majoranas is None) == (modes is None):
        raise ValueError("give exactly one of majoranas= or modes=")
    if modes is not None:
        majoranas = [k for m in modes for k in (2 * m - 1, 2 * m)]
    region = _majorana_set(system.n_modes, majoranas)
    dim = max(1, 2 ** (len(region) - 1))

    def write():
        scale = 1.0 / np.sqrt(system.dim)
        eye = np.eye(system.dim)
        rows = np.empty((dim, system.dim, system.dim), dtype=complex)
        for row, (perm, phase) in zip(rows, _even_monomials(system, region)):
            row[:] = _left((perm, scale * phase), eye)
        return rows

    return AlgebraBasis(system.dim, write, lambda: _region_sectors(system, region), dim)


def _region_sectors(system, region):
    """The sectors of the even algebra of ``region`` (ascending Majorana
    indices), in closed form from signed permutations.

    Pair the s indices as (s1 s2)(s3 s4)...: the t = s // 2 monomials
    h_j = i w_a w_b of the pairs are commuting involutions, and their joint
    eigenspaces, each of dimension m = d / 2^t, are labelled by the set F of
    pairs where h_j = -1. The first Majorana of pair j anticommutes with h_j
    and commutes with every other h, so the product g_F of the first
    Majoranas of the pairs in F carries the eigenspace of F = {} onto that
    of F. Every even monomial of the region maps each eigenspace onto one
    other, and on the eigenspace of F = {} the even monomials that keep it
    are products of the h_j, which act there as 1; so in the columns
    X[:, j, :] = g_{F_j} V, V an orthonormal basis of the eigenspace of
    F = {}, the algebra acts as M_n (x) 1_m as long as g_{F_j}^dag g_{F_l} is
    even within a sector.

    * s = 2t: the parity of the region, prod_j h_j, is (-1)^|F| on the
      eigenspace of F, and the two sectors M_{2^(t-1)} (x) 1_m are the sets
      of even and of odd |F| (one sector, M_1 (x) 1_d, for the empty region);
    * s = 2t + 1: g_F is made even by the unpaired Majorana when |F| is odd,
      and all 2^t eigenspaces form one sector M_{2^t} (x) 1_m.

    V comes from the columns of prod_j (1 + h_j) / 2, one per orbit of basis
    vectors under the permutations of the h_j. Their entries are sums of
    dyadic multiples of 1 and i, so exact: a column outside the eigenspace is
    exactly 0, and two columns of one orbit are proportional and start on
    the same row. Each sector costs its (d, n, m) array and a d x d
    projector.
    """
    d, s = system.dim, len(region)
    t = s // 2
    v = np.eye(d, dtype=complex)
    for j in range(t):
        v = (v + _left(_monomial(system, region[2 * j:2 * j + 2]), v)) / 2
        nonzero = v != 0
        alive = np.flatnonzero(nonzero.any(axis=0))
        _, keep = np.unique(np.argmax(nonzero[:, alive], axis=0), return_index=True)
        v = v[:, alive[keep]]
    if v.shape[1] != d >> t:
        raise RuntimeError(f"joint eigenspace of dimension {v.shape[1]}, not {d >> t}")
    v /= np.linalg.norm(v, axis=0)
    # g[f] is g_F for the set F of the bits of f
    g = [(np.arange(d), np.ones(d, dtype=complex))]
    for a in region[0:2 * t:2]:
        g += [_product(x, _monomial(system, (a,))) for x in g]
    odd = [bin(f).count("1") % 2 for f in range(len(g))]
    eye = np.eye(d)
    if s % 2:
        unpaired = _monomial(system, region[-1:])
        g = [_product(x, unpaired) if o else x for x, o in zip(g, odd)]
        groups, projectors = [range(len(g))], [eye]
    elif t:
        groups = [[f for f in range(len(g)) if odd[f] == p] for p in (0, 1)]
        parity = parity_operator(system, region)
        projectors = [parity.p_plus, parity.p_minus]
    else:
        groups, projectors = [[0]], [eye]
    return [Sector(projector, np.stack([_left(g[f], v) for f in group], axis=1))
            for group, projector in zip(groups, projectors)]


def _even_monomials(system, indices):
    """The signed permutations of the even :func:`majorana_monomial` of
    ``indices`` (ascending), by size and then in the order of
    ``itertools.combinations``."""
    for size in range(0, len(indices) + 1, 2):
        for subset in itertools.combinations(indices, size):
            yield _monomial(system, subset)


@dataclass
class ParitySplit:
    """Kraus operators of a channel regrouped by definite parity."""

    kraus_even: list
    kraus_odd: list
    even: Channel | None
    odd: Channel | None


def definite_parity_split(channel, c, tol=1e-12):
    """Split a channel into parity-preserving and parity-flipping parts.

    Given Kraus operators ``E`` of ``channel`` and a parity operator
    ``c``, forms the definite-parity combinations ``(E + cEc)/(2*sqrt(2))``
    and ``(cE + Ec)/(2*sqrt(2))`` (even) and the corresponding differences
    (odd), dropping combinations of norm below ``tol``.  The two parts sum
    to ``Q N Q'`` with ``Q`` the parity-dephasing channel applied on both
    sides, so they reconstruct ``Q N`` exactly when the channel is
    compatible with the superselection rule.

    Returns a :class:`ParitySplit`; a side with no surviving operators
    has ``None`` in its channel slot.
    """
    c = np.asarray(c, dtype=complex)
    d = c.shape[0]
    if np.linalg.norm(c - c.conj().T) > 1e-10:
        raise ValueError("parity operator must be Hermitian")
    if np.linalg.norm(c @ c - np.eye(d)) > 1e-10:
        raise ValueError("parity operator must square to the identity")
    scale = 1.0 / (2.0 * np.sqrt(2.0))
    even, odd = [], []
    for e in channel.kraus:
        cec = c @ e @ c
        ce = c @ e
        ec = e @ c
        for op in ((e + cec) * scale, (ce + ec) * scale):
            if np.linalg.norm(op) > tol:
                even.append(op)
        for op in ((e - cec) * scale, (ce - ec) * scale):
            if np.linalg.norm(op) > tol:
                odd.append(op)
    return ParitySplit(
        kraus_even=even,
        kraus_odd=odd,
        even=Channel(even, check=False) if even else None,
        odd=Channel(odd, check=False) if odd else None,
    )


@dataclass
class MajoranaRingScenario:
    """A stabilizer encoding on a ring of Majorana modes.

    The unpaired generators carry the logical degrees of freedom; each
    pair in ``pairing`` contributes a stabilizer ``-i w_p w_q`` whose
    joint +1 eigenspace is the code space.  ``intervals`` lists the runs
    of paired indices between consecutive unpaired ones (closed ranges on
    the ring), and ``parity_sign`` records the sign in the logical parity
    relation ``W^dag C W = sign * C_logical``.
    """

    system: FermionSystem
    unpaired: tuple
    pairing: tuple
    intervals: tuple
    code: Code
    logical_system: FermionSystem
    parity_sign: int


def _ring_intervals(unpaired, n_indices):
    """Closed intervals of paired indices between consecutive unpaired ones."""
    marks = sorted(unpaired)
    intervals = []
    for a, b in zip(marks, marks[1:] + [marks[0] + n_indices]):
        run = tuple((k - 1) % n_indices + 1 for k in range(a + 1, b))
        intervals.append(run)
    return tuple(intervals)


def majorana_ring(system, unpaired, pairing):
    """Build the stabilizer code of a pairing on the Majorana ring.

    Parameters
    ----------
    system:
        The ambient :class:`FermionSystem` with ``2*n_modes`` generators.
    unpaired:
        Ordered Majorana indices carrying the logical modes; must have
        even length ``2k``.
    pairing:
        Disjoint pairs ``(p, q)`` covering the remaining indices; each
        contributes the stabilizer ``-i w_p w_q``.

    The encoding isometry spans the joint +1 eigenspace of the
    stabilizers and is aligned so that ``w_unpaired[i] W = W wtilde_i``
    for the Jordan-Wigner generators ``wtilde`` of a fresh ``k``-mode
    logical system.
    """
    n_indices = 2 * system.n_modes
    unpaired = tuple(int(k) for k in unpaired)
    pairing = tuple((int(p), int(q)) for p, q in pairing)
    claimed = list(unpaired) + [k for pq in pairing for k in pq]
    if sorted(claimed) != list(range(1, n_indices + 1)):
        raise ValueError(
            "unpaired indices and pairing must partition 1..2*n_modes"
        )
    if len(unpaired) % 2 != 0:
        raise ValueError("number of unpaired Majorana indices must be even")
    k_modes = len(unpaired) // 2
    if k_modes == 0:
        raise ValueError("need at least one unpaired pair of indices")

    # proj (1 + stab) / 2 for each stabilizer stab = -i w_p w_q in turn, the
    # negated monomial of (p, q)
    proj = np.eye(system.dim)
    for p, q in pairing:
        perm, phase = _monomial(system, (p, q))
        proj = (proj + _right(proj, (perm, -phase))) / 2.0
    w_vals, w_vecs = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    cols = w_vals > 0.5
    if int(np.count_nonzero(cols)) != 2**k_modes:
        raise RuntimeError(
            "stabilizer eigenspace has unexpected dimension "
            f"{int(np.count_nonzero(cols))}"
        )
    w0 = w_vecs[:, cols]

    logical = FermionSystem(k_modes)
    dl = logical.dim
    restricted = [w0.conj().T @ majorana(system, k) @ w0 for k in unpaired]
    # U with l_op U = U w_op for every pair: in the row-major vec of linalg,
    # l_op (x) 1 - 1 (x) w_op^T, entry a[i, j] b[k, l] of a (x) b at row
    # (i, k) and column (j, l)
    eye = np.eye(dl)
    rows = [l_op[:, None, :, None] * eye[:, None, :] - eye[:, None, :, None] * w_op.T[:, None, :]
            for l_op, w_op in zip(restricted, logical.majoranas)]
    null = linalg.null_space(np.reshape(rows, (-1, dl * dl)))
    if null.shape[0] == 0:
        raise RuntimeError("logical Majorana identification has no solution")
    u = linalg.unvec(null[0], (dl, dl))
    gram = u.conj().T @ u
    u = u / np.sqrt(float(np.trace(gram).real) / dl)
    if np.linalg.norm(u.conj().T @ u - np.eye(dl)) > 1e-8:
        raise RuntimeError("logical Majorana intertwiner is not unitary")
    pivot = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    u = u * (u[pivot].conj() / abs(u[pivot]))
    isometry = w0 @ u

    code = Code(logical_dim=dl, physical_dim=system.dim, isometry=isometry)
    c_all = _monomial(system, range(1, n_indices + 1))
    if np.linalg.norm(_left(c_all, code.projector) - _right(code.projector, c_all)) > 1e-9:
        raise RuntimeError("code projector does not commute with parity")
    c_logical = parity_operator(logical, range(1, 2 * k_modes + 1)).c
    restricted_parity = isometry.conj().T @ _left(c_all, isometry)
    if np.linalg.norm(restricted_parity - c_logical) <= 1e-8:
        sign = 1
    elif np.linalg.norm(restricted_parity + c_logical) <= 1e-8:
        sign = -1
    else:
        raise RuntimeError("restricted parity is not proportional to the "
                           "logical parity")
    return MajoranaRingScenario(
        system=system, unpaired=unpaired, pairing=pairing,
        intervals=_ring_intervals(unpaired, n_indices), code=code,
        logical_system=logical, parity_sign=sign)


def _arc_monomial_supports(n_indices, max_support):
    """Even-size index sets inside some contiguous ring arc of given length."""
    supports = set()
    for start in range(n_indices):
        window = [(start + t) % n_indices + 1 for t in range(max_support)]
        for size in range(2, max_support + 1, 2):
            for subset in itertools.combinations(sorted(window), size):
                supports.add(subset)
    return sorted(supports, key=lambda s: (len(s), s))


def geometric_noise(system, max_support, weights=None, *, monomials=None,
                    allow_odd=False):
    """Mixture of Majorana monomial unitaries local on the ring.

    By default the Kraus set is the identity plus every even Hermitian
    monomial whose support fits inside a contiguous arc of at most
    ``max_support`` ring positions; each operator is weighted by
    ``sqrt(w_i / sum(w))``, with uniform weights when none are given.
    Every monomial is unitary, so the result is trace preserving by
    construction.

    Passing ``monomials`` (a list of index tuples, empty tuple for the
    identity) overrides the arc enumeration.  Odd monomials violate the
    superselection rule and are rejected unless ``allow_odd`` is set.
    """
    n_indices = 2 * system.n_modes
    if monomials is None:
        if max_support < 2:
            raise ValueError("max_support must be at least 2")
        supports = [()] + _arc_monomial_supports(
            n_indices, min(max_support, n_indices)
        )
    else:
        supports = [_majorana_set(system.n_modes, s) for s in monomials]
        for indices in supports:
            if len(indices) % 2 != 0 and not allow_odd:
                raise ValueError(
                    f"odd monomial {indices} breaks the parity rule; "
                    "pass allow_odd=True to force it"
                )
        if not supports:
            raise ValueError("monomial list is empty")
    if weights is None:
        weights = np.ones(len(supports))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(supports),):
        raise ValueError(
            f"need {len(supports)} weights, got shape {weights.shape}"
        )
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights must not all vanish")
    kraus = [
        np.sqrt(w / total) * majorana_monomial(system, s)
        for s, w in zip(supports, weights)
        if w > 0.0
    ]
    return Channel(kraus)
