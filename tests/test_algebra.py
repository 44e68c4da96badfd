import numpy as np
import pytest

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import linalg
from helpers import (
    commutant_by_svd,
    generate_algebra_by_einsum,
    planted_algebra,
    random_density,
    random_hermitian,
    random_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_generate_empty_is_trivial():
    a = alg.generate_algebra([], 3)
    assert a.dim == 1
    assert np.allclose(a.basis[0], np.eye(3) / np.sqrt(3))


def test_basis_elements_are_views_of_the_rows():
    mats = [np.eye(2) / np.sqrt(2), Z / np.sqrt(2)]
    a = alg.AlgebraBasis(2, mats)
    assert all(np.shares_memory(b, a._rows) for b in a.basis)
    assert all(np.array_equal(b, m) for b, m in zip(a.basis, mats))
    assert np.array_equal(a._rows, np.stack([m.reshape(-1) for m in mats]))


def test_a_complex_stack_is_adopted_without_a_copy():
    stack = np.stack([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)]).astype(complex)
    a = alg.AlgebraBasis(2, stack)
    assert np.shares_memory(a._rows, stack)
    assert not a._rows.flags.writeable and not stack.flags.writeable
    # a list of the same matrices, or a real stack, is copied
    for other in (list(stack), stack.real.copy()):
        b = alg.AlgebraBasis(2, other)
        assert not np.shares_memory(b._rows, stack)
        assert np.array_equal(b._rows, a._rows)


def test_generate_diagonal():
    a = alg.generate_algebra([Z], 2)
    assert a.dim == 2
    assert alg.contains(a, np.diag([2.0, 5.0]))
    assert not alg.contains(a, X)


def test_generate_full_from_ladder_operators():
    # two fermionic modes: a_1 = (X + iY)/2 (x) 1, a_2 = Z (x) (X + iY)/2
    low = (X + 1j * Y) / 2
    gens = [np.kron(low, np.eye(2)), np.kron(Z, low)]
    a = alg.generate_algebra(gens, 4)
    assert a.dim == 16


def test_generate_closure_and_orthonormality():
    rng = np.random.default_rng(42)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    rows = np.stack([linalg.vec(b) for b in a.basis])
    gram = rows.conj() @ rows.T
    assert np.linalg.norm(gram - np.eye(a.dim)) < 1e-10
    assert alg.contains(a, np.eye(d), tol=1e-9)
    for b in a.basis:
        assert alg.contains(a, b.conj().T, tol=1e-9)
    for b in a.basis[:3]:
        for c in a.basis[:3]:
            assert alg.contains(a, b @ c, tol=1e-9)


def test_generate_planted_dimensions():
    shapes = [
        [(2, 1), (1, 2)],
        [(2, 2)],
        [(3, 1), (1, 1)],
        [(2, 1), (2, 1)],
        [(2, 2), (1, 3), (1, 1)],
    ]
    rng = np.random.default_rng(7)
    for sectors in shapes:
        gens, _, d = planted_algebra(rng, sectors)
        a = alg.generate_algebra(gens, d)
        assert a.dim == sum(n * n for n, m in sectors)


def test_generate_products_match_einsum_reference():
    low = (X + 1j * Y) / 2
    corpus = [([Z], 2), ([X, Z], 2), ([np.kron(low, np.eye(2)), np.kron(Z, low)], 4)]
    for seed, shapes in (
        (7, [[(2, 1), (1, 2)], [(2, 2)], [(3, 1), (1, 1)], [(2, 1), (2, 1)],
             [(2, 2), (1, 3), (1, 1)]]),
        (41, [[(1, 1), (1, 1), (2, 1)], [(2, 3), (2, 3)], [(1, 5)],
              [(4, 2), (2, 2), (2, 1), (1, 2)]]),
    ):
        rng = np.random.default_rng(seed)
        for sectors in shapes:
            gens, _, d = planted_algebra(rng, sectors)
            corpus.append((gens, d))
    for gens, d in corpus:
        got = alg.generate_algebra(gens, d)._rows
        want = generate_algebra_by_einsum(gens, d)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_generate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        alg.generate_algebra([np.eye(3)], 2)


def test_commutant_of_trivial_is_full():
    a = alg.generate_algebra([], 3)
    assert alg.commutant(a).dim == 9


def test_commutant_of_full_is_trivial():
    a = alg.generate_algebra([X, Z], 2)
    c = alg.commutant(a)
    assert c.dim == 1
    assert np.allclose(c.basis[0] @ X, X @ c.basis[0])


def test_commutant_of_diagonal_is_itself():
    a = alg.generate_algebra([Z], 2)
    c = alg.commutant(a)
    assert c.dim == 2
    for b in c.basis:
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12
    assert alg.equal_spans(a, c)


def test_commutant_planted_dims_and_residual():
    rng = np.random.default_rng(12)
    for sectors in ([(2, 1), (1, 2)], [(2, 2), (1, 1)], [(3, 2)]):
        gens, _, d = planted_algebra(rng, sectors)
        a = alg.generate_algebra(gens, d)
        c = alg.commutant(a)
        assert c.dim == sum(m * m for n, m in sectors)
        worst = max(
            float(np.linalg.norm(b @ x - x @ b))
            for b in a.basis
            for x in c.basis
        )
        assert worst < 1e-9


def test_commutant_matches_commutator_kernel():
    rng = np.random.default_rng(41)
    shapes = [
        [(2, 1), (1, 2)],
        [(1, 1), (1, 1), (2, 1)],
        [(2, 3), (2, 3)],
        [(1, 5)],
        [(4, 2), (2, 2), (2, 1), (1, 2)],
    ]
    for sectors in shapes:
        gens, _, d = planted_algebra(rng, sectors)
        a = alg.generate_algebra(gens, d)
        assert alg.equal_spans(alg.commutant(a), commutant_by_svd(a), tol=1e-9)
    region = fermion.physical_algebra(fermion.FermionSystem(4), [2, 3, 4, 5])
    assert alg.equal_spans(
        alg.commutant(region), commutant_by_svd(region), tol=1e-9
    )


def test_commutant_of_six_mode_region_algebra():
    a = fermion.physical_algebra(fermion.FermionSystem(6), [1, 2, 3, 4])
    c = alg.commutant(a)
    assert c.dim == 512
    gram = c._rows.conj() @ c._rows.T
    assert np.linalg.norm(gram - np.eye(c.dim)) < 1e-10
    xs = np.stack(c.basis)
    worst = max(
        float(np.max(np.linalg.norm(b @ xs - xs @ b, axis=(1, 2)))) for b in a.basis
    )
    assert worst <= 1e-12


def test_commutant_is_reproducible():
    rng = np.random.default_rng(42)
    gens, _, d = planted_algebra(rng, [(2, 2), (1, 3)])
    a = alg.generate_algebra(gens, d)
    first, second = alg.commutant(a), alg.commutant(a)
    assert first.dim == second.dim == 13
    for x, y in zip(first.basis, second.basis):
        assert np.array_equal(x, y)


def test_commutant_of_empty_basis_is_full():
    rng = np.random.default_rng(43)
    c = alg.commutant(alg.AlgebraBasis(3, []))
    full = alg.generate_algebra([random_hermitian(rng, 3) for _ in range(2)], 3)
    assert c.dim == full.dim == 9
    assert alg.equal_spans(c, full)


def test_commutant_rejects_non_algebra():
    # {1, X, Y} on the first qubit spans no algebra: XY = iZ is missing
    bad = alg.AlgebraBasis(
        4,
        [np.eye(4) / 2, np.kron(X, np.eye(2)) / 2, np.kron(Y, np.eye(2)) / 2],
    )
    with pytest.raises(ValueError, match="not a dagger-algebra"):
        alg.commutant(bad)
    # a projector spans a *-algebra without the identity, which has no
    # sector form (+) M_n (x) 1_m on the whole space
    with pytest.raises(ValueError, match="not a dagger-algebra"):
        alg.commutant(alg.AlgebraBasis(3, [np.diag([1.0, 0.0, 0.0])]))


def test_double_commutant():
    rng = np.random.default_rng(99)
    shapes = [
        [(2, 1), (1, 2)],
        [(2, 2)],
        [(1, 1), (1, 1), (2, 1)],
        [(2, 2), (2, 1)],
        [(3, 1), (2, 2)],
        [(4, 2), (2, 2), (2, 1), (1, 2)],
    ]
    for sectors in shapes:
        gens, _, d = planted_algebra(rng, sectors)
        a = alg.generate_algebra(gens, d)
        again = alg.commutant(alg.commutant(a))
        assert alg.equal_spans(a, again, tol=1e-7)


def test_center():
    full = alg.generate_algebra([X, Z], 2)
    assert alg.center(full).dim == 1

    rng = np.random.default_rng(3)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2), (2, 2)])
    a = alg.generate_algebra(gens, d)
    z = alg.center(a)
    assert z.dim == 3
    for p in z.basis:
        for q in z.basis:
            assert np.linalg.norm(p @ q - q @ p) < 1e-9
        for b in a.basis:
            assert np.linalg.norm(p @ b - b @ p) < 1e-9


def test_minimal_central_projectors_diag():
    a = alg.generate_algebra([Z], 2)
    projs = alg.minimal_central_projectors(a)
    assert len(projs) == 2
    assert np.allclose(projs[0], np.diag([1.0, 0.0]))
    assert np.allclose(projs[1], np.diag([0.0, 1.0]))


def test_minimal_central_projectors_full():
    a = alg.generate_algebra([X, Z], 2)
    projs = alg.minimal_central_projectors(a)
    assert len(projs) == 1
    assert np.allclose(projs[0], np.eye(2))


def test_minimal_central_projectors_planted():
    rng = np.random.default_rng(21)
    sectors = [(2, 2), (2, 1), (1, 1)]
    gens, _, d = planted_algebra(rng, sectors)
    a = alg.generate_algebra(gens, d)
    projs = alg.minimal_central_projectors(a)
    assert len(projs) == 3
    total = sum(projs)
    assert np.linalg.norm(total - np.eye(d)) < 1e-9
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            expect = p if i == j else 0 * p
            assert np.linalg.norm(p @ q - expect) < 1e-9
    ranks = sorted(round(np.trace(p).real) for p in projs)
    assert ranks == sorted(n * m for n, m in sectors)
    # ordering contract: descending rank
    traces = [round(np.trace(p).real) for p in projs]
    assert traces == sorted(traces, reverse=True)


def test_cluster_guard_raises_on_near_degenerate_split():
    with pytest.raises(alg.DegenerateSplitError):
        alg._cluster_eigenvalues(np.array([0.0, 5e-8, 1.0]), 1e-8)
    clusters = alg._cluster_eigenvalues(np.array([0.0, 1e-12, 1.0]), 1e-8)
    assert [len(c) for c in clusters] == [2, 1]


def test_block_structure_extremes():
    full = alg.generate_algebra([X, Z], 2)
    bs = alg.block_structure(full)
    assert [(s.left_dim, s.right_dim) for s in bs.sectors] == [(2, 1)]

    triv = alg.generate_algebra([], 3)
    bs = alg.block_structure(triv)
    assert [(s.left_dim, s.right_dim) for s in bs.sectors] == [(1, 3)]


def test_block_structure_roundtrip():
    rng = np.random.default_rng(4)
    sectors = [(2, 2), (1, 2), (2, 1)]
    gens, _, d = planted_algebra(rng, sectors)
    a = alg.generate_algebra(gens, d)
    bs = alg.block_structure(a)
    found = sorted((s.left_dim, s.right_dim) for s in bs.sectors)
    assert found == sorted(sectors)
    _assert_blocks_rebuild(a, bs)


def test_block_structure_order_of_equal_rank_sectors():
    # two rank-2 sectors of different shapes: the order is fixed by the
    # projectors (descending rank, then the trace against diag(0..d-1)),
    # whatever the seed
    rng = np.random.default_rng(12)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    shapes = []
    for seed in (0, alg.DEFAULT_SEED):
        bs = alg.block_structure(a, seed=seed)
        keys = [(-round(np.trace(s.projector).real),
                 float(np.diag(s.projector).real @ np.arange(d)))
                for s in bs.sectors]
        assert keys == sorted(keys)
        shapes.append([(s.left_dim, s.right_dim) for s in bs.sectors])
        _assert_blocks_rebuild(a, bs)
    assert shapes[0] == shapes[1]
    assert sorted(shapes[0]) == [(1, 2), (2, 1)]


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_tied_parity_sectors_keep_one_order_over_seeds(modes):
    # the two sectors of span{1, c} tie exactly on the trace against
    # diag(0..d-1), so their diagonals order them, whatever the seed: the
    # even one, which holds the vacuum, first, as physical_algebra of the
    # whole register lists them
    system = fermion.FermionSystem(modes)
    region = range(1, 2 * modes + 1)
    a = alg.generate_algebra([np.asarray(fermion.parity_operator(system, tuple(region)).c)],
                             system.dim)
    want = [s.projector for s in alg.block_structure(fermion.physical_algebra(system, region)).sectors]
    assert want[0][0, 0] == 1
    for seed in (0, 1, 5, 11, 123, alg.DEFAULT_SEED):
        got = [s.projector for s in alg.block_structure(a, seed=seed).sectors]
        assert [np.abs(p - q).max() < 1e-9 for p, q in zip(got, want)] == [True, True], seed


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sector_read_offs_equal_the_stored_isometry():
    """left_dim, right_dim and isometry, read off the (d, n, m) array, equal
    bitwise what was stored when a Sector kept its isometry: rebuilt here
    from the output of _modules, and for a region from its array."""
    rng = np.random.default_rng(4)
    gens, _, d = planted_algebra(rng, [(2, 2), (1, 2), (2, 1)])
    a = alg.generate_algebra(gens, d)
    stored = []
    for vs, units in alg._modules(a, alg.DEFAULT_SEED):
        m, _, n = vs.shape
        levels = np.sqrt(n) * vs @ units[:, 0]
        projector = np.einsum("kan,kbn->ab", vs, vs.conj())
        stored.append((projector, n, m, levels.transpose(2, 0, 1).reshape(n * m, d).conj()))
    stored.sort(key=lambda s: (-s[1] * s[2], float((np.diag(s[0]).real * np.arange(d)).sum())))
    got = alg.block_structure(a).sectors
    assert len(got) == len(stored)
    for s, (projector, n, m, isometry) in zip(got, stored):
        assert (s.left_dim, s.right_dim) == (n, m)
        assert _same_bits(s.projector, projector) and _same_bits(s.isometry, isometry)
    region = fermion.physical_algebra(fermion.FermionSystem(3), [1, 2, 3, 5])
    for s in alg.block_structure(region).sectors:
        d, n, m = s.x.shape
        assert (s.left_dim, s.right_dim) == (n, m) == (2, 2)
        assert _same_bits(s.isometry, s.x.reshape(d, n * m).conj().T)


def test_an_algebra_is_decomposed_once_and_again_only_for_another_seed(monkeypatch):
    rng = np.random.default_rng(12)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    twin = alg.AlgebraBasis(d, a._rows.reshape(-1, d, d).copy())
    seeds = []
    inner = alg._modules

    def counted(b, seed=alg.DEFAULT_SEED):
        seeds.append(seed)
        return inner(b, seed)

    monkeypatch.setattr(alg, "_modules", counted)
    first = alg.block_structure(a)
    alg.commutant(a), alg.center(a), alg.conditional_expectation(a)
    assert all(s is t for s, t in zip(alg.block_structure(a).sectors, first.sectors))
    assert seeds == [alg.DEFAULT_SEED]
    # another seed draws its own sectors, equal to a fresh draw at that seed
    other, fresh = alg.block_structure(a, seed=5), alg.block_structure(twin, seed=5)
    assert seeds == [alg.DEFAULT_SEED, 5, 5] and other.seed == 5
    for s, t in zip(other.sectors, fresh.sectors):
        assert _same_bits(s.x, t.x) and _same_bits(s.projector, t.projector)


def _assert_blocks_rebuild(a, bs):
    d = a.ambient_dim
    for s in bs.sectors:
        nm = s.left_dim * s.right_dim
        assert np.linalg.norm(s.isometry @ s.isometry.conj().T - np.eye(nm)) < 1e-9
        assert np.linalg.norm(s.isometry.conj().T @ s.isometry - s.projector) < 1e-9
    for b in a.basis:
        rebuilt = np.zeros((d, d), dtype=complex)
        for s in bs.sectors:
            conj = s.isometry @ b @ s.isometry.conj().T
            left = linalg.partial_trace(conj, [s.left_dim, s.right_dim], keep=[0])
            rebuilt += s.isometry.conj().T @ np.kron(
                left / s.right_dim, np.eye(s.right_dim)
            ) @ s.isometry
        assert np.linalg.norm(rebuilt - b) < 1e-8


def test_block_structure_of_every_ring_region():
    # every four contiguous Majoranas on the ring of 10 (5 modes)
    system = fermion.FermionSystem(5)
    for seed in (0, alg.DEFAULT_SEED):
        for start in range(10):
            region = [(start + i) % 10 + 1 for i in range(4)]
            a = fermion.physical_algebra(system, region)
            bs = alg.block_structure(a, seed=seed)
            found = sorted((s.left_dim, s.right_dim) for s in bs.sectors)
            assert found == [(2, 8), (2, 8)], (start, seed)


def test_block_structure_roundtrip_on_region_algebra():
    # {2..5} on 5 modes failed to factor under the Gram-eigensolve commutant
    a = fermion.physical_algebra(fermion.FermionSystem(5), [2, 3, 4, 5])
    _assert_blocks_rebuild(a, alg.block_structure(a))


# (modes, region): even and odd regions, contiguous and not, on 2 to 5 modes,
# with the empty region, one Majorana and a whole register
REGIONS = [
    (2, ()), (2, (3,)), (2, (1, 2)), (2, (1, 3, 4)), (2, (1, 2, 3, 4)),
    (3, (2, 3, 4, 5)), (3, (1, 3, 6)), (3, (1, 2, 4, 5, 6)),
    (4, (1, 2, 5, 8)), (4, (2, 3, 4, 5, 6, 7, 8)), (4, (1, 3, 4, 6, 7, 8)),
    (5, (1, 4, 5, 9)), (5, (2, 3, 4, 5, 6)), (5, (1, 2, 3, 6, 7, 9, 10)),
]


@pytest.mark.parametrize("modes, region", REGIONS, ids=[f"{n}-{r}" for n, r in REGIONS])
def test_region_sectors_match_the_twirl(modes, region):
    """The closed-form sectors of a region's even algebra against those the
    twirl of _modules finds on the same basis given densely: equal sector
    dims, projectors within 1e-12, and U_k b U_k^dag = b_k (x) 1 within
    1e-12 for every basis element b, with sum_k U_k^dag (b_k (x) 1) U_k = b."""
    a = fermion.physical_algebra(fermion.FermionSystem(modes), region)
    d = a.ambient_dim
    basis = np.stack(a.basis)
    want = alg.block_structure(alg.AlgebraBasis(d, basis.copy())).sectors
    got = alg.block_structure(a).sectors
    assert len(got) == len(want)
    for s in got:
        twin = min(want, key=lambda w: np.linalg.norm(w.projector - s.projector))
        assert (s.left_dim, s.right_dim) == (twin.left_dim, twin.right_dim)
        assert np.abs(s.projector - twin.projector).max() <= 1e-12
    rebuilt = np.zeros_like(basis)
    for s in got:
        n, m = s.left_dim, s.right_dim
        u = s.isometry
        assert np.abs(u @ u.conj().T - np.eye(n * m)).max() <= 1e-12
        conj = (u @ basis @ u.conj().T).reshape(-1, n, m, n, m)
        left = np.einsum("kiaja->kij", conj) / m
        factored = np.einsum("kij,ab->kiajb", left, np.eye(m))
        assert np.abs(conj - factored).max() <= 1e-12
        rebuilt += u.conj().T @ factored.reshape(-1, n * m, n * m) @ u
    assert np.abs(rebuilt - basis).max() <= 1e-12


def test_region_algebra_reads_its_sectors_with_no_twirl_and_no_basis(monkeypatch):
    """The block structure, commutant and center of a region's even algebra
    read its carried sectors, whatever the seed, and leave its dense basis
    unwritten; the 8-Majorana region on 8 modes (a basis of 128 matrices of
    256 x 256) and the whole 8-mode ring (32768 of them) included."""
    def refuse(*args, **kwargs):
        raise AssertionError("_modules ran on a region algebra")

    monkeypatch.setattr(alg, "_modules", refuse)
    system = fermion.FermionSystem(8)
    for region, shape in ((range(1, 9), (8, 16)), (range(1, 17), (128, 1))):
        a = fermion.physical_algebra(system, region)
        first, other = alg.block_structure(a), alg.block_structure(a, seed=5)
        assert other.seed == 5
        assert [(s.left_dim, s.right_dim) for s in first.sectors] == [shape, shape]
        for s, t in zip(first.sectors, other.sectors):
            assert np.array_equal(s.isometry, t.isometry)
        assert alg.commutant(a).dim == 2 * shape[1] ** 2
        assert alg.center(a).dim == 2
        assert a.dim == 2 * shape[0] ** 2
        assert "_rows" not in vars(a) and "basis" not in vars(a)


def test_commutant_of_a_region_is_one_stack_of_sector_products():
    # the commutant of a region's even algebra is written into the stack its
    # basis adopts, and equals the span of the commutator kernel
    a = fermion.physical_algebra(fermion.FermionSystem(4), [1, 3, 4, 6, 7])
    c = alg.commutant(a)
    assert c._rows.base is not None and c._rows.base.shape == (c.dim, 16, 16)
    assert np.shares_memory(c._rows, c.basis[0])
    gram = c._rows.conj() @ c._rows.T
    assert np.abs(gram - np.eye(c.dim)).max() <= 1e-12
    assert alg.equal_spans(c, commutant_by_svd(a), tol=1e-9)


def test_block_structure_rejects_non_algebra():
    bad = alg.AlgebraBasis(
        4,
        [np.eye(4) / 2, np.kron(X, np.eye(2)) / 2, np.kron(Y, np.eye(2)) / 2],
    )
    with pytest.raises(ValueError):
        alg.block_structure(bad)


def test_conditional_expectation_full_is_identity():
    a = alg.generate_algebra([X, Z], 2)
    p = alg.conditional_expectation(a)
    assert ch.distance(p, ch.identity_channel(2)).choi_frobenius < 1e-10


def test_conditional_expectation_parity():
    zz = np.kron(Z, Z)
    a = alg.commutant(alg.generate_algebra([zz], 4))
    p = alg.conditional_expectation(a)
    rng = np.random.default_rng(8)
    for _ in range(4):
        rho = random_density(rng, 4)
        expect = (rho + zz @ rho @ zz) / 2
        assert np.linalg.norm(p(rho) - expect) < 1e-10


def test_conditional_expectation_diag_matches_projection():
    a = alg.generate_algebra([np.diag([1.0, 2.0, 3.0])], 3)
    p = alg.conditional_expectation(a)
    rng = np.random.default_rng(9)
    for _ in range(4):
        rho = random_density(rng, 3)
        proj = sum(linalg.hs_inner(b, rho) * b for b in a.basis)
        assert np.linalg.norm(p(rho) - np.diag(np.diag(rho))) < 1e-10
        assert np.linalg.norm(p(rho) - proj) < 1e-10


def test_conditional_expectation_invariants():
    rng = np.random.default_rng(16)
    gens, _, d = planted_algebra(rng, [(2, 2), (1, 1)])
    a = alg.generate_algebra(gens, d)
    p = alg.conditional_expectation(a)

    rep = ch.validate(p, tol=1e-9)
    assert rep.valid
    assert ch.distance(ch.compose(p, p), p).choi_frobenius < 1e-8
    for b in a.basis:
        assert np.linalg.norm(p(b) - b) < 1e-10
    # Hilbert-Schmidt self-adjointness: <X, P(Y)> = <P(X), Y>
    for _ in range(4):
        x = random_hermitian(rng, d)
        y = random_hermitian(rng, d)
        lhs = linalg.hs_inner(x, p(y))
        rhs = linalg.hs_inner(p(x), y)
        assert abs(lhs - rhs) < 1e-8


def test_commuting_expectations_commute():
    rng = np.random.default_rng(31)
    a = alg.generate_algebra([np.kron(random_hermitian(rng, 2), np.eye(2))], 4)
    b = alg.generate_algebra([np.kron(np.eye(2), random_hermitian(rng, 2))], 4)
    pa = alg.conditional_expectation(a)
    pb = alg.conditional_expectation(b)
    d = ch.distance(ch.compose(pa, pb), ch.compose(pb, pa)).choi_frobenius
    assert d < 1e-8


def test_one_design_twirl_cross_check():
    # averaging over the commuting unitaries {1, C} projects onto {C}'
    zz = np.kron(Z, Z)
    twirl = ch.Channel([np.eye(4) / np.sqrt(2), zz / np.sqrt(2)])
    p = alg.conditional_expectation(alg.commutant(alg.generate_algebra([zz], 4)))
    assert ch.distance(twirl, p).choi_frobenius < 1e-9

    dephase = ch.Channel([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
    pd = alg.conditional_expectation(alg.generate_algebra([Z], 2))
    assert ch.distance(dephase, pd).choi_frobenius < 1e-9


def test_join_intersect_contains():
    rng = np.random.default_rng(13)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    triv = alg.generate_algebra([], d)
    assert alg.equal_spans(alg.join(a, triv), a)
    assert alg.equal_spans(alg.intersect(a, a), a)
    full = alg.generate_algebra([random_hermitian(rng, d) for _ in range(2)], d)
    assert full.dim == d * d
    assert alg.equal_spans(alg.intersect(a, full), a)
    for b in a.basis:
        assert alg.contains(a, b)
    assert not alg.contains(a, random_hermitian(rng, d))


def test_relative_commutant():
    rng = np.random.default_rng(6)
    full = alg.generate_algebra([random_hermitian(rng, 4) for _ in range(2)], 4)
    triv = alg.generate_algebra([], 4)
    assert alg.equal_spans(alg.relative_commutant(triv, full), full)

    b = alg.generate_algebra(
        [np.kron(np.eye(2), random_hermitian(rng, 2)) for _ in range(2)], 4
    )
    a_side = alg.generate_algebra(
        [np.kron(random_hermitian(rng, 2), np.eye(2)) for _ in range(2)], 4
    )
    assert b.dim == 4 and a_side.dim == 4
    assert alg.equal_spans(alg.relative_commutant(b, full), a_side)

    small = alg.generate_algebra([Z], 2)
    with pytest.raises(ValueError):
        alg.relative_commutant(small, alg.generate_algebra([], 2))


def test_minimal_projectors_seed_reproducibility():
    rng = np.random.default_rng(55)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    first = alg.minimal_central_projectors(a, seed=123)
    second = alg.minimal_central_projectors(a, seed=123)
    assert len(first) == len(second) == 3
    for p, q in zip(first, second):
        assert np.array_equal(p, q)


def test_conjugated_basis_is_left_factor_form():
    rng = np.random.default_rng(71)
    gens, _, d = planted_algebra(rng, [(2, 3)])
    a = alg.generate_algebra(gens, d)
    bs = alg.block_structure(a)
    s = bs.sectors[0]
    for b in a.basis:
        conj = s.isometry @ b @ s.isometry.conj().T
        left = linalg.partial_trace(conj, [s.left_dim, s.right_dim], keep=[0])
        assert np.linalg.norm(
            conj - np.kron(left / s.right_dim, np.eye(s.right_dim))
        ) < 1e-8
