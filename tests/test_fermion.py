import itertools
import tracemalloc

import numpy as np
import pytest

from constrained_recovery import algebra, channels, fermion
from helpers import kron_majoranas, kron_monomial, random_kraus, random_physical_channel

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

S1 = fermion.FermionSystem(1)
S2 = fermion.FermionSystem(2)
S3 = fermion.FermionSystem(3)


def parity_dephasing(c):
    d = c.shape[0]
    return channels.Channel([np.eye(d) / np.sqrt(2), c / np.sqrt(2)])


def test_single_mode_generators():
    assert np.allclose(fermion.majorana(S1, 1), Y)
    assert np.allclose(fermion.majorana(S1, 2), X)


def test_two_mode_generators_have_strings():
    assert np.allclose(fermion.majorana(S2, 3), np.kron(Z, Y))
    assert np.allclose(fermion.majorana(S2, 4), np.kron(Z, X))


def test_majorana_index_range():
    with pytest.raises(IndexError):
        fermion.majorana(S2, 0)
    with pytest.raises(IndexError):
        fermion.majorana(S2, 5)


def test_anticommutation_relations():
    n = 2 * S3.n_modes
    eye = np.eye(S3.dim)
    for a in range(1, n + 1):
        wa = fermion.majorana(S3, a)
        for b in range(a, n + 1):
            wb = fermion.majorana(S3, b)
            target = 2.0 * eye if a == b else np.zeros_like(eye)
            assert np.linalg.norm(wa @ wb + wb @ wa - target) < 1e-10


def test_generators_equal_the_kron_chains():
    for n_modes in range(1, 9):
        system = fermion.FermionSystem(n_modes)
        for got, want in zip(system.majoranas, kron_majoranas(n_modes), strict=True):
            assert np.array_equal(got, want)


def test_monomials_equal_the_dense_products():
    for n_modes in range(1, 6):
        system = fermion.FermionSystem(n_modes)
        gens = kron_majoranas(n_modes)
        for size in range(0, 5):
            for indices in itertools.combinations(range(1, 2 * n_modes + 1), size):
                assert np.array_equal(fermion.majorana_monomial(system, indices),
                                      kron_monomial(gens, indices)), indices


def test_generator_arrays_are_read_only():
    system = fermion.FermionSystem(2)
    with pytest.raises(ValueError):
        system.phase[0, 0] = 1.0
    with pytest.raises(ValueError):
        system.perm[0, 0] = 0


@pytest.mark.parametrize("generator", [0, 3, 5])
def test_relation_check_rejects_a_corrupted_generator(generator):
    system = fermion.FermionSystem(3)
    phase = system.phase.copy()
    phase[generator, 2] = -phase[generator, 2]
    system.phase = phase
    with pytest.raises(RuntimeError, match="anticommutation"):
        system._check_relations()


def test_relation_check_rejects_a_permuted_generator():
    system = fermion.FermionSystem(2)
    perm = system.perm.copy()
    perm[1, [0, 1]] = perm[1, [1, 0]]
    system.perm = perm
    with pytest.raises(RuntimeError, match="anticommutation"):
        system._check_relations()


def test_monomial_phase_and_involution():
    # i * w1 w2 on one mode is i*Y*X = Z
    assert np.allclose(fermion.majorana_monomial(S1, (1, 2)), Z)
    assert np.allclose(fermion.majorana_monomial(S2, ()), np.eye(4))
    for indices in [(1, 3), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4)]:
        m = fermion.majorana_monomial(S2, indices)
        assert np.linalg.norm(m - m.conj().T) < 1e-12
        assert np.linalg.norm(m @ m - np.eye(4)) < 1e-12
    with pytest.raises(ValueError):
        fermion.majorana_monomial(S2, (1, 1))


def test_parity_of_whole_system():
    pd = fermion.parity_operator(S2, range(1, 5))
    assert np.allclose(pd.c, np.kron(Z, Z))
    vac = np.zeros(4)
    vac[0] = 1.0
    assert abs(vac @ pd.c @ vac - 1.0) < 1e-12


def test_parity_of_single_mode():
    pd = fermion.parity_operator(S2, (3, 4))
    assert np.allclose(pd.c, np.kron(np.eye(2), Z))


def test_parity_of_mixed_region():
    # i * w2 w3 = i * (X x 1)(Z x Y) = Y x Y
    pd = fermion.parity_operator(S2, (2, 3))
    assert np.allclose(pd.c, np.kron(Y, Y))


def test_parity_projectors():
    pd = fermion.parity_operator(S2, (1, 2))
    assert np.linalg.norm(pd.p_plus @ pd.p_plus - pd.p_plus) < 1e-12
    assert np.linalg.norm(pd.p_plus @ pd.p_minus) < 1e-12
    assert np.linalg.norm(pd.p_plus + pd.p_minus - np.eye(4)) < 1e-12


def test_parity_rejects_odd_region():
    with pytest.raises(ValueError):
        fermion.parity_operator(S2, (1, 2, 3))


def test_monomials_have_definite_parity():
    c = fermion.parity_operator(S2, range(1, 5)).c
    for size in range(1, 5):
        for indices in itertools.combinations(range(1, 5), size):
            m = fermion.majorana_monomial(S2, indices)
            sign = 1.0 if size % 2 == 0 else -1.0
            assert np.linalg.norm(c @ m - sign * m @ c) < 1e-12


def test_physical_algebra_dimensions():
    assert fermion.physical_algebra(S2, ()).dim == 1
    assert fermion.physical_algebra(S2, modes=[1]).dim == 2
    assert fermion.physical_algebra(S2, modes=[1, 2]).dim == 8
    assert fermion.physical_algebra(S3, (1, 2, 3, 4)).dim == 8


def test_physical_algebra_basis_is_the_scaled_monomials():
    # odd region sizes and indices out of order take the same path as modes
    for system, region in ((S3, (5, 1, 2, 6, 3)), (S3, tuple(range(1, 7)))):
        a = fermion.physical_algebra(system, region)
        order = sorted(region)
        scale = 1.0 / np.sqrt(system.dim)
        expect = [
            scale * fermion.majorana_monomial(system, sub)
            for size in range(0, len(order) + 1, 2)
            for sub in itertools.combinations(order, size)
        ]
        assert len(a.basis) == len(expect)
        assert all(np.array_equal(x, y) for x, y in zip(a.basis, expect))


def test_physical_algebra_keeps_one_copy_of_its_basis():
    # the monomials are written into one stack that the basis adopts, so a
    # build peaks near the size of what it keeps (twice that with a list copy)
    system = fermion.FermionSystem(5)
    region = tuple(range(1, 11))
    tracemalloc.start()
    try:
        a = fermion.physical_algebra(system, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dim == 512
    assert peak <= 1.25 * a._rows.nbytes
    scale = 1.0 / np.sqrt(system.dim)
    listed = algebra.AlgebraBasis(system.dim, [
        fermion._left((perm, scale * phase), np.eye(system.dim))
        for perm, phase in fermion._even_monomials(system, region)])
    assert a._rows.tobytes() == listed._rows.tobytes()


def test_region_sectors_are_built_on_the_first_block_structure_read(monkeypatch):
    # the dimension and membership read no sectors; block_structure builds
    # them once and every later read reuses them
    calls = []
    build = fermion._region_sectors

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fermion, "_region_sectors", counting)
    a = fermion.physical_algebra(S3, (1, 2, 3, 4))
    assert a.dim == 8
    assert algebra.contains(a, fermion.majorana_monomial(S3, (1, 3)))
    assert calls == []
    first = algebra.block_structure(a)
    second = algebra.block_structure(a, seed=5)
    assert len(calls) == 1
    assert [(s.left_dim, s.right_dim) for s in first.sectors] == [(2, 2), (2, 2)]
    for s, t in zip(first.sectors, second.sectors):
        assert np.array_equal(s.isometry, t.isometry)


def test_dense_generators_are_written_on_first_read():
    # the relations are checked on the permutation arrays, and the 2n dense
    # d x d generators are written only when majorana() reads them
    system = fermion.FermionSystem(3)
    assert "majoranas" not in vars(system)
    assert np.array_equal(fermion.majorana(system, 2), kron_majoranas(3)[1])
    assert "majoranas" in vars(system)


def test_physical_algebra_argument_validation():
    with pytest.raises(ValueError):
        fermion.physical_algebra(S2)
    with pytest.raises(ValueError):
        fermion.physical_algebra(S2, (1, 2), modes=[1])
    with pytest.raises(IndexError):
        fermion.physical_algebra(S2, (1, 7))


@pytest.mark.parametrize("build", [
    lambda: fermion.physical_algebra(S2, (1, 1, 2)),
    lambda: fermion.physical_algebra(S2, modes=[1, 1]),
    lambda: fermion.parity_operator(S2, (1, 1, 2, 2)),
], ids=["physical-algebra", "physical-algebra-modes", "parity-operator"])
def test_repeated_majorana_indices_are_refused(build):
    # each used to drop the repeat and build the algebra or parity of the set
    with pytest.raises(fermion.MajoranaIndexError, match="distinct Majorana indices in 1..4"):
        build()


def test_one_majorana_index_rule():
    # one exception for every index set: a ValueError, and an IndexError for
    # the callers that expect one for an index out of range
    assert issubclass(fermion.MajoranaIndexError, ValueError)
    assert issubclass(fermion.MajoranaIndexError, IndexError)
    refusals = [
        lambda: fermion.majorana(S2, 5),
        lambda: fermion.majorana_monomial(S2, (2, 2)),
        lambda: fermion.parity_operator(S2, (1, 2, 3)),
        lambda: fermion.geometric_noise(S2, 2, monomials=[(1, 9)]),
    ]
    for refuse in refusals:
        with pytest.raises(fermion.MajoranaIndexError, match="distinct Majorana indices in 1..4"):
            refuse()


def test_physical_algebra_is_closed():
    a = fermion.physical_algebra(S2, modes=[1])
    assert algebra.contains(a, np.kron(Z, np.eye(2)))
    regen = algebra.generate_algebra(a.basis, S2.dim)
    assert algebra.equal_spans(a, regen)


def test_physical_algebra_block_structure():
    # one mode out of two: two sectors of a scalar with multiplicity two
    bs = algebra.block_structure(fermion.physical_algebra(S2, modes=[1]))
    assert sorted((s.left_dim, s.right_dim) for s in bs.sectors) == [(1, 2), (1, 2)]
    # the full even algebra of two modes: two 2x2 blocks, multiplicity one
    bs = algebra.block_structure(fermion.physical_algebra(S2, modes=[1, 2]))
    assert sorted((s.left_dim, s.right_dim) for s in bs.sectors) == [(2, 1), (2, 1)]


def test_disjoint_regions_commute():
    a = fermion.physical_algebra(S3, modes=[1])
    b = fermion.physical_algebra(S3, modes=[2, 3])
    for x in a.basis:
        for y in b.basis:
            assert np.linalg.norm(x @ y - y @ x) < 1e-12


def test_relative_commutant_is_complement_plus_parity():
    for system, region in [(S2, [1]), (S3, [1]), (S3, [2, 3])]:
        whole = list(range(1, system.n_modes + 1))
        rest = [m for m in whole if m not in region]
        a_region = fermion.physical_algebra(system, modes=region)
        a_full = fermion.physical_algebra(system, modes=whole)
        rc = algebra.relative_commutant(a_region, a_full)
        c_all = fermion.parity_operator(system, range(1, 2 * system.n_modes + 1)).c
        gens = list(fermion.physical_algebra(system, modes=rest).basis) + [c_all]
        expected = algebra.generate_algebra(gens, system.dim)
        assert rc.dim == expected.dim
        assert algebra.equal_spans(rc, expected)


def test_center_of_region_algebra():
    a = fermion.physical_algebra(S3, (1, 2, 3, 4))
    z = algebra.center(a)
    assert z.dim == 2
    assert algebra.contains(z, fermion.parity_operator(S3, (1, 2, 3, 4)).c)
    assert algebra.contains(z, np.eye(8))


def test_split_reconstructs_physical_channels():
    c = fermion.parity_operator(S2, range(1, 5)).c
    q = parity_dephasing(c)
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = random_physical_channel(rng, c, k=3)
        split = fermion.definite_parity_split(n, c)
        qn = channels.compose(q, n)
        recon = channels.Channel(split.kraus_even + split.kraus_odd, check=False)
        assert channels.distance(recon, qn).choi_frobenius < 1e-9
        for e in split.kraus_even:
            assert np.linalg.norm(c @ e @ c - e) < 1e-10
        for e in split.kraus_odd:
            assert np.linalg.norm(c @ e @ c + e) < 1e-10
        assert channels.is_physical(n, q, q).physical


def test_split_detects_unphysical_channels():
    c = fermion.parity_operator(S2, range(1, 5)).c
    q = parity_dephasing(c)
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = channels.Channel(random_kraus(rng, 4, 4, 3))
        split = fermion.definite_parity_split(n, c)
        qn = channels.compose(q, n)
        recon = channels.Channel(split.kraus_even + split.kraus_odd, check=False)
        assert channels.distance(recon, qn).choi_frobenius > 1e-6
        assert not channels.is_physical(n, q, q).physical


def test_split_of_parity_preserving_channel_has_no_odd_part():
    n = fermion.geometric_noise(S3, 2)
    c = fermion.parity_operator(S3, range(1, 7)).c
    split = fermion.definite_parity_split(n, c)
    assert split.odd is None
    qn = channels.compose(parity_dephasing(c), n)
    assert channels.distance(split.even, qn).choi_frobenius < 1e-12


def test_split_rejects_bad_parity_operator():
    n = fermion.geometric_noise(S2, 2)
    with pytest.raises(ValueError):
        fermion.definite_parity_split(n, 1.01 * np.eye(4))
    with pytest.raises(ValueError):
        fermion.definite_parity_split(n, 1j * np.eye(4))


def test_single_majorana_dephasing_is_physical():
    # (1 + iw)/2 and (1 - iw)/2 give the same channel as mixing 1 and w
    w1 = fermion.majorana(S2, 1)
    eye = np.eye(4)
    n = channels.Channel([(eye + 1j * w1) / 2.0, (eye - 1j * w1) / 2.0])
    flip = channels.Channel([eye / np.sqrt(2), w1 / np.sqrt(2)])
    assert channels.distance(n, flip).choi_frobenius < 1e-12
    c = fermion.parity_operator(S2, range(1, 5)).c
    q = parity_dephasing(c)
    assert channels.is_physical(n, q, q).physical


def test_majorana_ring_small_example():
    scenario = fermion.majorana_ring(S3, (1, 6), ((2, 3), (4, 5)))
    w = scenario.code.isometry
    assert w.shape == (8, 2)
    assert np.linalg.norm(w.conj().T @ w - np.eye(2)) < 1e-10
    proj = scenario.code.projector
    assert abs(np.trace(proj).real - 2.0) < 1e-10
    for p, q in scenario.pairing:
        stab = -1j * fermion.majorana(S3, p) @ fermion.majorana(S3, q)
        assert np.linalg.norm(stab @ w - w) < 1e-10
    assert scenario.intervals == ((2, 3, 4, 5), ())


def test_majorana_ring_logical_identification():
    scenario = fermion.majorana_ring(S3, (1, 6), ((2, 3), (4, 5)))
    w = scenario.code.isometry
    logical = scenario.logical_system
    for i, k in enumerate(scenario.unpaired):
        lhs = fermion.majorana(S3, k) @ w
        rhs = w @ fermion.majorana(logical, i + 1)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_majorana_ring_parity_relation():
    scenario = fermion.majorana_ring(S3, (1, 6), ((2, 3), (4, 5)))
    w = scenario.code.isometry
    c_all = fermion.parity_operator(S3, range(1, 7)).c
    assert np.linalg.norm(c_all @ scenario.code.projector
                          - scenario.code.projector @ c_all) < 1e-9
    c_logical = fermion.parity_operator(scenario.logical_system, (1, 2)).c
    assert scenario.parity_sign in (1, -1)
    assert np.linalg.norm(w.conj().T @ c_all @ w
                          - scenario.parity_sign * c_logical) < 1e-8


def test_majorana_ring_two_logical_modes():
    s6 = fermion.FermionSystem(6)
    scenario = fermion.majorana_ring(
        s6, (1, 4, 7, 10), ((2, 3), (5, 6), (8, 9), (11, 12))
    )
    w = scenario.code.isometry
    assert w.shape == (64, 4)
    assert scenario.intervals == ((2, 3), (5, 6), (8, 9), (11, 12))
    logical = scenario.logical_system
    for i, k in enumerate(scenario.unpaired):
        lhs = fermion.majorana(s6, k) @ w
        rhs = w @ fermion.majorana(logical, i + 1)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_majorana_ring_validates_partition():
    with pytest.raises(ValueError):
        fermion.majorana_ring(S3, (1, 6), ((2, 3), (4, 4)))
    with pytest.raises(ValueError):
        fermion.majorana_ring(S3, (1,), ((2, 3), (4, 5)))
    with pytest.raises(ValueError):
        fermion.majorana_ring(S3, (1, 2), ((3, 4),))


def test_geometric_noise_arc_enumeration():
    n = fermion.geometric_noise(S3, 2)
    # identity plus six nearest-neighbor pairs on the six-index ring
    assert n.n_kraus == 7
    assert channels.validate(n).tp_residual < 1e-12
    n3 = fermion.geometric_noise(S3, 3)
    # pairs at ring distance one or two: twelve of them
    assert n3.n_kraus == 13


def test_geometric_noise_wraps_around_the_ring():
    # supports are sorted, so (1, 6) follows (1, 2) in the weight order
    n = fermion.geometric_noise(S3, 2, weights=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    expected = fermion.majorana_monomial(S3, (1, 6))
    assert n.n_kraus == 1
    assert np.linalg.norm(n.kraus[0] - expected) < 1e-12


def test_geometric_noise_weights():
    n = fermion.geometric_noise(S3, 2, weights=[3.0, 1.0] + [0.0] * 5)
    assert n.n_kraus == 2
    assert np.linalg.norm(n.kraus[0] - np.sqrt(0.75) * np.eye(8)) < 1e-12
    assert channels.validate(n).tp_residual < 1e-12


def test_geometric_noise_is_parity_preserving():
    n = fermion.geometric_noise(S3, 4)
    c = fermion.parity_operator(S3, range(1, 7)).c
    for e in n.kraus:
        assert np.linalg.norm(c @ e @ c - e) < 1e-12


def test_geometric_noise_override_builds_odd_monomials():
    n = fermion.geometric_noise(
        S3, 2, monomials=[(1,), (4,)], allow_odd=True
    )
    assert n.n_kraus == 2
    w1 = fermion.majorana(S3, 1)
    assert np.linalg.norm(n.kraus[0] - w1 / np.sqrt(2)) < 1e-12
    assert channels.validate(n).tp_residual < 1e-12


def test_geometric_noise_validation():
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 1)
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 2, monomials=[(1,)])
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 2, monomials=[(1, 1)], allow_odd=True)
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 2, weights=[1.0])
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 2, weights=[-1.0] + [1.0] * 6)
    with pytest.raises(ValueError):
        fermion.geometric_noise(S3, 2, weights=[0.0] * 7)
    with pytest.raises(IndexError):
        fermion.geometric_noise(S3, 2, monomials=[(1, 13)])
