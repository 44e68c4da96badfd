import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import recovery as rc
from constrained_recovery import scenario as sc
from constrained_recovery import sdp
from helpers import (
    fermion_local_reference,
    fixed_algebra,
    fixes_algebra_reference,
    kron_majoranas,
    kron_monomial,
    random_kraus,
    random_density,
    random_physical_channel,
    random_unitary,
    sandwich_even_residuals,
    tensor_local_reference,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

ID2 = ch.identity_channel(2)
ID4 = ch.identity_channel(4)
DEPHASE = ch.Channel([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
DEPOLARIZE = ch.Channel(
    [np.eye(2) / 2, X / 2, np.array([[0, -1j], [1j, 0]]) / 2, Z / 2]
)

S2 = fermion.FermionSystem(2)
S3 = fermion.FermionSystem(3)
S6 = fermion.FermionSystem(6)
WHOLE6 = tuple(range(1, 13))
PAR6 = fermion.parity_operator(S6, WHOLE6)
PROJ6 = [PAR6.p_plus, PAR6.p_minus]
NOISE6 = fermion.geometric_noise(S6, 2)

# Unpaired modes separated by two stabilizer pairs: window products from
# opposite ends of a gap excite different pairs, so mixing all windows into
# one Kraus set stays correctable.
RING_WIDE = fermion.majorana_ring(
    S6, (1, 6), ((2, 3), (4, 5), (7, 8), (9, 10), (11, 12))
)
# Four unpaired modes force single-pair gaps; windows meeting at a shared
# pair compose to a logical rotation, so only per-window sets are safe.
RING_TIGHT = fermion.majorana_ring(
    S6, (1, 4, 7, 10), ((2, 3), (5, 6), (8, 9), (11, 12))
)
# Ring-adjacent unpaired modes: the wrap window acts as the logical parity.
RING_ADJ = fermion.majorana_ring(
    S6, (1, 12), ((2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
)

S3_WHOLE = tuple(range(1, 7))
PAR3 = fermion.parity_operator(S3, S3_WHOLE)
RING_POISON = fermion.majorana_ring(S3, (1, 2, 4, 5), ((3, 6),))
POISON = fermion.geometric_noise(S3, 2, monomials=[(1,), (2,)], allow_odd=True)


def two_dim_code(i, j, d=4):
    w = np.zeros((d, 2), dtype=complex)
    w[i, 0] = 1.0
    w[j, 1] = 1.0
    return rc.Code(2, d, w)


def parity_dephasing(c):
    d = c.shape[0]
    return ch.Channel([np.eye(d) / np.sqrt(2), np.asarray(c) / np.sqrt(2)])


# ---------------------------------------------------------------------------
# kl_check


def test_kl_identity_noise_trivial():
    rep = rc.kl_check(two_dim_code(0, 3), [np.eye(4)])
    assert rep.verdict == "correctable"
    assert bool(rep)
    assert np.allclose(rep.coefficients["sigma"], [[1.0]])


def test_kl_phase_pair_correctable():
    """ZZ acts as identity on the span of |00> and |11>."""
    kraus = [np.eye(4) / np.sqrt(2), np.kron(Z, Z) / np.sqrt(2)]
    rep = rc.kl_check(two_dim_code(0, 3), kraus)
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-12
    assert np.allclose(rep.coefficients["sigma"], np.full((2, 2), 0.5))
    assert rep.sufficiency_flags["error_density_valid"]


def test_kl_logical_flip_not_correctable():
    """A flip acting inside the code leaks one logical bit entirely."""
    code = two_dim_code(0, 1)
    kraus = [np.eye(4) / np.sqrt(2), np.kron(np.eye(2), X) / np.sqrt(2)]
    rep = rc.kl_check(code, kraus)
    assert rep.verdict == "not_correctable"
    assert not bool(rep)
    # Independent oracle: project each compressed block on the identity and
    # accumulate what is left over.
    w = code.isometry
    total = 0.0
    for ej in kraus:
        for ei in kraus:
            block = w.conj().T @ ej.conj().T @ ei @ w
            best = np.trace(block) / 2.0 * np.eye(2)
            total += np.linalg.norm(block - best) ** 2
    assert abs(rep.residual - np.sqrt(total)) <= 1e-12
    assert abs(rep.residual - 1.0) <= 1e-12


def test_kl_verdict_matches_recovery_fidelity():
    """Correctable exactly when a recovery reaches fidelity one."""
    phase = two_dim_code(0, 3)
    flip = two_dim_code(0, 1)
    cases = [
        (phase, [np.eye(4) / np.sqrt(2), np.kron(Z, Z) / np.sqrt(2)]),
        (flip, [np.eye(4) / np.sqrt(2), np.kron(np.eye(2), X) / np.sqrt(2)]),
        (phase, [np.kron(X, X)]),
        (flip, [np.kron(Z, np.eye(2)) / np.sqrt(2), np.kron(X, X) / np.sqrt(2)]),
    ]
    for code, kraus in cases:
        rep = rc.kl_check(code, kraus)
        rho = code.projector / code.logical_dim
        res = rc.optimal_recovery_fidelity(ch.Channel(kraus), ID4, rho)
        assert res.status == "optimal"
        assert (rep.verdict == "correctable") == (res.value >= 1 - 1e-5)


# ---------------------------------------------------------------------------
# superselection_kl_check


def test_superselection_global_parity_flip_correctable():
    rep = rc.superselection_kl_check(
        RING_POISON.code, [np.asarray(PAR3.c)], [PAR3.p_plus, PAR3.p_minus]
    )
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-12


def test_superselection_geometric_noise_wide_gaps():
    """Full window mixture is fine when every gap holds two pairs."""
    rep = rc.superselection_kl_check(RING_WIDE.code, NOISE6, PROJ6, tol=1e-10)
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-10
    assert rep.sufficiency_flags["projectors_commute_with_code"]


def test_superselection_cross_window_products_defeat_tight_ring():
    """Windows meeting at a single-pair gap compose to a logical rotation."""
    rep = rc.superselection_kl_check(RING_TIGHT.code, NOISE6, PROJ6, tol=1e-10)
    assert rep.verdict == "not_correctable"
    assert rep.residual > 0.1


def test_superselection_single_window_sets_on_tight_ring():
    for start in (1, 2, 3, 12):
        span = tuple(sorted((start, start % 12 + 1)))
        gamma = np.asarray(fermion.majorana_monomial(S6, span))
        for kraus in ([gamma], [np.eye(64) / np.sqrt(2), gamma / np.sqrt(2)]):
            rep = rc.superselection_kl_check(
                RING_TIGHT.code, kraus, PROJ6, tol=1e-10
            )
            assert rep.verdict == "correctable", span
            assert rep.residual <= 1e-10


def test_superselection_poisoning_pair_not_correctable():
    rep = rc.superselection_kl_check(
        RING_POISON.code, POISON, [PAR3.p_plus, PAR3.p_minus]
    )
    assert rep.verdict == "not_correctable"
    assert rep.residual >= 1e-3
    assert abs(rep.residual - np.sqrt(2)) <= 1e-10


def test_superselection_sector_states_form_distributions():
    rep = rc.superselection_kl_check(RING_WIDE.code, NOISE6, PROJ6)
    states = rep.coefficients["sector_densities"]
    n_sec = len(PROJ6)
    for i in range(n_sec):
        total = 0.0
        for j in range(n_sec):
            w = np.linalg.eigvalsh(states[i, j])
            assert w.min() >= -1e-10
            total += np.trace(states[i, j]).real
        assert abs(total - 1.0) <= 1e-8
    assert rep.sufficiency_flags["sector_densities_valid"]


def test_superselection_mixed_sector_code_is_indeterminate():
    """Without [C, WW+] = 0 the conditions certify nothing."""
    v = np.zeros((4, 1), dtype=complex)
    v[0, 0] = v[1, 0] = 1 / np.sqrt(2)
    par = fermion.parity_operator(S2, (1, 2, 3, 4))
    rep = rc.superselection_kl_check(
        rc.Code(1, 4, v), [np.eye(4)], [par.p_plus, par.p_minus]
    )
    assert rep.verdict == "indeterminate"
    assert not rep.sufficiency_flags["projectors_commute_with_code"]


def test_superselection_rejects_bad_projector_families():
    code = two_dim_code(0, 3)
    par = fermion.parity_operator(S2, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        rc.superselection_kl_check(code, [np.eye(4)], [np.asarray(par.p_plus)])
    overlapping = [np.asarray(par.p_plus), np.eye(4) - 0.5 * np.asarray(par.p_plus)]
    with pytest.raises(ValueError):
        rc.superselection_kl_check(code, [np.eye(4)], overlapping)


# ---------------------------------------------------------------------------
# tensor_local_check


BELL = rc.Code(
    2,
    4,
    np.array(
        [[1, 0], [0, 1], [0, 1], [1, 0]], dtype=complex
    ) / np.sqrt(2),
)


def test_tensor_local_identity_noise():
    rep = rc.tensor_local_check(BELL, [np.eye(2)], (2, 2))
    assert rep.verdict == "correctable"
    assert np.allclose(rep.coefficients["lambda"], [[1.0]])


def test_tensor_local_dephasing_on_bell_code_matches_fidelity():
    """Dephasing one Bell factor is globally but not locally reversible,
    and the verdict tracks the factor-local recovery optimum."""
    deph = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    rep = rc.tensor_local_check(BELL, deph, (2, 2))
    assert rep.verdict == "not_correctable"
    n = ch.tensor_channels(ch.Channel(deph), ID2)
    rho = BELL.projector / 2
    free = rc.optimal_recovery_fidelity(n, ID4, rho)
    assert free.value >= 1 - 1e-5
    untouched = alg.generate_algebra(
        [np.kron(np.eye(2), X), np.kron(np.eye(2), Z)], 4
    )
    local = rc.optimal_recovery_fidelity(
        n, ID4, rho, rc.FixesAlgebra(untouched)
    )
    assert local.value < 1 - 1e-3
    assert (rep.verdict == "correctable") == (local.value >= 1 - 1e-5)


def test_tensor_local_noise_away_from_code_factor():
    """Erasing a factor the code never uses loses nothing."""
    code = two_dim_code(0, 1)
    units = [
        np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]),
        np.array([[0, 0], [1, 0]]), np.array([[0, 0], [0, 1]]),
    ]
    rep = rc.tensor_local_check(code, [u / np.sqrt(2) for u in units], (2, 2))
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-12


def test_tensor_local_rejects_bad_bipartition():
    with pytest.raises(ValueError):
        rc.tensor_local_check(BELL, [np.eye(3)], (3, 2))


# ---------------------------------------------------------------------------
# fermion_local_check


def test_fermion_local_whole_ring_geometric_noise():
    rep = rc.fermion_local_check(RING_WIDE.code, NOISE6, WHOLE6, tol=1e-10)
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-10
    assert rep.sufficiency_flags["kraus_parity_preserving"]


def test_fermion_local_fixed_parity_code_collapses_to_one_sector():
    """A definite-parity code never populates the odd sector equations."""
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    code = two_dim_code(0, 3)
    assert np.allclose(c @ code.isometry, code.isometry)
    rep = rc.fermion_local_check(
        code, [np.eye(4) / np.sqrt(2), c / np.sqrt(2)], (1, 2, 3, 4)
    )
    assert rep.verdict == "correctable"
    assert np.allclose(rep.coefficients["lambda_plus"], np.full((2, 2), 0.5))
    assert np.allclose(rep.coefficients["lambda_minus"], 0.0)


def test_fermion_local_rejects_odd_kraus():
    w1 = np.asarray(fermion.majorana(S3, 1))
    with pytest.raises(ValueError):
        rc.fermion_local_check(RING_POISON.code, [w1], S3_WHOLE)


def test_fermion_local_rejects_kraus_outside_region():
    m34 = np.asarray(fermion.majorana_monomial(S2, (3, 4)))
    with pytest.raises(ValueError):
        rc.fermion_local_check(two_dim_code(0, 3), [m34], (1, 2))


@pytest.mark.parametrize("region", [(1, 2, 3), (1, 1, 2, 3), (1, 2, 3, 9), (0, 1)])
def test_fermion_local_refuses_a_region_that_is_not_an_even_set(region):
    # an odd, repeated or out-of-range region; a repeat used to be dropped
    m12 = np.asarray(fermion.majorana_monomial(S2, (1, 2)))
    with pytest.raises(ValueError, match="distinct Majorana indices in 1..4"):
        rc.fermion_local_check(two_dim_code(0, 3), [m12], region)


def test_fermion_local_names_the_first_kraus_outside_region():
    m12 = np.asarray(fermion.majorana_monomial(S2, (1, 2)))
    m34 = np.asarray(fermion.majorana_monomial(S2, (3, 4)))
    with pytest.raises(ValueError, match="Kraus operator 1 is not"):
        rc.fermion_local_check(two_dim_code(0, 3), [m12, m34], (1, 2))


def _dense_even_residuals(system, region, x):
    """Residuals of ``x`` against the dense basis of the region's even algebra,
    as ``algebra.contains`` computes them."""
    rows = fermion.physical_algebra(system, region)._rows
    v = x.reshape(len(x), -1)
    return np.linalg.norm(v - (rows @ v.conj().T).conj().T @ rows, axis=1)


def test_even_residuals_match_the_dense_projection():
    rng = np.random.default_rng(7)
    for n_modes in range(1, 5):
        system = fermion.FermionSystem(n_modes)
        gens = kron_majoranas(n_modes)
        d = system.dim
        indices = range(1, 2 * n_modes + 1)
        for size in range(0, 2 * n_modes + 1, 2):
            for region in itertools.combinations(indices, size):
                basis = np.stack(fermion.physical_algebra(system, region).basis)
                coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
                x = np.concatenate([
                    rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d)),
                    np.tensordot(coeffs, basis, axes=1)[None],
                    fermion.majorana_monomial(system, (region or (1,))[:1])[None],
                ])
                c = fermion._monomial(system, region)
                outside = [k for k in indices if k not in region]
                got = rc._even_residuals(system, c, outside, x)
                want = _dense_even_residuals(system, region, x)
                assert np.abs(got - want).max() <= 1e-12, (n_modes, region)
                # the same projections with dense kron-chain generators and
                # dense products give the same numbers exactly
                sandwich = sandwich_even_residuals(
                    kron_monomial(gens, region), [gens[k - 1] for k in outside], x)
                assert np.array_equal(got, sandwich), (n_modes, region)
                assert got[2] <= 1e-12
                assert abs(got[3] - np.sqrt(d)) <= 1e-12


def test_fermion_local_check_builds_no_region_basis():
    """The 12-Majorana region basis alone would take 134 MB."""
    scenario = sc.load_scenario("majorana_ring_n6")
    task = next(t for t in scenario.tasks if t["variant"] == "fermion-local")
    args = task["args"]
    tracemalloc.start()
    try:
        rep = rc.fermion_local_check(args["code"], args["channel"], args["region"], tol=1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict == "correctable"
    assert peak < 32 * 2**20


def test_sector_resolution_beats_plain_conditions():
    """The wrap window of an adjacent-unpaired ring is the logical parity:
    fatal for the plain conditions, absorbed by the sector-resolved ones."""
    plain = rc.kl_check(RING_ADJ.code, NOISE6)
    assert plain.verdict == "not_correctable"
    assert plain.residual > 0.1
    sup = rc.superselection_kl_check(RING_ADJ.code, NOISE6, PROJ6, tol=1e-10)
    assert sup.verdict == "correctable"
    assert sup.residual <= 1e-10
    loc = rc.fermion_local_check(RING_ADJ.code, NOISE6, WHOLE6, tol=1e-10)
    assert loc.verdict == "correctable"
    assert loc.residual <= 1e-10
    gap = np.abs(
        np.asarray(loc.coefficients["lambda_plus"])
        - np.asarray(loc.coefficients["lambda_minus"])
    ).max()
    assert gap > 0.1


# ---------------------------------------------------------------------------
# the one least-squares fit behind the checks


def hermitian_part(x):
    return (x + x.conj().T) / 2


def random_code(rng, d, k=2):
    return rc.Code(k, d, random_unitary(rng, d)[:, :k])


def test_fit_gives_a_zero_row_coefficient_zero():
    rng = np.random.default_rng(41)
    targets = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    coeff, residual = rc._fit(np.zeros((1, 4)), targets)
    assert np.array_equal(coeff, np.zeros((3, 1)))
    assert residual == np.linalg.norm(targets)
    fixed = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1e-11, 0.0]])
    coeff, residual = rc._fit(fixed, 2.5 * fixed[:1] + 1e-3 * np.eye(4)[3])
    assert np.allclose(coeff, [[2.5, 0.0]], atol=1e-14)
    assert abs(residual - 1e-3) <= 1e-14


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 1)])
def test_tensor_local_matches_the_explicit_kron_reference(dims):
    rng = np.random.default_rng(43)
    for _ in range(3):
        code = random_code(rng, dims[0] * dims[1])
        kraus = random_kraus(rng, dims[0], dims[0], 3)
        rep = rc.tensor_local_check(code, kraus, dims)
        lam, residual = tensor_local_reference(code, kraus, dims)
        assert np.abs(rep.coefficients["lambda"] - hermitian_part(lam)).max() <= 1e-12
        assert abs(rep.residual - residual) <= 1e-12


def test_kl_check_is_tensor_local_with_a_trivial_second_factor():
    rng = np.random.default_rng(47)
    cases = [(RING_WIDE.code, NOISE6.kraus), (RING_ADJ.code, NOISE6.kraus)]
    cases += [(random_code(rng, 6), random_kraus(rng, 6, 6, 3)) for _ in range(3)]
    for code, kraus in cases:
        d = code.physical_dim
        plain = rc.kl_check(code, kraus)
        local = rc.tensor_local_check(code, kraus, (d, 1))
        assert np.array_equal(plain.coefficients["sigma"], local.coefficients["lambda"].T)
        assert plain.residual == local.residual
        assert plain.verdict == local.verdict
        lam, residual = tensor_local_reference(code, kraus, (d, 1))
        assert np.abs(plain.coefficients["sigma"] - hermitian_part(lam).T).max() <= 1e-12
        assert abs(plain.residual - residual) <= 1e-12


def region_noise(rng, system, region, k=3):
    """Random operators in the even algebra of ``region``."""
    even = [m for size in range(0, len(region) + 1, 2)
            for m in itertools.combinations(region, size)]
    monomials = np.stack([fermion.majorana_monomial(system, m) for m in even])
    return [np.tensordot(rng.normal(size=len(even)) + 1j * rng.normal(size=len(even)),
                         monomials, axes=1) for _ in range(k)]


def test_fermion_local_matches_the_per_pair_reference():
    rng = np.random.default_rng(53)
    c2 = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    cases = [
        (RING_WIDE.code, NOISE6.kraus, WHOLE6),
        (RING_ADJ.code, NOISE6.kraus, WHOLE6),
        (two_dim_code(0, 3), [np.eye(4) / np.sqrt(2), c2 / np.sqrt(2)], (1, 2, 3, 4)),
        (RING_POISON.code, region_noise(rng, S3, (1, 2, 3, 4)), (1, 2, 3, 4)),
        (random_code(rng, 8), region_noise(rng, S3, (2, 5)), (2, 5)),
        (random_code(rng, 16), region_noise(rng, fermion.FermionSystem(4), (1, 2, 7, 8)),
         (1, 2, 7, 8)),
    ]
    for code, kraus, region in cases:
        rep = rc.fermion_local_check(code, kraus, region)
        lam_plus, lam_minus, residual = fermion_local_reference(code, kraus, region)
        for got, want in ((rep.coefficients["lambda_plus"], lam_plus),
                          (rep.coefficients["lambda_minus"], lam_minus)):
            assert np.abs(got - hermitian_part(want)).max() <= 1e-12, region
        assert abs(rep.residual - residual) <= 1e-12, region


def test_superselection_code_in_one_sector_keeps_its_completion():
    """The odd sector carries no code weight: its densities are the uniform
    completion and the verdict rests on the even sector alone."""
    par = fermion.parity_operator(S2, (1, 2, 3, 4))
    kraus = [np.eye(4) / np.sqrt(2), np.asarray(par.c) / np.sqrt(2)]
    rep = rc.superselection_kl_check(two_dim_code(0, 3), kraus, [par.p_plus, par.p_minus])
    assert rep.verdict == "correctable"
    assert rep.residual <= 1e-12
    assert rep.sufficiency_flags["fixed_charge_sector"]
    densities = rep.coefficients["sector_densities"]
    assert np.array_equal(densities[1], np.broadcast_to(np.eye(2) / 4, (2, 2, 2)))
    assert np.allclose(densities[0, 0], np.full((2, 2), 0.5), atol=1e-12)
    assert np.allclose(densities[0, 1], 0.0, atol=1e-12)
    flip = [np.asarray(fermion.majorana_monomial(S2, (1, 3)))]
    rep = rc.superselection_kl_check(two_dim_code(0, 3), flip, [par.p_plus, par.p_minus])
    assert rep.verdict == "correctable"
    assert np.array_equal(rep.coefficients["sector_densities"][1],
                          np.broadcast_to(np.eye(1) / 2, (2, 1, 1)))


# ---------------------------------------------------------------------------
# optimal_recovery_fidelity and extraction


def test_identity_pair_reaches_one():
    res = rc.optimal_recovery_fidelity(ID2, ID2, np.eye(2) / 2)
    assert res.status == "optimal"
    assert abs(res.value - 1.0) <= 1e-7
    best = rc.extract_recovery(res)
    assert ch.distance(best, ID2).choi_frobenius <= 1e-5


def test_depolarizing_noise_frozen_value():
    res = rc.optimal_recovery_fidelity(DEPOLARIZE, ID2, np.eye(2) / 2)
    assert abs(res.value - 0.5) <= 5e-7


def test_dephasing_noise_frozen_value():
    res = rc.optimal_recovery_fidelity(DEPHASE, ID2, np.eye(2) / 2)
    assert abs(res.value - 1 / np.sqrt(2)) <= 1e-6
    assert res.constraint_set == "unconstrained"
    assert res.duality_gap <= 1e-6


def test_extracted_recovery_achieves_reported_value():
    rng = np.random.default_rng(3)
    n = ch.Channel(random_kraus(rng, 3, 3, 2))
    m = ch.Channel(random_kraus(rng, 3, 3, 2))
    rho = np.eye(3) / 3
    res = rc.optimal_recovery_fidelity(n, m, rho)
    best = rc.extract_recovery(res)
    achieved = ch.entanglement_fidelity(ch.compose(best, n), m, rho)
    assert 0.0 <= res.value <= 1.0
    assert abs(achieved - res.value) <= 2e-6


def test_fidelity_results_are_reproducible():
    rng = np.random.default_rng(5)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    a = rc.optimal_recovery_fidelity(n, ID2, np.eye(2) / 2)
    b = rc.optimal_recovery_fidelity(n, ID2, np.eye(2) / 2)
    assert a.value == b.value
    assert a.iterations == b.iterations


# ---------------------------------------------------------------------------
# duality of the two optimizations


def test_duality_random_qubit_pairs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = ch.Channel(random_kraus(rng, 2, 2, 2))
        rep = rc.verify_duality(n, ID2, np.eye(2) / 2)
        assert rep.passed
        assert rep.difference <= 1e-5
        assert bool(rep)


def test_duality_with_physical_sandwich():
    """Equality survives restricting recoveries to parity-respecting maps."""
    rng = np.random.default_rng(23)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    pq = parity_dephasing(c)
    rho = np.eye(4) / 4
    for _ in range(15):
        n = random_physical_channel(rng, c, k=3)
        m = random_physical_channel(rng, c, k=2)
        rep = rc.verify_duality(n, m, rho, rc.Physical(pq, pq))
        assert rep.passed
        assert rep.difference <= 1e-5


def test_duality_with_fixed_parity_algebra():
    rng = np.random.default_rng(29)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    b = alg.generate_algebra([c], 4)
    rho = np.eye(4) / 4
    for _ in range(15):
        n = ch.Channel(random_kraus(rng, 4, 4, 3))
        m = ch.Channel(random_kraus(rng, 4, 4, 2))
        rep = rc.verify_duality(n, m, rho, rc.FixesAlgebra(b))
        assert rep.passed
        assert rep.difference <= 1e-5


def test_constraint_labels_of_both_sides():
    rng = np.random.default_rng(37)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    pq = parity_dephasing(c)
    b = alg.generate_algebra([c], 4)
    n = random_physical_channel(rng, c, k=2)
    m = random_physical_channel(rng, c, k=2)
    for constraint, label in (
        (rc.Unconstrained(), "unconstrained"),
        (rc.Physical(pq, pq), "physical"),
        (rc.FixesAlgebra(b), "fixes_algebra(dim=2)"),
    ):
        rep = rc.verify_duality(n, m, np.eye(4) / 4, constraint)
        assert rep.recovery.constraint_set == label
        assert rep.environment.constraint_set == f"environment({label})"


def test_fixed_algebra_environment_side_builds_the_expectation_once(monkeypatch):
    """Both local complements and the expectation's Kraus rank share one
    conditional expectation, read off the block structure of the fixed
    algebra with no commutant basis."""
    rng = np.random.default_rng(59)
    b = alg.generate_algebra([np.asarray(PAR3.c)], 8)
    n = ch.Channel(random_kraus(rng, 8, 8, 2))
    m = ch.Channel(random_kraus(rng, 8, 8, 2))
    calls = {"commutant": 0, "_modules": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(alg, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(alg, name, counted)
    # b keeps its sectors, so a second constraint on it decomposes nothing
    want = rc.environment_side_fidelity(n, m, np.eye(8) / 8, rc.FixesAlgebra(b))
    got = rc.environment_side_fidelity(n, m, np.eye(8) / 8, rc.FixesAlgebra(b))
    assert calls == {"commutant": 0, "_modules": 1}
    assert got.value == want.value
    assert np.array_equal(got.optimizer, want.optimizer)


def test_fixed_algebra_duality_decomposes_the_algebra_once(monkeypatch):
    """Both sides of a FixesAlgebra duality read the sectors of the fixed
    algebra, found by one _modules draw and with no commutant basis."""
    rng = np.random.default_rng(64)
    b = alg.generate_algebra([np.kron(p, np.eye(2)) for p in (X, Z)], 4)
    n = ch.Channel(random_kraus(rng, 4, 4, 2))
    calls = {"commutant": 0, "_modules": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(alg, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(alg, name, counted)
    assert rc.verify_duality(n, ID4, np.eye(4) / 4, rc.FixesAlgebra(b)).passed
    assert calls == {"commutant": 0, "_modules": 1}


def test_local_recovery_of_factor_noise_reduces_to_factor_problem():
    """Fixing the untouched tensor factor localizes the optimization."""
    rng = np.random.default_rng(37)
    n_a = ch.Channel(random_kraus(rng, 2, 2, 2))
    n = ch.tensor_channels(n_a, ID2)
    b = alg.generate_algebra([np.kron(np.eye(2), X), np.kron(np.eye(2), Z)], 4)
    rep = rc.verify_duality(n, ID4, np.eye(4) / 4, rc.FixesAlgebra(b))
    assert rep.passed
    base = rc.optimal_recovery_fidelity(n_a, ID2, np.eye(2) / 2)
    assert abs(rep.recovery.value - base.value) <= 1e-5


def test_poisoning_fidelity_below_one_on_both_sides():
    blind = ch.Channel([np.asarray(PAR3.p_plus), np.asarray(PAR3.p_minus)])
    rho = RING_POISON.code.projector / RING_POISON.code.logical_dim
    rep = rc.verify_duality(POISON, blind, rho)
    assert rep.passed
    assert rep.difference <= 1e-5
    assert rep.recovery.value <= 1 - 1e-3
    assert rep.environment.value <= 1 - 1e-3


def test_duality_invariant_under_kraus_representation():
    """A redundant Kraus presentation changes the complement's shape but
    not either optimum."""
    rng = np.random.default_rng(41)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    m_red = ch.Channel(
        [np.eye(2) / np.sqrt(2), Z * (0.6 / np.sqrt(2)), Z * (0.8 / np.sqrt(2))]
    )
    assert ch.distance(m_red, DEPHASE).choi_frobenius <= 1e-12
    lean = rc.environment_side_fidelity(n, DEPHASE, np.eye(2) / 2)
    fat = rc.environment_side_fidelity(n, m_red, np.eye(2) / 2)
    assert abs(lean.value - fat.value) <= 1e-5


# ---------------------------------------------------------------------------
# constraint soundness


def test_physical_optimizer_ignores_unphysical_directions():
    rng = np.random.default_rng(43)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    pq = parity_dephasing(c)
    n = random_physical_channel(rng, c, k=2)
    m = random_physical_channel(rng, c, k=2)
    res = rc.optimal_recovery_fidelity(n, m, np.eye(4) / 4, rc.Physical(pq, pq))
    best = rc.extract_recovery(res)
    sandwiched = ch.compose(pq, ch.compose(best, pq))
    left_only = ch.compose(pq, best)
    assert ch.distance(sandwiched, left_only).choi_frobenius <= 1e-6


def test_fixed_algebra_optimizer_fixes_the_algebra():
    rng = np.random.default_rng(47)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    b = alg.generate_algebra([c], 4)
    n = ch.Channel(random_kraus(rng, 4, 4, 2))
    res = rc.optimal_recovery_fidelity(n, ID4, np.eye(4) / 4, rc.FixesAlgebra(b))
    best = rc.extract_recovery(res)
    for row in b.basis:
        elem = np.asarray(row).reshape(4, 4)
        assert np.linalg.norm(ch.adjoint_apply(best, elem) - elem) <= 1e-6


@pytest.mark.parametrize("state", ["full-rank", "code"])
@pytest.mark.parametrize("name", ["parity-4", "parity-8", "m2-8", "m2-16", "mixed-7",
                                  "scalars-6", "full-4"])
def test_fixes_algebra_recovery_matches_the_dense_basis_reference(name, state):
    """The sector form agrees with the dense commutant basis, writes only
    independent rows, and extends to a channel that fixes the algebra."""
    rng = np.random.default_rng(241)
    b = fixed_algebra(name, rng)
    d = b.ambient_dim
    n, m = (ch.Channel(random_kraus(rng, d, d, 2)) for _ in range(2))
    rho = random_density(rng, d) if state == "full-rank" else code_state(rng, d)
    plan, _, _ = rc._link_plan(n, m, rho, rc.FixesAlgebra(b), False)
    sol = sdp.solve(plan.problem, tol=1e-9)
    ref = fixes_algebra_reference(n, m, rho, b, tol=1e-9)
    assert sol.status == ref.status == "optimal"
    assert abs(sol.value - ref.value) < 1e-8
    assert sol.diagnostics["rows_kept"] == sol.diagnostics["rows"]

    choi = plan.choi(sol)
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] >= -1e-8
    traced = np.einsum("aiaj->ij", choi.reshape(d, d, d, d))
    assert np.linalg.norm(traced - np.eye(d)) <= 1e-8
    best = ch.channel_from_choi(choi, d, d, renormalize=True)
    assert ch.fixes_algebra(best, b).fixes
    if name.startswith("scalars"):
        free = rc.optimal_recovery_fidelity(n, m, rho, tol=1e-9)
        assert abs(sol.value - free.value) < 1e-8
    if name.startswith("full"):
        # only the identity channel fixes all of M_d
        unit = np.eye(d).reshape(-1)
        assert np.linalg.norm(choi - np.outer(unit, unit)) <= 1e-8
        assert abs(sol.value - ch.entanglement_fidelity(n, m, rho)) < 1e-8


def test_fixes_algebra_sector_the_target_never_reaches():
    """A parity sector with no output support keeps one dimension, so the
    noise's weight there still has a trace-preserving place to go."""
    rng = np.random.default_rng(251)
    b = fixed_algebra("parity-4", rng)
    even, odd = (s.x.reshape(4, -1) for s in alg.block_structure(b).sectors)
    # the target keeps the first sector and folds the second onto its first vector
    m = ch.Channel([even @ even.conj().T] + [even[:, :1] @ v[None].conj() for v in odd.T])
    n = ch.Channel(random_kraus(rng, 4, 4, 2))
    rho = random_density(rng, 4)
    plan, _, _ = rc._link_plan(n, m, rho, rc.FixesAlgebra(b), False)
    assert (plan.out_sizes, plan.in_sizes) == ([2, 1], [2, 2])
    sol = sdp.solve(plan.problem, tol=1e-9)
    assert abs(sol.value - fixes_algebra_reference(n, m, rho, b, tol=1e-9).value) < 1e-8
    assert ch.fixes_algebra(ch.channel_from_choi(plan.choi(sol), 4, 4, renormalize=True), b).fixes


@pytest.mark.parametrize("name", ["parity-4", "m2-8", "mixed-7"])
def test_fixes_algebra_environment_optimizer_fixes_the_expectation_factor(name):
    """The environment side's reported optimizer is the plan's extension
    1_{k_p} (x) R, not renormalized: trace preserving to solver accuracy,
    fixing M_{k_p} (x) 1 on the local complements (k_p the Kraus rank of
    the expectation onto the commutant), and reaching the reported value."""
    rng = np.random.default_rng(277)
    b = fixed_algebra(name, rng)
    d = b.ambient_dim
    n, m = (ch.Channel(random_kraus(rng, d, d, 2)) for _ in range(2))
    rho = random_density(rng, d)
    res = rc.environment_side_fidelity(n, m, rho, rc.FixesAlgebra(b), tol=1e-9)
    assert res.status == "optimal"
    src, fixed = ch.local_complementary(m, b), ch.local_complementary(n, b)
    k_p, dim = src.out_dim // 2, src.out_dim
    assert (res.out_dim, res.in_dim) == (dim, dim) == (fixed.out_dim, src.out_dim)

    choi = res.optimizer
    traced = np.einsum("aiaj->ij", choi.reshape(dim, dim, dim, dim))
    assert np.linalg.norm(traced - np.eye(dim)) <= 1e-8
    best = ch.channel_from_choi(choi, dim, dim)
    units = np.eye(k_p * k_p).reshape(-1, k_p, k_p)
    assert ch.fixes_algebra(best, alg.generate_algebra([np.kron(u, np.eye(2)) for u in units],
                                                       dim)).fixes
    reached = ch.entanglement_fidelity(ch.compose(best, src), fixed, rho)
    assert abs(reached - res.value) <= 1e-7


def test_constraints_never_raise_the_optimum():
    """Each constrained optimum stays below the unconstrained optimum of
    its own objective (the physical variant targets the dephased channel)."""
    rng = np.random.default_rng(53)
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    pq = parity_dephasing(c)
    b = alg.generate_algebra([c], 4)
    rho = np.eye(4) / 4
    for _ in range(2):
        n = random_physical_channel(rng, c, k=3)
        m = random_physical_channel(rng, c, k=2)
        free = rc.optimal_recovery_fidelity(n, m, rho).value
        free_dephased = rc.optimal_recovery_fidelity(
            n, ch.compose(pq, m), rho
        ).value
        tied = rc.optimal_recovery_fidelity(n, m, rho, rc.Physical(pq, pq)).value
        fixed = rc.optimal_recovery_fidelity(n, m, rho, rc.FixesAlgebra(b)).value
        assert tied <= free_dephased + 1e-7
        assert fixed <= free + 1e-7


# ---------------------------------------------------------------------------
# environment side structure


def test_environment_side_against_identity_target():
    """With a trivial target the environment play is a state preparation."""
    res = rc.environment_side_fidelity(DEPHASE, ID2, np.eye(2) / 2)
    assert abs(res.value - 1 / np.sqrt(2)) <= 1e-6


def test_complement_of_expectation_is_expectation_on_commutant():
    a = alg.generate_algebra([np.kron(X, np.eye(2)), np.kron(Z, np.eye(2))], 4)
    ce_a = alg.conditional_expectation(a)
    ce_comm = alg.conditional_expectation(alg.commutant(a))
    rep = ch.equivalent_complements(ce_a, ce_a)
    assert rep.equivalent
    comp = ch.complementary(ce_a)
    forward = rc.optimal_recovery_fidelity(comp, ce_comm, np.eye(4) / 4)
    backward = rc.optimal_recovery_fidelity(ce_comm, comp, np.eye(4) / 4)
    assert forward.value >= 1 - 1e-6
    assert backward.value >= 1 - 1e-6


def test_unequal_information_leakage_is_detected():
    rep = ch.equivalent_complements(ID2, DEPOLARIZE)
    assert not rep.equivalent
    assert rep.forward_value >= 1 - 1e-6
    assert rep.backward_value < 1 - 1e-3


# ---------------------------------------------------------------------------
# worst-case seesaw


def test_seesaw_reports_one_for_correctable_noise():
    code = two_dim_code(0, 3)
    n = ch.Channel([np.eye(4) / np.sqrt(2), np.kron(Z, Z) / np.sqrt(2)])
    res = rc.worst_case_fidelity_seesaw(n, ID4, code)
    assert res.status == "heuristic"
    assert res.value >= 1 - 1e-6


def test_seesaw_dephasing_worst_case_matches_symmetric_point():
    code = rc.Code(2, 2, np.eye(2, dtype=complex))
    res = rc.worst_case_fidelity_seesaw(DEPHASE, ID2, code)
    assert abs(res.value - 1 / np.sqrt(2)) <= 1e-6
    assert res.constraint_set == "worst_case_seesaw(heuristic)"


def test_seesaw_seed_reproduces_and_defaults(monkeypatch):
    rng = np.random.default_rng(61)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    code = rc.Code(2, 2, np.eye(2, dtype=complex))
    seeds = []
    make_rng = np.random.default_rng

    def recording_rng(seed=None):
        seeds.append(seed)
        return make_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    first = rc.worst_case_fidelity_seesaw(n, ID2, code, rounds=2, seed=5)
    assert seeds == [5]
    again = rc.worst_case_fidelity_seesaw(n, ID2, code, rounds=2, seed=5)
    assert first.value == again.value
    default = rc.worst_case_fidelity_seesaw(n, ID2, code, rounds=2)
    pinned = rc.worst_case_fidelity_seesaw(
        n, ID2, code, rounds=2, seed=rc.SEESAW_DEFAULT_SEED
    )
    assert default.value == pinned.value
    assert seeds[2:] == [rc.SEESAW_DEFAULT_SEED] * 2


def test_seesaw_never_beats_any_particular_state():
    rng = np.random.default_rng(59)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    code = rc.Code(2, 2, np.eye(2, dtype=complex))
    worst = rc.worst_case_fidelity_seesaw(n, ID2, code)
    at_mixed = rc.optimal_recovery_fidelity(n, ID2, np.eye(2) / 2)
    assert worst.value <= at_mixed.value + 1e-8


# ---------------------------------------------------------------------------
# link problems on the supports of their states


def code_state(rng, d, k=2):
    w = random_unitary(rng, d)[:, :k]
    return w @ w.conj().T / k


def support_corpus(case):
    """Noise, target, state and constraint of a rank-deficient link problem."""
    rng = np.random.default_rng({"code": 211, "rectangular": 223, "fixes_algebra": 227,
                                 "physical": 229, "code-d12": 233}[case])
    if case in ("code", "code-d12"):
        d = 8 if case == "code" else 12
        return ch.Channel(random_kraus(rng, d, d, 3)), ch.identity_channel(d), \
            code_state(rng, d), rc.Unconstrained()
    if case == "rectangular":
        # n(rho) has rank at most k * d = 4 on 5 output dimensions
        return ch.Channel(random_kraus(rng, 5, 2, 2)), ch.Channel(random_kraus(rng, 3, 2, 2)), \
            np.eye(2) / 2, rc.Unconstrained()
    c = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
    rho = code_state(rng, 4, 1)
    if case == "fixes_algebra":
        # six Kraus operators on a pure state span at most four environment dimensions
        b = alg.generate_algebra([c], 4)
        return ch.Channel(random_kraus(rng, 4, 4, 6)), ch.Channel(random_kraus(rng, 4, 4, 2)), \
            rho, rc.FixesAlgebra(b)
    pq = parity_dephasing(c)
    return random_physical_channel(rng, c, k=3), random_physical_channel(rng, c, k=2), \
        rho, rc.Physical(pq, pq)


def linked_channels(n, m, constraint, environment):
    """The channels whose fidelity a side's reported optimizer r maximizes,
    as (source, fixed): r . source against fixed."""
    if isinstance(constraint, rc.Physical):
        n, m = ch.compose(constraint.q, n), ch.compose(constraint.p, m)
    if not environment:
        return n, m
    if isinstance(constraint, rc.FixesAlgebra):
        return (ch.local_complementary(m, constraint.algebra),
                ch.local_complementary(n, constraint.algebra))
    return ch.complementary(m), ch.complementary(n)


def identity_supports(state, act, ref, sectors, fixed=False):
    """:func:`recovery._act_supports` at full support: act as one sector,
    of the multiplicity of the first of the ``sectors``."""
    return [np.eye(act, dtype=complex).reshape(act, sectors[0].shape[1], -1)], state


SUPPORT_SIDES = [("code", False), ("code-d12", False), ("rectangular", False),
                 ("fixes_algebra", True), ("physical", True), ("physical", False)]


@pytest.mark.parametrize("case, environment", SUPPORT_SIDES)
def test_support_reduced_side_matches_the_full_problem(monkeypatch, case, environment):
    n, m, rho, constraint = support_corpus(case)
    plan, _, _ = rc._link_plan(n, m, rho, constraint, environment)
    # some side is not the whole act factor as one sector
    assert any(cols[0].shape[1:] != (1, len(cols[0])) for cols in plan.supports)
    if case == "fixes_algebra":
        assert plan.sectors[0].shape[1] > 1
    reduced = rc._fidelity(n, m, rho, constraint, 1e-9, environment)
    with monkeypatch.context() as patch:
        patch.setattr(rc, "_act_supports", identity_supports)
        full_plan, _, _ = rc._link_plan(n, m, rho, constraint, environment)
        full = rc._fidelity(n, m, rho, constraint, 1e-9, environment)
    assert full_plan.problem.block_dims[0] > plan.problem.block_dims[0]
    assert reduced.status == full.status == "optimal"
    assert abs(reduced.value - full.value) < 1e-8
    assert (reduced.out_dim, reduced.in_dim) == (full.out_dim, full.in_dim)

    # the reported optimizer is the extension to the full dimensions: a
    # channel that reaches the SDP value
    d_out, d_in = reduced.out_dim, reduced.in_dim
    choi = reduced.optimizer
    assert choi.shape == (d_out * d_in, d_out * d_in)
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] >= -1e-8
    traced = np.einsum("aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in))
    assert np.linalg.norm(traced - np.eye(d_in)) <= 1e-8
    source, fixed = linked_channels(n, m, constraint, environment)
    reached = ch.entanglement_fidelity(ch.compose(rc.extract_recovery(reduced), source),
                                       fixed, rho)
    assert abs(reached - reduced.value) <= 1e-7


@pytest.mark.parametrize("environment", [False, True])
def test_full_support_keeps_the_full_problem(monkeypatch, environment):
    rng = np.random.default_rng(239)
    n = ch.Channel(random_kraus(rng, 3, 3, 2))
    m = ch.Channel(random_kraus(rng, 3, 3, 2))
    rho = code_state(rng, 3, 3)
    plan, _, _ = rc._link_plan(n, m, rho, None, environment)
    monkeypatch.setattr(rc, "_act_supports", identity_supports)
    want, _, _ = rc._link_plan(n, m, rho, None, environment)
    for cols in plan.supports:
        assert len(cols) == 1 and np.array_equal(cols[0][:, 0], np.eye(len(cols[0])))
    assert plan.problem.block_dims == want.problem.block_dims
    assert np.array_equal(plan.problem.rhs, want.problem.rhs)
    for got_row, want_row in zip(plan.problem.constraints, want.problem.constraints):
        for g, w in zip(got_row, want_row):
            assert (g is None and w is None) or np.array_equal(g, w)


def test_optimizer_is_formed_once_and_only_when_read(monkeypatch):
    n, m, rho, _ = support_corpus("code")
    calls = []
    choi = rc._LinkPlan.choi

    def counting(plan, solution):
        calls.append(plan)
        return choi(plan, solution)

    monkeypatch.setattr(rc._LinkPlan, "choi", counting)
    res = rc.optimal_recovery_fidelity(n, m, rho)
    assert "optimizer" not in repr(res)
    assert calls == []
    first = res.optimizer
    assert res.optimizer is first and len(calls) == 1
    copy = replace(res, status="heuristic")
    assert copy.optimizer is first and len(calls) == 1


def test_results_compare_without_forming_the_optimizer(monkeypatch):
    calls = []
    choi = rc._LinkPlan.choi
    monkeypatch.setattr(rc._LinkPlan, "choi",
                        lambda plan, solution: calls.append(plan) or choi(plan, solution))
    a, b = (rc.optimal_recovery_fidelity(ID2, ID2, np.eye(2) / 2) for _ in range(2))
    assert a == a and a != b
    assert calls == []


def padded_poisoning(modes):
    """The bundled poisoning scenario with its ring code padded by the
    pairs [7, 8], [9, 10], ... up to ``modes`` modes, duality task only."""
    doc = json.loads(sc.bundled_scenario_text("poisoning"))
    doc["system"]["modes"] = modes
    doc["codes"]["ring"]["pairing"] += [[2 * k + 1, 2 * k + 2] for k in range(3, modes)]
    doc["tasks"] = [t for t in doc["tasks"] if t["variant"] == "duality"]
    return doc


def test_padded_poisoning_duality_at_five_modes(monkeypatch):
    # d = 32: the full recovery problem needs an 8 GiB row matrix, the
    # problem on the code's supports links 4 to 4 dimensions
    calls = []
    choi = rc._LinkPlan.choi
    monkeypatch.setattr(rc._LinkPlan, "choi",
                        lambda plan, solution: calls.append(plan) or choi(plan, solution))
    report = sc.run_scenario(sc.load_scenario(padded_poisoning(5)))
    out = report["tasks"][0]["output"]
    assert report["all_tasks_completed"] and out["passed"]
    for side in ("recovery", "environment"):
        assert abs(out[f"{side}_value"] - 1 / np.sqrt(2)) <= 1e-7
    assert calls == []


def test_padded_poisoning_physical_duality_at_five_modes():
    # under parity dephasing on both sides the recovery side is posed on the
    # code's supports inside each parity sector; over the full register it
    # needs a 2 GiB row matrix
    doc = padded_poisoning(5)
    doc["channels"]["dephase"] = {"kind": "parity_dephasing"}
    doc["tasks"][0]["constraint"] = {"kind": "physical", "p": "dephase", "q": "dephase"}
    report = sc.run_scenario(sc.load_scenario(doc))
    out = report["tasks"][0]["output"]
    assert report["all_tasks_completed"] and out["passed"]
    assert out["recovery"]["constraint_set"] == "physical"
    for side in ("recovery", "environment"):
        assert abs(out[f"{side}_value"] - 1 / np.sqrt(2)) <= 1e-7
