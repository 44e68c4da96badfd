import inspect
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import linalg
from constrained_recovery import recovery as rc
from constrained_recovery import scenario
from constrained_recovery import sdp
from helpers import (
    fixed_algebra,
    random_density,
    random_hermitian,
    random_kraus,
    random_physical_channel,
    random_pure,
    random_unitary,
)

Z = np.diag([1.0, -1.0]).astype(complex)


def trace_row(d):
    return [np.eye(d, dtype=complex)]


def state_fidelity_oracle(rho, sigma):
    root = linalg.herm_sqrt(rho)
    return float(np.trace(linalg.herm_sqrt(root @ sigma @ root)).real)


def test_svec_round_trip_and_isometry():
    rng = np.random.default_rng(11)
    for d in (1, 2, 5):
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        assert np.linalg.norm(sdp.unsvec(sdp.svec(a), d) - a) < 1e-12
        assert abs(sdp.svec(a) @ sdp.svec(b) - np.trace(a @ b).real) < 1e-10


def test_unsvec_length_check():
    with pytest.raises(ValueError):
        sdp.unsvec(np.zeros(5), 2)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_svec_rejects_a_non_square_matrix(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        sdp.svec(np.arange(float(np.prod(shape))).reshape(shape))


def test_max_trace_on_unit_trace_set():
    prob = sdp.SdpProblem([2], [np.eye(2)], [trace_row(2)], [1.0], sense="max")
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.value <= sol.dual_value + 1e-6
    assert sol.primal_residual < 1e-6 and sol.dual_residual < 1e-6


def test_off_diagonal_maximum_with_pinned_diagonal():
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    obj = np.array([[0, 1], [1, 0]], dtype=complex)
    prob = sdp.SdpProblem(
        [2], [obj], [[e00], [e11]], [1.0, 1.0], sense="max"
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) < 1e-6
    assert np.linalg.norm(sol.block_values[0] - np.ones((2, 2))) < 1e-5


def test_min_sense_picks_smallest_eigenvalue():
    prob = sdp.SdpProblem(
        [3], [np.diag([1.0, 2.0, 3.0]).astype(complex)],
        [trace_row(3)], [1.0], sense="min",
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.dual_value <= sol.value + 1e-6


def test_blocks_are_independent():
    # separate trace constraints on each block; objective adds up
    rows = [
        [np.eye(2, dtype=complex), None],
        [None, np.eye(3, dtype=complex)],
    ]
    prob = sdp.SdpProblem(
        [2, 3],
        [np.eye(2, dtype=complex), np.diag([5.0, 0.0, 0.0]).astype(complex)],
        rows,
        [1.0, 2.0],
        sense="max",
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 11.0) < 1e-5
    assert abs(np.trace(sol.block_values[0]).real - 1.0) < 1e-6
    assert abs(np.trace(sol.block_values[1]).real - 2.0) < 1e-6


def test_weak_duality_on_random_feasible_problems():
    rng = np.random.default_rng(23)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        a_rows = [random_hermitian(rng, d) for _ in range(m)]
        x0 = random_density(rng, d) + 0.1 * np.eye(d)
        rhs = [float(np.trace(a @ x0).real) for a in a_rows]
        c = random_hermitian(rng, d) + 2 * d * np.eye(d)  # bounded below
        prob = sdp.SdpProblem([d], [c], [[a] for a in a_rows], rhs)
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.dual_value <= sol.value + 1e-6
        w = np.linalg.eigvalsh(sol.block_values[0])
        assert w[0] > -1e-8


def test_scaling_objective_scales_value_not_optimizer():
    rng = np.random.default_rng(5)
    c = random_hermitian(rng, 3)
    a = random_hermitian(rng, 3)
    rhs = [float(np.trace(a).real)]  # feasible at the identity
    base = sdp.solve(sdp.SdpProblem([3], [c], [[a], trace_row(3)], rhs + [3.0]))
    gamma = 3.5
    scaled = sdp.solve(
        sdp.SdpProblem([3], [gamma * c], [[a], trace_row(3)], rhs + [3.0])
    )
    assert base.status == "optimal" and scaled.status == "optimal"
    assert abs(scaled.value - gamma * base.value) < 1e-6 * max(1, abs(base.value))
    assert np.linalg.norm(scaled.block_values[0] - base.block_values[0]) < 1e-5


def test_repeat_solves_are_bitwise_reproducible():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    prob = rc.build_state_fidelity_sdp(rho, sigma)
    first = sdp.solve(prob)
    second = sdp.solve(prob)
    assert first.iterations == second.iterations
    assert first.value == second.value
    assert abs(first.value - second.value) < 1e-12


def test_redundant_rows_are_tolerated():
    a = np.eye(2, dtype=complex)
    prob = sdp.SdpProblem(
        [2], [np.eye(2)], [[a], [2 * a]], [1.0, 2.0], sense="max"
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.dual_values.shape == (2,)
    assert sol.diagnostics["rows"] == 2
    assert sol.diagnostics["rows_kept"] == sol.diagnostics["rows"] - 1


def test_inconsistent_rows_are_reported_infeasible():
    a = np.eye(2, dtype=complex)
    prob = sdp.SdpProblem([2], [np.eye(2)], [[a], [a]], [1.0, 2.0])
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert "inconsistent" in sol.diagnostics["reason"]
    assert sol.diagnostics["rows"] == 2
    assert sol.diagnostics["rows_kept"] == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        sdp.SdpProblem([2], [np.array([[0, 1], [0, 0]])], [], [])
    with pytest.raises(ValueError):
        sdp.SdpProblem([2], [None], [trace_row(2)], [1.0], sense="best")
    with pytest.raises(ValueError):
        sdp.SdpProblem([2], [None], [[None, None]], [1.0])
    with pytest.raises(ValueError):
        sdp.SdpProblem([2], [None], [trace_row(2)], [1.0, 2.0])


def test_state_fidelity_matches_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(4):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        sol = sdp.solve(rc.build_state_fidelity_sdp(rho, sigma), tol=1e-9)
        assert sol.status == "optimal"
        assert abs(sol.value - state_fidelity_oracle(rho, sigma)) < 1e-7
        assert sol.value <= sol.dual_value + 1e-7


def test_state_fidelity_special_pairs():
    rng = np.random.default_rng(3)
    psi = random_pure(rng, 4)
    pure = np.outer(psi, psi.conj())
    sol = sdp.solve(rc.build_state_fidelity_sdp(pure, pure), tol=1e-9)
    assert abs(sol.value - 1.0) < 1e-7

    e0 = np.zeros(2, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(2, dtype=complex)
    e1[1] = 1.0
    sol = sdp.solve(rc.build_state_fidelity_sdp(
        np.outer(e0, e0.conj()), np.outer(e1, e1.conj())
    ), tol=1e-9)
    assert abs(sol.value) < 1e-7

    # half the maximally mixed qubit overlaps a basis state
    sol = sdp.solve(rc.build_state_fidelity_sdp(
        np.eye(2) / 2, np.outer(e0, e0.conj())
    ), tol=1e-9)
    assert abs(sol.value - 0.7071067811865476) < 1e-7


def test_state_fidelity_rejects_bad_input():
    with pytest.raises(ValueError):
        rc.build_state_fidelity_sdp(np.eye(2) / 2, np.eye(3) / 3)
    with pytest.raises(ValueError):
        rc.build_state_fidelity_sdp(np.array([[0, 1], [0, 0]]), np.eye(2) / 2)
    with pytest.raises(ValueError):
        rc.build_state_fidelity_sdp(np.eye(2) / 2, np.zeros((2, 2)))


def test_dump_load_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    prob = rc.build_state_fidelity_sdp(rho, sigma)
    path = tmp_path / "fidelity.json"
    sdp.dump_problem(prob, path)
    loaded = sdp.load_problem(path)
    assert loaded.sense == prob.sense
    assert loaded.block_dims == prob.block_dims
    a = sdp.solve(prob)
    b = sdp.solve(loaded)
    assert abs(a.value - b.value) < 1e-9

    doc = json.loads(path.read_text())
    entry = doc["objective"][0][0][1]
    assert isinstance(entry, list) and len(entry) == 2
    # one encoder writes the file: the matrices are linalg's [re, im] pairs
    assert doc["objective"][0] == linalg.encode_matrix(prob.objective[0])
    doc["objective"][0][1].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unequal lengths"):
        sdp.load_problem(path)


def test_recovery_builder_identity_pair():
    ident = ch.identity_channel(2)
    prob = rc.build_recovery_fidelity_sdp(ident, ident, np.eye(2) / 2)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) < 1e-6


def test_recovery_builder_depolarizing_bound():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    depol = ch.Channel([np.eye(2) / 2, x / 2, y / 2, Z / 2])
    prob = rc.build_recovery_fidelity_sdp(
        depol, ch.identity_channel(2), np.eye(2) / 2
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.value - 0.5) < 1e-6


def test_recovery_builder_random_dims():
    rng = np.random.default_rng(41)
    n = ch.Channel(random_kraus(rng, 3, 2, 2))
    m = ch.Channel(random_kraus(rng, 2, 2, 2))
    rho = random_density(rng, 2)
    sol = sdp.solve(rc.build_recovery_fidelity_sdp(n, m, rho))
    assert sol.status == "optimal"
    assert -1e-8 <= sol.value <= 1.0 + 1e-8
    assert sol.value <= sol.dual_value + 1e-7


def test_recovery_builder_validation():
    ident = ch.identity_channel(2)
    with pytest.raises(ValueError):
        rc.build_recovery_fidelity_sdp(ident, ch.identity_channel(3),
                                        np.eye(2) / 2)
    with pytest.raises(ValueError):
        rc.build_recovery_fidelity_sdp(ident, ident, np.eye(2))
    with pytest.raises(TypeError):
        rc.build_recovery_fidelity_sdp(ident, ident, np.eye(2) / 2,
                                        constraints="free")


# ---------------------------------------------------------------------------
# row reduction: the QR rank decision keeps what Gram-Schmidt keeps


def gram_schmidt_kept(a):
    _, kept = linalg.orthonormal_rows(a, tol=1e-10, return_index=True)
    return list(kept)


def _rank_cases():
    rng = np.random.default_rng(61)
    base = rng.normal(size=(3, 7))
    zero = np.zeros(7)
    noise = rng.normal(size=7)
    noise /= np.linalg.norm(noise)
    combo = base[0] + base[1]
    tiny = combo + 1e-13 * np.linalg.norm(combo) * noise
    small = base[0] - base[1] + 1e-6 * np.linalg.norm(base[0] - base[1]) * noise
    e = np.eye(2)
    return {
        "zero rows": (np.stack([zero, base[0], zero, base[1], zero]), [1, 3]),
        "exact duplicates": (
            np.stack([base[0], base[1], base[0], base[2], base[1]]), [0, 1, 3]
        ),
        "near dependence": (np.stack([base[0], base[1], tiny, small]), [0, 1, 3]),
        "more rows than columns": (rng.normal(size=(9, 4)), [0, 1, 2, 3]),
        "duplicate before the span is full": (
            np.stack([e[0], e[0], e[1], e[0] + e[1]]), [0, 2]
        ),
        "only zero rows": (np.zeros((3, 4)), []),
    }


@pytest.mark.parametrize("case", sorted(_rank_cases()))
def test_reduce_rows_keeps_gram_schmidt_rows(case):
    a, expected = _rank_cases()[case]
    rhs = a @ np.linspace(1.0, 2.0, a.shape[1])
    kept, reason = sdp._reduce_rows(a, rhs)
    assert reason is None
    assert list(kept) == gram_schmidt_kept(a) == expected


def test_dependent_row_with_inconsistent_rhs_is_infeasible():
    rng = np.random.default_rng(67)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    rows = [[a], [b], [a + b]]
    rhs = [float(np.trace(a).real), float(np.trace(b).real), 0.0]
    sol = sdp.solve(sdp.SdpProblem([2], [np.eye(2)], rows, rhs))
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert "inconsistent" in sol.diagnostics["reason"]
    assert sol.diagnostics["rows"] == 3
    assert sol.diagnostics["rows_kept"] == 2


S2 = fermion.FermionSystem(2)
PARITY2 = np.asarray(fermion.parity_operator(S2, (1, 2, 3, 4)).c)
PARITY_ALGEBRA = alg.generate_algebra([PARITY2], 4)
# what the solver gives with the Mehrotra corrector at tol=1e-7; these
# pin its path, while the tol=1e-10 checks below compare with the optimum
FROZEN_FIXES_ALGEBRA_ITERATIONS = 9
FROZEN_FIXES_ALGEBRA_VALUE = 0.5458951748449699
# tol=1e-10 values and iteration counts of the recentering-only solver
# with a fixed step fraction of 0.98, the path these tests pinned before
TIGHT_FIXES_ALGEBRA_ITERATIONS = 24
TIGHT_FIXES_ALGEBRA_VALUE = 0.5458952023611481


def test_fixes_algebra_solve_iterations_are_frozen():
    # one trace family per parity sector, on its own sub-block: every row
    # written is independent
    rng = np.random.default_rng(103)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    prob = rc.build_recovery_fidelity_sdp(
        n, m, np.eye(4) / 4, rc.FixesAlgebra(PARITY_ALGEBRA)
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert sol.diagnostics["rows_kept"] == sol.diagnostics["rows"]
    assert sol.iterations == FROZEN_FIXES_ALGEBRA_ITERATIONS
    assert abs(sol.value - FROZEN_FIXES_ALGEBRA_VALUE) < 1e-9
    tight = sdp.solve(prob, tol=1e-10)
    assert tight.status == "optimal"
    assert tight.iterations <= TIGHT_FIXES_ALGEBRA_ITERATIONS
    assert abs(tight.value - TIGHT_FIXES_ALGEBRA_VALUE) < 1e-9


def _rectangular_fidelity(tol=1e-7):
    rng = np.random.default_rng(71)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    m = ch.Channel(random_kraus(rng, 3, 2, 2))
    return rc.optimal_recovery_fidelity(n, m, random_density(rng, 2), tol=tol)


def _physical_fidelity(tol=1e-7):
    rng = np.random.default_rng(73)
    dephase = ch.Channel([np.eye(4) / np.sqrt(2), PARITY2 / np.sqrt(2)])
    n = random_physical_channel(rng, PARITY2)
    m = random_physical_channel(rng, PARITY2, 2)
    return rc.optimal_recovery_fidelity(
        n, m, np.eye(4) / 4, rc.Physical(dephase, dephase), tol=tol)


def _environment_fixes_algebra_fidelity(tol=1e-7):
    # the corpus of test_link_rows_match_definition_environment_fixes_algebra,
    # whose link problem has one sector of multiplicity k_p > 1
    rng = np.random.default_rng(83)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    return rc.environment_side_fidelity(
        n, m, np.eye(4) / 4, rc.FixesAlgebra(PARITY_ALGEBRA), tol=tol)


# iterations and values at tol=1e-7 from the solver with the Mehrotra
# corrector, then the tol=1e-10 iterations and values of the solver before it
@pytest.mark.parametrize("run, iterations, value, tight_iterations, tight_value", [
    (_rectangular_fidelity, 9, 0.9198380973997116, 22, 0.9198381301278888),
    (_physical_fidelity, 9, 0.8072288506274594, 24, 0.8072289001478333),
    (_environment_fixes_algebra_fidelity, 9, 0.6250052179017285, 22, 0.6250053080004165),
], ids=["rectangular", "physical", "environment-fixes-algebra"])
def test_fidelity_solve_iterations_are_frozen(run, iterations, value, tight_iterations,
                                              tight_value):
    res = run()
    assert res.status == "optimal"
    assert res.iterations == iterations
    assert abs(res.value - value) < 1e-9
    tight = run(tol=1e-10)
    assert tight.status == "optimal"
    assert tight.iterations <= tight_iterations
    assert abs(tight.value - tight_value) < 1e-9


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling and step lengths


def random_pd(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T / d + 0.1 * np.eye(d)


def eigh_power(h, p):
    w, u = np.linalg.eigh(h)
    return (u * w**p) @ u.conj().T


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("d", [1, 3, 16])
def test_nt_scaling_matches_the_eigh_formula(d):
    rng = np.random.default_rng(100 + d)
    x, z = random_pd(rng, d), random_pd(rng, d)
    w, zinv, x_frame, z_frame = sdp._nt_scaling(x, z)
    assert rel_err(w @ z @ w, x) < 1e-10
    xs = eigh_power(x, 0.5)
    assert rel_err(w, xs @ eigh_power(xs @ z @ xs, -0.5) @ xs) < 1e-10
    assert rel_err(zinv, np.linalg.inv(z)) < 1e-10
    eye = np.eye(d)
    assert np.linalg.norm(x_frame @ x @ x_frame.conj().T - eye) < 1e-10
    assert np.linalg.norm(z_frame @ z @ z_frame.conj().T - eye) < 1e-10


def test_nt_scaling_rejects_an_indefinite_x():
    with pytest.raises(np.linalg.LinAlgError):
        sdp._nt_scaling(np.diag([1.0, -1e-3]).astype(complex), np.eye(2))


def test_max_step_matches_the_eigh_step():
    rng = np.random.default_rng(107)
    for d in (1, 3, 16):
        x, z = random_pd(rng, d), random_pd(rng, d)
        _, _, x_frame, z_frame = sdp._nt_scaling(x, z)
        for mat, frame in ((x, x_frame), (z, z_frame)):
            delta = random_hermitian(rng, d) - 2.0 * np.linalg.norm(mat, 2) * np.eye(d)
            inv_root = eigh_power(mat, -0.5)
            lam = np.linalg.eigvalsh(inv_root @ delta @ inv_root)[0]
            step = sdp._max_step(frame, delta)
            assert abs(step - (-1.0 / lam)) < 1e-10 * step
            assert np.linalg.eigvalsh(mat + step * delta)[0] > -1e-9 * np.linalg.norm(mat)
            # a direction that never leaves the cone gives no bound
            assert sdp._max_step(frame, delta @ delta) == 1e16


@pytest.mark.parametrize("d", [1, 3, 16])
def test_corrector_solves_the_scaled_complementarity_equation(d):
    rng = np.random.default_rng(110 + d)
    x, z = random_pd(rng, d), random_pd(rng, d)
    dx, dz = random_hermitian(rng, d), random_hermitian(rng, d)
    sigma_mu = 0.3
    _, zinv, x_frame, z_frame = sdp._nt_scaling(x, z)
    # the frame from its definition: G = L V ev^-1/4 and D = ev^1/2
    low = np.linalg.cholesky(x)
    ev, v = np.linalg.eigh(low.conj().T @ z @ low)
    g = (low @ v) * ev**-0.25
    g_inv = np.linalg.inv(g)
    diag = ev**0.5
    # without the second-order term, the recentering step
    no_second_order = sdp._corrector(x, zinv, x_frame, z_frame, dx, np.zeros((d, d)),
                                     sigma_mu)
    assert rel_err(no_second_order, sigma_mu * np.linalg.inv(z) - x) < 1e-12
    r = sdp._corrector(x, zinv, x_frame, z_frame, dx, dz, sigma_mu)
    big_r = g_inv @ r @ g_inv.conj().T
    m = (g_inv @ dx @ g_inv.conj().T) @ (g.conj().T @ dz @ g)
    rhs = 2.0 * sigma_mu * np.eye(d) - 2.0 * np.diag(diag**2) - (m + m.conj().T)
    assert rel_err(diag[:, None] * big_r + big_r * diag[None, :], rhs) < 1e-12


def test_stacked_kernels_match_one_matrix_at_a_time():
    rng = np.random.default_rng(113)
    d, k = 5, 3
    x = np.stack([random_pd(rng, d) for _ in range(k)])
    z = np.stack([random_pd(rng, d) for _ in range(k)])
    dx = np.stack([random_hermitian(rng, d) for _ in range(k)])
    dz = np.stack([random_hermitian(rng, d) for _ in range(k)])
    stacked = sdp._nt_scaling(x, z)
    steps = sdp._max_step(np.concatenate(stacked[2:]), np.concatenate([dx, dz]))
    corrector = sdp._corrector(x, *stacked[1:], dx, dz, 0.3)
    assert steps.shape == (2 * k,)
    for i in range(k):
        single = sdp._nt_scaling(x[i], z[i])
        for got, want in zip(stacked, single):
            assert rel_err(got[i], want) < 1e-12
        for got, frame, delta in ((steps[i], single[2], dx[i]), (steps[k + i], single[3], dz[i])):
            want = sdp._max_step(frame, delta)
            assert abs(got - want) <= 1e-12 * want
        assert rel_err(corrector[i], sdp._corrector(x[i], *single[1:], dx[i], dz[i], 0.3)) < 1e-12


def test_padding_stays_out_of_the_clip_floor():
    # a block of dimension 2 padded to 3: the padding's eigenvalue 1 is not
    # the block's largest, 1e-3, so the floor is 1e-18 and not 1e-15
    h = np.diag([1e-3, 1e-20, 1.0]).astype(complex)[None]
    stack = sdp._Stack.of([0, 1], [2, 3])
    w, _ = sdp._clipped_eigh(np.concatenate([h, h]), stack.last_own)
    assert w[0].tolist() == [1e-18, 1e-3, 1.0]
    assert w[1].tolist() == [1e-15, 1e-3, 1.0]


def test_blocks_under_the_cut_iterate_as_one_padded_stack():
    # max sum_b <C_b, X_b> with Tr X_b = 1 on each block is sum_b lambda_max(C_b)
    rng = np.random.default_rng(117)
    dims = (2, 5, 9, 20)
    objective = [random_hermitian(rng, d) for d in dims]
    rows = [[np.eye(d, dtype=complex) if b == c else None for c, d in enumerate(dims)]
            for b in range(len(dims))]
    sol = sdp.solve(sdp.SdpProblem(dims, objective, rows, np.ones(len(dims)), sense="max"))
    assert sol.status == "optimal"
    want = sum(np.linalg.eigvalsh(c)[-1] for c in objective)
    assert abs(sol.value - want) < 1e-6 * (1.0 + abs(want))
    assert sol.diagnostics["block_dims"] == list(dims)
    assert sol.diagnostics["stacks"] == [[9, [0, 1, 2]], [20, [3]]]
    for mats in (sol.block_values, sol.dual_blocks):
        assert [a.shape for a in mats] == [(d, d) for d in dims]
        for a in mats:
            assert np.linalg.norm(a - a.conj().T) < 1e-12 * (1.0 + np.linalg.norm(a))
    for x, c in zip(sol.block_values, objective):
        assert abs(np.trace(x).real - 1.0) < 1e-6
        assert np.vdot(c, x).real > np.linalg.eigvalsh(c)[-1] - 1e-5


def test_diagnostics_report_the_last_step():
    rng = np.random.default_rng(19)
    sol = sdp.solve(rc.build_state_fidelity_sdp(random_density(rng, 3),
                                                random_density(rng, 3)))
    assert sol.status == "optimal"
    for key in ("sigma", "step_fraction", "alpha_primal", "alpha_dual"):
        assert 0.0 <= sol.diagnostics[key] <= 1.0
    assert 0.9 <= sol.diagnostics["step_fraction"] <= 0.99


def test_lost_definiteness_ends_the_solve_with_a_reason(monkeypatch):
    scaling = sdp._nt_scaling
    calls = []

    def breaks_on_the_third_call(*args):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("not positive definite")
        return scaling(*args)

    monkeypatch.setattr(sdp, "_nt_scaling", breaks_on_the_third_call)
    prob = sdp.SdpProblem([3], [np.diag([1.0, 2.0, 3.0]).astype(complex)],
                          [trace_row(3)], [1.0])
    sol = sdp.solve(prob)
    assert sol.status == "max_iter"
    assert sol.iterations == 3
    assert "definiteness" in sol.diagnostics["reason"]


# ---------------------------------------------------------------------------
# the link builder against its definition, written with explicit kron products


class _Built(Exception):
    pass


def first_link_plan(monkeypatch, run):
    """Arguments and plan of the first link problem ``run()`` builds.

    ``run`` is aborted right after that build, so no solve follows.
    """
    build = rc._build_link_problem
    built = []

    def spy(*args, **kwargs):
        bound = inspect.signature(build).bind(*args, **kwargs)
        bound.apply_defaults()
        built.append((bound.arguments, build(*args, **kwargs)))
        raise _Built

    monkeypatch.setattr(rc, "_build_link_problem", spy)
    with pytest.raises(_Built):
        run()
    return built[0]


def definition_rows(args, q):
    """Constraint rows and rhs of a link problem, entry by entry: one block
    per pair of sectors (the unit operators from an input sector into an
    output sector), or, given ``lefts``, one block on the unit tuples
    1_n (x) |a><b| of every sector of a fixed algebra; trace rows per input
    sector, on its 1_n (x) h / n."""
    ref, lefts = args["ref_dim"], args["lefts"]
    sizes = args["out_sizes"], args["in_sizes"]
    out_n, in_n = (lefts or [1] * len(s) for s in sizes)
    out_at, in_at = (np.cumsum([0, *(n * z for n, z in zip(ns, s))])
                     for ns, s in zip((out_n, in_n), sizes))

    def units(k, l):
        """1_n (x) |a><b| from input sector l into output sector k, (a, b) row-major."""
        ops = np.zeros((sizes[0][k], sizes[1][l], out_at[-1], in_at[-1]), dtype=complex)
        for a, b in itertools.product(range(sizes[0][k]), range(sizes[1][l])):
            unit = np.zeros((sizes[0][k], sizes[1][l]))
            unit[a, b] = 1.0
            ops[a, b, out_at[k]:out_at[k + 1], in_at[l]:in_at[l + 1]] = np.kron(
                np.eye(in_n[l]), unit)
        return ops.reshape(-1, out_at[-1], in_at[-1])

    in_sectors = [l for l, z in enumerate(sizes[1]) if z]
    if lefts is None:
        blocks = [({l}, units(k, l)) for k, z in enumerate(sizes[0]) if z for l in in_sectors]
    else:
        blocks = [(set(in_sectors), np.concatenate([units(k, k) for k in in_sectors]))]
    eta = np.asarray(args["eta"], dtype=complex)
    sigma = np.asarray(args["sigma"], dtype=complex)
    r = q.shape[1]
    rows = []
    rhs = []
    # a[u, v] = sum_ijl conj(B_u[i, j]) B_v[i, l] h[j, l], h on one input sector
    for l in in_sectors:
        for g in linalg.hermitian_basis(sizes[1][l]):
            h = np.zeros((in_at[-1], in_at[-1]), dtype=complex)
            h[in_at[l]:in_at[l + 1], in_at[l]:in_at[l + 1]] = np.kron(np.eye(in_n[l]), g) / in_n[l]
            row = []
            for touched, ops in blocks:
                a = np.array([[np.trace(bu.conj().T @ bv @ h.T) for bv in ops] for bu in ops])
                row.append((a + a.conj().T) / 2.0 if l in touched else None)
            rows.append(row + [None])
            rhs.append(np.trace(h).real)
    # s[u][v] = Q^dag (B_u (x) 1) eta (B_v (x) 1)^dag Q
    s = []
    for _, ops in blocks:
        lifts = [np.kron(b, np.eye(ref)) for b in ops]
        s.append([[q.conj().T @ lu @ eta @ lv.conj().T @ q for lv in lifts] for lu in lifts])
    for h in linalg.hermitian_basis(r):
        y = np.zeros((2 * r, 2 * r), dtype=complex)
        y[:r, :r] = h
        row = []
        for s_b in s:
            n = np.array([[np.sum(suv.conj() * h) for suv in su] for su in s_b])
            row.append(-(n + n.conj().T) / 2.0)
        rows.append(row + [y])
        rhs.append(0.0)
    sigma_c = q.conj().T @ sigma @ q
    for h in linalg.hermitian_basis(r):
        y = np.zeros((2 * r, 2 * r), dtype=complex)
        y[r:, r:] = h
        rows.append([None] * len(blocks) + [y])
        rhs.append(np.trace(h @ sigma_c).real)
    return rows, rhs


def block_bases(plan):
    """Each block's operators V_out e_i e_j^dag V_in^dag on the full act
    factors, for the plan's supports V by sector, of a plan with one pair
    of sectors per block and no left factor inside the act factors."""
    outs, ins = plan.supports
    return [np.einsum("ai,bj->ijab", outs[k][:, 0], ins[l][:, 0].conj()).reshape(
        -1, plan.act_out, plan.act_in) for ((k, l),) in plan.blocks]


def assert_plan_matches_definition(args, plan):
    q = plan.sigma_support
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-12
    assert_rows_match(plan.problem, *definition_rows(args, q))


def assert_rows_match(prob, rows, rhs):
    assert prob.n_constraints == len(rows)
    assert np.max(np.abs(prob.rhs - np.array(rhs))) < 1e-12
    for got, want in zip(prob.constraints, rows):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert np.max(np.abs(g - w)) < 1e-12


def test_link_rows_match_definition_rectangular(monkeypatch):
    rng = np.random.default_rng(71)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    m = ch.Channel(random_kraus(rng, 3, 2, 2))
    rho = random_density(rng, 2)
    args, plan = first_link_plan(
        monkeypatch, lambda: rc.build_recovery_fidelity_sdp(n, m, rho)
    )
    assert (args["in_sizes"], args["out_sizes"]) == ([2], [3])
    assert_plan_matches_definition(args, plan)


def test_link_rows_match_definition_physical(monkeypatch):
    rng = np.random.default_rng(73)
    dephase = ch.Channel([np.eye(4) / np.sqrt(2), PARITY2 / np.sqrt(2)])
    n = random_physical_channel(rng, PARITY2)
    m = random_physical_channel(rng, PARITY2, 2)
    constraint = rc.Physical(dephase, dephase)
    args, plan = first_link_plan(
        monkeypatch,
        lambda: rc.build_recovery_fidelity_sdp(n, m, np.eye(4) / 4, constraint),
    )
    monkeypatch.undo()
    # the operators from each parity sector of q into one of p, together
    # an orthonormal basis of all 4 x 4
    bases = block_bases(rc._link_plan(n, m, np.eye(4) / 4, constraint, False)[0])
    assert [len(b) for b in bases] == [4, 4, 4, 4]
    sectors = parity_sectors(PARITY2)
    assert sorted(block_pairs(bases, (sectors, sectors))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    whole = np.concatenate([b.reshape(len(b), -1).T for b in bases], axis=1)
    assert np.max(np.abs(whole.conj().T @ whole - np.eye(16))) < 1e-12
    # each block's rows are those of its pair of sectors in the plan's coordinates
    assert_plan_matches_definition(args, plan)


def test_link_rows_match_definition_fixes_algebra(monkeypatch):
    rng = np.random.default_rng(79)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    constraint = rc.FixesAlgebra(PARITY_ALGEBRA)
    args, plan = first_link_plan(
        monkeypatch,
        lambda: rc.build_recovery_fidelity_sdp(n, m, np.eye(4) / 4, constraint),
    )
    # two parity sectors of 1 (x) 2, coherent in one block of 2*2 + 2*2
    assert (args["lefts"], args["out_sizes"], args["in_sizes"]) == ([1, 1], [2, 2], [2, 2])
    assert plan.problem.block_dims[0] == 8
    assert_plan_matches_definition(args, plan)


@pytest.mark.parametrize("name", ["m2-4", "mixed-7"])
def test_link_rows_match_definition_fixes_algebra_left_factors(monkeypatch, name):
    # sectors with n_k > 1, whose link lifts are contracted over n_k
    rng = np.random.default_rng(263)
    b = fixed_algebra(name, rng)
    d = b.ambient_dim
    n = ch.Channel(random_kraus(rng, d, d, 2))
    m = ch.Channel(random_kraus(rng, d, d, 2))
    rho = random_density(rng, d, 2)
    args, plan = first_link_plan(
        monkeypatch,
        lambda: rc.build_recovery_fidelity_sdp(n, m, rho, rc.FixesAlgebra(b)),
    )
    assert max(args["lefts"]) == 2
    assert_plan_matches_definition(args, plan)


def test_link_rows_match_definition_environment_fixes_algebra(monkeypatch):
    rng = np.random.default_rng(83)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    constraint = rc.FixesAlgebra(PARITY_ALGEBRA)
    args, plan = first_link_plan(
        monkeypatch,
        lambda: rc.environment_side_fidelity(n, m, np.eye(4) / 4, constraint),
    )
    assert args["lefts"][0] > 1
    assert_plan_matches_definition(args, plan)


# ---------------------------------------------------------------------------
# row families: dense rows, Schur blocks and solve path


def family_definition_rows(dim, lift, coef, block_dim):
    """coef L (1_a (x) h_j) L^dag for every h_j, with explicit kron products."""
    if lift is None:
        lift = np.eye(block_dim)
    a = lift.shape[1] // dim
    return [coef * lift @ np.kron(np.eye(a), h) @ lift.conj().T
            for h in linalg.hermitian_basis(dim)]


def test_row_family_rows_match_definition():
    rng = np.random.default_rng(89)
    lift = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    family = sdp.RowFamily(3, [(0, lift, -1.5), (1, None, 1.0)])
    prob = sdp.SdpProblem([5, 6], [None, None], [family, [None, np.eye(6)]],
                          np.arange(10.0))
    assert prob.n_constraints == 10
    assert [(start, len(f)) for start, f in prob.families] == [(0, 9), (9, 1)]
    for b, (lift_b, coef) in enumerate(((lift, -1.5), (None, 1.0))):
        want = family_definition_rows(3, lift_b, coef, prob.block_dims[b])
        for row, w in zip(prob.constraints, want):
            assert np.max(np.abs(row[b] - w)) < 1e-13
    assert prob.constraints[9][0] is None


def test_row_family_validation():
    with pytest.raises(ValueError):
        sdp.SdpProblem([4], [None], [sdp.RowFamily(3, [(0, None, 1.0)])], np.zeros(9))
    with pytest.raises(ValueError):
        sdp.SdpProblem([4], [None], [sdp.RowFamily(2, [(0, np.eye(4, 3), 1.0)])],
                       np.zeros(4))
    with pytest.raises(ValueError):
        sdp.SdpProblem([4], [None], [sdp.RowFamily(2, [(1, None, 1.0)])], np.zeros(4))
    with pytest.raises(ValueError):
        sdp.SdpProblem([4], [None], [sdp.RowFamily(2, [(0, None, 1.0)])], np.zeros(3))


def definition_corpus_plan(monkeypatch, case):
    """The link plans of the ``test_link_rows_match_definition_*`` tests."""
    if case == "rectangular":
        rng = np.random.default_rng(71)
        n = ch.Channel(random_kraus(rng, 2, 2, 2))
        m = ch.Channel(random_kraus(rng, 3, 2, 2))
        rho = random_density(rng, 2)
        run = lambda: rc.build_recovery_fidelity_sdp(n, m, rho)  # noqa: E731
    elif case == "physical":
        rng = np.random.default_rng(73)
        dephase = ch.Channel([np.eye(4) / np.sqrt(2), PARITY2 / np.sqrt(2)])
        n = random_physical_channel(rng, PARITY2)
        m = random_physical_channel(rng, PARITY2, 2)
        constraint = rc.Physical(dephase, dephase)
        run = lambda: rc.build_recovery_fidelity_sdp(  # noqa: E731
            n, m, np.eye(4) / 4, constraint)
    else:
        rng = np.random.default_rng(79 if case == "fixes_algebra" else 83)
        n = ch.Channel(random_kraus(rng, 4, 4, 3))
        m = ch.Channel(random_kraus(rng, 4, 4, 2))
        if case == "fixes_algebra":
            constraint = rc.FixesAlgebra(PARITY_ALGEBRA)
            run = lambda: rc.build_recovery_fidelity_sdp(  # noqa: E731
                n, m, np.eye(4) / 4, constraint)
        else:
            constraint = rc.FixesAlgebra(PARITY_ALGEBRA)
            run = lambda: rc.environment_side_fidelity(  # noqa: E731
                n, m, np.eye(4) / 4, constraint)
    return first_link_plan(monkeypatch, run)


def dense_copy(prob):
    """The same problem with every row given densely, so as c = 1 families."""
    return sdp.SdpProblem(prob.block_dims, prob.objective, prob.constraints,
                          prob.rhs, sense=prob.sense)


def random_pd(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T / d + 0.1 * np.eye(d)


def schur_at(prob, w_scale):
    """Kept rows and the Schur complement the solver assembles at ``w_scale``."""
    kept, reason = sdp._reduce_rows(sdp._svec_rows(prob), prob.rhs)
    assert reason is None
    layout = sdp._schur_layout(prob, kept)
    return kept, sdp._schur(layout, w_scale, kept.size)


def schur_definition(prob, kept, w_scale):
    """S_ij = sum_b Re Tr(A_ib W_b A_jb W_b), entry by entry."""
    rows = [prob.constraints[i] for i in kept]
    out = np.zeros((len(rows), len(rows)))
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            out[i, j] = sum(np.trace(a @ w @ b @ w).real
                            for a, b, w in zip(ri, rj, w_scale)
                            if a is not None and b is not None)
    return out


def assert_family_schur_matches(prob, rng):
    w_scale = [random_pd(rng, d) for d in prob.block_dims]
    kept, family = schur_at(prob, w_scale)
    kept_dense, dense = schur_at(dense_copy(prob), w_scale)
    assert list(kept) == list(kept_dense)
    want = schur_definition(prob, kept, w_scale)
    assert np.linalg.norm(dense - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(family - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(family - dense) <= 1e-12 * np.linalg.norm(dense)
    return kept


@pytest.mark.parametrize(
    "case", ["rectangular", "physical", "fixes_algebra", "environment"]
)
def test_family_schur_matches_dense_schur(monkeypatch, case):
    args, plan = definition_corpus_plan(monkeypatch, case)
    prob = plan.problem
    assert sum(len(f) for _, f in prob.families) == prob.n_constraints
    kept = assert_family_schur_matches(prob, np.random.default_rng(97))
    if case == "fixes_algebra":
        assert kept.size == prob.n_constraints
    if case == "environment":
        assert args["lefts"][0] > 1


def test_family_and_dense_rows_mix(monkeypatch):
    # a dense row ahead of the families equal to the sum of the first two
    # family rows: it is kept, the second family row is dropped, and the
    # dense row's Schur entries against the families come from its c = 1
    # family's terms
    _, plan = definition_corpus_plan(monkeypatch, "rectangular")
    prob = plan.problem
    stacks = prob.families[0][1].stacks(prob.block_dims)
    first = [b[:2].sum(axis=0) for _, b in sorted(stacks.items())]
    dense_row = [first[0], None]
    mixed = sdp.SdpProblem(
        prob.block_dims, prob.objective,
        [dense_row] + [family for _, family in prob.families],
        np.concatenate([[prob.rhs[0] + prob.rhs[1]], prob.rhs]), sense="max",
    )
    kept = assert_family_schur_matches(mixed, np.random.default_rng(101))
    assert 0 in kept and 2 not in kept
    base = sdp.solve(prob, tol=1e-9)
    sol = sdp.solve(mixed, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.diagnostics["rows_kept"] == base.diagnostics["rows_kept"]
    assert abs(sol.value - base.value) < 1e-7


def test_link_builders_put_every_row_on_the_family_path(monkeypatch):
    rng = np.random.default_rng(107)
    n = ch.Channel(random_kraus(rng, 3, 3, 2))
    m = ch.Channel(random_kraus(rng, 3, 3, 2))
    rho = random_density(rng, 3)
    # a dense row would become a c = 1 family silently: the spy sees the rows
    # the builders pass
    passed = []
    problem = sdp.SdpProblem

    def spy(block_dims, objective, constraints, *args, **kwargs):
        passed.append(list(constraints))
        return problem(block_dims, objective, passed[-1], *args, **kwargs)

    monkeypatch.setattr(sdp, "SdpProblem", spy)
    recovery = rc.build_recovery_fidelity_sdp(n, m, rho)
    _, env_plan = first_link_plan(
        monkeypatch, lambda: rc.environment_side_fidelity(n, m, rho))
    assert len(passed) == 2
    assert all(isinstance(row, sdp.RowFamily) for rows in passed for row in rows)
    for prob in (recovery, env_plan.problem):
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.diagnostics["rows_kept"] > 0


def test_loaded_fixes_algebra_problem_solves_densely_alike(tmp_path):
    rng = np.random.default_rng(103)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    prob = rc.build_recovery_fidelity_sdp(
        n, m, np.eye(4) / 4, rc.FixesAlgebra(PARITY_ALGEBRA)
    )
    path = tmp_path / "fixes.json"
    sdp.dump_problem(prob, path)
    family = sdp.solve(prob)
    dense = sdp.solve(dense_copy(prob))
    loaded = sdp.solve(sdp.load_problem(path))
    assert family.status == dense.status == loaded.status == "optimal"
    assert family.diagnostics["rows_kept"] == dense.diagnostics["rows_kept"]
    assert dense.iterations == family.iterations
    assert abs(dense.value - family.value) < 1e-9
    assert (loaded.iterations, loaded.value) == (family.iterations, family.value)


@pytest.mark.parametrize("case, signs", [("indefinite", [1.0, -1.0]), ("psd", [1.0]),
                                         ("zero", []), ("none", [])])
def test_dense_row_becomes_a_one_row_family(case, signs):
    rng = np.random.default_rng(167)
    h = random_hermitian(rng, 4)
    a = {"indefinite": h, "psd": h @ h, "zero": np.zeros((4, 4)), "none": None}[case]
    prob = sdp.SdpProblem([4, 3], [None, None], [[a, None]], [1.0])
    ((start, family),) = prob.families
    assert (start, family.dim) == (0, 1)
    assert [(b, coef) for b, _, coef in family.terms] == [(0, s) for s in signs]
    row = prob.constraints[0]
    assert row[1] is None
    if not signs:
        assert row[0] is None
    else:
        assert np.linalg.norm(row[0] - a) <= 1e-14 * np.linalg.norm(a)


def test_two_terms_on_one_block_sum():
    rng = np.random.default_rng(173)
    lifts = [rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)) for _ in range(2)]
    terms = [(0, lifts[0], 1.0), (1, None, 0.5), (0, lifts[1], -2.0)]
    family = sdp.RowFamily(2, terms)
    dims = [5, 4]
    family.check(dims)
    stacks = family.stacks(dims)
    alone = [sdp.RowFamily(2, [t]).stacks(dims) for t in terms]
    assert np.array_equal(stacks[0], alone[0][0] + alone[2][0])
    assert np.array_equal(stacks[1], alone[1][1])
    prob = sdp.SdpProblem(dims, [None, None], [family], np.zeros(4))
    assert list(assert_family_schur_matches(prob, rng)) == [0, 1, 2, 3]


def recovery_corpus():
    """A full-rank recovery problem: identity-lift and explicit-lift terms."""
    rng = np.random.default_rng(179)
    n = ch.Channel(random_kraus(rng, 4, 4, 3))
    m = ch.Channel(random_kraus(rng, 4, 4, 2))
    return rc.build_recovery_fidelity_sdp(n, m, random_density(rng, 4))


def test_problem_file_keeps_the_families_bit_for_bit(tmp_path):
    prob = recovery_corpus()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    sdp.dump_problem(prob, first)
    loaded = sdp.load_problem(first)
    sdp.dump_problem(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["version"] == 2
    assert np.array_equal(loaded.rhs, prob.rhs)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.objective, prob.objective))
    assert len(loaded.families) == len(prob.families)
    lifts = []
    for (start, f), (start_l, f_l) in zip(prob.families, loaded.families):
        assert (start, f.dim, len(f.terms)) == (start_l, f_l.dim, len(f_l.terms))
        for (b, lift, coef), (b_l, lift_l, coef_l) in zip(f.terms, f_l.terms):
            assert (b, coef) == (b_l, coef_l)
            assert (lift is None and lift_l is None) or np.array_equal(lift, lift_l)
            lifts.append(lift is None)
    assert True in lifts and False in lifts
    built, again = sdp.solve(prob), sdp.solve(loaded)
    assert built.status == "optimal"
    assert (again.iterations, again.value) == (built.iterations, built.value)


def test_format_one_file_loads_as_one_row_families(tmp_path):
    # a file without a version key, as format 1 wrote it: each row densely
    prob = recovery_corpus()
    doc = {
        "sense": prob.sense,
        "block_dims": prob.block_dims,
        "objective": [linalg.encode_matrix(c) for c in prob.objective],
        "constraints": [
            {"blocks": [linalg.encode_matrix(a) for a in row], "rhs": float(r)}
            for row, r in zip(prob.constraints, prob.rhs)
        ],
    }
    path = tmp_path / "format1.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    loaded = sdp.load_problem(path)
    assert [(start, f.dim) for start, f in loaded.families] == [
        (i, 1) for i in range(prob.n_constraints)]
    built, again = sdp.solve(prob), sdp.solve(loaded)
    assert built.status == again.status == "optimal"
    assert again.iterations == built.iterations
    assert abs(again.value - built.value) < 1e-9


def test_load_problem_refuses_an_unknown_version_or_a_bad_family(tmp_path):
    prob = sdp.SdpProblem([2], [None], [sdp.RowFamily(2, [(0, None, 1.0)])], np.zeros(4))
    path = tmp_path / "problem.json"
    sdp.dump_problem(prob, path)
    doc = json.loads(path.read_text())
    for bad, match in ((dict(doc, version=3), "version 3"),
                       (dict(doc, families=[dict(doc["families"][0], terms=[[1, None, 1.0]])]),
                        "out of range"),
                       (dict(doc, families=[dict(doc["families"][0], rhs=[0.0] * 3)]),
                        "rhs run")):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=match):
            sdp.load_problem(path)


# ---------------------------------------------------------------------------
# the real row matrix written from the families, and the orthogonal lead


@pytest.mark.parametrize("coef", [1.0, -1.0])
@pytest.mark.parametrize("c, a", [(1, 3), (2, 1), (3, 4), (8, 8)])
def test_identity_lift_rows_match_dense_svec(c, a, coef):
    family = sdp.RowFamily(c, [(0, None, coef)])
    prob = sdp.SdpProblem([a * c], [None], [family], np.zeros(c * c))
    dense = np.stack([sdp.svec(h) for h in family.stacks(prob.block_dims)[0]])
    assert np.array_equal(sdp._svec_rows(prob), dense)


def row_corpus(monkeypatch, case):
    """A problem of the four definition corpora, the d=8 Physical split, or
    the rectangular corpus with dense rows before, among and after its families."""
    if case == "physical-d8":
        n, m, rho, constraint, _ = physical_corpus("d8")
        return first_link_plan(
            monkeypatch, lambda: rc.build_recovery_fidelity_sdp(n, m, rho, constraint))[1].problem
    prob = definition_corpus_plan(monkeypatch, case.removeprefix("mixed-"))[1].problem
    if case.startswith("mixed-"):
        rng = np.random.default_rng(113)
        dims = prob.block_dims
        families = [family for _, family in prob.families]
        rows = ([[random_hermitian(rng, dims[0]), None]] + families[:1]
                + [[random_hermitian(rng, d) for d in dims]] + families[1:]
                + [[None, random_hermitian(rng, dims[1])]])
        prob = sdp.SdpProblem(dims, prob.objective, rows,
                              np.ones(prob.n_constraints + 3), sense=prob.sense)
    return prob


@pytest.mark.parametrize("case", ["rectangular", "physical", "fixes_algebra", "environment",
                                  "physical-d8", "mixed-rectangular"])
def test_svec_rows_are_the_public_svec_of_each_row(monkeypatch, case):
    # the solver's row matrix and the public svec share one layout, bit for bit
    prob = row_corpus(monkeypatch, case)
    want = np.stack([
        np.concatenate([np.zeros(d * d) if a is None else sdp.svec(a)
                        for a, d in zip(row, prob.block_dims)])
        for row in prob.constraints
    ])
    assert np.array_equal(sdp._svec_rows(prob), want)


def full_qr_kept(a):
    """Kept rows of the row reduction without the orthogonal-lead shortcut."""
    return list(sdp._independent_rows(a, 1e-10, sdp._row_norms(a)))


def lead_kept(prob):
    a = sdp._svec_rows(prob)
    lead = sdp._orthogonal_lead(prob)
    return a, lead, list(sdp._independent_rows(a, 1e-10, sdp._row_norms(a), lead))


@pytest.mark.parametrize("environment", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_orthogonal_lead_keeps_the_full_qr_rows(d, environment):
    rng = np.random.default_rng(149 + d)
    n = ch.Channel(random_kraus(rng, d, d, 2))
    m = ch.Channel(random_kraus(rng, d, d, 2))
    plan = rc._link_plan(n, m, random_density(rng, d), None, environment)[0]
    a, lead, kept = lead_kept(plan.problem)
    assert lead == plan.act_in ** 2
    assert kept == full_qr_kept(a)


def test_orthogonal_lead_drops_a_row_in_its_span():
    # 1_6 = 1_2 (x) 1_3 lies in the span of the family's rows; a random
    # row after it is kept
    rng = np.random.default_rng(151)
    family = sdp.RowFamily(3, [(0, None, 1.0)])
    rows = [family, [np.eye(6)], [random_hermitian(rng, 6)]]
    prob = sdp.SdpProblem([6], [None], rows, np.zeros(11))
    a, lead, kept = lead_kept(prob)
    assert lead == 9
    assert kept == full_qr_kept(a) == gram_schmidt_kept(a) == list(range(9)) + [10]


def test_no_orthogonal_lead_behind_a_dense_row():
    rng = np.random.default_rng(157)
    family = sdp.RowFamily(2, [(0, None, -1.0)])
    rows = [[random_hermitian(rng, 4)], family, [np.eye(4)]]
    prob = sdp.SdpProblem([4], [None], rows, np.zeros(6))
    a, lead, kept = lead_kept(prob)
    assert lead == 0
    assert kept == full_qr_kept(a) == gram_schmidt_kept(a) == [0, 1, 2, 3, 4]


def test_no_orthogonal_lead_for_an_explicit_lift():
    # a rank-one lift u w^T makes every row a multiple of u u^dag
    rng = np.random.default_rng(163)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    family = sdp.RowFamily(2, [(0, np.outer(u, w), 1.0)])
    prob = sdp.SdpProblem([3], [None], [family], np.zeros(4))
    a, lead, kept = lead_kept(prob)
    assert lead == 0
    assert kept == full_qr_kept(a) == gram_schmidt_kept(a) == [0]


def test_row_matrix_bytes_is_the_kept_row_matrix(monkeypatch):
    # the fixes_algebra corpus with its first row repeated as a dense row,
    # which the row reduction drops
    _, plan = definition_corpus_plan(monkeypatch, "fixes_algebra")
    prob = plan.problem
    repeated = sdp.SdpProblem(prob.block_dims, prob.objective,
                              [f for _, f in prob.families] + [prob.constraints[0]],
                              np.append(prob.rhs, prob.rhs[0]), sense=prob.sense)
    sol = sdp.solve(repeated)
    assert sol.status == "optimal"
    diag = sol.diagnostics
    assert diag["rows_kept"] < diag["rows"]
    width = sum(n * n for n in diag["block_dims"])
    assert diag["row_matrix_bytes"] == diag["rows_kept"] * width * 8


def test_recovery_build_keeps_no_dense_rows():
    d = 12
    rng = np.random.default_rng(d)
    n = ch.Channel(random_kraus(rng, d, d, 2))
    m = ch.Channel([np.eye(d)])
    tracemalloc.start()
    try:
        prob = rc.build_recovery_fidelity_sdp(n, m, np.eye(d) / d)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prob.n_constraints == d * d + 2
    assert retained < 2 * 2**20


# ---------------------------------------------------------------------------
# Physical recovery SDPs in one block per pair of sectors


PARITY3 = np.asarray(fermion.parity_operator(fermion.FermionSystem(3), tuple(range(1, 7))).c)
PINCH = [np.diag(x) for x in ([1.0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0])]
# the two cases below that had one block before the split by pairs of
# sectors; re-pinned with it from (10, 0.9298841445928623) and
# (9, 0.7634418273131987), with the problems posed in the sector
# coordinates from 0.9298841445932353 and 0.7634418273131486, and with the
# small blocks iterating as one padded stack from 0.9298841445931839 and
# 0.7634418273131776
NO_SPLIT_FROZEN = {"non-invariant-q": (10, 0.929884144593412),
                   "three-sector-pinching": (9, 0.7634418273130403)}


def dephasing(c):
    d = c.shape[0]
    return ch.Channel([np.eye(d) / np.sqrt(2), c / np.sqrt(2)])


def parity_sectors(c):
    d = c.shape[0]
    return [(np.eye(d) + c) / 2, (np.eye(d) - c) / 2]


def physical_corpus(case):
    """Noise, target, state and constraint of a Physical solve, and the
    sector projectors of p and of q."""
    if case == "d4":
        # the corpus of the frozen physical solve
        rng = np.random.default_rng(73)
        n = random_physical_channel(rng, PARITY2)
        m = random_physical_channel(rng, PARITY2, 2)
        sectors = parity_sectors(PARITY2)
        return (n, m, np.eye(4) / 4, rc.Physical(dephasing(PARITY2), dephasing(PARITY2)),
                (sectors, sectors))
    if case == "non-invariant-q":
        # q = Ad_V with V = P_+ + i P_-: its Kraus operator generates the parity
        # algebra, but Ad_P . q != q, so q has one sector
        rng = np.random.default_rng(131)
        n = random_physical_channel(rng, PARITY2)
        m = random_physical_channel(rng, PARITY2, 2)
        one = np.eye(4)
        v = (one + PARITY2) / 2 + 1j * (one - PARITY2) / 2
        return (n, m, one / 4, rc.Physical(dephasing(PARITY2), ch.Channel([v])),
                (parity_sectors(PARITY2), [one]))
    if case == "three-sector-pinching":
        rng = np.random.default_rng(137)
        n = ch.Channel(random_kraus(rng, 4, 4, 3))
        m = ch.Channel(random_kraus(rng, 4, 4, 2))
        pinch = ch.Channel(PINCH)
        return n, m, np.eye(4) / 4, rc.Physical(pinch, pinch), (PINCH, PINCH)
    rng = np.random.default_rng(139)
    n = random_physical_channel(rng, PARITY3, 2)
    m = random_physical_channel(rng, PARITY3, 2)
    pq = dephasing(PARITY3)
    sectors = parity_sectors(PARITY3)
    return n, m, random_density(rng, 8), rc.Physical(pq, pq), (sectors, sectors)


def block_pairs(bases, sectors):
    """The pair (k, l) of each block's basis B, with Pi_k B = B = B Pi'_l."""
    out_sectors, in_sectors = sectors
    pairs = []
    for basis in bases:
        pairs += [(k, l) for k, pk in enumerate(out_sectors) for l, pl in enumerate(in_sectors)
                  if np.max(np.abs(pk @ basis - basis)) < 1e-12
                  and np.max(np.abs(basis @ pl - basis)) < 1e-12]
    return pairs


def sector_unitary(rng, sectors):
    return sum(np.exp(2j * np.pi * rng.random()) * p for p in sectors)


# (split, one-block) iterations where the two solves differ, pinned: at
# tol=1e-10 the three-sector pinching's split solve, its small blocks one
# padded stack, ends its 12th iteration at a relative gap of 1.02e-10 and
# takes a 13th; it was (12, 12) with one iteration path per block
SPLIT_ONE_BLOCK_ITERATIONS = {("three-sector-pinching", 1e-10): (13, 12)}


@pytest.mark.parametrize("case", ["d4", "d8", "non-invariant-q", "three-sector-pinching"])
def test_split_and_one_block_solves_agree(monkeypatch, case):
    n, m, rho, constraint, sectors = physical_corpus(case)
    d = rho.shape[0]
    build = rc._build_link_problem
    args, _ = first_link_plan(
        monkeypatch, lambda: rc.build_recovery_fidelity_sdp(n, m, rho, constraint))
    monkeypatch.undo()
    split = rc._link_plan(n, m, rho, constraint, False)[0]
    # one block per pair of sectors, together an orthonormal basis of all
    # d x d operators
    bases = block_bases(split)
    pairs = [(k, l) for k in range(len(sectors[0])) for l in range(len(sectors[1]))]
    assert sorted(block_pairs(bases, sectors)) == pairs
    assert len(bases) == len(pairs)
    whole = np.concatenate([b.reshape(len(b), -1).T for b in bases], axis=1)
    assert np.max(np.abs(whole.conj().T @ whole - np.eye(d * d))) < 1e-12
    # the same eta and sigma in one block over all operators
    one = build(**{**args, "out_sizes": [sum(args["out_sizes"])],
                   "in_sizes": [sum(args["in_sizes"])]})
    r = split.sigma_support.shape[1]
    assert split.problem.block_dims == [len(b) for b in bases] + [2 * r]
    assert one.problem.block_dims == [d * d, 2 * r]
    for tol in (1e-7, 1e-10):
        sol_split = sdp.solve(split.problem, tol=tol)
        sol_one = sdp.solve(one.problem, tol=tol)
        assert sol_split.status == sol_one.status == "optimal"
        assert (sol_split.iterations, sol_one.iterations) == SPLIT_ONE_BLOCK_ITERATIONS.get(
            (case, tol), (sol_one.iterations, sol_one.iterations))
        assert abs(sol_split.value - sol_one.value) < 1e-9
    # the reassembled process matrix is covariant under independent sector
    # phases on both sides, and trace preserving
    choi = split.choi(sol_split)
    rng = np.random.default_rng(5)
    for _ in range(3):
        sym = np.kron(sector_unitary(rng, sectors[0]), sector_unitary(rng, sectors[1]).conj())
        assert np.linalg.norm(sym @ choi - choi @ sym) < 1e-10 * np.linalg.norm(choi)
    out_traced = np.einsum("aiaj->ij", choi.reshape(d, d, d, d))
    assert np.linalg.norm(out_traced - np.eye(d)) < 1e-8
    # the fidelity of the extracted channel, without the SDP
    rec = ch.channel_from_choi(choi, d, d, renormalize=True)
    value = ch.entanglement_fidelity(ch.compose(rec, ch.compose(constraint.q, n)),
                                     ch.compose(constraint.p, m), rho)
    assert abs(value - sol_split.value) < 1e-7


@pytest.mark.parametrize("kind", ["parity_dephasing", "parity_measurement"])
def test_parity_blocks_come_from_the_channel(kind):
    # the same channel from two Kraus forms, {1, P} / sqrt(2) and {P_+, P_-}
    pq = scenario._build_channel("p", {"kind": kind}, 4, S2)
    assert np.linalg.norm(pq.choi - dephasing(PARITY2).choi) < 1e-12
    n, m, rho, _, _ = physical_corpus("d4")
    sol = sdp.solve(rc.build_recovery_fidelity_sdp(n, m, rho, rc.Physical(pq, pq)))
    r = sol.diagnostics["block_dims"][-1] // 2
    assert sol.diagnostics["block_dims"] == [4, 4, 4, 4, 2 * r]
    assert sol.iterations == 9
    assert abs(sol.value - 0.8072288506274594) < 1e-9


@pytest.mark.parametrize("case", ["parity", "pinching", "non-invariant-q"])
def test_sector_check_is_the_choi_distance(case):
    # ||J(Ad_U . N) - J(N)|| for U = 1 - 2 P, over the channel's sectors and
    # a random rank-2 projector, against the Choi matrices themselves
    one = np.eye(4)
    channel = {"parity": dephasing(PARITY2), "pinching": ch.Channel(PINCH),
               "non-invariant-q": ch.Channel([(one + PARITY2) / 2 + 1j * (one - PARITY2) / 2])}[case]
    u = random_unitary(np.random.default_rng(167), 4)[:, :2]
    sectors = alg.block_structure(alg.generate_algebra(channel.kraus, 4)).sectors
    for proj in [s.projector for s in sectors] + [u @ u.conj().T]:
        moved = ch.Channel((one - 2 * proj) @ channel._stack, check=False)
        want = np.linalg.norm(moved.choi - channel.choi)
        assert abs(rc._moved_by(channel, proj) - want) <= 1e-12 * max(1.0, want)
    assert len(rc._sectors(channel)) == {"parity": 2, "pinching": 3, "non-invariant-q": 1}[case]


def test_sectors_of_a_large_channel_form_no_choi_matrix():
    # parity dephasing of eight modes: one Choi matrix would take 64 GiB
    system = fermion.FermionSystem(8)
    c = np.asarray(fermion.parity_operator(system, tuple(range(1, 17))).c)
    tracemalloc.start()
    try:
        sectors = rc._sectors(dephasing(c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [v.shape for v in sectors] == [(256, 1, 128), (256, 1, 128)]
    for v in (v[:, 0] for v in sectors):
        assert np.linalg.norm(c @ v @ v.conj().T - v @ v.conj().T @ c) < 1e-10
    assert peak < 128 * 2**20


def test_physical_finds_its_parity_blocks_once(monkeypatch):
    # the two solves of a duality loop or a benchmark pass share one Physical
    n, m, rho, _, _ = physical_corpus("d4")
    pq = dephasing(PARITY2)
    constraint = rc.Physical(pq, pq)
    calls = []
    generate = alg.generate_algebra

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(alg, "generate_algebra", counting)
    first = rc.optimal_recovery_fidelity(n, m, rho, constraint)
    second = rc.optimal_recovery_fidelity(n, m, rho, constraint)
    assert len(calls) == 1
    assert first.value == second.value


@pytest.mark.parametrize("case", sorted(NO_SPLIT_FROZEN))
def test_former_no_split_cases_split_by_sectors(case):
    # [8, 8] by p's sectors alone when q fails the check, nine blocks for
    # the three-sector pinching
    n, m, rho, constraint, _ = physical_corpus(case)
    prob = rc.build_recovery_fidelity_sdp(n, m, rho, constraint)
    want = {"non-invariant-q": [8, 8], "three-sector-pinching": [4, 2, 2, 2, 1, 1, 2, 1, 1]}
    assert prob.block_dims[:-1] == want[case]
    res = rc.optimal_recovery_fidelity(n, m, rho, constraint)
    assert res.status == "optimal"
    assert (res.iterations, res.value) == NO_SPLIT_FROZEN[case]


def test_split_problem_reports_blocks_and_round_trips(tmp_path):
    n, m, rho, constraint, _ = physical_corpus("d4")
    prob = rc.build_recovery_fidelity_sdp(n, m, rho, constraint)
    family = sdp.solve(prob)
    r = prob.block_dims[-1] // 2
    assert family.diagnostics["block_dims"] == [4, 4, 4, 4, 2 * r]
    path = tmp_path / "physical.json"
    sdp.dump_problem(prob, path)
    loaded = sdp.load_problem(path)
    assert loaded.block_dims == prob.block_dims
    dense = sdp.solve(dense_copy(prob))
    reloaded = sdp.solve(loaded)
    assert dense.status == reloaded.status == family.status == "optimal"
    assert dense.diagnostics["block_dims"] == [4, 4, 4, 4, 2 * r]
    assert dense.diagnostics["rows_kept"] == family.diagnostics["rows_kept"]
    assert dense.iterations == family.iterations
    assert abs(dense.value - family.value) < 1e-9
    assert (reloaded.iterations, reloaded.value) == (family.iterations, family.value)
