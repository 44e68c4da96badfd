import tracemalloc

import numpy as np
import pytest

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import linalg
from constrained_recovery import recovery as rc
from helpers import (
    commutant_by_svd,
    commutant_expectation_by_dense_basis,
    fixed_algebra,
    local_complement_defect_by_pinv,
    planted_algebra,
    random_density,
    random_hermitian,
    random_kraus,
    random_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

DEPHASE = ch.Channel([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
DEPOLARIZE = ch.Channel([np.eye(2) / 2, X / 2, Y / 2, Z / 2])


def unitary_mix_in_span(rng, basis, k):
    """Channel mixing k unitaries drawn as exponentials of span elements."""
    ops = []
    for _ in range(k):
        h = sum(rng.normal() * b for b in basis)
        h = (h + h.conj().T) / 2
        w, u = np.linalg.eigh(h)
        ops.append((u * np.exp(1j * w)) @ u.conj().T / np.sqrt(k))
    return ch.Channel(ops)


def test_constructor_guards():
    with pytest.raises(ValueError):
        ch.Channel([])
    with pytest.raises(ValueError):
        ch.Channel([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        ch.Channel([1.01 * np.eye(2)])
    piece = ch.Channel([1.01 * np.eye(2)], check=False)
    assert abs(piece.tp_residual - 0.0201) < 1e-12


def test_tp_residual_matches_the_kraus_sum():
    rng = np.random.default_rng(19)
    for d_out, d_in, k in ((3, 2, 4), (2, 5, 3), (16, 16, 5)):
        ops = [e * rng.uniform(0.9, 1.1) for e in random_kraus(rng, d_out, d_in, k)]
        ksum = sum(e.conj().T @ e for e in ops)
        want = np.linalg.norm(ksum - np.eye(d_in), 2)
        assert abs(ch.Channel(ops, check=False).tp_residual - want) < 1e-10


def test_validate_reports_residuals():
    rep = ch.validate(ch.Channel([1.01 * np.eye(2)], check=False))
    assert not rep.valid
    assert abs(rep.tp_residual - 0.0201) < 1e-12
    assert abs(rep.isometry_residual - 0.0201) < 1e-12

    rng = np.random.default_rng(0)
    good = ch.Channel(random_kraus(rng, 3, 2, 4))
    rep = ch.validate(good)
    assert rep.valid
    assert rep.choi_min_eig > -1e-12


def test_apply_matches_choi_contraction():
    rng = np.random.default_rng(1)
    c = ch.Channel(random_kraus(rng, 3, 4, 5))
    j4 = c.choi.reshape(3, 4, 3, 4)
    for _ in range(3):
        rho = random_density(rng, 4)
        via_choi = np.einsum("aibk,ik->ab", j4, rho)
        assert np.linalg.norm(c(rho) - via_choi) < 1e-12


def test_choi_trace_condition():
    rng = np.random.default_rng(2)
    c = ch.Channel(random_kraus(rng, 2, 3, 4))
    marginal = linalg.partial_trace(c.choi, [2, 3], keep=[1])
    assert np.linalg.norm(marginal - np.eye(3)) < 1e-10


def test_stinespring_marginals():
    rng = np.random.default_rng(3)
    c = ch.Channel(random_kraus(rng, 3, 2, 4))
    v = c.stinespring
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-10
    comp = ch.complementary(c)
    for _ in range(3):
        rho = random_density(rng, 2)
        big = v @ rho @ v.conj().T
        assert np.linalg.norm(
            linalg.partial_trace(big, [3, 4], keep=[0]) - c(rho)
        ) < 1e-10
        assert np.linalg.norm(
            linalg.partial_trace(big, [3, 4], keep=[1]) - comp(rho)
        ) < 1e-10


def test_complementary_gram_entries():
    rng = np.random.default_rng(4)
    c = ch.Channel(random_kraus(rng, 2, 2, 3))
    rho = random_density(rng, 2)
    out = ch.complementary(c)(rho)
    for i, ei in enumerate(c.kraus):
        for j, ej in enumerate(c.kraus):
            assert abs(out[i, j] - np.trace(rho @ ej.conj().T @ ei)) < 1e-12
    assert ch.validate(ch.complementary(c)).valid


def test_complementary_of_unitary_is_trace():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 3)
    comp = ch.complementary(ch.Channel([u]))
    rho = random_density(rng, 3)
    assert comp(rho).shape == (1, 1)
    assert abs(comp(rho)[0, 0] - 1.0) < 1e-12


def test_adjoint_duality_and_unitality():
    rng = np.random.default_rng(6)
    c = ch.Channel(random_kraus(rng, 3, 2, 3))
    for _ in range(4):
        rho = random_density(rng, 2)
        x = random_hermitian(rng, 3)
        lhs = np.trace(c(rho) @ x)
        rhs = np.trace(rho @ ch.adjoint_apply(c, x))
        assert abs(lhs - rhs) < 1e-10
    assert np.linalg.norm(
        ch.adjoint_apply(c, np.eye(3)) - np.eye(2)
    ) < 1e-10


def test_compose_order_and_reduction():
    rng = np.random.default_rng(7)
    a = ch.Channel(random_kraus(rng, 2, 3, 2))
    b = ch.Channel(random_kraus(rng, 3, 2, 2))
    rho = random_density(rng, 2)
    assert np.linalg.norm(ch.compose(a, b)(rho) - a(b(rho))) < 1e-10
    with pytest.raises(ValueError):
        ch.compose(b, ch.identity_channel(3))

    full = ch.compose(a, b, reduce=False)
    red = ch.compose(a, b, reduce=True)
    assert full.n_kraus == 4
    assert red.n_kraus <= 4
    assert np.linalg.norm(full.choi - red.choi) < 1e-10

    assert ch.distance(ch.compose(DEPHASE, DEPHASE), DEPHASE).choi_frobenius < 1e-10


def test_compose_is_order_sensitive():
    had = ch.Channel([(X + Z) / np.sqrt(2)])
    d1 = ch.compose(DEPHASE, had)
    d2 = ch.compose(had, DEPHASE)
    assert ch.distance(d1, d2).choi_frobenius > 0.1


def test_tensor_channels_marginal():
    rng = np.random.default_rng(8)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    big = ch.tensor_channels(n, ch.identity_channel(3))
    rho = random_density(rng, 6)
    out = big(rho)
    assert np.linalg.norm(
        linalg.partial_trace(out, [2, 3], keep=[0])
        - n(linalg.partial_trace(rho, [2, 3], keep=[0]))
    ) < 1e-10
    ra, rb = random_density(rng, 2), random_density(rng, 3)
    assert np.linalg.norm(big(np.kron(ra, rb)) - np.kron(n(ra), rb)) < 1e-10


def test_kraus_from_choi_roundtrip():
    rng = np.random.default_rng(9)
    c = ch.Channel(random_kraus(rng, 3, 2, 4))
    ops = ch.kraus_from_choi(c.choi, 3, 2)
    rebuilt = ch.Channel(ops, check=False)
    assert np.linalg.norm(rebuilt.choi - c.choi) < 1e-10
    assert rebuilt.tp_residual < 1e-10

    zero = ch.kraus_from_choi(np.zeros((6, 6)), 3, 2)
    assert len(zero) == 1 and np.all(zero[0] == 0)


def test_channel_from_choi_renormalize():
    rng = np.random.default_rng(10)
    c = ch.Channel(random_kraus(rng, 2, 2, 3))
    noisy = 1.0001 * c.choi
    raw = ch.channel_from_choi(noisy, 2, 2)
    assert raw.tp_residual > 1e-5
    fixed = ch.channel_from_choi(noisy, 2, 2, renormalize=True)
    assert fixed.tp_residual < 1e-12
    assert ch.distance(fixed, c).choi_frobenius < 1e-3


def test_distance_invariant_under_kraus_rotation():
    rng = np.random.default_rng(11)
    ops = random_kraus(rng, 2, 2, 3)
    u = random_unitary(rng, 3)
    mixed = [sum(u[i, j] * ops[j] for j in range(3)) for i in range(3)]
    a = ch.Channel(ops)
    b = ch.Channel(mixed)
    assert ch.distance(a, b).choi_frobenius < 1e-12
    d = ch.distance(a, DEPOLARIZE, with_fidelity=True)
    assert d.fidelity_lower_bound is not None


def test_is_physical_definite_parity():
    c_op = np.kron(Z, Z)
    par = ch.Channel([np.eye(4) / np.sqrt(2), c_op / np.sqrt(2)])
    even = np.kron(X, X)
    odd = np.kron(X, np.eye(2))
    n = ch.Channel([even / np.sqrt(2), odd / np.sqrt(2)])
    rep = ch.is_physical(n, par, par)
    assert rep.physical and rep.residual < 1e-10


def test_is_physical_counterexample():
    e = (np.eye(2) + 1j * X) / np.sqrt(2)
    n = ch.Channel([e])
    rep = ch.is_physical(n, DEPHASE, DEPHASE)
    assert not rep.physical
    assert rep.residual > 1e-3


def test_is_physical_rejects_non_idempotent():
    had = ch.Channel([(X + Z) / np.sqrt(2)])
    with pytest.raises(ValueError):
        ch.is_physical(DEPHASE, had, DEPHASE)


def test_fixes_algebra():
    rng = np.random.default_rng(12)
    diag = alg.generate_algebra([Z], 2)
    rep = ch.fixes_algebra(DEPHASE, diag)
    assert rep.fixes
    assert rep.adjoint_residual < 1e-12 and rep.commutation_residual < 1e-12

    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    b = alg.generate_algebra(gens, d)
    good = unitary_mix_in_span(rng, alg.commutant(b).basis, 2)
    assert ch.fixes_algebra(good, b).fixes
    bad = ch.Channel(random_kraus(rng, d, d, 2))
    assert not ch.fixes_algebra(bad, b).fixes

    with pytest.raises(ValueError):
        ch.fixes_algebra(ch.Channel(random_kraus(rng, 3, 2, 2)), diag)


def test_maps_into():
    diag = alg.generate_algebra([Z], 2)
    assert ch.maps_into(DEPHASE, diag)
    rot = ch.Channel([(np.eye(2) + 1j * X) / np.sqrt(2)])
    assert not ch.maps_into(rot, diag)


def test_is_local_tensor_split():
    rng = np.random.default_rng(13)
    a = alg.generate_algebra(
        [np.kron(random_hermitian(rng, 2), np.eye(2)) for _ in range(2)], 4
    )
    b = alg.generate_algebra(
        [np.kron(np.eye(2), random_hermitian(rng, 2)) for _ in range(2)], 4
    )
    n = ch.tensor_channels(ch.Channel(random_kraus(rng, 2, 2, 2)), ch.identity_channel(2))
    rep = ch.is_local(n, a, b)
    assert rep.local and rep.strong

    swap = np.eye(4)[[0, 2, 1, 3]]
    assert not ch.is_local(ch.Channel([swap]), a, b).local

    with pytest.raises(ValueError):
        ch.is_local(n, a, a)


def test_is_local_weak_but_not_strong():
    rng = np.random.default_rng(14)
    a = alg.generate_algebra(
        [np.kron(random_hermitian(rng, 2), np.eye(2)) for _ in range(2)], 4
    )
    b_small = alg.generate_algebra([np.kron(np.eye(2), Z)], 4)
    n = ch.tensor_channels(ch.Channel(random_kraus(rng, 2, 2, 2)), DEPHASE)
    rep = ch.is_local(n, a, b_small)
    assert rep.local and not rep.strong


def test_multiplicative_domain():
    rng = np.random.default_rng(15)
    a = alg.generate_algebra(
        [np.kron(random_hermitian(rng, 2), np.eye(2)) for _ in range(2)], 4
    )
    b = alg.generate_algebra(
        [np.kron(np.eye(2), random_hermitian(rng, 2)) for _ in range(2)], 4
    )
    n = ch.tensor_channels(ch.Channel(random_kraus(rng, 2, 2, 2)), ch.identity_channel(2))
    assert ch.is_local(n, a, b).local
    for aop in a.basis[:4]:
        for bop in b.basis[:4]:
            lhs = ch.adjoint_apply(n, aop @ bop)
            rhs = ch.adjoint_apply(n, aop) @ bop
            assert np.linalg.norm(lhs - rhs) < 1e-9


def test_entanglement_fidelity_frozen_values():
    rho = np.eye(2) / 2
    ident = ch.identity_channel(2)
    f = ch.entanglement_fidelity(DEPHASE, ident, rho)
    assert abs(f - 1 / np.sqrt(2)) < 1e-10
    f = ch.entanglement_fidelity(DEPOLARIZE, ident, rho)
    assert abs(f - 0.5) < 1e-10
    assert abs(ch.entanglement_fidelity(ident, ident, rho) - 1.0) < 1e-12


def test_entanglement_fidelity_overlap_oracle():
    # against the identity the square is sum_i |Tr(E_i rho)|^2
    rng = np.random.default_rng(16)
    for _ in range(4):
        c = ch.Channel(random_kraus(rng, 3, 3, 2))
        rho = random_density(rng, 3)
        oracle = np.sqrt(sum(abs(np.trace(e @ rho)) ** 2 for e in c.kraus))
        f = ch.entanglement_fidelity(c, ch.identity_channel(3), rho)
        # the square-root route loses half the digits on rank-deficient states
        assert abs(f - oracle) < 5e-8


@pytest.mark.parametrize("d", [3, 4, 6, 8])
def test_entanglement_fidelity_full_precision_on_low_rank_states(d):
    # against the identity the square is sum_i |Tr(E_i rho)|^2; the trace
    # norm of A^dag B takes no square root of a rank-deficient output state
    rng = np.random.default_rng(100 + d)
    for rank in (1, 2):
        for _ in range(3):
            c = ch.Channel(random_kraus(rng, d, d, 2))
            rho = random_density(rng, d, rank=rank)
            oracle = np.sqrt(sum(abs(np.trace(e @ rho)) ** 2 for e in c.kraus))
            f = ch.entanglement_fidelity(c, ch.identity_channel(d), rho)
            assert abs(f - oracle) < 1e-13


def test_entanglement_fidelity_purification_independent():
    rng = np.random.default_rng(17)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    m = ch.Channel(random_kraus(rng, 2, 2, 3))
    rho = random_density(rng, 2)
    f = ch.entanglement_fidelity(n, m, rho)

    psi = linalg.purify(rho)
    big_n = ch.tensor_channels(n, ch.identity_channel(2))
    big_m = ch.tensor_channels(m, ch.identity_channel(2))
    direct = linalg.state_fidelity(
        big_n(np.outer(psi, psi.conj())), big_m(np.outer(psi, psi.conj()))
    )
    assert abs(f - direct) < 1e-9


def test_entanglement_fidelity_rank_deficient_input():
    rng = np.random.default_rng(18)
    n = ch.Channel(random_kraus(rng, 3, 3, 2))
    rho = random_density(rng, 3, rank=1)
    f = ch.entanglement_fidelity(n, ch.identity_channel(3), rho)
    v = np.linalg.eigh(rho)[1][:, -1]
    pure_oracle = np.sqrt(sum(abs(v.conj() @ e @ v) ** 2 for e in n.kraus))
    assert abs(f - pure_oracle) < 5e-8


def test_entanglement_fidelity_and_the_recovery_share_one_density_rule():
    # an eigenvalue of -5e-9 lies below the -1e-9 floor of both
    rho = np.diag([1.0 + 5e-9, -5e-9])
    ident = ch.identity_channel(2)
    messages = []
    for run in (lambda: ch.entanglement_fidelity(ident, ident, rho),
                lambda: rc.optimal_recovery_fidelity(ident, ident, rho)):
        with pytest.raises(ValueError) as err:
            run()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "state is not PSD (min eigenvalue -5.000e-09)"


def test_entanglement_fidelity_guards():
    rng = np.random.default_rng(19)
    n = ch.Channel(random_kraus(rng, 2, 2, 2))
    with pytest.raises(ValueError):
        ch.entanglement_fidelity(n, ch.identity_channel(3), np.eye(2) / 2)
    with pytest.raises(ValueError):
        ch.entanglement_fidelity(n, ch.identity_channel(2), np.eye(2))


def test_fidelity_monotone_under_postprocessing():
    rng = np.random.default_rng(20)
    rho = np.eye(2) / 2
    for _ in range(4):
        n = ch.Channel(random_kraus(rng, 2, 2, 2))
        m = ch.Channel(random_kraus(rng, 2, 2, 2))
        r = ch.Channel(random_kraus(rng, 2, 2, 2))
        base = ch.entanglement_fidelity(n, m, rho)
        post = ch.entanglement_fidelity(ch.compose(r, n), ch.compose(r, m), rho)
        assert post >= base - 1e-9


def expectation_dilation(b):
    """Isometry channel rho -> V rho V^dag for the projector onto b'."""
    p = alg.conditional_expectation(alg.commutant(b))
    return ch.Channel([np.vstack(p.kraus)]), p


def test_dilation_intertwines_fixing_channel():
    rng = np.random.default_rng(21)
    zz = np.kron(Z, Z)
    b = alg.generate_algebra([zz], 4)
    vb, p = expectation_dilation(b)
    n = unitary_mix_in_span(rng, alg.commutant(b).basis, 2)
    assert ch.fixes_algebra(n, b).fixes

    lhs = ch.compose(vb, n, reduce=False)
    rhs = ch.compose(
        ch.tensor_channels(ch.identity_channel(p.n_kraus), n), vb, reduce=False
    )
    assert np.linalg.norm(lhs.choi - rhs.choi) < 1e-8


def test_dilation_complement_exchange():
    rng = np.random.default_rng(22)
    zz = np.kron(Z, Z)
    b = alg.generate_algebra([zz], 4)
    vb, p = expectation_dilation(b)
    n = unitary_mix_in_span(rng, alg.commutant(b).basis, 3)

    vn = ch.Channel([n.stinespring])
    lhs = ch.compose(
        ch.tensor_channels(ch.complementary(p), ch.identity_channel(n.n_kraus)), vn
    )
    rhs = ch.compose(
        ch.tensor_channels(ch.identity_channel(p.n_kraus), ch.complementary(n)), vb
    )
    assert np.linalg.norm(lhs.choi - rhs.choi) < 1e-8


def test_local_complementary_trivial_algebra():
    rng = np.random.default_rng(23)
    c = ch.Channel(random_kraus(rng, 3, 2, 3))
    triv = alg.generate_algebra([], 3)
    lc = ch.local_complementary(c, triv)
    comp = ch.complementary(c)
    assert (lc.out_dim, lc.in_dim) == (comp.out_dim, comp.in_dim)
    assert ch.distance(lc, comp).choi_frobenius < 1e-12

    with pytest.raises(ValueError):
        ch.local_complementary(c, alg.generate_algebra([], 2))


def test_local_complement_defect_random_pairs():
    rng = np.random.default_rng(24)
    shapes = [[(2, 1), (1, 2)], [(2, 2)], [(1, 1), (1, 1)], [(2, 1), (2, 1)]]
    for sectors in shapes:
        gens, _, d = planted_algebra(rng, sectors)
        b = alg.generate_algebra(gens, d)
        c = ch.Channel(random_kraus(rng, d, 3, 2))
        assert ch.local_complement_defect(c, b) < 1e-8


def _defect_by_einsum(c, b, lc):
    # the defect contracted with three-operand einsums, as a reference; p is
    # the package's expectation, so that it matches the package's lc
    p = ch._commutant_expectation(b)
    k_p, k_n, d = p.n_kraus, c.n_kraus, c.out_dim
    prods = np.einsum("mba,nbc->mnac", p._stack.conj(), p._stack)
    ghat = prods.reshape(k_p * k_p, d * d).T
    ghat_pinv = np.linalg.pinv(ghat, rcond=1e-10)
    v4 = c.stinespring.reshape(d, k_n, c.in_dim)
    g4 = lc._stack.reshape(d, k_p, k_n, c.in_dim)
    worst = 0.0
    for bop in b.basis:
        x = ghat_pinv @ linalg.vec(bop)
        solve_res = float(np.linalg.norm(ghat @ x - linalg.vec(bop)))
        x = linalg.unvec(x, (k_p, k_p))
        lhs = np.einsum("aks,ab,blt->klst", v4.conj(), bop, v4)
        rhs = np.einsum("amks,mn,anlt->klst", g4.conj(), x, g4)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)), solve_res)
    return worst


def test_local_complement_defect_builds_the_expectation_once(monkeypatch):
    # b keeps its sectors, so a second defect decomposes nothing again
    rng = np.random.default_rng(61)
    b = alg.generate_algebra([np.kron(np.eye(2), np.diag([1.0, -1.0]))], 4)
    c = ch.Channel(random_kraus(rng, 4, 4, 2))
    calls = {"commutant": 0, "_modules": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(alg, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(alg, name, counted)
    want = ch.local_complement_defect(c, b)
    assert ch.local_complement_defect(c, b) == want
    assert calls == {"commutant": 0, "_modules": 1}


def test_local_complement_defect_matches_einsum_contraction():
    rng = np.random.default_rng(26)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    b = alg.generate_algebra(gens, d)
    c = ch.Channel(random_kraus(rng, d, 3, 2))
    # the complement of another channel, so that the defect is far from 0
    other = ch.local_complementary(ch.Channel(random_kraus(rng, d, 3, 2)), b)
    for lc in (None, other):
        expect = _defect_by_einsum(c, b, lc or ch.local_complementary(c, b))
        assert abs(ch.local_complement_defect(c, b, lc) - expect) <= 1e-12
    assert expect > 0.1


@pytest.mark.parametrize("name", ["m2-8", "mixed-7", "whole-region-16"])
def test_local_complement_defect_matches_the_pinv_route(monkeypatch, name):
    """The closed-form preimages (+)_k 1_{n_k} (x) b_k are the least-norm
    solutions that the pseudo-inverse finds: the defect of a local
    complement of another channel, far from 0, agrees with the pinv route,
    and no pseudo-inverse is taken."""
    rng = np.random.default_rng(271)
    if name.startswith("whole-region"):
        # the even algebra of all 8 Majoranas of 4 modes: M_8 (+) M_8
        b = fermion.physical_algebra(fermion.FermionSystem(4), list(range(1, 9)))
    else:
        b = fixed_algebra(name, rng)
    d = b.ambient_dim
    c = ch.Channel(random_kraus(rng, d, 3, 2))
    other = ch.local_complementary(ch.Channel(random_kraus(rng, d, 3, 2)), b)

    def refuse(*args, **kwargs):
        raise AssertionError("local_complement_defect called np.linalg.pinv")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "pinv", refuse)
        own = ch.local_complement_defect(c, b)
        got = ch.local_complement_defect(c, b, other)
    assert own < 1e-8
    want = local_complement_defect_by_pinv(c, b, other)
    assert want > 0.1
    assert abs(got - want) <= 1e-12


def test_local_complement_defect_in_chunks_of_the_basis(monkeypatch):
    """The defect taken one basis element of b at a time, in chunks of three,
    and over the whole basis at once agrees within 1e-14, for the 8-Majorana
    region of 4 modes (dim 128) and a planted algebra; a chunk of one
    element holds less than the whole basis does."""
    rng = np.random.default_rng(272)
    gens, _, d = planted_algebra(rng, [(2, 2), (1, 3)])
    for b in (fermion.physical_algebra(fermion.FermionSystem(4), list(range(1, 9))),
              alg.generate_algebra(gens, d)):
        c = ch.Channel(random_kraus(rng, b.ambient_dim, 3, 2))
        other = ch.local_complementary(ch.Channel(random_kraus(rng, b.ambient_dim, 3, 2)), b)
        width = c.n_kraus * c.in_dim
        got = {}
        for per_chunk in (1, 3, b.dim):
            monkeypatch.setattr(ch, "_DEFECT_CHUNK", per_chunk * width * width)
            tracemalloc.start()
            got[per_chunk] = ch.local_complement_defect(c, b, other)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if per_chunk == 1:
                least = peak
        assert max(got.values()) - min(got.values()) <= 1e-14
        assert got[1] > 0.1
        assert least < peak


def test_commutant_expectation_matches_the_dense_route():
    """E_B' read off the sectors of b equals the expectation of a dense
    basis of b', with sum n_k^2 Kraus operators."""
    rng = np.random.default_rng(62)
    cases = []
    for sectors in ([(2, 1), (1, 2)], [(2, 2)]):
        gens, _, d = planted_algebra(rng, sectors)
        cases.append((alg.generate_algebra(gens, d), sum(n * n for n, _ in sectors)))
    cases.append((alg.generate_algebra([np.kron(p, np.eye(4)) for p in (X, Z)], 8), 4))
    cases.append((alg.generate_algebra([np.kron(Z, np.kron(Z, Z))], 8), 2))
    for b, rank in cases:
        p = ch._commutant_expectation(b)
        assert p.n_kraus == rank
        dense = commutant_expectation_by_dense_basis(b)
        assert ch.distance(p, dense).choi_frobenius < 1e-12


def test_center_locality_and_local_complements_form_no_commutant(monkeypatch):
    rng = np.random.default_rng(63)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    a = alg.generate_algebra(gens, d)
    b = commutant_by_svd(a)
    c = ch.Channel(random_kraus(rng, d, d, 2))
    calls = []
    monkeypatch.setattr(alg, "commutant", lambda *args, **kwargs: calls.append(args))
    z = alg.center(a)
    assert z.dim == 2 and alg.equal_spans(z, alg.intersect(a, b))
    assert ch.is_local(c, a, b).strong
    assert not ch.is_local(c, a, alg.generate_algebra([], d)).strong
    lc = ch.local_complementary(c, a)
    assert ch.local_complement_defect(c, a) < 1e-8
    lc_checked, defect = ch._checked_local_complement(c, a)
    assert defect < 1e-8 and ch.distance(lc, lc_checked).choi_frobenius == 0.0
    assert calls == []


def test_local_complementary_is_trace_preserving():
    rng = np.random.default_rng(25)
    gens, _, d = planted_algebra(rng, [(2, 1), (1, 2)])
    b = alg.generate_algebra(gens, d)
    c = ch.Channel(random_kraus(rng, d, 2, 3))
    lc = ch.local_complementary(c, b)
    assert ch.validate(lc).valid
