"""Entropy functionals against paper values and derived oracles."""

import itertools
import math

import numpy as np
import pytest

from helpers import (
    certify_svd_reference,
    conditional_reference,
    haar_basis_povm,
    random_density,
    random_povm,
    random_unitary,
    shannon_oracle,
)
from oegap.classes import ConditionalMeasurement, flatten_locc, lo_povm, lostar_povm
from oegap.core import DensityMatrix, PartitionSpec, Povm, ValidationError, partial_trace, spectral
from oegap.entropy import (
    OutcomeStats,
    binary_entropy,
    certify_optimal,
    chain_entropy,
    coarse_grain,
    entropy_from_stats,
    measured_relative_entropy,
    observational_entropy,
    outcome_stats,
    quantum_relative_entropy,
    recovery_bounds,
    tensor_oe_decompose,
    von_neumann,
)
from oegap.states import (
    bell,
    cq_example,
    domino_state,
    ghz,
    tiles_upb_state,
    trine_cq,
    trine_vectors,
    two_bell,
    w,
    werner,
)

FULL2 = PartitionSpec.full(2)


def local_computational(dims):
    return lostar_povm([np.eye(d, dtype=complex) for d in dims], PartitionSpec.full(len(dims)), dims)


def anti_trine_povm():
    effects = []
    for v in trine_vectors():
        perp = np.array([-np.conj(v[1]), np.conj(v[0])])
        effects.append((2 / 3) * np.outer(perp, perp.conj()))
    return Povm(np.array(effects))


def test_von_neumann_pure():
    assert von_neumann(bell()) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_maximally_mixed():
    rho = DensityMatrix(np.eye(6) / 6, (2, 3))
    assert von_neumann(rho) == pytest.approx(math.log2(6))


@pytest.mark.parametrize("d,lam", [(2, 0.3), (3, 0.7), (4, 0.5)])
def test_von_neumann_werner_formula(d, lam):
    w_plus, w_minus = d * (d + 1) / 2, d * (d - 1) / 2
    expected = binary_entropy(lam) + (1 - lam) * math.log2(w_plus) + lam * math.log2(w_minus)
    assert von_neumann(werner(d, lam)) == pytest.approx(expected, abs=1e-10)


def test_oe_trivial_measurement():
    rng = np.random.default_rng(0)
    rho = random_density(rng, (2, 2))
    assert observational_entropy(rho, Povm.trivial(4)) == pytest.approx(2.0)


def test_oe_bell_local_computational():
    assert observational_entropy(bell(), local_computational((2, 2))) == pytest.approx(1.0)


def test_oe_eigenbasis_reaches_von_neumann():
    rng = np.random.default_rng(1)
    for dims in [(2, 2), (3,), (2, 3)]:
        rho = random_density(rng, dims)
        _, vecs = np.linalg.eigh(rho.mat)
        povm = Povm.from_basis(vecs)
        assert observational_entropy(rho, povm) == pytest.approx(von_neumann(rho), abs=1e-9)


def test_outcome_stats_invariants():
    rng = np.random.default_rng(2)
    rho = random_density(rng, (2, 2))
    povm = random_povm(rng, 4, 5)
    stats = outcome_stats(rho, povm)
    assert stats.probabilities.sum() == pytest.approx(1.0)
    assert stats.volumes.sum() == pytest.approx(4.0)
    assert isinstance(stats, OutcomeStats)


def test_measured_relative_entropy_self():
    rng = np.random.default_rng(3)
    rho = random_density(rng, (2, 2))
    povm = random_povm(rng, 4, 3)
    assert measured_relative_entropy(rho, rho, povm) == pytest.approx(0.0, abs=1e-12)


def test_oe_as_divergence_from_uniform():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density(rng, (2, 2))
        povm = random_povm(rng, 4, 4)
        tau = DensityMatrix(np.eye(4) / 4, (2, 2))
        lhs = observational_entropy(rho, povm)
        rhs = 2.0 - measured_relative_entropy(rho, tau, povm)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_measured_relative_entropy_overflow():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    rho = DensityMatrix(p0, (2,))
    sigma = DensityMatrix(p1, (2,))
    povm = Povm(np.array([p0, p1]))
    assert measured_relative_entropy(rho, sigma, povm) == math.inf


def test_coarse_grain_fixed_point():
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), (2,))
    povm = Povm.from_basis(np.eye(2, dtype=complex))
    assert np.allclose(coarse_grain(rho, povm).mat, rho.mat)


def test_coarse_grain_trivial():
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2, 2))
    cg = coarse_grain(rho, Povm.trivial(4))
    assert np.allclose(cg.mat, np.eye(4) / 4)


def test_coarse_grain_bell_local():
    cg = coarse_grain(bell(), local_computational((2, 2)))
    assert np.allclose(cg.mat, np.diag([0.5, 0, 0, 0.5]))


def test_coarse_grain_unital():
    rng = np.random.default_rng(6)
    povm = random_povm(rng, 4, 5)
    tau = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert np.allclose(coarse_grain(tau, povm).mat, np.eye(4) / 4, atol=1e-10)


def _catalogue_and_random_states():
    rng = np.random.default_rng(97)
    states = [bell(), w(3), ghz(3), two_bell(), werner(3, 0.7), cq_example().state,
              trine_cq().state, domino_state(), tiles_upb_state()]
    states += [random_density(rng, dims, rank) for dims in ((2, 2), (2, 3), (2, 2, 2)) for rank in (1, 3)]
    return rng, states


def test_built_states_equal_the_validated_construction(monkeypatch):
    # coarse_grain and reduced build their states unchecked; each equals the
    # validated DensityMatrix of its own matrix, eigenvalues within 1e-12
    rng, states = _catalogue_and_random_states()
    built = []

    def fail(self):
        raise AssertionError("a built state was validated again")

    monkeypatch.setattr(DensityMatrix, "__post_init__", fail)
    for rho in states:
        n = len(rho.dims)
        for povm in (random_povm(rng, rho.d, 3), local_computational(rho.dims), Povm.trivial(rho.d)):
            built.append(coarse_grain(rho, povm))
        for r in range(1, n):
            built += [rho.reduced(keep) for keep in itertools.combinations(range(n), r)]
    monkeypatch.undo()
    for state in built:
        checked = DensityMatrix(state.mat, state.dims)
        assert np.array_equal(state.mat, checked.mat) and state.dims == checked.dims
        assert np.max(np.abs(state.eigenvalues - checked.eigenvalues)) <= 1e-12
        assert not (state.mat.flags.writeable or state.eigenvalues.flags.writeable)
        assert not state.eigenvectors.flags.writeable


def test_coarse_grain_validates_a_raw_state_on_entry():
    # invalid raw states whose coarse-grained states the computational basis would
    # make valid or not: both are rejected on entry, by recovery_bounds too
    povm = Povm.from_basis(np.eye(2, dtype=complex))
    for mat, problem in ((np.diag([2.0, 0.0]), "trace differs from 1"),
                         (np.diag([1.5, -0.5]), "not positive semidefinite")):
        for call in (coarse_grain, recovery_bounds):
            with pytest.raises(ValidationError, match=problem):
                call(mat, povm)
    raw = np.diag([0.6, 0.4]).astype(complex)
    assert np.array_equal(coarse_grain(raw, povm).mat, raw)
    assert recovery_bounds(raw, povm) == recovery_bounds(DensityMatrix(raw, (2,)), povm)



def test_coarse_grain_accepts_a_povm_within_the_completeness_tolerance():
    # a valid POVM whose effects sum to 1 + 5e-10 on one outcome: P_M(rho) has
    # trace 1 + 2.5e-10, which a re-validation of the output would reject
    povm = Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 5e-10])]))
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), (2,))
    cg = coarse_grain(rho, povm)
    assert np.trace(cg.mat).real == pytest.approx(1.0 + 2.5e-10, abs=1e-15)
    sand = recovery_bounds(rho, povm)
    assert sand.lower == pytest.approx(1.0, abs=1e-8) and sand.upper == pytest.approx(1.0, abs=1e-8)


def test_observational_entropy_accepts_a_state_and_povm_each_within_tolerance():
    # the trace and completeness tolerances each allow about 1e-9, so the outcome
    # probabilities of a valid state under a valid POVM may sum to 1 + 1.09e-9
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex) * (1 + 0.99e-10), (2,))
    povm = Povm(np.array([np.diag([1 + 0.99e-9, 0.0]), np.diag([0.0, 1 + 0.99e-9])]))
    assert observational_entropy(rho, povm) == pytest.approx(1.0, abs=1e-8)
    assert observational_entropy(rho.mat, povm) == observational_entropy(rho, povm)
    assert certify_optimal(rho, povm).optimal


def test_state_readers_do_not_decompose_again(monkeypatch):
    # a DensityMatrix carries its eigh: the entropies, spectral, pure_vector and a
    # certificate that the Frobenius bounds decide run no eigensolver
    rng, states = _catalogue_and_random_states()
    cases = []
    for rho in states:
        povm = Povm(np.array(spectral(rho).projectors))
        cases.append((rho, povm, coarse_grain(rho, random_povm(rng, rho.d, 3))))
    want = [(von_neumann(rho.mat), von_neumann(cg.mat), quantum_relative_entropy(rho.mat, cg.mat))
            for rho, _, cg in cases]

    def fail(*args, **kwargs):
        raise AssertionError("a state was decomposed again")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, fail)
    for (rho, povm, cg), (s, s_cg, rel) in zip(cases, want):
        assert von_neumann(rho) == pytest.approx(s, abs=1e-12)
        assert von_neumann(cg) == pytest.approx(s_cg, abs=1e-12)
        assert quantum_relative_entropy(rho, cg) == pytest.approx(rel, abs=1e-12)
        assert len(spectral(rho).eigenvalues) == len(povm.effects)
        assert certify_optimal(rho, povm).optimal
        if rho.is_pure():
            vec = rho.pure_vector()
            assert np.allclose(np.outer(vec, vec.conj()), rho.mat, atol=1e-9)


def test_recovery_equalities_projective():
    rng = np.random.default_rng(7)
    rho = random_density(rng, (2, 2))
    povm = haar_basis_povm(rng, 4)
    s_m = observational_entropy(rho, povm)
    sand = recovery_bounds(rho, povm)
    assert sand.lower == pytest.approx(s_m, abs=1e-8)
    assert sand.upper == pytest.approx(s_m, abs=1e-8)


def test_recovery_fixed_point_state():
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex), (2,))
    povm = Povm.from_basis(np.eye(2, dtype=complex))
    sand = recovery_bounds(rho, povm)
    s = von_neumann(rho)
    assert sand.lower == pytest.approx(s, abs=1e-10)
    assert sand.upper == pytest.approx(s, abs=1e-10)


def test_recovery_strict_sandwich_trine():
    # evaluated numerically: a mixture of two trine states under the anti-trine
    # POVM separates all three recovery quantities strictly
    kets = trine_vectors()
    mix = 0.5 * np.outer(kets[0], kets[0].conj()) + 0.5 * np.outer(kets[1], kets[1].conj())
    rho = DensityMatrix(mix, (2,))
    povm = anti_trine_povm()
    s_m = observational_entropy(rho, povm)
    sand = recovery_bounds(rho, povm)
    assert sand.lower < s_m - 1e-3
    assert s_m < sand.upper - 1e-3
    # while the CQ trine state under classical-basis x anti-trine sits on the
    # lower bound, the sandwich still holds
    trine = trine_cq().state
    joint = lo_povm([Povm.from_basis(np.eye(3, dtype=complex)), anti_trine_povm()], FULL2, (3, 2))
    s_joint = observational_entropy(trine, joint)
    sand_joint = recovery_bounds(trine, joint)
    assert sand_joint.lower <= s_joint + 1e-9 <= sand_joint.upper + 1e-9


def test_quantum_relative_entropy_support():
    p0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    p1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    assert quantum_relative_entropy(p0, p1) == math.inf
    assert quantum_relative_entropy(p0, p0) == pytest.approx(0.0, abs=1e-10)


def test_certify_optimal_eigenbasis():
    rng = np.random.default_rng(8)
    rho = random_density(rng, (2, 2))
    spec = spectral(rho.mat)
    povm = Povm(np.array(spec.projectors))
    cert = certify_optimal(rho, povm)
    assert cert.optimal


def test_certify_bell_local_violated():
    cert = certify_optimal(bell(), local_computational((2, 2)))
    assert not cert.optimal
    assert cert.entropy_bits == pytest.approx(1.0)
    assert cert.state_entropy_bits == pytest.approx(0.0, abs=1e-9)


def test_certify_domino_mixture_optimal():
    rho = domino_state()
    from oegap.states import domino_basis

    effects = []
    for a, b in domino_basis():
        v = np.kron(a, b)
        effects.append(np.outer(v, v.conj()))
    cert = certify_optimal(rho, Povm(np.array(effects)))
    assert cert.optimal


def test_certify_near_optimal_rejected():
    # support condition must fail for a slightly rotated eigenbasis
    rho = DensityMatrix(np.diag([0.6, 0.25, 0.1, 0.05]).astype(complex), (2, 2))
    theta = 0.1
    rot = np.eye(4, dtype=complex)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    cert = certify_optimal(rho, Povm.from_basis(rot))
    assert not cert.optimal


def test_certify_reports_first_failing_effect():
    # effect 0 is zero (skipped), effect 1 sits in one eigenspace, effects 2
    # and 3 straddle two eigenspaces; the first of those is reported
    s = 1 / np.sqrt(2)
    plus, minus = np.array([0, s, s]), np.array([0, s, -s])
    effects = [np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0]), np.outer(plus, plus), np.outer(minus, minus)]
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex), (3,))
    cert = certify_optimal(rho, Povm(np.array(effects)))
    assert not cert.optimal
    assert cert.failing_outcome == 2
    assert cert.reason == (
        "effect 2 is not supported on a single eigenspace (best residual 8.090e-01)"
    )


def certify_reference(rho, povm):
    """The support check effect by effect, every cluster for each: (failing index, reason)."""
    spec = spectral(rho.mat)
    for idx, eff in enumerate(povm.effects):
        scale = np.linalg.norm(eff, 2)
        if scale <= 1e-12:
            continue
        best = min(np.linalg.norm(eff - proj @ eff @ proj, 2) for proj in spec.projectors)
        if best > 1e-8 * scale:
            return idx, f"effect {idx} is not supported on a single eigenspace (best residual {best:.3e})"
    return None, None


@pytest.mark.parametrize("angle", [0.0, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-3])
def test_certify_matches_effect_by_effect_reference(angle):
    # eigenbases of degenerate states with their second half of vectors turned
    # by a small random rotation, plus random POVMs
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 6, 8):
        vals = rng.choice([0.0, 1.0, 2.0, 3.0], size=d)
        vals[0] = 1.0
        u = random_unitary(rng, d)
        rho = DensityMatrix((u * (vals / vals.sum())) @ u.conj().T, (d,))
        h = d // 2
        g = rng.normal(size=(d - h, d - h)) + 1j * rng.normal(size=(d - h, d - h))
        w, q = np.linalg.eigh(g + g.conj().T)
        turned = u.copy()
        turned[:, h:] = u[:, h:] @ (q * np.exp(1j * angle * w)) @ q.conj().T
        for povm in (Povm.from_basis(turned), random_povm(rng, d, 3)):
            cert = certify_optimal(rho, povm)
            reason = cert.reason if cert.failing_outcome is not None else None
            assert (cert.failing_outcome, reason) == certify_reference(rho, povm)


def _off_eigenspace_povm(rng, d, delta):
    """A state with a degenerate eigenspace and a POVM off its eigenspaces by ``delta``.

    In rho's eigenbasis (eigenvalues 0.3, 0.3, 0.25, then smaller distinct
    ones): E0 = |0><0| + delta X + N, E1 = |1><1| - N, E2 = |2><2| - delta X
    and |k><k| for the rest, with X = |0><2| + |2><0| and N = 2.5e-10 i (|0><1|
    + |1><0|) inside the degenerate eigenspace.  E0 and E2 have residual delta
    at their eigenspaces and norm 1 + O(delta^2); E0 and E1 are non-Hermitian
    by ||2N|| = 5e-10, which validation accepts.
    """
    vals = np.concatenate([[0.3, 0.3, 0.25], np.linspace(0.15, 0.05, d - 3)])
    u = random_unitary(rng, d)
    rho = DensityMatrix((u * (vals / vals.sum())) @ u.conj().T, (d,))
    basis = np.eye(d)
    x = np.outer(basis[0], basis[2]) + np.outer(basis[2], basis[0])
    n = 2.5e-10j * (np.outer(basis[0], basis[1]) + np.outer(basis[1], basis[0]))
    effects = [np.outer(b, b).astype(complex) for b in basis]
    effects[0] = effects[0] + delta * x + n
    effects[1] = effects[1] - n
    effects[2] = effects[2] - delta * x
    return rho, Povm(np.array([u @ e @ u.conj().T for e in effects]))


@pytest.mark.parametrize("factor", [0.0, 0.5, 1.0, 2.0])
def test_certify_matches_stacked_svd_reference(factor):
    # residuals at 0.5x, 1x and 2x CERT_OP_TOL times the effect's norm: the
    # certificate agrees with the same check computed with SVDs
    rng = np.random.default_rng(83)
    for d in (3, 4, 6, 8):
        for _ in range(4):
            rho, povm = _off_eigenspace_povm(rng, d, factor * 1e-8)
            assert np.linalg.norm(povm.effects[0] - povm.effects[0].conj().T, 2) == pytest.approx(5e-10)
            cert = certify_optimal(rho, povm)
            reason = cert.reason if cert.failing_outcome is not None else None
            assert (cert.failing_outcome, reason) == certify_svd_reference(rho, povm)
            if factor < 1.0:
                assert cert.optimal
            if factor > 1.0:
                assert cert.failing_outcome == 0
                assert cert.reason.endswith("(best residual 2.000e-08)")



@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_certify_decides_the_undecided_frobenius_band_exactly(factor):
    # residuals within 10% of CERT_OP_TOL times the norm: the Frobenius bounds
    # ||R||_F / sqrt(d) <= ||R|| <= ||R||_F leave effects 0 and 2 undecided,
    # and the certificate agrees with the same check computed with SVDs
    rng = np.random.default_rng(101)
    for d in (3, 4, 6, 8):
        for _ in range(4):
            rho, povm = _off_eigenspace_povm(rng, d, factor * 1e-8)
            proj = np.array(spectral(rho).projectors)
            for i in (0, 2):
                eff = povm.effects[i]
                home = proj[np.argmax(np.real(np.einsum("kab,ba->k", proj, eff)))]
                res_f = np.linalg.norm(eff - home @ eff @ home)
                eff_f = np.linalg.norm(eff)
                assert res_f > 1e-8 * eff_f / np.sqrt(d) and res_f / np.sqrt(d) <= 1e-8 * eff_f
            cert = certify_optimal(rho, povm)
            reason = cert.reason if cert.failing_outcome is not None else None
            assert (cert.failing_outcome, reason) == certify_svd_reference(rho, povm)
            assert cert.optimal == (factor < 1.0)

def test_tensor_decompose_product_state():
    rng = np.random.default_rng(9)
    ra = random_density(rng, (2,))
    rb = random_density(rng, (3,))
    rho = DensityMatrix(np.kron(ra.mat, rb.mat), (2, 3))
    povms = [random_povm(rng, 2, 3), random_povm(rng, 3, 4)]
    dec = tensor_oe_decompose(rho, povms, FULL2)
    assert dec.mutual_information_bits == pytest.approx(0.0, abs=1e-9)
    assert dec.total_bits == pytest.approx(sum(dec.marginal_bits), abs=1e-9)


def test_tensor_decompose_bell():
    povms = [Povm.from_basis(np.eye(2, dtype=complex))] * 2
    dec = tensor_oe_decompose(bell(), povms, FULL2)
    assert dec.marginal_bits == (pytest.approx(1.0), pytest.approx(1.0))
    assert dec.mutual_information_bits == pytest.approx(1.0)
    assert dec.total_bits == pytest.approx(1.0)


def test_tensor_decompose_matches_joint_entropy():
    rng = np.random.default_rng(10)
    rho = random_density(rng, (2, 3))
    povms = [random_povm(rng, 2, 3), random_povm(rng, 3, 3)]
    dec = tensor_oe_decompose(rho, povms, FULL2)
    joint = observational_entropy(rho, lo_povm(povms, FULL2, (2, 3)))
    assert dec.total_bits == pytest.approx(joint, abs=1e-9)


def test_tensor_decompose_cc_state():
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    rho = DensityMatrix(np.diag(probs).astype(complex), (2, 2))
    povms = [Povm.from_basis(np.eye(2, dtype=complex))] * 2
    dec = tensor_oe_decompose(rho, povms, FULL2)
    assert dec.total_bits == pytest.approx(von_neumann(rho), abs=1e-9)


def cq_protocol():
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return ConditionalMeasurement(
        (0,),
        Povm.from_basis(z),
        (
            ConditionalMeasurement((1,), Povm.from_basis(z), None),
            ConditionalMeasurement((1,), Povm.from_basis(x), None),
        ),
    )


def chain_reference(protocol, rho) -> float:
    """The chain rule S = S_first(rho_block) + sum_i p_i S_followup(rho_i on the rest), node by node.

    Each follow-up sees the conditional state of the subsystems not yet
    measured, so a subsystem that a path never measures is traced out and
    adds no volume.
    """

    def chain(node, mat, dims, live):
        pos = tuple(live.index(b) for b in node.block)
        reduced = partial_trace(mat, dims, pos)
        p_block = np.clip(np.real(np.einsum("iab,ba->i", node.povm.effects, reduced)), 0.0, None)
        total = entropy_from_stats(p_block, node.povm.volumes())
        if node.then is None:
            return total
        rest = tuple(j for j in range(len(dims)) if j not in pos)
        for effect, child in zip(node.povm.effects, node.then):
            p_i, cond = conditional_reference(mat, dims, pos, effect)
            if p_i > 1e-14:
                total += p_i * chain(child, cond, tuple(dims[j] for j in rest), tuple(live[j] for j in rest))
        return total

    return chain(protocol, rho.mat, rho.dims, tuple(range(len(rho.dims))))


def test_chain_entropy_cq_example():
    rho = cq_example().state
    assert chain_entropy(cq_protocol(), rho) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann(rho) == pytest.approx(1.0, abs=1e-12)


def test_chain_entropy_unconditional_matches_tensor():
    rng = np.random.default_rng(11)
    rho = random_density(rng, (2, 2))
    ma = haar_basis_povm(rng, 2)
    mb = haar_basis_povm(rng, 2)
    protocol = ConditionalMeasurement(
        (0,), ma, tuple(ConditionalMeasurement((1,), mb, None) for _ in range(2))
    )
    joint = observational_entropy(rho, lo_povm([ma, mb], FULL2, (2, 2)))
    assert chain_entropy(protocol, rho) == pytest.approx(joint, abs=1e-9)


def w3_paper_protocol():
    """First qubit measured with |alpha|^2 = 1/3, then Schmidt-basis follow-ups."""
    from oegap.core import dagger, embed, partial_trace

    a, b = math.sqrt(1 / 3), math.sqrt(2 / 3)
    u = np.array([[a, b], [b, -a]], dtype=complex)
    first = Povm.from_basis(u)
    w3 = w(3)
    children = []
    for i in range(2):
        eff = embed(first.effects[i], (0,), (2, 2, 2))
        p = float(np.real(np.trace(eff @ w3.mat)))
        cond = partial_trace(eff @ w3.mat, (2, 2, 2), (1, 2)) / p
        cond = 0.5 * (cond + dagger(cond))
        red_b = partial_trace(cond, (2, 2), (0,))
        _, vb = np.linalg.eigh(red_b)
        basis_b = vb[:, ::-1].copy()
        grandchildren = []
        for jb in range(2):
            proj = embed(np.outer(basis_b[:, jb], basis_b[:, jb].conj()), (0,), (2, 2))
            pj = float(np.real(np.trace(proj @ cond)))
            if pj > 1e-14:
                cond_c = partial_trace(proj @ cond, (2, 2), (1,)) / pj
                cond_c = 0.5 * (cond_c + dagger(cond_c))
            else:
                cond_c = np.eye(2) / 2
            _, vc = np.linalg.eigh(cond_c)
            grandchildren.append(
                ConditionalMeasurement((2,), Povm.from_basis(vc[:, ::-1].copy()), None)
            )
        children.append(
            ConditionalMeasurement((1,), Povm.from_basis(basis_b), tuple(grandchildren))
        )
    return ConditionalMeasurement((0,), first, tuple(children))


def test_chain_entropy_w3_paper_protocol():
    # oracle: H(p) + sum_i p_i * (entanglement entropy of the conditional BC state)
    a = 1 / 3
    p0, p1 = 4 / 9, 5 / 9
    # conditional BC vectors, unnormalized amplitudes in basis (00, 01, 10, 11)
    u0 = np.array([math.sqrt(2 / 3), math.sqrt(1 / 3), math.sqrt(1 / 3), 0]) / math.sqrt(3)
    u1 = np.array([-math.sqrt(1 / 3), math.sqrt(2 / 3), math.sqrt(2 / 3), 0]) / math.sqrt(3)
    expected = shannon_oracle([p0, p1])
    for p, vec in ((p0, u0), (p1, u1)):
        psi = vec / np.linalg.norm(vec)
        svals = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        expected += p * shannon_oracle(svals**2)
    assert expected == pytest.approx(1.549737847, abs=1e-8)
    assert abs(expected - 1.550) < 1e-3  # the paper quotes ~1.550
    value = chain_entropy(w3_paper_protocol(), w(3))
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(chain_reference(w3_paper_protocol(), w(3)), abs=1e-12)


def test_chain_entropy_counts_unmeasured_subsystem():
    # A, then C: B is never measured, so every flattened effect carries B's identity
    rng = np.random.default_rng(23)
    dims = (2, 2, 2)
    protocol = ConditionalMeasurement(
        (0,),
        random_povm(rng, 2, 2),
        tuple(ConditionalMeasurement((2,), haar_basis_povm(rng, 2)) for _ in range(2)),
    )
    rho = random_density(np.random.default_rng(24), dims)
    value = chain_entropy(protocol, rho)
    assert value == pytest.approx(observational_entropy(rho, flatten_locc(protocol, dims)), abs=1e-12)
    # the chain rule traces B out; its identity adds log2 d_B = 1 bit
    assert value - chain_reference(protocol, rho) == pytest.approx(1.0, abs=1e-12)


def test_chain_entropy_missing_followup_rejected():
    from oegap.core import ValidationError

    z = Povm.from_basis(np.eye(2, dtype=complex))
    with pytest.raises(ValidationError):
        ConditionalMeasurement((0,), z, (ConditionalMeasurement((1,), z, None),))
