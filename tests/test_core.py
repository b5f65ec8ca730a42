"""Core types and linear algebra, checked against independent oracles."""

import numpy as np
import pytest

from helpers import pt_oracle, random_density, random_povm, random_pure, random_unitary
from oegap.core import (
    DensityMatrix,
    PartitionSpec,
    Povm,
    ValidationError,
    _frame_povm,
    dagger,
    is_hermitian,
    opnorm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    schmidt,
    spectral,
    tensor,
    validate_povm,
    validate_state,
)
from oegap.states import symmetric_projectors, w_vector

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_tensor_identity():
    assert np.allclose(tensor([np.eye(2), np.eye(2)]), np.eye(4))


def test_tensor_basis_projector():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01><01|
    assert np.allclose(tensor([p0, p1]), expected)


def test_tensor_flip_to_11():
    # oracle: direct 4x4 multiplication of the explicit matrix against |00>
    direct = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            direct[(1 - a) * 2 + (1 - b), a * 2 + b] = 1.0
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(direct @ v00, [0, 0, 0, 1])
    assert np.allclose(tensor([SX, SX]) @ v00, direct @ v00)


def test_tensor_empty_rejected():
    with pytest.raises(ValidationError):
        tensor([])


def test_tensor_associativity():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor([tensor([a, b]), c]), tensor([a, b, c]), atol=1e-12)


def test_partial_trace_bell():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2)


def test_partial_trace_product():
    rng = np.random.default_rng(5)
    ra = random_density(rng, (2,)).mat
    rb = random_density(rng, (3,)).mat
    assert np.allclose(partial_trace(np.kron(ra, rb), (2, 3), [0]), ra)
    assert np.allclose(partial_trace(np.kron(ra, rb), (2, 3), [1]), rb)


def test_partial_trace_w3_marginal():
    # oracle: expand W3 amplitudes and sum |c|^2 by first-qubit value
    v = w_vector(3)
    diag0 = sum(abs(v[i]) ** 2 for i in range(8) if not i & 0b100)
    diag1 = sum(abs(v[i]) ** 2 for i in range(8) if i & 0b100)
    assert diag0 == pytest.approx(2 / 3)
    rho = np.outer(v, v.conj())
    red = partial_trace(rho, (2, 2, 2), [0])
    assert np.allclose(red, np.diag([diag0, diag1]))
    assert np.allclose(red, np.diag([2 / 3, 1 / 3]))


def test_partial_trace_of_tensor_scales_by_partner_traces():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(partial_trace(np.kron(a, b), (2, 3), [0]), a * np.trace(b))
    assert np.allclose(partial_trace(np.kron(a, b), (2, 3), [1]), b * np.trace(a))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    rho = random_density(rng, (2, 3, 2)).mat
    for keep in ([0], [1], [2], [0, 2]):
        assert np.trace(partial_trace(rho, (2, 3, 2), keep)) == pytest.approx(1.0)


def test_partial_trace_index_errors():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(4), (2, 2), [2])
    with pytest.raises(ValidationError):
        partial_trace(np.eye(4), (2, 3), [0])


def test_partial_transpose_product_rule():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(partial_transpose(np.kron(a, b), (2, 3), [1]), np.kron(a, b.T))


def test_partial_transpose_bell_negative():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    # oracle: explicit index-swapped matrix, then eigensolve
    oracle = pt_oracle(rho, 2, 2, on_second=True)
    assert np.linalg.eigvalsh(oracle)[0] == pytest.approx(-0.5)
    assert np.allclose(partial_transpose(rho, (2, 2), [1]), oracle)


def test_partial_transpose_symmetric_projector_psd():
    plus, _ = symmetric_projectors(2)
    oracle = pt_oracle(plus, 2, 2)
    assert np.linalg.eigvalsh(oracle)[0] >= -1e-12
    pt = partial_transpose(plus, (2, 2), [1])
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_involutive_trace_preserving():
    rng = np.random.default_rng(8)
    rho = random_density(rng, (2, 2)).mat
    pt = partial_transpose(rho, (2, 2), [0])
    assert np.trace(pt) == pytest.approx(np.trace(rho))
    assert np.allclose(partial_transpose(pt, (2, 2), [0]), rho)


def test_permute_subsystems_roundtrip():
    rng = np.random.default_rng(9)
    rho = random_density(rng, (2, 3, 2)).mat
    perm = permute_subsystems(rho, (2, 3, 2), (2, 0, 1))
    back = permute_subsystems(perm, (2, 2, 3), (1, 2, 0))
    assert np.allclose(back, rho)


def test_spectral_scalar_matrix():
    spec = spectral(np.eye(4) / 4)
    assert spec.eigenvalues == (pytest.approx(0.25),)
    assert np.allclose(spec.projectors[0], np.eye(4))


def test_spectral_werner_projectors():
    # oracle: build the flip operator explicitly and form projectors from it
    d = 2
    f = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            f[i * 2 + j, j * 2 + i] = 1
    plus, minus = 0.5 * (np.eye(4) + f), 0.5 * (np.eye(4) - f)
    lam = 0.9
    rho = 0.1 * plus / 3 + 0.9 * minus / 1
    spec = spectral(rho)
    assert np.allclose(spec.eigenvalues, [0.9, 0.1 / 3])
    assert np.allclose(spec.projectors[0], minus, atol=1e-9)
    assert np.allclose(spec.projectors[1], plus, atol=1e-9)


def test_spectral_rank_two_plus_kernel():
    v1 = np.array([1, 0, 0, 0], dtype=complex)
    v2 = np.array([0, 0, 1, 1], dtype=complex) / np.sqrt(2)
    rho = 0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj())
    spec = spectral(rho)
    nonzero = [lam for lam in spec.eigenvalues if lam > 1e-12]
    assert len(nonzero) == 1 and spec.multiplicities[0] == 2  # both eigenvalues are 1/2
    assert sum(nonzero[0] * m for m in [spec.multiplicities[0]]) == pytest.approx(1.0)


def test_spectral_reconstruction_and_orthogonality():
    rng = np.random.default_rng(11)
    rho = random_density(rng, (2, 2)).mat
    spec = spectral(rho)
    assert np.linalg.norm(spec.reconstruct() - rho, 2) < 1e-9
    for i, pi in enumerate(spec.projectors):
        for j, pj in enumerate(spec.projectors):
            ref = pi if i == j else np.zeros_like(pi)
            assert np.linalg.norm(pi @ pj - ref, 2) < 1e-9


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        spectral(np.array([[0, 1], [0, 0]], dtype=complex))


def test_schmidt_product_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    coeffs, _, _ = schmidt(v, (2, 2), [0])
    assert np.allclose(coeffs, [1.0])


def test_schmidt_bell():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    coeffs, left, right = schmidt(phi, (2, 2), [0])
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2)
    rebuilt = sum(c * np.kron(left[:, k], right[:, k]) for k, c in enumerate(coeffs))
    assert np.allclose(np.abs(rebuilt @ phi.conj()), 1.0)


def test_schmidt_w3_split():
    # oracle: singular values of the explicit 2x4 amplitude matrix
    v = w_vector(3)
    svals = np.linalg.svd(v.reshape(2, 4), compute_uv=False)
    assert np.allclose(np.sort(svals**2)[::-1], [2 / 3, 1 / 3])
    coeffs, _, _ = schmidt(v, (2, 2, 2), [0])
    assert np.allclose(coeffs**2, [2 / 3, 1 / 3])


def test_schmidt_matches_reduced_eigenvalues():
    rng = np.random.default_rng(12)
    psi = random_pure(rng, (2, 3))
    coeffs, _, _ = schmidt(psi.pure_vector(), (2, 3), [0])
    eigs = np.sort(np.linalg.eigvalsh(psi.reduced([0]).mat))[::-1]
    assert np.allclose(coeffs**2, eigs[: len(coeffs)], atol=1e-10)


def test_schmidt_reconstructs_complex_state():
    rng = np.random.default_rng(13)
    psi = random_pure(rng, (3, 2)).pure_vector()
    coeffs, left, right = schmidt(psi, (3, 2), [0])
    rebuilt = sum(c * np.kron(left[:, k], right[:, k]) for k, c in enumerate(coeffs))
    assert np.allclose(rebuilt, psi, atol=1e-10)
    for side in (left, right):
        gram = side.conj().T @ side
        assert np.allclose(gram, np.eye(side.shape[1]), atol=1e-10)


def test_schmidt_zero_vector_rejected():
    with pytest.raises(ValidationError):
        schmidt(np.zeros(4), (2, 2), [0])


def test_validate_state_reports():
    assert validate_state(np.eye(2) / 2) == []
    report = validate_state(np.eye(2))
    assert any("trace" in r for r in report)
    report = validate_state(np.array([[0.9, 0.3], [0.1, 0.1]]))
    assert any("Hermitian" in r for r in report)


def test_validate_povm_reports():
    assert validate_povm([np.eye(2)]) == []  # the trivial measurement is valid
    report = validate_povm([np.eye(2), np.eye(2)])
    assert any("completeness violation of norm 1" in r for r in report)


SKEW = np.array([[0.5, 0.2], [0.0, 0.5]])
SKEW_NEG = np.array([[-0.1, 0.3], [0.0, 0.5]])


@pytest.mark.parametrize(
    "effects, expected",
    [
        pytest.param(
            [SKEW, np.eye(2) - SKEW],
            [
                "effect 0 not Hermitian: relative asymmetry 2.000e-01",
                "effect 1 not Hermitian: relative asymmetry 2.000e-01",
            ],
            id="non-hermitian",
        ),
        pytest.param(
            [np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])],
            ["effect 1 not PSD: min eigenvalue -2.000e-01"],
            id="non-psd",
        ),
        pytest.param(
            [SKEW_NEG, np.eye(2) - SKEW_NEG],
            [
                "effect 0 not Hermitian: relative asymmetry 3.000e-01",
                "effect 0 not PSD: min eigenvalue -1.354e-01",
                "effect 1 not Hermitian: relative asymmetry 2.610e-01",
            ],
            id="non-hermitian-and-non-psd",
        ),
        pytest.param(
            [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])],
            ["completeness violation of norm 5.000e-01"],
            id="incomplete",
        ),
        pytest.param(
            [SKEW, np.eye(3), np.eye(2)],
            [
                "effect 0 not Hermitian: relative asymmetry 2.000e-01",
                "effect 1 has dimension 3, expected 2",
            ],
            id="mismatched-dimension",
        ),
        pytest.param([], ["POVM has no effects"], id="empty"),
        pytest.param(
            [np.eye(2), np.array([[np.nan, 0.0], [0.0, 0.0]])],
            ["matrix contains NaN or Inf entries"],
            id="nan",
        ),
    ],
)
def test_validate_povm_problem_lists(effects, expected):
    assert validate_povm(effects) == expected
    if effects and len({np.shape(e) for e in effects}) == 1:
        assert validate_povm(np.array(effects)) == expected  # the stack Povm passes in


def validate_povm_reference(effects):
    """The POVM checks effect by effect, one LAPACK call at a time."""
    problems = []
    d = effects[0].shape[0]
    for i, e in enumerate(effects):
        scale = max(1.0, np.linalg.norm(e, 2))
        herm = np.linalg.norm(e - e.conj().T, 2) / scale
        if herm > 1e-9:
            problems.append(f"effect {i} not Hermitian: relative asymmetry {herm:.3e}")
        low = np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0]
        if low < -1e-9 * scale:
            problems.append(f"effect {i} not PSD: min eigenvalue {low:.3e}")
    gap = np.linalg.norm(sum(effects) - np.eye(d), 2)
    if gap > 1e-9:
        problems.append(f"completeness violation of norm {gap:.3e}")
    return problems


@pytest.mark.parametrize("size", [0.0, 3e-10, 1e-9, 3e-9, 1e-6])
def test_validate_povm_matches_effect_by_effect_reference(size):
    # random POVMs: the even effects get asymmetric noise, the last one a
    # minimum eigenvalue of -size, both near the tolerances
    from helpers import random_povm

    rng = np.random.default_rng(41)
    for d, k in ((2, 2), (3, 4), (4, 6), (8, 3), (16, 5)):
        effects = random_povm(rng, d, k).effects.copy()
        effects[::2] += size * rng.normal(size=effects[::2].shape)
        effects[-1] -= (np.linalg.eigvalsh(effects[-1])[0] + size) * np.eye(d)
        assert validate_povm(effects) == validate_povm_reference(effects)


def _scaled_case(rng, d, factor, asymmetric=False, indefinite=False):
    """A matrix of norm 3 to 10, off Hermitian or PSD by ``factor`` times the tolerance scaled by its norm.

    ``asymmetric`` adds an anti-Hermitian part with ||A - A^dag|| = factor *
    1e-9 * ||A||; ``indefinite`` sets the least eigenvalue to -factor * 1e-9
    * ||A||; with neither the matrix is Hermitian and PSD.
    """
    s = rng.uniform(3.0, 10.0)
    vals = np.concatenate([[s], rng.uniform(0.0, s, size=d - 1)])
    if indefinite:
        vals[-1] = -factor * 1e-9 * s
    u = random_unitary(rng, d)
    a = (u * vals) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    if asymmetric:
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        n = x - x.conj().T
        a = a + 0.5 * factor * 1e-9 * s * n / np.linalg.norm(n, 2)
    return a


def test_validate_povm_matches_reference_on_scaled_effects():
    # stacks of effects of norm 3 to 10, where the tolerances scale with the norm:
    # at 0.5x no effect fails, at 2x effects 1 to 3 do, with magnitudes relative to
    # the norm; at 1x each effect falls on either side, as the reference decides
    rng = np.random.default_rng(61)
    for d in (2, 3, 4, 8, 16):
        for factor in (0.5, 1.0, 2.0):
            effects = np.array(
                [
                    _scaled_case(rng, d, factor),
                    _scaled_case(rng, d, factor, asymmetric=True),
                    _scaled_case(rng, d, factor, indefinite=True),
                    _scaled_case(rng, d, factor, asymmetric=True, indefinite=True),
                ]
            )
            got = validate_povm(effects)
            assert got == validate_povm_reference(effects)
            per_effect = [p for p in got if p.startswith("effect")]
            if factor == 0.5:
                assert per_effect == []
            if factor == 2.0:
                assert [p.split(":")[0] for p in per_effect] == [
                    "effect 1 not Hermitian",
                    "effect 2 not PSD",
                    "effect 3 not Hermitian",
                    "effect 3 not PSD",
                ]
                assert per_effect[0] == "effect 1 not Hermitian: relative asymmetry 2.000e-09"


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_validate_povm_completeness_matches_reference(factor):
    # a completeness violation of spectral norm factor * 1e-9, of rank 1 or a
    # multiple of the identity: validation bounds it by d times its largest
    # |entry|, which at d = 16 exceeds the tolerance, so the spectral norm decides
    rng = np.random.default_rng(79)
    for d, k in ((2, 3), (4, 4), (16, 5)):
        effects = random_povm(rng, d, k).effects.copy()
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rank1 = effects.copy()
        rank1[-1] += factor * 1e-9 * np.outer(v, v.conj()) / np.vdot(v, v).real
        full = effects.copy()
        full[-1] += factor * 1e-9 * np.eye(d)
        for stack in (rank1, full):
            got = validate_povm(stack)
            assert got == validate_povm_reference(stack)
            if factor != 1.0:
                assert bool(got) == (factor > 1.0)


def _frame_effects(q: np.ndarray) -> np.ndarray:
    """The dyads |q_i^*><q_i^*| of a frame's rows, one outer product at a time."""
    return np.array([np.outer(row.conj(), row) for row in q])


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (9, 4)], ids=str)
@pytest.mark.parametrize("off", [0.5e-9, 1e-8])
def test_frame_povm_decides_a_frame_as_validate_povm_decides_its_effects(shape, off):
    # one column stretched and the whole frame scaled: ||Q^dag Q - 1|| is 0.5e-9 (accepted
    # by the spectral norm, though d max |X_ij| exceeds the tolerance) or 1e-8 (rejected)
    rng = np.random.default_rng(83)
    m, d = shape
    base = random_unitary(rng, m)[:, :d]
    stretched = base.copy()
    stretched[:, 0] *= np.sqrt(1 + off)
    for q in (stretched, np.sqrt(1 + off) * base):
        rejected = bool(validate_povm(_frame_effects(q)))
        assert rejected == (off > 1e-9)
        if rejected:
            what = "not unitary" if m == d else "not an isometry"
            with pytest.raises(ValidationError, match=f"{what}: completeness violation"):
                _frame_povm(q)
        else:
            assert np.array_equal(_frame_povm(q).effects, _frame_effects(q))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
def test_frame_povm_rejects_a_non_finite_row(bad):
    rng = np.random.default_rng(89)
    good = random_unitary(rng, 4)[:, :2]
    q = good.copy()
    q[1] = [bad, 0.0]
    with pytest.raises(ValidationError, match="NaN or Inf"):
        _frame_povm(q)
    with pytest.raises(ValidationError, match="NaN or Inf"):  # among good frames too
        _frame_povm([good, q, good])


def test_frame_povm_drops_zero_rows_and_checks_each_frame_of_a_list():
    rng = np.random.default_rng(97)
    u = random_unitary(rng, 3)
    padded = np.vstack([dagger(u)[:1], np.zeros((1, 3)), dagger(u)[1:], 1e-8 * np.ones((1, 3))])
    povm = _frame_povm(padded)
    assert povm.n_outcomes == 3 and np.array_equal(povm.effects, Povm.from_basis(u).effects)
    frames = [random_unitary(rng, 4)[:, :2], dagger(u), padded, random_unitary(rng, 4)[:, :2]]
    together = _frame_povm(frames)
    assert [p.n_outcomes for p in together] == [4, 3, 3, 4]
    for alone, p in zip(frames, together):
        assert np.array_equal(_frame_povm(alone).effects, p.effects)
    bent = frames[-1] * np.sqrt(1 + 1e-8)
    with pytest.raises(ValidationError, match="not an isometry"):
        _frame_povm(frames[:-1] + [bent])
    # a dropped row is no outcome, so it cannot make up a completeness deficit either:
    # the kept row falls 1.000005e-9 short, and the dropped one would add 1e-14
    short = np.array([[np.sqrt(1 - 1e-9 - 5e-15)], [1e-7]], dtype=complex)
    assert validate_povm(_frame_effects(short[:1]))
    with pytest.raises(ValidationError, match="not an isometry"):
        _frame_povm(short)


def test_from_basis_rejects_a_basis_that_is_not_unitary():
    with pytest.raises(ValidationError, match="not unitary"):
        Povm.from_basis(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="not unitary"):
        Povm.from_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))  # a zero column: one outcome short


def test_validate_povm_matches_reference_outside_the_gram_range():
    # effects whose Gram matrices overflow or underflow get the SVD's norms
    p = np.diag([1.0, 0.0, 0.0])
    skew = np.zeros((3, 3))
    skew[0, 1] = 1.0
    for effects in (
        [1e200 * p, np.eye(3) - 1e200 * p],
        [1e160 * (p + skew), np.eye(3)],
        [1e-170 * (p + skew), np.eye(3)],
        [np.eye(3) - 1e-170 * skew, 1e-170 * skew],
    ):
        assert validate_povm(effects) == validate_povm_reference(effects)


def validate_state_reference(a):
    """The state checks with the spectral norm from an SVD."""
    problems = []
    scale = max(1.0, np.linalg.norm(a, 2))
    herm = np.linalg.norm(a - a.conj().T, 2) / scale
    if herm > 1e-9:
        problems.append(f"not Hermitian: relative asymmetry {herm:.3e}")
    low = np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0]
    if low < -1e-9 * scale:
        problems.append(f"not positive semidefinite: min eigenvalue {low:.3e}")
    tr = abs(np.trace(a) - 1.0)
    if tr > 1e-10:
        problems.append(f"trace differs from 1 by {tr:.3e}")
    return problems


@pytest.mark.parametrize(
    "asymmetric, indefinite",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["valid", "asymmetric", "indefinite", "both"],
)
def test_validate_state_and_is_hermitian_match_svd_reference(asymmetric, indefinite):
    # matrices of norm 3 to 10 and their unit-trace rescalings, of norm below 1
    rng = np.random.default_rng(67)
    for d in (2, 3, 4, 8, 16):
        for factor in (0.5, 1.0, 2.0):
            a = _scaled_case(rng, d, factor, asymmetric, indefinite)
            for mat in (a, a / np.trace(a).real):
                assert validate_state(mat) == validate_state_reference(mat)
                scale = max(1.0, np.linalg.norm(mat, 2))
                assert is_hermitian(mat) == (np.linalg.norm(mat - mat.conj().T, 2) <= 1e-9 * scale)
            if factor != 1.0:
                assert is_hermitian(a) == (not asymmetric or factor < 1.0)
                assert any("positive" in p for p in validate_state(a)) == (indefinite and factor > 1.0)


def test_opnorm_matches_svd_norm():
    rng = np.random.default_rng(71)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    g = rand(5, 5)
    v = rand(6)
    mats = {
        "non-hermitian": g,
        "hermitian": g + g.conj().T,
        "rank-1": np.outer(v, rand(6).conj()),
        "zero": np.zeros((4, 4), dtype=complex),
        "1x1": rand(1, 1),
        "16x16": rand(16, 16),
        "tall": rand(7, 3),
        "wide": rand(3, 7),
        "real": rng.normal(size=(6, 6)),
        "tiny": 1e-200 * g,
        "large": 1e150 * g,
        "huge": 1e300 * g,
    }
    for name, a in mats.items():
        want = np.linalg.norm(a, 2)
        got = opnorm(a)
        assert isinstance(got, float), name
        assert abs(got - want) <= 1e-12 * want, name
    stack = rand(3, 2, 5, 5)
    stack[0, 1] = 0.0
    stack[1, 0] *= 1e-200  # rescaled alone, the rest of the stack as it is
    want = np.linalg.norm(stack, 2, axis=(-2, -1))
    got = opnorm(stack)
    assert got.shape == (3, 2) and np.all(np.abs(got - want) <= 1e-12 * want)
    assert got[0, 1] == 0.0


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4), (2, 2))
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 5.0  # stored matrix is read-only


def test_density_matrix_rejects_what_validate_state_reports_with_its_messages(monkeypatch):
    # the scaled cases of the validate_state reference test and their unit-trace
    # rescalings, plus matrices whose asymmetry or least eigenvalue lies between
    # half the tolerance and the tolerance, which validate_state itself decides
    rng = np.random.default_rng(89)
    checked = []

    def spy(mat, dims=None):
        checked.append(mat.shape[0])
        return validate_state(mat, dims)

    monkeypatch.setattr("oegap.core.validate_state", spy)
    mats = []
    for d in (2, 3, 4, 8, 16):
        for factor in (0.5, 1.0, 2.0):
            for asymmetric in (False, True):
                for indefinite in (False, True):
                    a = _scaled_case(rng, d, factor, asymmetric, indefinite)
                    mats += [a, a / np.trace(a).real]
        rho = random_density(rng, (d,)).mat
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        skew = x - x.conj().T
        np.fill_diagonal(skew, 0.0)
        skew *= 0.375e-9 / d / np.abs(skew).max()
        vals, vecs = np.linalg.eigh(rho)
        vals = np.concatenate([[-0.75e-9], vals[1:] * (1 + 0.75e-9) / vals[1:].sum()])
        banded = [rho + skew, (vecs * vals) @ vecs.conj().T]  # d max |A - A^dag|, least eigenvalue
        assert all(validate_state(m) == [] for m in banded)
        checked.clear()
        DensityMatrix(rho, (d,))
        assert checked == []  # a clean state passes on the bounds alone
        for m in banded:
            DensityMatrix(m, (d,))
        assert checked == [d, d]
        mats += banded
    accepted = 0
    for mat in mats:
        problems = validate_state(mat)
        d = mat.shape[0]
        if problems:
            with pytest.raises(ValidationError) as err:
                DensityMatrix(mat, (d,))
            assert str(err.value) == "invalid state: " + "; ".join(problems)
        else:
            rho = DensityMatrix(mat, (d,))
            accepted += 1
            assert np.array_equal(rho.mat, mat)
            want = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            assert np.max(np.abs(rho.eigenvalues - want)) <= 1e-12
            h = 0.5 * (mat + mat.conj().T)
            vecs = rho.eigenvectors
            assert np.allclose(h @ vecs, vecs * rho.eigenvalues, atol=1e-12)
    assert accepted >= 30
    with pytest.raises(ValidationError, match="invalid state: dimension 512 exceeds"):
        DensityMatrix(np.eye(512) / 512, (512,))


def test_density_matrix_decomposition_is_read_only():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    assert np.array_equal(rho.eigenvalues, [0.25, 0.75])
    for arr in (rho.eigenvalues, rho.eigenvectors):
        with pytest.raises(ValueError):
            arr[0] = 5.0


@pytest.mark.parametrize(
    "effects, message",
    [
        (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.ones((3, 2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.ones((1, 1, 2, 2)), "expected a square matrix, got shape (1, 2, 2)"),
        (np.ones((2,)), "expected a square matrix, got shape ()"),
        (np.ones(()), "expected a square matrix, got shape ()"),
        (np.ones((0,)), "POVM has no effects"),
        ([np.eye(2), np.eye(3)], "effect 1 has dimension 3, expected 2"),
        (np.zeros((2, 0, 0)), "effects have dimension 0"),
    ],
    ids=["one-2x3", "stack-2x3", "4-d", "1-d", "scalar", "empty", "unequal-dims", "dimension-0"],
)
def test_povm_rejects_effects_that_are_not_square_matrices(effects, message):
    # validate_povm is the one shape check: Povm only turns a single matrix into a stack
    with pytest.raises(ValidationError) as err:
        Povm(effects)
    assert str(err.value) == f"invalid POVM: {message}"


def test_povm_projective_flag():
    basis = Povm.from_basis(np.eye(2, dtype=complex))
    assert basis.is_projective()
    rng = np.random.default_rng(13)
    from helpers import random_povm

    assert not random_povm(rng, 2, 3).is_projective()


def is_projective_reference(effects):
    """The projectivity check pair by pair, with the spectral norm from an SVD."""
    return all(
        np.linalg.norm(a @ b - (a if i == j else 0.0), 2) <= 1e-8
        for i, a in enumerate(effects)
        for j, b in enumerate(effects)
    )


def _nearly_projective(rng, d, eps):
    """Projectors onto a random rank-2 subspace and its complement, eps of a unit vector moved across.

    With P the rank-2 projector, u a unit vector in its range and Q = 1 - P,
    the effects P - eps uu^dag and Q + eps uu^dag form a POVM whose largest
    ||M_i M_j - delta_ij M_i|| is eps (1 - eps).
    """
    u = random_unitary(rng, d)
    p = u[:, :2] @ u[:, :2].conj().T
    w = u[:, 0] * np.cos(0.3) + u[:, 1] * np.sin(0.3)
    move = eps * np.outer(w, w.conj())
    return [p - move, np.eye(d) - p + move]


def test_is_projective_matches_pairwise_reference():
    # TOL_PROJECTIVE = 1e-8: projective at 0.5x the tolerance, not at 2x
    rng = np.random.default_rng(73)
    cases = [
        (Povm.from_basis(np.eye(4, dtype=complex)), True),
        (Povm.from_basis(random_unitary(rng, 4)), True),
        (random_povm(rng, 4, 3), False),
        (random_povm(rng, 4, 5), False),
        (Povm(np.array(_nearly_projective(rng, 4, 0.5e-8))), True),
        (Povm(np.array(_nearly_projective(rng, 4, 2e-8))), False),
    ]
    basis = random_unitary(rng, 4)
    # the failing pair in the last row only: a basis whose last effect is split in two
    last = np.outer(basis[:, 3], basis[:, 3].conj())
    split = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)] + [0.5 * last, 0.5 * last]
    cases.append((Povm(np.array(split)), False))
    for povm, want in cases:
        assert povm.is_projective() == want
        assert is_projective_reference(povm.effects) == want


def test_povm_unknown_tag_rejected():
    with pytest.raises(ValidationError):
        Povm(np.eye(2)[None, :, :], ("a",), "NotAClass")


def test_povm_retag_checks_only_the_tag(monkeypatch):
    povm = Povm.from_basis(np.eye(2, dtype=complex))

    def fail(effects):
        raise AssertionError("retag re-validated the effects")

    monkeypatch.setattr("oegap.core.validate_povm", fail)
    sep = povm.retag("SEP")
    assert sep.class_tag == "SEP" and povm.class_tag == "General"
    assert sep.labels == povm.labels
    assert np.array_equal(sep.effects, povm.effects)
    with pytest.raises(ValueError):
        sep.effects[0, 0, 0] = 5.0  # still read-only
    with pytest.raises(ValidationError, match="unknown class tag"):
        povm.retag("NotAClass")


def test_partition_spec_validation():
    with pytest.raises(ValidationError):
        PartitionSpec(((0, 1), (1, 2)))
    with pytest.raises(ValidationError):
        PartitionSpec(((0,), (2,)))
    part = PartitionSpec.from_string("AC|BD", 4)
    assert part.blocks == ((0, 2), (1, 3))
    assert str(part) == "AC|BD"
    assert part.shape_string() == "2+2"
    assert PartitionSpec.from_string("", 3).n_blocks == 3


def test_partition_refines():
    fine = PartitionSpec.full(4)
    coarse = PartitionSpec.from_string("AB|CD", 4)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(PartitionSpec.single(4))


def test_dimension_cap():
    report = validate_state(np.eye(512) / 512)
    assert any("cap" in r for r in report)
