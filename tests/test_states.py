"""State catalog and channels."""

import numpy as np
import pytest

from oegap.core import DensityMatrix, ValidationError, validate_state
from oegap.entropy import von_neumann
from oegap.states import (
    CATALOG,
    bell,
    cq_example,
    cq_example_pure,
    dephase_local,
    depolarize,
    domino_basis,
    domino_state,
    flip_operator,
    from_catalog,
    ghz,
    tiles_upb,
    tiles_upb_state,
    trine_cq,
    two_bell,
    twirl_uu,
    twirl_uu_state,
    w,
    werner,
    werner_mixed_point,
)


def test_catalog_states_pass_validation():
    samples = [
        bell(),
        ghz(3),
        ghz(4),
        w(2),
        w(4),
        werner(2, 0.3),
        werner(3, 1.0),
        trine_cq().state,
        cq_example().state,
        cq_example_pure(),
        two_bell(),
        domino_state(),
        tiles_upb_state(),
    ]
    for rho in samples:
        assert validate_state(rho.mat, rho.dims) == []


def test_bell_marginal():
    assert np.allclose(bell().reduced([0]).mat, np.eye(2) / 2)


def test_w3_marginal():
    assert np.allclose(w(3).reduced([0]).mat, np.diag([2 / 3, 1 / 3]))


def test_ghz4_loss_is_classically_correlated():
    red = ghz(4).reduced([0, 1, 2])
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(red.mat, expected)


def test_ghz_requires_two_parties():
    with pytest.raises(ValidationError):
        ghz(1)


def test_werner_mixed_point_is_maximally_mixed():
    for d in (2, 3):
        lam = werner_mixed_point(d)
        assert np.allclose(werner(d, lam).mat, np.eye(d * d) / d**2, atol=1e-12)


def test_werner_extreme_is_normalized_antisymmetric():
    d = 3
    rho = werner(d, 1.0)
    f = flip_operator(d)
    minus = 0.5 * (np.eye(9) - f)
    w_minus = d * (d - 1) / 2
    assert np.allclose(rho.mat, minus / w_minus)


@pytest.mark.parametrize("d,lam", [(2, 0.0), (2, 0.7), (3, 0.4), (4, 1.0)])
def test_werner_flip_expectation(d, lam):
    # oracle: Tr(F Pi_pm) = +-w_pm gives Tr(F rho_lam) = 1 - 2 lam
    rho = werner(d, lam)
    val = float(np.real(np.trace(flip_operator(d) @ rho.mat)))
    assert val == pytest.approx(1 - 2 * lam, abs=1e-10)


def test_werner_out_of_range():
    with pytest.raises(ValidationError):
        werner(2, 1.2)


def test_trine_quantum_marginal_maximally_mixed():
    rho = trine_cq().state
    assert np.allclose(rho.reduced([1]).mat, np.eye(2) / 2, atol=1e-12)


def test_trine_entropy_log3():
    assert von_neumann(trine_cq().state) == pytest.approx(np.log2(3), abs=1e-10)


def test_cq_example_entropy_one_bit():
    # oracle: 4x4 eigensolve
    rho = cq_example().state
    eigs = np.linalg.eigvalsh(rho.mat)
    nonzero = eigs[eigs > 1e-12]
    assert np.allclose(nonzero, [0.5, 0.5])
    assert von_neumann(rho) == pytest.approx(1.0, abs=1e-10)


def test_two_bell_reduced_is_bell():
    red = two_bell().reduced([0, 2])
    assert np.allclose(red.mat, bell().mat)
    red_bd = two_bell().reduced([1, 3])
    assert np.allclose(red_bd.mat, bell().mat)


def test_domino_basis_orthonormal():
    vecs = [np.kron(a, b) for a, b in domino_basis()]
    assert len(vecs) == 9
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(9), atol=1e-12)  # all 81 inner products


def test_domino_state_distinct_weights_required():
    with pytest.raises(ValidationError):
        domino_state(np.ones(9) / 9)


def test_tiles_upb_orthonormal_and_unextendible_kernel():
    vecs = [np.kron(a, b) for a, b in tiles_upb()]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(5), atol=1e-12)
    # kernel projector is PPT (known property of UPB complements)
    from oegap.classes import effect_is_ppt
    from oegap.core import PartitionSpec

    kernel = np.eye(9) - sum(np.outer(v, v.conj()) for v in vecs)
    assert effect_is_ppt(kernel, PartitionSpec.full(2), (3, 3))


def test_dephase_local_superposition_gives_cq_example():
    rho = dephase_local(cq_example_pure(), 0)
    assert np.allclose(rho.mat, cq_example().state.mat, atol=1e-12)


def test_depolarize():
    assert np.allclose(depolarize(bell()).mat, np.eye(4) / 4)


def test_twirl_produces_werner_zero():
    v = np.zeros(4)
    v[0] = 1.0
    rho00 = DensityMatrix(np.outer(v, v), (2, 2))
    assert np.allclose(twirl_uu_state(rho00).mat, werner(2, 0.0).mat, atol=1e-12)


def test_twirl_idempotent_unital_commutes_with_flip():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = g @ g.conj().T
    t1 = twirl_uu(op, 3)
    assert np.allclose(twirl_uu(t1, 3), t1, atol=1e-10)
    assert np.allclose(twirl_uu(np.eye(9), 3), np.eye(9), atol=1e-12)
    f = flip_operator(3)
    assert np.linalg.norm(t1 @ f - f @ t1, 2) < 1e-10


def test_twirl_haar_sample_agreement():
    # oracle: Monte Carlo Haar average approaches the exact commutant projection
    rng = np.random.default_rng(2)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    op = np.outer(v, v.conj())
    acc = np.zeros((4, 4), dtype=complex)
    n = 4000
    for _ in range(n):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        uu = np.kron(u, u)
        acc += uu @ op @ uu.conj().T
    assert np.linalg.norm(acc / n - twirl_uu(op, 2), 2) < 0.05


@pytest.mark.parametrize(
    "name,args,kwargs", [("ghz", (), {}), ("bell", (2,), {}), ("werner", (3,), {}), ("w", (), {"x": 3})]
)
def test_from_catalog_rejects_arguments_that_do_not_fit(name, args, kwargs):
    with pytest.raises(ValidationError, match=f"catalog state '{name}'") as err:
        from_catalog(name, *args, **kwargs)
    assert CATALOG[name][1] in str(err.value)


def test_from_catalog_leaves_builder_errors_alone(monkeypatch):
    # only the signature check turns a TypeError into a ValidationError
    def build(n):
        raise TypeError(f"inside the builder: {n}")

    monkeypatch.setitem(CATALOG, "broken", (build, "broken(n)"))
    with pytest.raises(TypeError, match="inside the builder: 3"):
        from_catalog("broken", 3)


@pytest.mark.parametrize("name, args", [("w", (9,)), ("ghz", (9,)), ("werner", (17, 0.5))])
def test_catalog_sizes_above_the_cap_fail_before_any_array_is_built(monkeypatch, name, args):
    # the states' builders see a numpy whose every function raises when called
    import oegap.states

    class NoArrays:
        def __getattr__(self, attr):
            def build(*args, **kwargs):
                raise AssertionError(f"np.{attr} called before the cap was checked")

            return build

    monkeypatch.setattr(oegap.states, "np", NoArrays())
    with pytest.raises(ValidationError, match=r"invalid state: dimension \d+ exceeds the supported cap of 256"):
        from_catalog(name, *args)


@pytest.mark.parametrize("name, args", [
    ("w", (2.5,)), ("ghz", (True,)), ("ghz", ("3",)), ("werner", (2.5, 0.3)), ("w", (float("nan"),)), ("w", (1,)),
])
def test_catalog_sizes_must_be_integers_of_at_least_2(name, args):
    with pytest.raises(ValidationError, match="must be an integer >= 2"):
        from_catalog(name, *args)


def test_catalog_sizes_read_integral_floats_as_integers():
    for name, args, same in (("w", (3.0,), (3,)), ("ghz", (4.0,), (4,)), ("werner", (3.0, 0.7), (3, 0.7))):
        a, b = from_catalog(name, *args), from_catalog(name, *same)
        assert a.dims == b.dims and np.array_equal(a.mat, b.mat)


def test_from_catalog_dispatch():
    rho = from_catalog("werner", 3, 0.7)
    assert rho.dims == (3, 3)
    assert from_catalog("w", 4).dims == (2, 2, 2, 2)
    with pytest.raises(ValidationError):
        from_catalog("nope")
    assert set(CATALOG) >= {"bell", "ghz", "w", "werner", "trine", "cq-example"}
