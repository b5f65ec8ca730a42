"""Factored product witnesses: one local POVM per block, dense effects only on first read."""

import numpy as np
import pytest
from click.testing import CliRunner

import oegap.classes
from helpers import random_density, random_povm, random_pure, random_unitary
from oegap.classes import ProductPovm, _grid, _product_effects, lo_povm, lostar_povm
from oegap.cli import main
from oegap.core import PartitionSpec, Povm
from oegap.entropy import observational_entropy, probabilities, tensor_oe_decompose
from oegap.optimize import OptConfig, cq_gap, minimize_lo, minimize_lostar
from oegap.states import (
    bell,
    cq_example,
    cq_example_pure,
    domino_state,
    ghz,
    tiles_upb_state,
    trine_cq,
    two_bell,
    w,
    werner,
)

CATALOGUE = {
    "bell": bell,
    "ghz3": lambda: ghz(3),
    "w3": lambda: w(3),
    "werner": lambda: werner(3, 0.7),
    "trine": lambda: trine_cq().state,
    "cq-example": lambda: cq_example().state,
    "cq-example-pure": cq_example_pure,
    "two-bell": two_bell,
    "domino": domino_state,
    "tiles": tiles_upb_state,
}
SMALL = OptConfig(107, 2, 100)


def dense(povm: Povm) -> Povm:
    """The same POVM as one stack of full-space effects."""
    return Povm._built(np.array(povm.effects), povm.labels, povm.class_tag)


def random_partition(rng, n: int) -> PartitionSpec:
    labels = rng.integers(0, n, size=n)
    return PartitionSpec(tuple(tuple(np.flatnonzero(labels == k)) for k in np.unique(labels)))


def product_witnesses(rng, partition, dims):
    """An LO* witness of Haar bases and an LO witness of random local POVMs on the partition."""
    bdims = partition.block_dims(dims)
    star = lostar_povm([random_unitary(rng, db) for db in bdims], partition, dims)
    outcomes = 2 if len(dims) >= 5 else 3
    lo = lo_povm([random_povm(rng, db, outcomes) for db in bdims], partition, dims)
    return star, lo


def assert_factored_equals_dense(rho, witness):
    assert isinstance(witness, ProductPovm) and "effects" not in vars(witness)
    full = dense(witness)
    assert np.abs(probabilities(rho, witness) - probabilities(rho, full)).max() <= 1e-12
    assert np.abs(probabilities(rho.mat, witness) - probabilities(rho.mat, full)).max() <= 1e-12
    assert observational_entropy(rho, witness) == pytest.approx(observational_entropy(rho, full), abs=1e-12)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_factored_entropy_equals_dense_on_catalogue_states(name):
    rho = CATALOGUE[name]()
    rng = np.random.default_rng(sorted(CATALOGUE).index(name))
    n = len(rho.dims)
    partitions = [PartitionSpec.full(n), PartitionSpec.single(n), random_partition(rng, n)]
    for partition in dict.fromkeys(partitions):
        for witness in product_witnesses(rng, partition, rho.dims):
            assert_factored_equals_dense(rho, witness)


@pytest.mark.parametrize("n", range(2, 7))
def test_factored_entropy_equals_dense_on_random_states(n):
    rng = np.random.default_rng(60 + n)
    dims = (2, 3, 2)[:n] if n <= 3 else (2,) * n
    for draw in range(3):
        partition = random_partition(rng, n)
        rho = random_pure(rng, dims) if draw == 0 else random_density(rng, dims, rank=draw + 1)
        for witness in product_witnesses(rng, partition, dims):
            assert_factored_equals_dense(rho, witness)


@pytest.mark.parametrize("klass", ["lostar", "lo"])
@pytest.mark.parametrize("state", [cq_example, trine_cq])
def test_cq_witness_entropy_equals_dense(state, klass):
    cqs = state()
    res = cq_gap(cqs.state, cqs.classical_basis, klass, SMALL)
    assert_factored_equals_dense(cqs.state, res.witness)
    assert res.entropy_bits == observational_entropy(cqs.state, res.witness)


def test_dense_reads_equal_product_effects():
    # the effects and labels read off a product witness are those of _product_effects
    # and the label code, bit for bit; its volumes multiply the local ones
    rng = np.random.default_rng(3)
    part, dims = PartitionSpec(((0, 2), (1,))), (2, 3, 2)
    bases = [random_unitary(rng, 4), random_unitary(rng, 3)]
    local = [random_povm(rng, 4, 3), random_povm(rng, 3, 2)]
    projectors = [Povm._built(u.T[:, :, None] * u.T.conj()[:, None, :]) for u in bases]
    cases = ((lostar_povm(bases, part, dims), projectors), (lo_povm(local, part, dims), local))
    for witness, factors in cases:
        grid = _grid([m.n_outcomes for m in factors])
        effects = _product_effects([m.effects[i] for m, i in zip(factors, grid)], part.blocks, dims)
        labels = tuple(",".join(m.labels[i] for m, i in zip(factors, c)) for c in grid.T.tolist())
        volumes = np.multiply.outer(factors[0].volumes(), factors[1].volumes()).ravel()
        assert witness.n_outcomes == len(effects) and witness.d == 12
        assert np.array_equal(witness.volumes(), volumes)
        assert np.array_equal(witness.effects, effects) and witness.labels == labels
        assert not witness.effects.flags.writeable
        # the dense stack's own traces agree with the product of local volumes to rounding
        assert np.allclose(witness.volumes(), Povm.volumes(witness), rtol=1e-14, atol=0)


def test_retag_keeps_the_factors(monkeypatch):
    rng = np.random.default_rng(4)
    part = PartitionSpec(((0, 2), (1,)))
    star = lostar_povm([random_unitary(rng, 4), random_unitary(rng, 2)], part, (2, 2, 2))

    def fail(*args):
        raise AssertionError("retag built the dense effects")

    monkeypatch.setattr(oegap.classes, "_product_effects", fail)
    sep = star.retag("SEP")
    assert isinstance(sep, ProductPovm) and sep.class_tag == "SEP" and star.class_tag == "LOStar"
    assert sep.factors == star.factors and sep.blocks == star.blocks and sep.dims == star.dims
    assert "effects" not in vars(sep) and "effects" not in vars(star)
    with pytest.raises(oegap.core.ValidationError, match="unknown class tag"):
        star.retag("NotAClass")


def test_searches_and_scans_build_no_dense_effects(monkeypatch, tmp_path):
    def fail(*args):
        raise AssertionError("a search built dense product effects")

    monkeypatch.setattr(oegap.classes, "_product_effects", fail)
    res = minimize_lo(w(6), PartitionSpec.full(6), OptConfig(107, 3, 300))
    assert isinstance(res.witness, ProductPovm) and res.gap_bits < 2.6
    assert isinstance(minimize_lostar(ghz(4), PartitionSpec.full(4), SMALL).witness, ProductPovm)
    runner = CliRunner()
    for command in ("scan", "robustness"):
        out = runner.invoke(main, [command, "--state", "ghz(4)", "--out", str(tmp_path / f"{command}.csv")])
        assert out.exit_code == 0, out.output


TENSOR_CASES = {
    "product-state": lambda rng: (
        random_density(rng, (2, 3)), [random_povm(rng, 2, 3), random_povm(rng, 3, 4)]),
    "bell": lambda rng: (bell(), [Povm.from_basis(np.eye(2, dtype=complex))] * 2),
    "random": lambda rng: (random_density(rng, (2, 3)), [random_povm(rng, 2, 3), random_povm(rng, 3, 3)]),
    "cc-state": lambda rng: (
        oegap.core.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2)),
        [Povm.from_basis(np.eye(2, dtype=complex))] * 2),
}


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tensor_oe_decompose_unchanged_by_factoring(monkeypatch, case):
    rho, povms = TENSOR_CASES[case](np.random.default_rng(9))
    part = PartitionSpec.full(2)
    factored = tensor_oe_decompose(rho, povms, part)
    monkeypatch.setattr(oegap.entropy, "lo_povm", lambda *args: dense(lo_povm(*args)))
    reference = tensor_oe_decompose(rho, povms, part)
    assert factored.marginal_bits == reference.marginal_bits
    assert factored.mutual_information_bits == pytest.approx(reference.mutual_information_bits, abs=1e-12)
    assert factored.total_bits == pytest.approx(reference.total_bits, abs=1e-12)
