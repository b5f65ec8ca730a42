"""Measurement-class constructors, validators, and postprocessing."""

import functools
import itertools

import numpy as np
import pytest

from helpers import haar_basis_povm, random_density, random_povm, random_unitary
from oegap.classes import (
    ConditionalMeasurement,
    SeparabilityVerdict,
    StochasticMap,
    cpp_apply,
    effect_is_rct,
    flatten_locc,
    is_ppt,
    is_rct,
    is_separable_effect,
    lo_povm,
    lostar_povm,
    product_vector_factors,
    rank1_refine,
)
from oegap.core import PartitionSpec, Povm, ValidationError, _frame_povm, dagger, permute_subsystems, schmidt
from oegap.entropy import chain_entropy, observational_entropy, shannon
from oegap.optimize import ppt_gap_w3, werner_witness
from oegap.states import bell, symmetric_projectors, trine_vectors, w
from test_entropy import chain_reference

FULL2 = PartitionSpec.full(2)


def test_lostar_computational():
    povm = lostar_povm([np.eye(2, dtype=complex)] * 2, FULL2, (2, 2))
    assert povm.n_outcomes == 4
    assert povm.class_tag == "LOStar"
    assert povm.is_projective()
    assert np.allclose(povm.effects[1], np.diag([0, 1, 0, 0]))


def test_lostar_schmidt_basis_achieves_entanglement_entropy():
    rng = np.random.default_rng(0)
    from helpers import random_pure

    psi = random_pure(rng, (2, 3))
    coeffs, left, right = schmidt(psi.pure_vector(), (2, 3), [0])
    # complete the Schmidt vectors to unitaries
    ua, _ = np.linalg.qr(np.hstack([left, rng.normal(size=(2, 2)) + 0j]))
    ub, _ = np.linalg.qr(np.hstack([right, rng.normal(size=(3, 3)) + 0j]))
    povm = lostar_povm([ua[:, :2], ub[:, :3]], FULL2, (2, 3))
    ent = shannon(coeffs**2)
    assert observational_entropy(psi, povm) == pytest.approx(ent, abs=1e-9)


def test_lostar_single_block_eigenbasis_optimal():
    rng = np.random.default_rng(1)
    rho = random_density(rng, (4,))
    _, vecs = np.linalg.eigh(rho.mat)
    povm = lostar_povm([vecs], PartitionSpec.single(1), (4,))
    from oegap.entropy import certify_optimal

    assert certify_optimal(rho, povm).optimal


def test_lostar_dimension_mismatch():
    # _check_product is the one check of each basis's dimension against its block
    with pytest.raises(ValidationError, match=r"operator dimension 2 does not match subsystems \(1,\)"):
        lostar_povm([np.eye(2, dtype=complex)] * 2, FULL2, (2, 3))
    with pytest.raises(ValidationError, match="2 bases for 3 blocks"):
        lostar_povm([np.eye(2, dtype=complex)] * 2, PartitionSpec.full(3), (2, 2, 2))


def test_lo_dimension_mismatch():
    # as for LO*: one dimension check in _check_product, and a count check before it
    with pytest.raises(ValidationError, match=r"operator dimension 2 does not match subsystems \(1,\)"):
        lo_povm([Povm.from_basis(np.eye(2))] * 2, FULL2, (2, 3))
    with pytest.raises(ValidationError, match="2 local POVMs for 3 blocks"):
        lo_povm([Povm.from_basis(np.eye(2))] * 2, PartitionSpec.full(3), (2, 2, 2))


def test_lostar_rejects_non_unitary_basis():
    with pytest.raises(ValidationError, match="not unitary"):
        lostar_povm([np.eye(2, dtype=complex), 1.001 * np.eye(2)], FULL2, (2, 2))


def anti_trine():
    effects = []
    for v in trine_vectors():
        perp = np.array([-np.conj(v[1]), np.conj(v[0])])
        effects.append((2 / 3) * np.outer(perp, perp.conj()))
    return Povm(np.array(effects))


def test_lo_trine_nine_outcomes():
    povm = lo_povm([Povm.from_basis(np.eye(3, dtype=complex)), anti_trine()], FULL2, (3, 2))
    assert povm.n_outcomes == 9
    assert povm.class_tag == "LO"
    vols = povm.volumes()
    assert np.allclose(vols, 2 / 3)


def test_lo_agrees_with_lostar_on_bases():
    rng = np.random.default_rng(2)
    ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
    a = lostar_povm([ua, ub], FULL2, (2, 2))
    b = lo_povm([Povm.from_basis(ua), Povm.from_basis(ub)], FULL2, (2, 2))
    # both take each basis's local POVM from _frame_povm of its bras: the same bits
    assert np.array_equal(a.effects, b.effects)


def test_lo_product_of_trivial_is_trivial():
    povm = lo_povm([Povm.trivial(2), Povm.trivial(3)], FULL2, (2, 3))
    assert povm.n_outcomes == 1
    assert np.allclose(povm.effects[0], np.eye(6))


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


def test_flatten_locc_cq_protocol():
    flat = flatten_locc(cq_protocol(), (2, 2))
    assert flat.class_tag == "LOCC1"
    assert flat.n_outcomes == 4
    assert flat.is_projective()
    # the flattened basis is {|00>, |01>, |1+>, |1->} up to outcome order
    plus = np.kron([0, 1], [1, 1]) / np.sqrt(2)
    found = any(
        np.allclose(e, np.outer(plus, plus.conj()), atol=1e-12) for e in flat.effects
    )
    assert found


def test_flatten_locc_unconditional_matches_tensor():
    rng = np.random.default_rng(3)
    ma, mb = haar_basis_povm(rng, 2), haar_basis_povm(rng, 3)
    protocol = ConditionalMeasurement(
        (0,), ma, tuple(ConditionalMeasurement((1,), mb, None) for _ in range(2))
    )
    flat = flatten_locc(protocol, (2, 3))
    joint = lo_povm([ma, mb], FULL2, (2, 3))
    # same effect set, possibly different outcome ordering
    for eff in joint.effects:
        assert any(np.allclose(eff, f, atol=1e-12) for f in flat.effects)


def test_flatten_locc_chain_equality_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        first = random_povm(rng, 2, 3)
        protocol = ConditionalMeasurement(
            (0,),
            first,
            tuple(
                ConditionalMeasurement((1,), haar_basis_povm(rng, 2), None) for _ in range(3)
            ),
        )
        flat = flatten_locc(protocol, (2, 2))
        assert observational_entropy(rho, flat) == pytest.approx(
            chain_entropy(protocol, rho), abs=1e-9
        )
        assert chain_entropy(protocol, rho) == pytest.approx(chain_reference(protocol, rho), abs=1e-12)


def test_flatten_locc_w3_product_effects():
    # paper-style protocol: |alpha|^2 = 1/3 first round, Schmidt-basis follow-ups
    import math

    from oegap.core import dagger, embed, partial_trace

    a, b = math.sqrt(1 / 3), math.sqrt(2 / 3)
    first = Povm.from_basis(np.array([[a, b], [b, -a]], dtype=complex))
    w3 = w(3)
    children = []
    for i in range(2):
        eff = embed(first.effects[i], (0,), (2, 2, 2))
        p = float(np.real(np.trace(eff @ w3.mat)))
        cond = partial_trace(eff @ w3.mat, (2, 2, 2), (1, 2)) / p
        cond = 0.5 * (cond + dagger(cond))
        red_b = partial_trace(cond, (2, 2), (0,))
        _, vb = np.linalg.eigh(red_b)
        grand = []
        for jb in (1, 0):
            ket = vb[:, jb]
            proj = embed(np.outer(ket, ket.conj()), (0,), (2, 2))
            pj = float(np.real(np.trace(proj @ cond)))
            cond_c = (
                partial_trace(proj @ cond, (2, 2), (1,)) / pj if pj > 1e-12 else np.eye(2) / 2
            )
            _, vc = np.linalg.eigh(0.5 * (cond_c + dagger(cond_c)))
            grand.append(ConditionalMeasurement((2,), Povm.from_basis(vc[:, ::-1].copy()), None))
        children.append(
            ConditionalMeasurement((1,), Povm.from_basis(vb[:, ::-1].copy()), tuple(grand))
        )
    protocol = ConditionalMeasurement((0,), first, tuple(children))
    flat = flatten_locc(protocol, (2, 2, 2))
    part = PartitionSpec.full(3)
    for eff in flat.effects:
        scale = float(np.real(np.trace(eff)))
        if scale < 1e-12:
            continue
        vals, vecs = np.linalg.eigh(eff)
        assert vals[-1] == pytest.approx(scale, abs=1e-9)  # rank 1
        assert product_vector_factors(vecs[:, -1], part, (2, 2, 2)) is not None
    assert observational_entropy(w3, flat) == pytest.approx(
        chain_entropy(protocol, w3), abs=1e-9
    )


def kron_reference(factors, blocks, dims):
    """np.kron of the local effects in the given block order, then the subsystems put in place."""
    flat = [i for b in blocks for i in b]
    big = functools.reduce(np.kron, factors)
    return permute_subsystems(big, [dims[i] for i in flat], [flat.index(i) for i in range(len(dims))])


@pytest.mark.parametrize(
    "dims, text", [((2, 3, 2), "AC|B"), ((2, 2, 2, 2), "A|B|C|D")], ids=["232-AC|B", "qubits-A|B|C|D"]
)
def test_product_povms_equal_kron_reference(dims, text):
    rng = np.random.default_rng(21)
    part = PartitionSpec.from_string(text, len(dims))
    bdims = part.block_dims(dims)
    bases = [random_unitary(rng, db) for db in bdims]
    star = lostar_povm(bases, part, dims)
    expected = [
        kron_reference([np.outer(u[:, i], u[:, i].conj()) for u, i in zip(bases, combo)], part.blocks, dims)
        for combo in itertools.product(*[range(db) for db in bdims])
    ]
    assert np.array_equal(star.effects, np.array(expected))
    povms = [random_povm(rng, db, k) for db, k in zip(bdims, (3, 2, 2, 3))]
    lo = lo_povm(povms, part, dims)
    expected = [
        kron_reference([m.effects[i] for m, i in zip(povms, combo)], part.blocks, dims)
        for combo in itertools.product(*[range(m.n_outcomes) for m in povms])
    ]
    assert np.array_equal(lo.effects, np.array(expected))
    assert lo.labels[1] == ",".join([povms[0].labels[0]] * (len(povms) - 1) + [povms[-1].labels[1]])


def flatten_reference(node, dims, factors=(), blocks=()):
    """Leaf effects of a protocol, depth first, by kron + permute with identity on unmeasured subsystems."""
    out = []
    for i in range(node.povm.n_outcomes):
        here, where = factors + (node.povm.effects[i],), blocks + (node.block,)
        if node.then is not None:
            out += flatten_reference(node.then[i], dims, here, where)
            continue
        rest = tuple(j for j in range(len(dims)) if not any(j in b for b in where))
        if rest:
            here += (np.eye(int(np.prod([dims[j] for j in rest]))),)
            where += (rest,)
        out.append(kron_reference(list(here), where, dims))
    return out


def test_flatten_locc_branches_in_different_orders_equal_kron_reference():
    rng = np.random.default_rng(22)
    dims = (2, 3, 2)
    leaf = lambda block, d: ConditionalMeasurement(block, random_povm(rng, d, 2))  # noqa: E731
    protocol = ConditionalMeasurement(
        (1,),
        random_povm(rng, 3, 3),
        (
            ConditionalMeasurement((0,), random_povm(rng, 2, 2), (leaf((2,), 2), leaf((2,), 2))),
            ConditionalMeasurement((2,), random_povm(rng, 2, 3), tuple(leaf((0,), 2) for _ in range(3))),
            leaf((0, 2), 4),
        ),
    )
    flat = flatten_locc(protocol, dims)
    assert flat.n_outcomes == 4 + 6 + 2
    assert np.array_equal(flat.effects, np.array(flatten_reference(protocol, dims)))
    assert flat.labels[:3] == ("0;0;0", "0;0;1", "0;1;0")
    assert flat.labels[-1] == "2;1"


def test_flatten_locc_identity_on_unmeasured_subsystem():
    rng = np.random.default_rng(23)
    dims = (2, 2, 2)
    first = random_povm(rng, 2, 2)
    protocol = ConditionalMeasurement(
        (0,), first, tuple(ConditionalMeasurement((2,), haar_basis_povm(rng, 2)) for _ in range(2))
    )
    flat = flatten_locc(protocol, dims)
    assert np.array_equal(flat.effects, np.array(flatten_reference(protocol, dims)))
    # rank-1 projectors on C and the identity on B: V = Tr A_i * 2 * 1
    assert np.allclose(flat.volumes(), 2 * np.repeat(first.volumes(), 2))


def test_flatten_locc_rejects_mismatched_or_repeated_blocks():
    z = Povm.from_basis(np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="does not match subsystems"):
        flatten_locc(ConditionalMeasurement((0, 1), z), (2, 2))
    again = ConditionalMeasurement((0,), z)
    middle = ConditionalMeasurement((1,), z, (again, again))
    with pytest.raises(ValidationError, match="do not cover"):
        flatten_locc(ConditionalMeasurement((0,), z, (middle, middle)), (2, 2))


def _built_from_validated(rng):
    """Each builder of a POVM from validated parts, as a thunk over random valid inputs.

    The inputs are made and validated here; the thunks build only the outputs.
    """
    part, dims = PartitionSpec(((0, 2), (1,))), (2, 3, 2)
    bases = [random_unitary(rng, 4), random_unitary(rng, 3)]
    local = [random_povm(rng, 4, 3), random_povm(rng, 3, 2)]
    # the second path leaves subsystem 1 unmeasured
    follow = (
        ConditionalMeasurement((1, 2), random_povm(rng, 6, 3)),
        ConditionalMeasurement((2,), haar_basis_povm(rng, 2)),
    )
    protocol = ConditionalMeasurement((0,), random_povm(rng, 2, 2), follow)
    product = lo_povm(local, part, dims)
    stoch = rng.uniform(size=(3, product.n_outcomes))
    stoch = StochasticMap(stoch / stoch.sum(axis=0))
    frame = random_unitary(rng, 5)[:, :3]  # a Haar 5 x 3 isometry
    padded = np.vstack([dagger(random_unitary(rng, 3)), np.zeros((2, 3))])
    return {
        "frame_povm": lambda: _frame_povm(frame),
        "frame_povm_padded": lambda: _frame_povm(padded),
        "lostar_povm": lambda: lostar_povm(bases, part, dims),
        "lo_povm": lambda: lo_povm(local, part, dims),
        "flatten_locc": lambda: flatten_locc(protocol, dims),
        "cpp_apply": lambda: cpp_apply(stoch, product),
        "from_basis": lambda: Povm.from_basis(bases[0], "SEP"),
        "retag": lambda: product.retag("PPT"),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("builder", [
    "lostar_povm", "lo_povm", "flatten_locc", "cpp_apply", "from_basis", "retag", "frame_povm", "frame_povm_padded",
])
def test_builders_of_validated_parts_equal_the_validated_construction(monkeypatch, builder, seed):
    # a POVM built from validated parts is not validated again, and is the very POVM the
    # public constructor makes of its effects, labels and tag: bit-equal and read-only
    build = _built_from_validated(np.random.default_rng(seed))[builder]

    def fail(effects):
        raise AssertionError(f"{builder} re-validated its output")

    with monkeypatch.context() as patch:
        patch.setattr("oegap.core.validate_povm", fail)
        povm = build()
    checked = Povm(povm.effects, povm.labels, povm.class_tag)
    assert povm.effects.dtype == checked.effects.dtype and povm.effects.flags.c_contiguous
    assert np.array_equal(povm.effects, checked.effects)
    assert povm.labels == checked.labels and povm.class_tag == checked.class_tag
    assert not povm.effects.flags.writeable


def test_rank1_refine_splits_rank2():
    plus, minus = symmetric_projectors(2)
    povm = Povm(np.array([plus, minus]))
    refined = rank1_refine(povm)
    assert refined.n_outcomes == 4  # 3 symmetric + 1 antisymmetric
    for eff in refined.effects:
        vals = np.linalg.eigvalsh(eff)
        assert np.sum(vals > 1e-10) == 1


def test_rank1_refine_rebinning_recovers_input():
    rng = np.random.default_rng(5)
    povm = random_povm(rng, 3, 3)
    refined = rank1_refine(povm)
    # rebin refined outcomes by their parent label
    rebuilt = {}
    for label, eff in zip(refined.labels, refined.effects):
        parent = label.rsplit(".", 1)[0]
        rebuilt[parent] = rebuilt.get(parent, 0) + eff
    for label, eff in zip(povm.labels, povm.effects):
        assert np.allclose(rebuilt[label], eff, atol=1e-9)


def test_rank1_refine_idempotent_on_rank1():
    povm = Povm.from_basis(np.eye(2, dtype=complex))
    refined = rank1_refine(povm)
    assert np.allclose(refined.effects, povm.effects, atol=1e-12)


def test_rank1_refine_phase_convention():
    rng = np.random.default_rng(6)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    refined = rank1_refine(Povm(np.array([proj, np.eye(3) - proj])))
    vals, vecs = np.linalg.eigh(refined.effects[0])
    lead = vecs[:, -1]
    k = np.argmax(np.abs(lead) > 1e-8)
    assert abs(np.angle(lead[k])) < 1e-9


def test_cpp_identity_and_all_to_one():
    rng = np.random.default_rng(7)
    povm = random_povm(rng, 2, 3)
    same = cpp_apply(np.eye(3), povm)
    assert np.allclose(same.effects, povm.effects)
    merged = cpp_apply(np.ones((1, 3)), povm)
    assert merged.n_outcomes == 1
    assert np.allclose(merged.effects[0], np.eye(2), atol=1e-12)


def test_cpp_bins_computational_to_werner_witness():
    povm = lostar_povm([np.eye(2, dtype=complex)] * 2, FULL2, (2, 2))
    lam = np.zeros((2, 4))
    for idx, label in enumerate(povm.labels):
        i, j = label.split(",")
        lam[0 if i == j else 1, idx] = 1.0
    binned = cpp_apply(lam, povm)
    expected = werner_witness(2)
    assert np.allclose(binned.effects, expected.effects)


def test_cpp_preserves_completeness_exactly():
    rng = np.random.default_rng(8)
    povm = random_povm(rng, 3, 4)
    lam = rng.dirichlet(np.ones(5), size=4).T  # 5 x 4 column-stochastic
    out = cpp_apply(StochasticMap(lam), povm)
    assert np.linalg.norm(sum(out.effects) - np.eye(3), 2) < 1e-12


def test_cpp_shape_mismatch():
    rng = np.random.default_rng(9)
    povm = random_povm(rng, 2, 3)
    with pytest.raises(ValidationError):
        cpp_apply(np.eye(4), povm)


def test_stochastic_map_validation():
    with pytest.raises(ValidationError):
        StochasticMap(np.array([[0.5, 0.2], [0.4, 0.2]]))


def test_is_ppt_lostar_all_true():
    rng = np.random.default_rng(10)
    povm = lostar_povm([random_unitary(rng, 2), random_unitary(rng, 3)], FULL2, (2, 3))
    assert all(is_ppt(povm, FULL2, (2, 3)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_is_ppt_detects_antisymmetric(d):
    plus, minus = symmetric_projectors(d)
    povm = Povm(np.array([minus, plus]))
    verdicts = is_ppt(povm, FULL2, (d, d))
    assert verdicts == [False, True]


def test_is_ppt_w3_witness():
    res = ppt_gap_w3()
    part = PartitionSpec.full(3)
    assert all(is_ppt(res.witness, part, (2, 2, 2)))


def test_is_rct_product_effects():
    rng = np.random.default_rng(11)
    povm = lostar_povm([random_unitary(rng, 2), random_unitary(rng, 2)], FULL2, (2, 2))
    assert all(is_rct(povm, FULL2, (2, 2)))


def test_is_rct_symmetric_antisymmetric_d3():
    plus, minus = symmetric_projectors(3)
    assert effect_is_rct(plus, FULL2, (3, 3))
    assert effect_is_rct(minus, FULL2, (3, 3))


def test_is_rct_antisymmetric_d2():
    # oracle: Tr_B minus = I/2, so (I/2 (x) I) - minus has eigenvalue -1/2 on
    # the singlet; the reduction criterion fails at d = 2 (it holds for d > 2)
    _, minus = symmetric_projectors(2)
    from oegap.core import partial_trace, tensor

    marg = partial_trace(minus, (2, 2), [0])
    assert np.allclose(marg, np.eye(2) / 2)
    gap_op = tensor([marg, np.eye(2)]) - minus
    assert np.linalg.eigvalsh(gap_op)[0] == pytest.approx(-0.5)
    assert not effect_is_rct(minus, FULL2, (2, 2))


def test_separable_effect_basis_projector():
    v = np.zeros(4)
    v[1] = 1.0  # |01>
    assert (
        is_separable_effect(np.outer(v, v), FULL2, (2, 2)) == SeparabilityVerdict.SEPARABLE
    )


def test_separable_effect_antisymmetric_entangled():
    _, minus = symmetric_projectors(2)
    assert is_separable_effect(minus, FULL2, (2, 2)) == SeparabilityVerdict.ENTANGLED


def test_separable_effect_w3_witness_unknown():
    res = ppt_gap_w3()
    part = PartitionSpec.full(3)
    verdict = is_separable_effect(np.array(res.witness.effects[0]), part, (2, 2, 2))
    assert verdict == SeparabilityVerdict.UNKNOWN


def test_separable_effect_diagonal_subspace_projector():
    witness = werner_witness(3)
    for eff in witness.effects:
        assert is_separable_effect(np.array(eff), FULL2, (3, 3)) == SeparabilityVerdict.SEPARABLE


def test_class_containment_validators():
    rng = np.random.default_rng(12)
    povm = lostar_povm([random_unitary(rng, 2), random_unitary(rng, 2)], FULL2, (2, 2))
    assert all(is_ppt(povm, FULL2, (2, 2)))
    assert all(is_rct(povm, FULL2, (2, 2)))
    flat = flatten_locc(cq_protocol(), (2, 2))
    assert all(is_ppt(flat, FULL2, (2, 2)))
    part = PartitionSpec.full(2)
    for eff in flat.effects:
        assert product_vector_factors(np.linalg.eigh(eff)[1][:, -1], part, (2, 2)) is not None


def test_product_vector_factors():
    a = np.array([1, 1j]) / np.sqrt(2)
    b = np.array([0, 1, 0], dtype=complex)
    v = np.kron(a, b)
    factors = product_vector_factors(v, FULL2, (2, 3))
    assert factors is not None
    assert np.allclose(np.kron(factors[0], factors[1]), v, atol=1e-9)
    assert product_vector_factors(bell().pure_vector(), FULL2, (2, 2)) is None
