"""Entropy functionals: observational entropy, coarse-graining, and certificates.

All values are in bits (base-2 logarithms); 0*log(0) is 0 and outcome
probabilities at or below ``P_EPS`` drop out of every sum.  Infinite relative
entropies are encoded as ``math.inf`` so optimizers can still rank candidates.
A one-way protocol has one entropy, that of its flattened product effects:
``chain_entropy`` is the observational entropy of ``flatten_locc``'s POVM.
A ``Povm`` was validated when it was built, so nothing here checks it again.
A product witness (``ProductPovm``) gives ``probabilities``, and so the
entropies, by contracting rho block by block with its local effects;
``coarse_grain`` and ``certify_optimal`` read its dense ``effects``, which
are built on that first read.
A ``DensityMatrix`` was validated and eigendecomposed once, when it was built:
``von_neumann``, ``quantum_relative_entropy`` and ``certify_optimal`` read
its decomposition, and a raw array takes the same steps on its own matrix.
``observational_entropy``, ``coarse_grain`` and ``recovery_bounds`` validate
a raw-array state on entry and check nothing they compute from a validated
state and POVM: ``coarse_grain`` builds its output unchecked, with
``DensityMatrix._built``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classes import ConditionalMeasurement, ProductPovm, flatten_locc, lo_povm
from .core import (
    DensityMatrix,
    PartitionSpec,
    Povm,
    ValidationError,
    as_operator,
    dagger,
    opnorm,
    spectral,
)

P_EPS = 1e-14
CERT_OP_TOL = 1e-8  # certify_optimal: relative residual of an effect off its eigenspace
CERT_ENTROPY_TOL = 1e-7  # certify_optimal: allowed |S_M - S| once the support condition holds


def _as_mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _as_state(rho) -> DensityMatrix:
    """rho itself, or a raw array validated as the state of one system."""
    if isinstance(rho, DensityMatrix):
        return rho
    a = as_operator(rho)
    return DensityMatrix(a, (a.shape[0],))


def _eigh(rho) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors: a state's own, or ``eigh`` of a raw array."""
    if isinstance(rho, DensityMatrix):
        return rho.eigenvalues, rho.eigenvectors
    return np.linalg.eigh(_as_mat(rho))


def shannon(probs) -> float:
    """Shannon entropy of a probability vector, in bits."""
    p = np.asarray(probs, dtype=float)
    p = p[p > P_EPS]
    return max(0.0, float(-np.sum(p * np.log2(p))))


def binary_entropy(x: float) -> float:
    return shannon([x, 1.0 - x])


def relative_entropy(p, q) -> float:
    """Classical D(p||q) in bits; inf when p puts weight outside supp(q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= P_EPS:
            continue
        if qi <= P_EPS:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr rho log2 rho in bits."""
    vals = rho.eigenvalues if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(_as_mat(rho))
    return shannon(np.clip(vals, 0.0, None))


def quantum_relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy D(rho||sigma) in bits; inf on support violation."""
    r = _as_mat(rho)
    rvals = _eigh(rho)[0]
    svals, svecs = _eigh(sigma)
    rvals = np.clip(rvals, 0.0, None)
    tr_rho_log_rho = float(np.sum(rvals[rvals > P_EPS] * np.log2(rvals[rvals > P_EPS])))
    # overlap of rho with the eigenvectors of sigma
    weights = np.real(np.einsum("ij,jk,ki->i", dagger(svecs), r, svecs))
    weights = np.clip(weights, 0.0, None)
    tr_rho_log_sigma = 0.0
    for w, sv in zip(weights, svals):
        if w <= 1e-12:
            continue
        if sv <= P_EPS:
            return math.inf
        tr_rho_log_sigma += w * math.log2(sv)
    return tr_rho_log_rho - tr_rho_log_sigma


@dataclass(frozen=True)
class OutcomeStats:
    """Outcome probabilities p_i and macrostate volumes V_i for one measurement."""

    probabilities: np.ndarray
    volumes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        v = np.asarray(self.volumes, dtype=float)
        if np.any(p < -1e-12):
            raise ValidationError(f"negative outcome probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(f"outcome probabilities sum to {p.sum():.12f}")
        if np.any((p > P_EPS) & (v <= 0)):
            raise ValidationError("outcome with positive probability has zero volume")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "volumes", v)


def probabilities(rho, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(M_i rho), clipped at zero; a product POVM contracts rho block by block."""
    r = _as_mat(rho)
    if r.shape[0] != povm.d:
        raise ValidationError(f"state dimension {r.shape[0]} does not match POVM dimension {povm.d}")
    if isinstance(povm, ProductPovm):
        return np.clip(povm.expectations(r), 0.0, None)
    return np.clip(np.real(np.einsum("iab,ba->i", povm.effects, r)), 0.0, None)


def outcome_stats(rho, povm: Povm) -> OutcomeStats:
    """Probabilities, volumes and labels of the outcomes of ``povm`` on ``rho``."""
    return OutcomeStats(probabilities(rho, povm), povm.volumes(), povm.labels)


def observational_entropy(rho, povm: Povm) -> float:
    """Observational entropy S_M(rho) = -sum_i p_i log2(p_i / V_i) in bits.

    A raw-array rho is validated on entry; the probabilities of a validated
    state and POVM are not checked again.
    """
    rho = _as_state(rho)
    return entropy_from_stats(probabilities(rho, povm), povm.volumes())


def entropy_from_stats(p, v) -> float:
    # each term is nonnegative since p_i <= V_i for any state and effect
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    mask = p > P_EPS
    return max(0.0, float(-np.sum(p[mask] * np.log2(p[mask] / v[mask]))))


def measured_relative_entropy(rho, sigma, povm: Povm) -> float:
    """D_M(rho||sigma): classical relative entropy of the two outcome distributions."""
    return relative_entropy(probabilities(rho, povm), probabilities(sigma, povm))


def coarse_grain(rho, povm: Povm) -> DensityMatrix:
    """Bayesian-retrodiction state P_M(rho) = sum_i p_i M_i / V_i.

    A raw-array rho is validated on entry; the output is built from the
    validated state and POVM, so it is not checked again.
    """
    rho = _as_state(rho)
    p = probabilities(rho, povm)
    v = povm.volumes()
    d = povm.d
    out = np.zeros((d, d), dtype=complex)
    for pi, vi, eff in zip(p, v, povm.effects):
        if pi <= P_EPS or vi <= P_EPS:
            continue
        out += (pi / vi) * eff
    return DensityMatrix._built(0.5 * (out + dagger(out)), rho.dims)


@dataclass(frozen=True)
class RecoveryBounds:
    """Sandwich for S_M(rho): lower = D(rho||P_M(rho)) + S(rho), upper = S(P_M(rho))."""

    lower: float
    upper: float


def recovery_bounds(rho, povm: Povm) -> RecoveryBounds:
    rho = _as_state(rho)
    cg = coarse_grain(rho, povm)
    upper = von_neumann(cg)
    lower = quantum_relative_entropy(rho, cg) + von_neumann(rho)
    return RecoveryBounds(lower=lower, upper=upper)


@dataclass(frozen=True)
class OptimalityCertificate:
    """Outcome of the optimal-measurement check for (rho, M)."""

    optimal: bool
    reason: str
    failing_outcome: int | None
    entropy_bits: float
    state_entropy_bits: float


def certify_optimal(rho, povm: Povm) -> OptimalityCertificate:
    """Certify S_M(rho) = S(rho) via the eigenspace-support condition.

    A measurement is optimal iff each effect is completely supported on a
    single eigenspace of rho (M_i = P_k M_i P_k for exactly one cluster k).
    The operator condition is checked on the whole stack of effects, then
    cross-checked against the entropy equality.

    An effect E that meets the condition within ``CERT_OP_TOL`` keeps nearly
    all of its trace in that eigenspace, so only the cluster k with the
    largest Tr(P_k E) can be the one: the residuals R_i = E_i - P_k E_i P_k
    at that cluster decide every effect.  Their Frobenius norms bound them,
    ||R||_F / sqrt(d) <= ||R|| <= ||R||_F, and the same for ||E||, so the
    bounds decide most effects and one batched ``opnorm`` decides the rest.
    A stored effect may be non-Hermitian within validation's tolerance, so
    none of these operands is taken as Hermitian.  An effect that fails
    there gets its residual against every cluster, and is reported when the
    best of them fails too.  A ``DensityMatrix`` rho gives its own
    decomposition; a raw array is decomposed here.
    """
    spec = spectral(rho)
    s_m = observational_entropy(rho, povm)
    s_rho = von_neumann(rho)
    eff = povm.effects
    k, d = eff.shape[:2]
    proj = np.array(spec.projectors)
    home = proj[np.argmax(np.real(np.einsum("kab,iba->ik", proj, eff)), axis=1)]
    stack = np.concatenate([eff, eff - home @ eff @ home])
    high = np.linalg.norm(stack, axis=(1, 2))  # Frobenius norms, at least the spectral ones
    low = high / math.sqrt(d)  # at most the spectral ones
    scale, residual = high[:k], high[k:]
    fails = (low[:k] > 1e-12) & (low[k:] > CERT_OP_TOL * scale)
    unknown = ~fails & (scale > 1e-12) & (residual > CERT_OP_TOL * low[:k])
    if unknown.any():
        norms = opnorm(stack[np.concatenate([unknown, unknown])])
        scale[unknown], residual[unknown] = np.split(norms, 2)
        fails[unknown] = (scale[unknown] > 1e-12) & (residual[unknown] > CERT_OP_TOL * scale[unknown])
    for idx in np.flatnonzero(fails):
        norms = opnorm(np.concatenate([eff[idx][None], eff[idx] - proj @ eff[idx] @ proj]))
        best = norms[1:].min()
        if best > CERT_OP_TOL * norms[0]:
            return OptimalityCertificate(
                False,
                f"effect {idx} is not supported on a single eigenspace "
                f"(best residual {best:.3e})",
                int(idx),
                s_m,
                s_rho,
            )
    if abs(s_m - s_rho) > CERT_ENTROPY_TOL:
        return OptimalityCertificate(
            False,
            f"support condition held but S_M - S = {s_m - s_rho:.3e}",
            None,
            s_m,
            s_rho,
        )
    return OptimalityCertificate(True, "optimal", None, s_m, s_rho)


@dataclass(frozen=True)
class TensorOeDecomposition:
    """OE of a tensor measurement split into marginal entropies minus mutual information."""

    marginal_bits: tuple[float, ...]
    mutual_information_bits: float
    total_bits: float


def tensor_oe_decompose(
    rho: DensityMatrix, povms, partition: PartitionSpec
) -> TensorOeDecomposition:
    """Decompose S_{M1 (x) ... (x) Mn}(rho) = sum_k S_{Mk}(rho_k) - I(joint)."""
    povms = list(povms)
    marginals = [observational_entropy(rho.reduced(b), m) for b, m in zip(partition.blocks, povms)]
    pt = probabilities(rho, lo_povm(povms, partition, rho.dims)).reshape([m.n_outcomes for m in povms])
    # product of the outcome-distribution marginals, first block slowest
    margins = [pt.sum(axis=tuple(i for i in range(pt.ndim) if i != k)) for k in range(pt.ndim)]
    prod = functools.reduce(np.multiply.outer, margins)
    mutual = relative_entropy(pt.ravel(), prod.ravel())
    total = float(sum(marginals) - mutual)
    return TensorOeDecomposition(tuple(marginals), mutual, total)


def chain_entropy(protocol: ConditionalMeasurement, rho: DensityMatrix) -> float:
    """Observational entropy of a one-way protocol: that of its flattened product effects.

    The effects are those of ``flatten_locc``, so a subsystem that a path
    leaves unmeasured carries an identity factor and its full volume.  On a
    protocol that measures every subsystem along every path this is the
    chain formula S = S_first(rho_block) + sum_i p_i S_followup(rho_i on the
    rest).  Protocol blocks refer to the subsystem indices of ``rho``.
    """
    return observational_entropy(rho, flatten_locc(protocol, rho.dims))
