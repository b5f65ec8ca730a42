"""Minimizers of observational entropy over locality-restricted measurement classes.

Every search-based minimizer reports an upper bound on the true class minimum.
The LO*, LO, one-way LOCC and CQ searches share one restart engine,
``_search``: deterministic warm starts (computational bases, marginal
eigenbases and, for LO and CQ LO, the polished LO* bases) come first, seeded
random starts follow, each restart runs a blockwise descent, and the best
restart wins with ties resolved to the lowest restart index, so results are
reproducible bit-for-bit for a fixed seed.  Each block's frame is charted as
U exp(iH(theta)).  The LO*, LO and CQ searches minimize one objective,
``_product_objective``: the entropy of a product measurement with one row
frame per block, applied block by block to a factor rho = L L^dag taken once
per search (the CQ search fixes the classical block's frame to the declared
basis).  It has a closed-form gradient, pulled back through the chart by the
Daleckii-Krein formula, so those blocks are polished with L-BFGS-B.  The
one-way LOCC objective, whose later blocks follow their conditional
eigenbases, has no gradient yet and keeps gradient-free Nelder-Mead.
``werner_analytic`` is exact in closed form, and ``ppt_gap_w3`` is proven
optimal by a primal point and a dual certificate checked in rational
arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.optimize

from .classes import (
    ConditionalMeasurement,
    SeparabilityVerdict,
    _product_effect,
    effect_is_ppt,
    flatten_locc,
    is_separable_effect,
    lo_povm,
    lostar_povm,
    product_vector_factors,
    rank1_refine,
)
from .core import (
    DensityMatrix,
    PartitionSpec,
    Povm,
    ValidationError,
    dagger,
    opnorm,
    partial_trace,
    permute_subsystems,
    spectral,
)
from .entropy import (
    P_EPS,
    binary_entropy,
    chain_entropy,
    conditional_state,
    entropy_from_stats,
    observational_entropy,
    von_neumann,
)

LOG2_E = 1 / math.log(2)


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by all search-based minimizers."""

    seed: int = 2025
    restarts: int = 64
    max_iters: int = 2000
    step_tol: float = 1e-7
    entropy_tol: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.step_tol <= 0 or self.entropy_tol <= 0:
            raise ValidationError("tolerances must be positive")


DEFAULT_CONFIG = OptConfig()


@dataclass(frozen=True)
class OptResult:
    """Minimized entropy, gap, witnessing measurement, and optimizer trace."""

    entropy_bits: float
    gap_bits: float
    witness: object  # Povm or ConditionalMeasurement
    trace: tuple[float, ...]
    converged: bool
    bounds: tuple[float, float] | None = None


def _result(rho: DensityMatrix, s_best: float, witness, values, converged: bool) -> OptResult:
    """OptResult for a witness with entropy s_best; a gap short of 0 by float rounding is 0."""
    gap = s_best - von_neumann(rho)
    if -1e-12 < gap < 0:
        gap = 0.0
    return OptResult(s_best, gap, witness, tuple(values), converged)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _haar_frame(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """m x d matrix with orthonormal columns (m >= d), Haar-distributed; unitary if m == d."""
    z = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def _complete_unitary(q: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary whose first columns equal q."""
    m, d = q.shape
    full, r = np.linalg.qr(np.hstack([q, np.eye(m, dtype=complex)]))
    full = full[:, :m]
    diag = np.diag(r)[:m].copy()
    safe = np.abs(diag) > 1e-12
    diag[~safe] = 1.0
    diag[safe] = diag[safe] / np.abs(diag[safe])
    return full * diag


@functools.cache
def _upper_flat_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the upper triangle of a d x d matrix, by rows, and of its mirror."""
    rows, cols = np.triu_indices(d, 1)
    return rows * d + cols, cols * d + rows


def _hermitian_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrix: diagonal theta[:d], then (re, im) pairs of the upper triangle by rows."""
    upper_idx, lower_idx = _upper_flat_indices(d)
    upper = theta[d::2] + 1j * theta[d + 1 :: 2]
    h = np.zeros(d * d, dtype=complex)
    h[:: d + 1] = theta[:d]
    h[upper_idx] = upper
    h[lower_idx] = upper.conj()
    return h.reshape(d, d)


def _hermitian_gradient_params(g: np.ndarray) -> np.ndarray:
    """Gradient in theta of f(H(theta)), from the gradient g of f in an unconstrained H."""
    d = g.shape[0]
    upper_idx, _ = _upper_flat_indices(d)
    pairs = (g + dagger(g)).ravel()[upper_idx]
    out = np.empty(d * d)
    out[:d] = np.real(np.diag(g))
    out[d::2] = pairs.real
    out[d + 1 :: 2] = pairs.imag
    return out


def _chart(theta: np.ndarray, base: np.ndarray):
    """base @ exp(iH(theta)), a smooth chart of the unitary group, and its pullback.

    The pullback maps a gradient G with respect to the first columns of the
    unitary to the gradient in theta, by the Daleckii-Krein formula on the
    eigh of H in the stable form Phi_jk = e^{i(l_j + l_k)/2} sinc((l_j - l_k)/2),
    so a degenerate H (theta = 0 included) needs no special case.
    """
    m = base.shape[0]
    if np.any(theta):
        vals, vecs = np.linalg.eigh(_hermitian_from_params(theta, m))
        u = base @ (vecs * np.exp(1j * vals)) @ dagger(vecs)
    else:
        vals, vecs, u = np.zeros(m), np.eye(m), base

    def pullback(g: np.ndarray) -> np.ndarray:
        half = np.exp(0.5j * vals)
        phi = np.outer(half, half) * np.sinc(np.subtract.outer(vals, vals) / (2 * np.pi))
        inner = dagger(base @ vecs) @ g @ vecs[: g.shape[1]]
        return _hermitian_gradient_params(-1j * vecs @ (phi.conj() * inner) @ dagger(vecs))

    return u, pullback


def _pad_rows(q: np.ndarray, m: int) -> np.ndarray:
    return np.vstack([q, np.zeros((m - q.shape[0], q.shape[1]), dtype=complex)])


def _frame_povm(q: np.ndarray) -> Povm:
    """POVM of a frame's rows (effects |row><row|), dropped rows' deficit reabsorbed."""
    effects = [np.outer(row.conj(), row) for row in q if np.linalg.norm(row) > 1e-7]
    deficit = np.eye(q.shape[1]) - sum(effects)
    if opnorm(deficit) > 1e-10:
        effects.append(deficit)
    return Povm(np.array(effects))


def _extremal_qubit_povm(m: int, rng: np.random.Generator) -> np.ndarray | None:
    """Stiefel rows for an extremal qubit POVM with m rank-1 effects, or None.

    Effects are w_j/2 (1 + n_j . sigma) with unit Bloch vectors n_j; the
    completeness conditions sum w = 2, sum w n = 0 are solved for the weights
    and infeasible direction samples are rejected.
    """
    if m == 2:
        return dagger(_haar_frame(2, 2, rng))  # rows are the two basis bras
    if m == 3:
        # three coplanar unit vectors: zero only lies in the span of <= 3
        # positive-weighted directions when they share a plane through 0
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=3))
        dirs = np.stack([np.cos(a) * basis[:, 0] + np.sin(a) * basis[:, 1] for a in angles])
    else:
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    a = np.vstack([np.ones(m), dirs.T])  # (4, m)
    target = np.array([2.0, 0.0, 0.0, 0.0])
    w, res = scipy.optimize.nnls(a, target)
    if res > 1e-10 or np.any(w < 1e-12):
        return None
    rows = [np.sqrt(wj) * _bloch_ket(nj).conj() for wj, nj in zip(w, dirs)]
    return np.stack(rows)


def _bloch_ket(n: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _random_frame(d: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """Random m x d start frame: an extremal POVM on a qubit, else a Haar basis or Stiefel frame."""
    if d == 2:
        want = int(gen.integers(2, m + 1))
        q = _extremal_qubit_povm(want, gen)
        while q is None:
            q = _extremal_qubit_povm(want, gen)
        return _pad_rows(q, m)
    if gen.uniform() < 0.5:
        return _pad_rows(dagger(_haar_frame(d, d, gen)), m)
    return _haar_frame(m, d, gen)


# ---------------------------------------------------------------------------
# the restart engine


@dataclass(frozen=True)
class _Objective:
    """A function of one frame per block and, when it has one, its gradient.

    ``grad(frames)`` returns the value and, for each frame Q_k, the matrix G_k
    with dS = Re Tr(G_k^dag dQ_k).
    """

    value: Callable[[list[np.ndarray]], float]
    grad: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]] | None = None

    def __call__(self, frames: list[np.ndarray]) -> float:
        return self.value(frames)

    def composed(self, into, back) -> _Objective:
        """This objective at ``into(xs)``, ``into`` linear; ``back`` maps its gradients to xs's."""

        def grad(xs):
            s, gs = self.grad(into(xs))
            return s, back(gs)

        return _Objective(lambda xs: self.value(into(xs)), grad)


def _over_bases(objective: _Objective) -> _Objective:
    """``objective`` over one basis U per block, whose bras (the rows of U^dag) form the frame.

    The gradient in U is G^dag of the frame gradient G.
    """
    return objective.composed(lambda us: [dagger(u) for u in us], lambda gs: [dagger(g) for g in gs])


def _polish(objective, x0: np.ndarray, cfg: OptConfig, rounds: int = 1, jac: bool = False):
    """L-BFGS-B when ``objective`` also returns its gradient, else Nelder-Mead.

    Extra rounds restart the minimizer at the optimum.
    """
    if jac:
        # step_tol bounds the projected gradient, as it bounds the simplex for Nelder-Mead
        method = "L-BFGS-B"
        options = {"maxiter": cfg.max_iters, "ftol": 1e-13, "gtol": cfg.step_tol}
    else:
        method = "Nelder-Mead"
        options = {
            "maxiter": cfg.max_iters,
            "xatol": cfg.step_tol,
            "fatol": 1e-12,
            "adaptive": x0.size > 10,
        }
    x, fun = x0, None
    for _ in range(rounds):
        res = scipy.optimize.minimize(objective, x, method=method, jac=jac or None, options=options)
        if fun is not None and fun - float(res.fun) < 1e-12:
            if float(res.fun) < fun:
                x, fun = res.x, float(res.fun)
            break
        x, fun = res.x, float(res.fun)
    return x, fun


def _reduce_restarts(values: list[float], cfg: OptConfig) -> tuple[int, bool]:
    """Index of the best of at least two restarts and a convergence flag.

    Restarts within 1e-12 of the minimum count as ties and the lowest index
    wins, so deterministic warm starts beat float dust from Haar restarts.
    The search counts as converged when the runner-up is within entropy_tol.
    """
    lo = min(values)
    best = next(i for i, v in enumerate(values) if v <= lo + 1e-12)
    runner_up = min(v for i, v in enumerate(values) if i != best)
    return best, runner_up - values[best] <= cfg.entropy_tol


def _polish_block(objective: _Objective, frames: list[np.ndarray], k: int, cfg, rounds: int):
    """Polish frame k alone on its chart; returns (value, polished frame).

    An m x d frame is charted as the first d columns of U exp(iH(theta)),
    where U is the frame itself when square (a basis) and its completion to
    an m x m unitary otherwise (a POVM frame); theta = 0 gives the frame back.
    """
    m, d = frames[k].shape
    base = frames[k] if m == d else _complete_unitary(frames[k])

    def with_frame(q: np.ndarray) -> list[np.ndarray]:
        return frames[:k] + [q] + frames[k + 1 :]

    if objective.grad is None:

        def fun(theta):
            return objective(with_frame(_chart(theta, base)[0][:, :d]))

    else:

        def fun(theta):
            u, pullback = _chart(theta, base)
            s, grads = objective.grad(with_frame(u[:, :d]))
            return s, pullback(grads[k])

    x, value = _polish(fun, np.zeros(m * m), cfg, rounds, jac=objective.grad is not None)
    return value, _chart(x, base)[0][:, :d]


def _descent(objective: _Objective, frames: list[np.ndarray], cfg: OptConfig):
    """Blockwise descent: polish one block's frame at a time.

    A lone block gets one two-round polish; several blocks get up to four
    sweeps, which stop early once a full pass stops helping.
    """
    frames = list(frames)
    best = float(objective(frames))
    rounds, sweeps = (2, 1) if len(frames) == 1 else (1, 4)
    for _ in range(sweeps):
        gained = 0.0
        for k in range(len(frames)):
            value, frame = _polish_block(objective, frames, k, cfg, rounds)
            if value < best - 1e-13:
                gained += best - value
                frames[k] = frame
                best = value
        if gained < 1e-10:
            break
    return best, frames


def _search(value, warm: list[list[np.ndarray]], sample, offset: int, cfg: OptConfig):
    """Restarted blockwise descent over one frame per block.

    ``value`` maps a list of block frames to the objective.  Restart
    i < len(warm) starts from ``warm[i]``.  Each later restart seeds its own
    generator with (seed, offset + i) and draws each block from
    ``sample(k, gen)``, except that with several blocks a block keeps the
    last warm start's frame with probability 0.35.  Returns the per-restart
    values, the best restart's frames and the convergence flag.
    """
    n_blocks = len(warm[0])

    def restart(idx: int):
        if idx < len(warm):
            return _descent(value, warm[idx], cfg)
        gen = _rng(cfg.seed, offset + idx)
        start = [
            warm[-1][k] if n_blocks > 1 and gen.uniform() < 0.35 else sample(k, gen)
            for k in range(n_blocks)
        ]
        return _descent(value, start, cfg)

    results = [restart(i) for i in range(max(cfg.restarts, len(warm)))]
    values = [r[0] for r in results]
    best, converged = _reduce_restarts(values, cfg)
    return values, results[best][1], converged


def _marginal_eigenbases(rho: DensityMatrix, partition: PartitionSpec) -> list[np.ndarray]:
    """Per-block eigenbases of the reduced states (descending eigenvalue order)."""
    bases = []
    for block in partition.blocks:
        red = rho.reduced(block).mat
        vals, vecs = np.linalg.eigh(red)
        bases.append(vecs[:, ::-1].copy())
    return bases


def _block_factor(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """L with L L^dag = rho, subsystems reordered block by block; eigenvalues <= P_EPS dropped."""
    order = [i for b in blocks for i in b]
    vals, vecs = np.linalg.eigh(permute_subsystems(rho.mat, rho.dims, order))
    keep = vals > P_EPS
    return vecs[:, keep] * np.sqrt(vals[keep])


def _product_objective(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> _Objective:
    """S_M(rho) as a function of one row frame per block, M the product of their effects.

    Row q_i of block k's frame gives the effect |q_i^*><q_i^*| on that block;
    the outcomes run over the blocks' rows in ``blocks`` order, the first
    block slowest, as in ``lostar_povm`` and ``lo_povm``.  Each frame acts on
    the factor of rho with one matmul, p is the squared norm of each
    outcome's row of the result, and each volume is the product of the
    rows' squared norms.

    The gradient reuses that forward pass.  With dS/dp_i = -(log2(p_i/V_i)
    + 1/ln 2) and dS/dV_i = p_i / (V_i ln 2), outcomes with p <= P_EPS masked
    as in ``entropy_from_stats``, it runs the frames' adjoints back through
    the stages; the volume term of a row is the block's marginal
    probability of that row over its squared norm, times 2 q_i / ln 2.
    """
    factor = _block_factor(rho, blocks)

    def forward(qs: list[np.ndarray]):
        stages, norms, vols = [factor], [], np.ones(1)
        for q in qs:
            stages.append(q @ stages[-1].reshape(vols.size, q.shape[1], -1))
            norms.append((abs(q) ** 2).sum(axis=1))
            vols = np.multiply.outer(vols, norms[-1]).ravel()
        return stages, norms, (abs(stages[-1]) ** 2).sum(axis=-1).ravel(), vols

    def value(qs: list[np.ndarray]) -> float:
        _, _, p, vols = forward(qs)
        return entropy_from_stats(p, vols)

    def grad(qs: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        stages, norms, p, vols = forward(qs)
        live = p > P_EPS
        ratio = np.where(live, p, 1.0) / np.where(live, vols, 1.0)
        ds_dp = np.where(live, -(np.log2(ratio) + LOG2_E), 0.0)
        p_live = np.where(live, p, 0.0).reshape([len(n) for n in norms])
        g = 2 * ds_dp[:, None] * stages[-1].reshape(p.size, -1)  # gradient in the last stage
        grads = []
        for k in range(len(qs) - 1, -1, -1):
            q = qs[k]
            g = g.reshape(stages[k + 1].shape)
            x = stages[k].reshape(g.shape[0], q.shape[1], -1)
            marginal = p_live.sum(axis=tuple(j for j in range(len(qs)) if j != k))
            ds_dn = np.divide(marginal, norms[k], out=np.zeros_like(marginal), where=norms[k] > 0)
            g_q = np.tensordot(g, x.conj(), axes=([0, 2], [0, 2]))
            grads.append(g_q + 2 * LOG2_E * ds_dn[:, None] * q)
            if k:
                g = dagger(q) @ g
        return entropy_from_stats(p, vols), grads[::-1]

    return _Objective(value, grad)


# ---------------------------------------------------------------------------
# LO*: local projective measurements


def _lostar_search(rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig):
    """LO* basis search; returns (per-restart values, best bases, converged)."""
    bdims = partition.block_dims(rho.dims)
    warm = [[np.eye(d, dtype=complex) for d in bdims], _marginal_eigenbases(rho, partition)]
    return _search(
        _over_bases(_product_objective(rho, partition.blocks)),
        warm,
        lambda k, gen: _haar_frame(bdims[k], bdims[k], gen),
        0,
        cfg,
    )


def minimize_lostar(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig = DEFAULT_CONFIG
) -> OptResult:
    """Upper bound on the minimal OE over local projective measurements.

    The search runs over one basis per block, each parameterized as
    U0 @ exp(iH); restart 0 starts from the computational bases, restart 1
    from the marginal eigenbases, the rest from Haar-random bases.
    """
    values, bases, converged = _lostar_search(rho, partition, cfg)
    witness = lostar_povm(bases, partition, rho.dims)
    return _result(rho, observational_entropy(rho, witness), witness, values, converged)


# ---------------------------------------------------------------------------
# LO: local POVMs


def minimize_lo(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig = DEFAULT_CONFIG
) -> OptResult:
    """Upper bound on the minimal OE over local (tensor product) POVMs.

    Each block carries up to m rank-1 effects (m = 4 on qubits, d + 1
    otherwise), encoded as the rows of an m x d isometry-style matrix Q
    (Q^dag Q = 1); qubit blocks draw restarts from the extremal families
    (2 to 4 rank-1 effects), other blocks from Haar bases and Haar Stiefel
    frames.
    """
    dims = rho.dims
    bdims = partition.block_dims(dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    # the polished LO* bases seed one restart, so the LO result can only
    # improve on the projective optimum found with the same budget
    _, star_bases, _ = _lostar_search(rho, partition, cfg)
    warm = [
        [_pad_rows(np.eye(d, dtype=complex), m) for d, m in zip(bdims, ms)],
        [_pad_rows(dagger(u), m) for u, m in zip(star_bases, ms)],
        [_pad_rows(dagger(u), m) for u, m in zip(_marginal_eigenbases(rho, partition), ms)],
    ]
    values, frames, converged = _search(
        _product_objective(rho, partition.blocks),
        warm,
        lambda k, gen: _random_frame(bdims[k], ms[k], gen),
        10_000,
        cfg,
    )
    witness = lo_povm([_frame_povm(q) for q in frames], partition, dims)
    return _result(rho, observational_entropy(rho, witness), witness, values, converged)


# ---------------------------------------------------------------------------
# one-way LOCC


def _eigenbasis_protocol(
    mat: np.ndarray,
    dims: tuple[int, ...],
    blocks: tuple[tuple[int, ...], ...],
    live: tuple[int, ...],
    first: Povm | None = None,
) -> ConditionalMeasurement:
    """Greedy protocol measuring each block in its conditional marginal eigenbasis.

    ``blocks`` hold positions within the current frame; ``live`` maps those
    positions to original subsystem labels, which is what the emitted
    protocol nodes carry.  ``first``, when given, replaces the eigenbasis
    measurement of the first block.
    """
    pos = tuple(blocks[0])
    povm = first
    if povm is None:
        reduced = partial_trace(mat, dims, pos)
        tr = float(np.real(np.trace(reduced)))
        if tr > P_EPS:
            reduced = reduced / tr
        vals, vecs = np.linalg.eigh(0.5 * (reduced + dagger(reduced)))
        povm = Povm.from_basis(vecs[:, ::-1].copy())
    label_block = tuple(live[j] for j in pos)
    if len(blocks) == 1:
        return ConditionalMeasurement(label_block, povm, None)
    rest_pos = tuple(j for j in range(len(dims)) if j not in pos)
    rest_dims = tuple(dims[j] for j in rest_pos)
    rest_live = tuple(live[j] for j in rest_pos)
    rest_blocks = tuple(tuple(rest_pos.index(i) for i in b) for b in blocks[1:])
    children = tuple(
        _eigenbasis_protocol(
            conditional_state(mat, dims, pos, eff)[1], rest_dims, rest_blocks, rest_live
        )
        for eff in povm.effects
    )
    return ConditionalMeasurement(label_block, povm, children)


def minimize_locc_oneway(
    rho: DensityMatrix,
    partition: PartitionSpec,
    ordering=None,
    cfg: OptConfig = DEFAULT_CONFIG,
) -> OptResult:
    """Upper bound on the minimal OE over one-way LOCC protocols.

    Only the first block's POVM is searched (rank-1 effects, Stiefel-row
    encoding); each later block is measured in the eigenbasis of its
    conditional reduced state, which is exactly optimal for the final round.
    The objective conditions on all outcomes at once (``_greedy_chain_values``);
    the winning protocol is rebuilt and re-evaluated with ``chain_entropy``.
    """
    dims = rho.dims
    if ordering is None:
        ordering = tuple(range(partition.n_blocks))
    else:
        ordering = tuple(int(i) for i in ordering)
        if sorted(ordering) != list(range(partition.n_blocks)):
            raise ValidationError("ordering must be a permutation of the partition blocks")
    blocks = tuple(partition.blocks[k] for k in ordering)
    d0 = int(np.prod([dims[i] for i in blocks[0]]))
    m = 4 if d0 == 2 else d0 + 1
    vals, vecs = np.linalg.eigh(partial_trace(rho.mat, dims, blocks[0]))
    warm = [[_pad_rows(np.eye(d0, dtype=complex), m)], [_pad_rows(dagger(vecs[:, ::-1]), m)]]
    values, (q_best,), converged = _search(
        _oneway_objective(rho, blocks), warm, lambda k, gen: _random_frame(d0, m, gen), 20_000, cfg
    )
    first = _frame_povm(q_best)
    witness = _eigenbasis_protocol(rho.mat, dims, blocks, tuple(range(len(dims))), first)
    return _result(rho, chain_entropy(witness, rho), witness, values, converged)


def _oneway_objective(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]):
    """Chain entropy of a one-way protocol as a function of the first block's frame.

    ``blocks`` lists the partition blocks in measurement order.  Frame row
    q_i gives the first block's effect |q_i^*><q_i^*|; every later block is
    measured in its conditional marginal eigenbasis.  The objective takes
    the frame as the only entry of a list, as ``_search`` passes it.
    """
    bdims = tuple(int(np.prod([rho.dims[i] for i in b])) for b in blocks)
    d0, d_rest = bdims[0], rho.d // bdims[0]
    factor = _block_factor(rho, blocks).reshape(d0, -1)

    def value(qs: list[np.ndarray]) -> float:
        q = qs[0]
        t = (q @ factor).reshape(len(q), d_rest, -1)  # sigma_i = t_i t_i^dag
        sigma = t @ t.conj().transpose(0, 2, 1)
        p = (abs(t) ** 2).sum(axis=(1, 2))
        total = entropy_from_stats(p, (abs(q) ** 2).sum(axis=1))
        if len(bdims) == 1:
            return total
        live = p > P_EPS
        follow = _greedy_chain_values(sigma[live] / p[live, None, None], bdims[1:])
        return total + float(np.dot(p[live], follow))

    return _Objective(value)


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of p, terms at or below P_EPS dropped."""
    return np.maximum(0.0, -np.sum(p * np.log2(np.where(p > P_EPS, p, 1.0)), axis=-1))


def _greedy_chain_values(states: np.ndarray, bdims: tuple[int, ...]) -> np.ndarray:
    """Chain entropy of the greedy conditional-eigenbasis protocol on each state of a stack.

    ``states`` is an (n, D, D) stack of normalised states on blocks of
    dimensions ``bdims`` in measurement order.  Each block is measured in
    the eigenbasis of its conditional reduced state: one eigh per level
    serves the whole stack, and outcomes of weight <= P_EPS are masked out.
    """
    n, dim = states.shape[:2]
    d1 = bdims[0]
    dr = dim // d1
    if len(bdims) == 1:
        return _shannon_rows(np.clip(np.linalg.eigvalsh(states), 0.0, None))
    s5 = states.reshape(n, d1, dr, d1, dr)
    p, vecs = np.linalg.eigh(np.einsum("nxaya->nxy", s5))
    p = np.clip(p, 0.0, None)
    live = p > P_EPS
    # state of the rest after the block's outcome |v_k><v_k|, for every (n, k)
    cond = np.einsum("nyk,nyaxb,nxk->nkab", vecs.conj(), s5, vecs)
    cond /= np.where(live, p, 1.0)[:, :, None, None]
    follow = _greedy_chain_values(cond.reshape(n * d1, dr, dr), bdims[1:]).reshape(n, d1)
    return _shannon_rows(p) + np.sum(np.where(live, p * follow, 0.0), axis=1)


# ---------------------------------------------------------------------------
# analytic Werner solver


@dataclass(frozen=True)
class WernerAnalytic:
    """Closed-form Werner values; exact for every class between LO* and PPT."""

    d: int
    lam: float
    s_measured_bits: float
    s_state_bits: float
    gap_bits: float
    witness: Povm


def werner_witness(d: int) -> Povm:
    """The optimal two-outcome POVM (diagonal projector, off-diagonal projector)."""
    diag = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        diag[i * d + i, i * d + i] = 1.0
    off = np.eye(d * d) - diag
    return Povm(np.array([diag, off]), ("diag", "offdiag"), "SEP")


def werner_analytic(d: int, lam: float) -> WernerAnalytic:
    """Exact Werner-state entropies and gap for any class between LO* and PPT."""
    if d < 2:
        raise ValidationError("werner_analytic requires d >= 2")
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must lie in [0, 1], got {lam}")
    w_plus = d * (d + 1) / 2
    w_minus = d * (d - 1) / 2
    x = (d + 2 * lam - 1) / (d + 1)
    s_measured = binary_entropy(x) + (1 - x) * math.log2(d) + x * math.log2(d * (d - 1))
    s_state = binary_entropy(lam) + (1 - lam) * math.log2(w_plus)
    if lam > 0:
        s_state += lam * math.log2(w_minus)
    return WernerAnalytic(d, lam, s_measured, s_state, s_measured - s_state, werner_witness(d))


# ---------------------------------------------------------------------------
# CQ states


def _check_cq(rho: DensityMatrix, basis: np.ndarray, classical_block: int, tol: float = 1e-9):
    """Raise unless rho is block diagonal in ``basis`` on its subsystem ``classical_block``."""
    order = (classical_block, 1 - classical_block)
    dc, dq = (rho.dims[i] for i in order)
    rho4 = permute_subsystems(rho.mat, rho.dims, order).reshape(dc, dq, dc, dq)
    blocks = np.einsum("ak,axby,bl->kxly", basis.conj(), rho4, basis)
    for k, l in itertools.permutations(range(dc), 2):
        norm = opnorm(blocks[k, :, l, :])
        if norm > tol:
            raise ValidationError(
                "state is not classical-quantum in the declared basis "
                f"(off-diagonal block ({k},{l}) has norm {norm:.3e})"
            )


def cq_gap(
    rho: DensityMatrix,
    classical_basis,
    klass: str,
    cfg: OptConfig = DEFAULT_CONFIG,
    classical_block: int = 0,
) -> OptResult:
    """Entropy gap of a CQ state, optimizing only the quantum-side measurement.

    The classical side is measured in its declared basis (provably optimal):
    S_{C(x)N}(rho) - S(rho) = sum_k w_k (S_N(rho_k) - S(rho_k)), so the search
    runs over the quantum side's projective (klass="lostar") or general
    (klass="lo") measurement N alone.
    """
    klass = klass.lower()
    if klass not in ("lostar", "lo"):
        raise ValidationError("cq_gap optimizes the LOStar or LO class only")
    if len(rho.dims) != 2:
        raise ValidationError("cq_gap handles bipartite states")
    if classical_block not in (0, 1):
        raise ValidationError("classical_block must be 0 or 1")
    dc, dq = rho.dims[classical_block], rho.dims[1 - classical_block]
    basis = np.asarray(classical_basis, dtype=complex)
    if basis.shape != (dc, dc) or not opnorm(basis @ dagger(basis) - np.eye(dc)) <= 1e-9:
        raise ValidationError(f"classical_basis must be a {dc} x {dc} unitary")
    _check_cq(rho, basis, classical_block)

    full2 = PartitionSpec.full(2)
    slot = 1 - classical_block

    def frames(q: np.ndarray) -> list[np.ndarray]:
        """Both blocks' frames: the classical basis's bras in its slot, q in the other."""
        return [dagger(basis), q] if classical_block == 0 else [q, dagger(basis)]

    quantum = _product_objective(rho, full2.blocks).composed(
        lambda qs: frames(qs[0]), lambda gs: [gs[slot]]
    )
    star = _over_bases(quantum)
    _, vecs = np.linalg.eigh(rho.reduced([slot]).mat)
    eig = vecs[:, ::-1]
    values, (u,), converged = _search(
        star,
        [[np.eye(dq, dtype=complex)], [eig]],
        lambda k, gen: _haar_frame(dq, dq, gen),
        30_000,
        cfg,
    )
    q_best = dagger(u)
    if klass == "lo":
        # the polished LO* basis seeds one restart, as in minimize_lo
        m = 4 if dq == 2 else dq + 1
        values, (q_best,), converged = _search(
            quantum,
            [[_pad_rows(q, m)] for q in (np.eye(dq, dtype=complex), q_best, dagger(eig))],
            lambda k, gen: _random_frame(dq, m, gen),
            30_000,
            cfg,
        )
    cb_povm = Povm.from_basis(basis)
    n_povm = _frame_povm(q_best)
    pair = [cb_povm, n_povm] if classical_block == 0 else [n_povm, cb_povm]
    witness = lo_povm(pair, full2, rho.dims)
    if klass == "lostar" and witness.is_projective():
        witness = witness.retag("LOStar")
    return _result(rho, observational_entropy(rho, witness), witness, values, converged)


# ---------------------------------------------------------------------------
# exact PPT gap for the three-qubit W state


@dataclass(frozen=True)
class PptW3Result:
    gap_bits: float
    trace_value: float
    coefficients: tuple[float, ...]  # (t2, t3, t4, t5, t6)
    witness: Povm


def _w3_invariant_projectors() -> list[list[list[Fraction]]]:
    """The six projectors spanning operators invariant under local phases and permutations.

    Exact 8 x 8 rational matrices on |abc> (index 4a + 2b + c): Q1 = |W><W|,
    Q2 = |Wbar><Wbar|, Q3 and Q4 the rest of the one- and two-excitation
    sectors, Q5 = |000><000| and Q6 = |111><111|.
    """

    def uniform(sector):  # |v><v|, v the normalised uniform superposition over the sector
        return [[Fraction(1, 3) if i in sector and j in sector else Fraction(0) for j in range(8)]
                for i in range(8)]

    def diagonal(sector):
        return [[Fraction(int(i == j and i in sector)) for j in range(8)] for i in range(8)]

    def minus(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    one, two = (1, 2, 4), (3, 5, 6)
    q1, q2 = uniform(one), uniform(two)
    return [q1, q2, minus(diagonal(one), q1), minus(diagonal(two), q2), diagonal((0,)), diagonal((7,))]


def _pt_first_qubit(x: list[list[Fraction]]) -> list[list[Fraction]]:
    """Partial transpose of a three-qubit operator on its first qubit."""
    return [[x[(j & 4) | (i & 3)][(i & 4) | (j & 3)] for j in range(8)] for i in range(8)]


def _is_psd_exact(a: list[list[Fraction]]) -> bool:
    """Whether a real symmetric rational matrix is positive semidefinite, by exact elimination."""
    a = [row[:] for row in a]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1 :])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


EXACT_W3_COEFFS = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(2, 3), Fraction(1, 12))
# the dual certificate Y = sum_j w_j y_j y_j^T, which lies on the kernel of PT(M')
EXACT_W3_DUAL = (
    (Fraction(1), (-1, 0, 0, 0, 0, 1, 1, 0)),  # |101> + |110> - |000>
    (Fraction(1, 4), (0, -1, 0, 0, 0, 0, 0, 2)),  # 2|111> - |001>
)


def _certify_ppt_w3(coeffs, dual) -> Fraction:
    """Proven minimum of Tr M' over M' = Q1 + sum_a t_a Q_a, t >= 0, PT(M') >= 0.

    Primal: t = ``coeffs`` is feasible, so its Tr M' bounds the minimum from
    above.  Dual: ``dual`` lists weights w_j >= 0 and vectors y_j of
    Y = sum_j w_j y_j y_j^T >= 0; when Tr(Y PT(Q_a)) <= Tr Q_a for a = 2..6,
    every feasible M' has Tr M' >= Tr Q1 - Tr(Y PT(Q1)) + Tr(Y PT(M')) >=
    Tr Q1 - Tr(Y PT(Q1)).  All of it runs in exact rational arithmetic;
    RuntimeError unless both parts hold and the two bounds meet.
    """
    qs = _w3_invariant_projectors()
    traces = [sum(q[i][i] for i in range(8)) for q in qs]
    pts = [_pt_first_qubit(q) for q in qs]
    t = [Fraction(1)] + [Fraction(c) for c in coeffs]
    pt_m = [[sum(ta * pt[i][j] for ta, pt in zip(t, pts)) for j in range(8)] for i in range(8)]
    if min(t) < 0 or not _is_psd_exact(pt_m):
        raise RuntimeError("W3 PPT primal point is infeasible")
    upper = sum(ta * tr for ta, tr in zip(t, traces))

    def against_y(x):  # Tr(Y x)
        return sum(w * sum(y[i] * x[i][j] * y[j] for i in range(8) for j in range(8)) for w, y in dual)

    if any(w < 0 for w, _ in dual) or any(against_y(pt) > tr for pt, tr in zip(pts[1:], traces[1:])):
        raise RuntimeError("W3 PPT dual certificate is infeasible")
    lower = traces[0] - against_y(pts[0])
    if lower != upper:
        raise RuntimeError(f"W3 PPT bounds do not meet: dual {lower} < primal {upper}")
    return upper


def ppt_gap_w3() -> PptW3Result:
    """Exact PPT-class gap of the three-qubit W state, log2(9/4) bits.

    The gap is log2 min Tr M' over M' = Q1 + sum_a t_a Q_a with M' >= 0 and
    PPT on the first qubit; ``_certify_ppt_w3`` proves that EXACT_W3_COEFFS
    attains the minimum 9/4 with the dual certificate EXACT_W3_DUAL.
    """
    trace = _certify_ppt_w3(EXACT_W3_COEFFS, EXACT_W3_DUAL)
    if max(EXACT_W3_COEFFS) > 1:
        raise RuntimeError("exact coefficients exceed 1; witness would not be a POVM")
    qs = [np.array(q, dtype=float).astype(complex) for q in _w3_invariant_projectors()]
    m_opt = qs[0] + sum(float(ta) * qa for ta, qa in zip(EXACT_W3_COEFFS, qs[1:]))
    complement = np.eye(8) - m_opt
    dims = (2, 2, 2)
    if not effect_is_ppt(complement, PartitionSpec.full(3), dims):
        raise RuntimeError("identity complement of the W3 witness is not PPT")
    witness = Povm(np.array([m_opt, complement]), ("W3", "rest"), "PPT")
    return PptW3Result(
        gap_bits=math.log2(float(trace)),
        trace_value=float(trace),
        coefficients=tuple(float(f) for f in EXACT_W3_COEFFS),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# eigenseparability


@dataclass(frozen=True)
class EigenseparabilityReport:
    verdict: str  # Eigenseparable | NotEigenseparable | Unknown
    projector_verdicts: tuple[tuple[float, SeparabilityVerdict], ...]
    kernel_verdict: SeparabilityVerdict | None
    kernel_is_ppt: bool | None


def eigenseparability(rho: DensityMatrix, partition: PartitionSpec) -> EigenseparabilityReport:
    """Decide whether every eigenprojector of rho (kernel included) is separable.

    Exactly the states with zero SEP gap are eigenseparable; the verdict is
    three-valued because general separability is undecidable at this scale.
    """
    spec = spectral(rho.mat)
    dims = rho.dims
    verdicts = []
    nonzero = np.zeros((rho.d, rho.d), dtype=complex)
    for lam, proj in zip(spec.eigenvalues, spec.projectors):
        if lam <= 1e-10:
            continue
        nonzero = nonzero + proj
        verdicts.append((lam, is_separable_effect(proj, partition, dims)))
    kernel = np.eye(rho.d) - nonzero
    kernel_verdict = None
    kernel_ppt = None
    if opnorm(kernel) > 1e-8:
        kernel_verdict = is_separable_effect(kernel, partition, dims)
        kernel_ppt = effect_is_ppt(kernel, partition, dims)
    all_v = [v for _, v in verdicts] + ([kernel_verdict] if kernel_verdict is not None else [])
    if any(v == SeparabilityVerdict.ENTANGLED for v in all_v):
        overall = "NotEigenseparable"
    elif all(v == SeparabilityVerdict.SEPARABLE for v in all_v):
        overall = "Eigenseparable"
    else:
        overall = "Unknown"
    return EigenseparabilityReport(overall, tuple(verdicts), kernel_verdict, kernel_ppt)


# ---------------------------------------------------------------------------
# SEP heuristic


def sep_gap_heuristic(
    rho: DensityMatrix,
    partition: PartitionSpec,
    cfg: OptConfig = DEFAULT_CONFIG,
    ppt_lower_bits: float | None = None,
) -> OptResult:
    """Upper bound on the SEP-class entropy via weighted product rank-1 POVMs.

    Directions are product unit vectors (one per block per outcome); weights
    come from a non-negative least-squares completeness solve, and direction
    sets whose cone misses the identity are rejected, so every accepted
    iterate is a genuine POVM.  Candidate sets seed from the LO* witness and
    the flattened one-way LOCC witness, both searched with ``cfg`` itself,
    then local perturbations polish.
    The returned ``bounds`` records the sandwich
    [max(ppt_lower_bits, 0), heuristic gap].
    """
    dims = rho.dims
    d = rho.d

    def directions_from_povm(povm: Povm) -> list[list[np.ndarray]] | None:
        dirs = []
        refined = rank1_refine(povm)
        for eff in refined.effects:
            scale = float(np.real(np.trace(eff)))
            if scale <= 1e-10:
                continue
            vals, vecs = np.linalg.eigh(eff)
            vec = vecs[:, -1]
            factors = product_vector_factors(vec, partition, dims)
            if factors is None:
                return None
            dirs.append(factors)
        return dirs

    def assemble(dirs: list[list[np.ndarray]]):
        """NNLS weight solve; returns (entropy, weights, projectors) or None if infeasible."""
        projs = []
        for factors in dirs:
            parts = [np.outer(f, f.conj()) for f in factors]
            projs.append(_product_effect(parts, partition.blocks, dims))
        a = np.stack([np.concatenate([p.real.ravel(), p.imag.ravel()]) for p in projs], axis=1)
        target = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
        w, _ = scipy.optimize.nnls(a, target)
        residual = np.linalg.norm(a @ w - target)
        if residual > 1e-10:
            return None
        p = np.array([wk * float(np.real(np.trace(pk @ rho.mat))) for wk, pk in zip(w, projs)])
        val = entropy_from_stats(np.clip(p, 0.0, None), np.where(w > 0, w, 1.0))
        return val, w, projs

    seeds = [minimize_lostar(rho, partition, cfg)]
    seed_povms = [seeds[0].witness]
    if partition.n_blocks >= 2:
        seeds.append(minimize_locc_oneway(rho, partition, None, cfg))
        seed_povms.append(flatten_locc(seeds[1].witness, dims))
    candidates = [c for c in map(directions_from_povm, seed_povms) if c is not None]
    if not candidates:
        raise RuntimeError("no feasible product POVM seed found")

    best_val = np.inf
    best_assembly = None
    best_dirs = None
    trace_vals = []
    for dirs in candidates:
        out = assemble(dirs)
        if out is None:
            continue
        trace_vals.append(out[0])
        if out[0] < best_val:
            best_val, best_dirs, best_assembly = out[0], dirs, out
    if best_assembly is None:
        raise RuntimeError("no candidate product POVM was complete; implementation bug")

    # local polish: jitter directions, keep strictly feasible improvements only
    gen = _rng(cfg.seed, 40_000)
    scale = 0.1
    for _ in range(cfg.restarts):
        trial = [
            [f + scale * (gen.normal(size=f.shape) + 1j * gen.normal(size=f.shape)) for f in factors]
            for factors in best_dirs
        ]
        trial = [[f / np.linalg.norm(f) for f in factors] for factors in trial]
        out = assemble(trial)
        if out is not None and out[0] < best_val - 1e-12:
            best_val, best_dirs, best_assembly = out[0], trial, out
        else:
            scale *= 0.8
        trace_vals.append(best_val)

    _, w, projs = best_assembly
    keep = w > 1e-14
    effects = np.array([wk * pk for wk, pk in zip(w[keep], np.asarray(projs)[keep])])
    witness = Povm(effects, class_tag="SEP")
    s_best = observational_entropy(rho, witness)
    # the seed witnesses are separable too; when the reassembly did not beat
    # them, one is returned, so SEP never reports more than LO* or LOCC1
    for seed, povm in zip(seeds, seed_povms):
        if seed.entropy_bits < s_best:
            s_best, witness = seed.entropy_bits, povm.retag("SEP")
    res = _result(rho, s_best, witness, trace_vals, True)
    lower = max(ppt_lower_bits if ppt_lower_bits is not None else 0.0, 0.0)
    return replace(res, bounds=(lower, res.gap_bits))
