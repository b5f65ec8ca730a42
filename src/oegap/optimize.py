"""Minimizers of observational entropy over locality-restricted measurement classes.

Every search-based minimizer reports an upper bound on the true class minimum.
The LO*, LO and one-way LOCC searches share one restart engine,
``_search``: deterministic warm starts (computational bases, marginal
eigenbases and, for LO, the polished LO* bases) come first, seeded random
starts follow, and the best restart wins with ties resolved to the lowest
restart index, so results are reproducible bit-for-bit for a fixed seed.
Every search runs over row frames: a measurement's effects are |q_i^*><q_i^*|
for the rows q_i of a frame, a basis's bras for LO*, POVM rows for LO and
one-way LOCC.  Every objective is a plain function of a list of frames that
returns the value and one gradient per frame, in closed form, pulled back
through each frame's chart U exp(iH(theta)) by the Daleckii-Krein formula.
Every restart is one polish, ``_descent``: one L-BFGS-B run over all
of its frames together, the charts sharing one parameter vector, and the
frames of one chart size sharing one stacked chart, so an evaluation makes
one eigh and one pullback per chart size.  A start of bases begins at
theta = 0, and when its gradient there already passes L-BFGS-B's own
stopping test (``_stationary``) no solver is called, since
L-BFGS-B would return it at iteration 0: a stationary warm start costs one
gradient.  A start with a POVM frame begins at a seeded nudge, off the
saddle where a padded basis's zero rows have zero gradient.  LO*, LO and
CQ are one search, ``_product_search``, of ``_product_objective``: the entropy
of a product measurement with one row frame per block, applied block by block
to a factor rho = L L^dag taken once per search.  The LO search is seeded
with the LO* optimum, and CQ holds its classical block in the declared basis.
The one-way LOCC search minimizes ``_oneway_objective`` over a tree of
frames, its list of levels: one stack of frames per block but the last, the
first block's POVM frame as a stack of one and one basis per outcome path at
each later level, the last block measured in its conditional eigenbasis;
``_tree_protocol`` reads the witness protocol off the winning tree in one
forward pass of the same factor.  ``sep_gap_heuristic`` searches
nothing itself: it returns the best of the LO* and one-way LOCC witnesses
and, when it is a product basis, rho's eigenbasis.  ``werner_analytic`` is
exact in closed form, and ``ppt_gap_w3`` is proven optimal by a primal point
and a dual certificate checked in rational arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.optimize

from .classes import (
    ConditionalMeasurement,
    SeparabilityVerdict,
    effect_is_ppt,
    flatten_locc,
    is_separable_effect,
    lo_povm,
    lostar_povm,
    product_vector_factors,
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
    observational_entropy,
    von_neumann,
)

LOG2_E = 1 / math.log(2)
STEP_TOL = 1e-7  # L-BFGS-B bound on the projected gradient
ENTROPY_TOL = 1e-6  # restarts this close to the best count as agreeing
CQ_TOL = 1e-9  # largest off-diagonal block norm of a CQ state in its classical basis
ZERO_ROW = 1e-7  # a frame row of at most this norm is dropped: it is no outcome


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by all search-based minimizers."""

    seed: int = 2025
    restarts: int = 64
    max_iters: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


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
    """Extend orthonormal columns to a full unitary whose first columns equal q.

    A stack of frames (n, m, d) gives a stack of unitaries (n, m, m), with one
    batched QR.
    """
    m = q.shape[-2]
    eye = np.broadcast_to(np.eye(m, dtype=complex), q.shape[:-1] + (m,))
    full, r = np.linalg.qr(np.concatenate([q, eye], axis=-1))
    diag = np.diagonal(r, axis1=-2, axis2=-1)[..., :m]
    safe = np.abs(diag) > 1e-12
    phases = np.where(safe, diag / np.where(safe, np.abs(diag), 1.0), 1.0)
    return full[..., :m] * phases[..., None, :]


@functools.cache
def _hermitian_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parameter map of d x d Hermitian matrices, on H's flat (re, im) entries.

    Entry e of H is sign[e] * theta[source[e]]: a diagonal entry's real part
    is its theta entry and its imaginary part 0, and an upper pair's real
    (imaginary) part sets that part of H_ij and, with sign +1 (-1), of H_ji.
    Each theta entry is the source of the two entries at pairs[:, a], so the
    gradient in theta sums the signed gradient in H over them.  With signs
    0 and +-1 both directions are exact, in O(d^2).
    """
    rows, cols = np.triu_indices(d, 1)
    re, diag = d + 2 * np.arange(rows.size), np.arange(d)
    source, sign = np.empty((d, d, 2), dtype=np.intp), np.ones((d, d, 2))
    source[diag, diag], sign[diag, diag, 1] = diag[:, None], 0.0
    source[rows, cols] = source[cols, rows] = np.stack([re, re + 1], axis=1)
    sign[cols, rows, 1] = -1.0
    source, sign = source.ravel(), sign.ravel()
    return source, sign, np.argsort(source, kind="stable").reshape(-1, 2).T


def _hermitian_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrix: diagonal theta[:d], then (re, im) pairs of the upper triangle by rows.

    A stack of parameter vectors (n, d * d) gives a stack of matrices.
    """
    source, sign, _ = _hermitian_indices(d)
    return (theta.take(source, axis=-1) * sign).view(complex).reshape(theta.shape[:-1] + (d, d))


def _hermitian_gradient_params(g: np.ndarray) -> np.ndarray:
    """Gradient in theta of f(H(theta)), from the gradient g of f in an unconstrained H.

    A stack of gradients (n, d, d) gives a stack of parameter gradients.
    """
    _, sign, (first, second) = _hermitian_indices(g.shape[-1])
    signed = np.ascontiguousarray(g).view(float).reshape(g.shape[:-2] + (-1,)) * sign
    return signed.take(first, axis=-1) + signed.take(second, axis=-1)  # g_ij + conj(g_ji)


def _chart(theta: np.ndarray, base: np.ndarray):
    """base @ exp(iH(theta)), a smooth chart of the unitary group, and its pullback.

    The pullback maps a gradient G with respect to the first columns of the
    unitary to the gradient in theta, by the Daleckii-Krein formula on the
    eigh of H in the stable form Phi_jk = e^{i(l_j + l_k)/2} sinc((l_j - l_k)/2),
    so a degenerate H needs no special case; it reuses the chart's eigenpairs
    and base @ V.  At theta = 0 the chart is the base itself and Phi = 1,
    with no eigh.  A stack of parameter vectors (n, m * m) and bases
    (n, m, m) charts n unitaries with one eigh, as ``_descent`` charts all
    frames of one size.
    """
    m = base.shape[-1]
    if theta.any():
        vals, vecs = np.linalg.eigh(_hermitian_from_params(theta, m))
        turned, back = base @ vecs, dagger(vecs)
        u = (turned * np.exp(1j * vals)[..., None, :]) @ back
        half = np.exp(-0.5j * vals)  # conjugated, as conj(Phi) is what the pullback takes
        diff = vals[..., :, None] - vals[..., None, :]
        phi_conj = half[..., :, None] * half[..., None, :] * np.sinc(diff / (2 * np.pi))
    else:
        turned, u, phi_conj = base, base, 1.0
        vecs = back = np.eye(m)

    def pullback(g: np.ndarray) -> np.ndarray:
        inner = dagger(turned) @ g @ vecs[..., : g.shape[-1], :]
        return _hermitian_gradient_params(-1j * vecs @ (phi_conj * inner) @ back)

    return u, pullback


def _pad_rows(q: np.ndarray, m: int) -> np.ndarray:
    return np.vstack([q, np.zeros((m - q.shape[0], q.shape[1]), dtype=complex)])


def _frame_povm(q: np.ndarray) -> Povm:
    """POVM of a frame's rows (effects |row><row|), dropped rows' deficit reabsorbed."""
    effects = [np.outer(row.conj(), row) for row in q if np.linalg.norm(row) > ZERO_ROW]
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


def _stationary(base: np.ndarray, g: np.ndarray) -> bool:
    """Whether L-BFGS-B stops at once from theta = 0 on the chart from ``base``.

    ``base`` is a frame's ``_chart_base`` and g the objective's gradient in
    that frame; a stack of bases, as ``_descent`` groups them by chart size,
    is tested as one.  With no bounds the projected gradient is the gradient,
    and L-BFGS-B runs its stopping test, max |jac| <= STEP_TOL, before its
    first step, so from a point that passes it returns that point at
    iteration 0.
    """
    m = base.shape[-1]
    jac = _chart(np.zeros(base.shape[:-2] + (m * m,)), base)[1](g)
    return bool(np.max(np.abs(jac)) <= STEP_TOL)


def _reduce_restarts(values: list[float]) -> tuple[int, bool]:
    """Index of the best of at least two restarts and a convergence flag.

    Restarts within 1e-12 of the minimum count as ties and the lowest index
    wins, so deterministic warm starts beat float dust from Haar restarts.
    The search counts as converged when the runner-up is within ENTROPY_TOL.
    """
    lo = min(values)
    best = next(i for i, v in enumerate(values) if v <= lo + 1e-12)
    runner_up = min(v for i, v in enumerate(values) if i != best)
    return best, runner_up - values[best] <= ENTROPY_TOL


def _chart_base(frame: np.ndarray) -> np.ndarray:
    """The unitary U an m x d frame is charted from, as the first d columns of U exp(iH(theta)).

    U is the frame itself when square (a basis) and its completion to an
    m x m unitary otherwise (a POVM frame); theta = 0 gives the frame back.
    """
    return frame if frame.shape[-2] == frame.shape[-1] else _complete_unitary(frame)


def _descent(objective, frames: list[np.ndarray], cfg: OptConfig, gen: np.random.Generator):
    """One L-BFGS-B polish of all of ``frames`` together; returns (value, frames).

    ``objective(frames)`` returns the value and, for each frame Q_k (a row
    frame, or a stack of them), the matrix G_k of the same shape with
    dS = Re Tr(G_k^dag dQ_k).

    Each frame, or each frame of a stack, is charted from its ``_chart_base``
    on consecutive slices of one parameter vector.  The frames are grouped by
    chart size m, and each group's m x m bases form one stacked chart: an
    evaluation makes one eigh and one pullback per group, its frames'
    gradients stacked at the width of its widest frame, narrower ones padded
    with zero columns.  When every frame is square (a basis or a stack of
    bases) the polish starts at theta0 = 0, and it is skipped when every
    group's gradient there passes ``_stationary``: L-BFGS-B would return the
    start at iteration 0.  With any POVM frame (more rows than columns) it
    starts at the seeded theta0 = 1e-2 N(0, 1) drawn from ``gen``, since the
    zero rows of a padded basis have zero gradient at theta = 0, a saddle.
    The start is kept unless the polish beats it.
    """
    best, grads = objective(frames)
    counts = [f.size // (f.shape[-2] * f.shape[-1]) for f in frames]  # unitaries per frame
    ends = list(itertools.accumulate(n * f.shape[-2] ** 2 for n, f in zip(counts, frames)))
    # per chart size m: ((m, widest frame), [(frame, first row, end row)], stacked bases, theta entries)
    groups = []
    for m in dict.fromkeys(f.shape[-2] for f in frames):
        ks = [k for k, f in enumerate(frames) if f.shape[-2] == m]
        rows = np.cumsum([0] + [counts[k] for k in ks])
        idx = np.concatenate([np.arange(ends[k] - counts[k] * m * m, ends[k]) for k in ks])
        bases = np.concatenate([_chart_base(frames[k]).reshape(-1, m, m) for k in ks])
        widest = max(frames[k].shape[-1] for k in ks)
        groups.append(((m, widest), list(zip(ks, rows, rows[1:])), bases, idx))

    def stacked(gs, shape, members):  # a group's frame gradients as one stack of the given (m, widest)
        g = np.zeros((members[-1][2],) + shape, dtype=complex)
        for k, a, b in members:
            g[a:b, :, : gs[k].shape[-1]] = gs[k].reshape(b - a, shape[0], -1)
        return g

    square = all(f.shape[-2] == f.shape[-1] for f in frames)
    stationary = (_stationary(b, stacked(grads, shape, members)) for shape, members, b, _ in groups)
    if square and all(stationary):
        return best, frames

    def charted(theta):
        charts = [_chart(theta[idx].reshape(len(bases), -1), bases) for _, _, bases, idx in groups]
        new = [None] * len(frames)
        for (_, members, _, _), (u, _) in zip(groups, charts):
            for k, a, b in members:
                new[k] = u[a:b, :, : frames[k].shape[-1]].reshape(frames[k].shape)
        return new, charts

    def fun(theta):
        new, charts = charted(theta)
        s, gs = objective(new)
        jac = np.empty(theta.size)
        for (shape, members, _, idx), (_, pullback) in zip(groups, charts):
            jac[idx] = pullback(stacked(gs, shape, members)).ravel()
        return s, jac

    theta0 = np.zeros(ends[-1]) if square else 1e-2 * gen.normal(size=ends[-1])
    options = {"maxiter": cfg.max_iters, "ftol": 1e-13, "gtol": STEP_TOL}
    res = scipy.optimize.minimize(fun, theta0, method="L-BFGS-B", jac=True, options=options)
    if float(res.fun) < best - 1e-13:
        return float(res.fun), charted(res.x)[0]
    return best, frames


def _blockwise_sampler(last: list[np.ndarray], draw):
    """Start sampler for ``_search``: block k from ``draw(k, gen)``, except that
    with several blocks a block keeps its frame in ``last`` with probability 0.35."""
    n = len(last)
    return lambda gen: [last[k] if n > 1 and gen.uniform() < 0.35 else draw(k, gen) for k in range(n)]


def _search(objective, warm, sample, offset: int, cfg: OptConfig):
    """Restarted descent over a list of frames.

    Restart i < len(warm) starts from ``warm[i]``; each later one from
    ``sample(gen)``, with gen seeded by (seed, offset + i) and handed on to
    ``_descent``.  Returns the per-restart values, the best restart's frames
    and the convergence flag.
    """

    def restart(idx: int):
        gen = _rng(cfg.seed, offset + idx)
        start = warm[idx] if idx < len(warm) else sample(gen)
        return _descent(objective, start, cfg, gen)

    results = [restart(i) for i in range(max(cfg.restarts, len(warm)))]
    values = [r[0] for r in results]
    best, converged = _reduce_restarts(values)
    return values, results[best][1], converged


def _marginal_eigenbras(rho: DensityMatrix, block) -> np.ndarray:
    """Eigenbasis of rho's reduced state on ``block``, as bras (rows) in descending eigenvalue order."""
    return dagger(np.linalg.eigh(partial_trace(rho.mat, rho.dims, block))[1][:, ::-1])


def _block_factor(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """L with L L^dag = rho, subsystems reordered block by block; eigenvalues <= P_EPS dropped."""
    order = [i for b in blocks for i in b]
    vals, vecs = np.linalg.eigh(permute_subsystems(rho.mat, rho.dims, order))
    keep = vals > P_EPS
    return vecs[:, keep] * np.sqrt(vals[keep])


def _product_objective(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]):
    """S_M(rho) and its gradients, as a function of one row frame per block; M is their product.

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

    def objective(qs: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        stages, norms, vols = [factor], [], np.ones(1)
        for q in qs:
            stages.append(q @ stages[-1].reshape(vols.size, q.shape[1], -1))
            norms.append((abs(q) ** 2).sum(axis=1))
            vols = np.multiply.outer(vols, norms[-1]).ravel()
        p = (abs(stages[-1]) ** 2).sum(axis=-1).ravel()
        live = p > P_EPS
        log_ratio = np.log2(np.where(live, p, 1.0) / np.where(live, vols, 1.0))
        s = max(0.0, float(-np.sum(p[live] * log_ratio[live])))  # entropy_from_stats(p, vols)
        ds_dp = np.where(live, -(log_ratio + LOG2_E), 0.0)
        p_live = np.where(live, p, 0.0).reshape([len(n) for n in norms])
        g = 2 * ds_dp[:, None] * stages[-1].reshape(p.size, -1)  # gradient in the last stage
        grads = []
        for k in range(len(qs) - 1, -1, -1):
            q = qs[k]
            g = g.reshape(stages[k + 1].shape)  # (paths, rows, rest)
            x = stages[k].reshape(g.shape[0], q.shape[1], -1)
            marginal = p_live.sum(axis=tuple(j for j in range(len(qs)) if j != k))
            ds_dn = marginal / np.where(norms[k] > 0, norms[k], 1.0)  # a zero row's marginal is 0
            g_q = g.swapaxes(0, 1).reshape(len(q), -1) @ x.swapaxes(0, 1).reshape(q.shape[1], -1).conj().T
            grads.append(g_q + 2 * LOG2_E * ds_dn[:, None] * q)
            if k:
                g = dagger(q) @ g
        return s, grads[::-1]

    return objective


# ---------------------------------------------------------------------------
# LO* and LO: local projective measurements and local POVMs


def _product_search(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig, lo: bool, hold=None
) -> OptResult:
    """LO* search, then, when ``lo``, the LO search seeded with the LO* optimum.

    ``hold=(block, frame)`` keeps that block measured by the row frame ``frame``.
    The LO restarts start from the LO* warm starts padded with zero rows,
    and restart 1 from the polished LO* bases, so the LO result can only
    improve on the projective optimum found with the same budget.
    """
    bdims = partition.block_dims(rho.dims)
    product = _product_objective(rho, partition.blocks)
    free = list(range(partition.n_blocks))
    if hold is None:
        objective = product
    else:
        held, frame = hold
        free.remove(held)

        def objective(qs):  # the held block's frame inserted, its gradient dropped
            s, gs = product(qs[:held] + [frame] + qs[held:])
            return s, gs[:held] + gs[held + 1 :]

    ds = [bdims[k] for k in free]
    eyes = [np.eye(d, dtype=complex) for d in ds]
    eigs = [_marginal_eigenbras(rho, partition.blocks[k]) for k in free]
    values, frames, converged = _search(
        objective,
        [eyes, eigs],
        _blockwise_sampler(eigs, lambda k, gen: dagger(_haar_frame(ds[k], ds[k], gen))),
        0,
        cfg,
    )
    if lo:
        ms = [4 if d == 2 else d + 1 for d in ds]
        warm = [[_pad_rows(q, m) for q, m in zip(qs, ms)] for qs in (eyes, frames, eigs)]
        values, frames, converged = _search(
            objective,
            warm,
            _blockwise_sampler(warm[-1], lambda k, gen: _random_frame(ds[k], ms[k], gen)),
            10_000,
            cfg,
        )
    if hold is not None:
        frames.insert(held, frame)
    if lo:
        witness = lo_povm([_frame_povm(q) for q in frames], partition, rho.dims)
    else:
        witness = lostar_povm([dagger(q) for q in frames], partition, rho.dims)
    return _result(rho, observational_entropy(rho, witness), witness, values, converged)


def minimize_lostar(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig = DEFAULT_CONFIG
) -> OptResult:
    """Upper bound on the minimal OE over local projective measurements.

    The search runs over one basis per block, its bras the rows of a unitary
    Q0 @ exp(iH); restart 0 starts from the computational bases, restart 1
    from the marginal eigenbases, the rest from Haar-random bases.
    """
    return _product_search(rho, partition, cfg, lo=False)


def minimize_lo(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig = DEFAULT_CONFIG
) -> OptResult:
    """Upper bound on the minimal OE over local (tensor product) POVMs.

    Each block carries up to m rank-1 effects (m = 4 on qubits, d + 1
    otherwise), encoded as the rows of an m x d isometry-style matrix Q
    (Q^dag Q = 1); qubit blocks draw restarts from the extremal families
    (2 to 4 rank-1 effects), other blocks from Haar bases and Haar Stiefel
    frames.  The LO* search runs first and seeds one restart.
    """
    return _product_search(rho, partition, cfg, lo=True)


# ---------------------------------------------------------------------------
# one-way LOCC


def minimize_locc_oneway(
    rho: DensityMatrix,
    partition: PartitionSpec,
    ordering=None,
    cfg: OptConfig = DEFAULT_CONFIG,
) -> OptResult:
    """Upper bound on the minimal OE over one-way LOCC protocols.

    The search runs over a tree of frames (``_oneway_objective``): the first
    block's POVM (rank-1 effects, Stiefel-row encoding) and, at each later
    level but the last, one basis per outcome path; the last block is
    measured in the eigenbasis of its conditional state, which is exactly
    optimal there.  Each start is a first-block frame and the conditional
    eigenbases of its paths: the computational basis, the marginal
    eigenbasis, then random frames.  All of a restart's frames are polished
    together with L-BFGS-B.  The winning tree is read off as a protocol
    (``_tree_protocol``), whose ``chain_entropy`` on rho is the reported
    entropy.
    """
    dims = rho.dims
    if ordering is None:
        ordering = tuple(range(partition.n_blocks))
    else:
        ordering = tuple(int(i) for i in ordering)
        if sorted(ordering) != list(range(partition.n_blocks)):
            raise ValidationError("ordering must be a permutation of the partition blocks")
    blocks = tuple(partition.blocks[k] for k in ordering)
    d0 = _block_dims(rho, blocks)[0]
    m = 4 if d0 == 2 else d0 + 1
    firsts = [np.eye(d0, dtype=complex), _marginal_eigenbras(rho, blocks[0])]
    values, tree, converged = _search(
        _oneway_objective(rho, blocks),
        [_eigenbasis_tree(rho, blocks, _pad_rows(q, m)) for q in firsts],
        lambda gen: _eigenbasis_tree(rho, blocks, _random_frame(d0, m, gen)),
        20_000,
        cfg,
    )
    witness = _tree_protocol(rho, blocks, tree)
    return _result(rho, chain_entropy(witness, rho), witness, values, converged)


def _oneway_forward(factor: np.ndarray, bdims: tuple[int, ...], level_frames):
    """Apply a one-way tree's levels to a block-ordered factor of rho.

    ``level_frames(k, x)`` gives level k's stacked frames for its input x,
    of shape (paths, d_k, R): the unnormalised conditional factors of the
    blocks from k on, one per outcome path.  Returns each level's input and
    frames, and the leaves T (paths, d_last, rank), whose T T^dag are the
    unnormalised conditional states of the last block (d_last = 1 when the
    first block is the only one).
    """
    x = factor.reshape(1, bdims[0], -1)
    xs, fs = [], []
    for k in range(max(1, len(bdims) - 1)):
        f = level_frames(k, x)
        xs.append(x)
        fs.append(f)
        y = f @ x
        x = y.reshape(y.shape[0] * y.shape[1], (bdims + (1,))[k + 1], -1)
    return xs, fs, x


def _block_dims(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(int(np.prod([rho.dims[i] for i in b])) for b in blocks)


def _eigenbasis_levels(rho: DensityMatrix, blocks, levels: list[np.ndarray]) -> list[np.ndarray]:
    """Every block's stacked frames: ``levels`` first, each later block in its conditional eigenbases.

    Level k is a stack (paths, rows, d_k) of frames, one per outcome path of
    the levels before it, the first outcome slowest; level 0 has one path.
    A block with no level given is measured, on each path, in the
    eigenvectors of its unnormalised conditional marginal (T T^dag on the
    last block) in descending eigenvalue order, as bras.
    """

    def level_frames(k, x):
        if k < len(levels):
            return levels[k]
        return dagger(np.linalg.eigh(x @ dagger(x))[1][..., ::-1])

    _, fs, leaves = _oneway_forward(_block_factor(rho, blocks), _block_dims(rho, blocks), level_frames)
    return fs if len(blocks) == 1 else [*fs, level_frames(len(blocks) - 1, leaves)]


def _eigenbasis_tree(rho: DensityMatrix, blocks, q: np.ndarray) -> list[np.ndarray]:
    """The tree with first frame q and every later searched level in its conditional eigenbasis.

    On it ``_oneway_objective`` equals the chain entropy of the greedy
    eigenbasis protocol after q.  Its levels are those of every block but the
    last, or of the first block alone when it is the only one.
    """
    return _eigenbasis_levels(rho, blocks, [q[None]])[: max(1, len(blocks) - 1)]


def _tree_protocol(rho: DensityMatrix, blocks, tree: list[np.ndarray]) -> ConditionalMeasurement:
    """The one-way protocol of a tree, its last block in the conditional eigenbases.

    Node k on a path measures ``blocks[k]`` with the rows of that path's
    frame; row i of a frame leads to path ``path * rows + i`` of the next
    level.  Rows dropped by ``_frame_povm`` get no child.  Search frames are
    isometries, so ``_frame_povm`` appends no deficit outcome; if it did,
    ``ConditionalMeasurement`` would reject the child count.
    """
    levels = _eigenbasis_levels(rho, blocks, tree)

    def node(k: int, path: int) -> ConditionalMeasurement:
        frame = levels[k][path]
        povm = _frame_povm(frame)
        if k + 1 == len(levels):
            return ConditionalMeasurement(blocks[k], povm)
        rows = [i for i, row in enumerate(frame) if np.linalg.norm(row) > ZERO_ROW]
        return ConditionalMeasurement(
            blocks[k], povm, tuple(node(k + 1, path * len(frame) + i) for i in rows)
        )

    return node(0, 0)


def _oneway_objective(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]):
    """Chain entropy of a one-way protocol and its gradients, as a function of its tree of frames.

    ``blocks`` lists the partition blocks in measurement order.  A tree is
    its list of levels, as in ``_eigenbasis_levels``: the first block's
    frame q as a (1, m, d_0) stack, whose row q_i gives the effect
    |q_i^*><q_i^*|, then a stack of bases, one per outcome path, for each
    later level but the last (a single block's tree is q alone).  The last
    block is measured in the eigenbasis of its conditional state, so with
    A = T T^dag the unnormalised final conditional state of each leaf path
    and V_i = |q_i|^2,

        S = sum_leaves -Tr A log2 A + sum_i p_i log2 V_i,

    where p_i sums Tr A over the leaves after outcome i.  The gradient in A
    is -(log2 A + 1/ln 2) on its support plus log2 V_i of the leaf's first
    outcome, and in V_i it is p_i / (V_i ln 2); eigenvalues and p_i at or
    below P_EPS are masked, as in ``chain_entropy``.  It runs back through
    the levels' frames as in ``_product_objective``.
    """
    bdims = _block_dims(rho, blocks)
    factor = _block_factor(rho, blocks)

    def objective(tree: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        xs, _, leaves = _oneway_forward(factor, bdims, lambda k, x: tree[k])
        q = tree[0]
        p = (abs(leaves) ** 2).reshape(q.shape[1], -1).sum(axis=1)
        live_p = p > P_EPS
        vols = np.where(live_p, (abs(q) ** 2).sum(axis=-1).ravel(), 1.0)  # 1 where p is masked
        log_vols = np.log2(vols)
        lam, vecs = np.linalg.eigh(leaves @ dagger(leaves))
        live = lam > P_EPS
        log_lam = np.log2(np.where(live, lam, 1.0))
        s = float(np.dot(p, log_vols) - np.sum(lam * log_lam))  # log_lam is 0 where masked
        g_a = (vecs * np.where(live, -(log_lam + LOG2_E), 0.0)[:, None, :]) @ dagger(vecs)
        leaf_log_vols = np.repeat(log_vols, len(leaves) // len(p))[:, None, None]
        g = 2 * (g_a @ leaves + leaf_log_vols * leaves)  # gradient in the leaves
        grads = []
        for k in range(len(tree) - 1, -1, -1):
            f = tree[k]
            g = g.reshape(f.shape[0], f.shape[1], -1)  # gradient in the level's output
            grads.append(g @ dagger(xs[k]))
            if k:
                g = dagger(f) @ g
        ds_dn = np.where(live_p, p, 0.0) / vols
        grads[-1] += 2 * LOG2_E * ds_dn[:, None] * q
        return s, grads[::-1]

    return objective


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


def _check_cq(rho: DensityMatrix, basis: np.ndarray, classical_block: int):
    """Raise unless rho is block diagonal in ``basis`` on its subsystem ``classical_block``."""
    order = (classical_block, 1 - classical_block)
    dc, dq = (rho.dims[i] for i in order)
    rho4 = permute_subsystems(rho.mat, rho.dims, order).reshape(dc, dq, dc, dq)
    blocks = np.einsum("ak,axby,bl->kxly", basis.conj(), rho4, basis)
    for k, l in itertools.permutations(range(dc), 2):
        norm = opnorm(blocks[k, :, l, :])
        if norm > CQ_TOL:
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
    (klass="lo") measurement N alone: the LO* or LO search, seed streams
    included, with the classical block held in its basis.
    """
    klass = klass.lower()
    if klass not in ("lostar", "lo"):
        raise ValidationError("cq_gap optimizes the LOStar or LO class only")
    if len(rho.dims) != 2:
        raise ValidationError("cq_gap handles bipartite states")
    if classical_block not in (0, 1):
        raise ValidationError("classical_block must be 0 or 1")
    dc = rho.dims[classical_block]
    basis = np.asarray(classical_basis, dtype=complex)
    if basis.shape != (dc, dc) or not opnorm(basis @ dagger(basis) - np.eye(dc)) <= 1e-9:
        raise ValidationError(f"classical_basis must be a {dc} x {dc} unitary")
    _check_cq(rho, basis, classical_block)
    return _product_search(
        rho, PartitionSpec.full(2), cfg, klass == "lo", hold=(classical_block, dagger(basis))
    )


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


def _product_eigenbasis(rho: DensityMatrix, partition: PartitionSpec) -> np.ndarray | None:
    """rho's eigenvectors as columns, when each eigenprojector has rank 1 and factors across blocks.

    The basis then measures rho with S_M = S(rho): a SEP measurement with gap 0.
    Returns None otherwise.
    """
    if any(mult != 1 for mult in spectral(rho.mat).multiplicities):
        return None
    vecs = np.linalg.eigh(rho.mat)[1]
    if any(product_vector_factors(v, partition, rho.dims) is None for v in vecs.T):
        return None
    return vecs


def sep_gap_heuristic(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig = DEFAULT_CONFIG
) -> OptResult:
    """Upper bound on the SEP-class entropy: the best separable candidate at hand.

    The candidates, in order, are the LO* witness, the flattened one-way LOCC
    witness when there are two or more blocks (both searched with ``cfg``
    itself), and rho's eigenbasis when it is a product basis
    (``_product_eigenbasis``).  Each is a product POVM, hence separable, so
    SEP never reports more than LO* or LOCC1.  The lowest entropy wins, ties
    going to the earlier candidate, and ``trace`` holds the candidates'
    entropies in order.  The returned ``bounds`` is [0, heuristic gap].
    """
    star = minimize_lostar(rho, partition, cfg)
    candidates = [(star.entropy_bits, star.witness.retag("SEP"))]
    if partition.n_blocks >= 2:
        locc = minimize_locc_oneway(rho, partition, None, cfg)
        candidates.append((locc.entropy_bits, flatten_locc(locc.witness, rho.dims).retag("SEP")))
    basis = _product_eigenbasis(rho, partition)
    if basis is not None:
        povm = Povm.from_basis(basis, "SEP")
        candidates.append((observational_entropy(rho, povm), povm))
    s_best, witness = min(candidates, key=lambda c: c[0])
    res = _result(rho, s_best, witness, [s for s, _ in candidates], True)
    return replace(res, bounds=(0.0, res.gap_bits))
