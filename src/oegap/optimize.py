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
All restarts of a search are one polish, ``_descent``, in lockstep: the
objective takes every live restart's frames stacked restart first and
returns one value per restart, and every frame is charted in one stack of
charts of the largest size, a smaller chart as a top-left block, so each
step makes one objective call, one eigh and one pullback for all restarts.
``_lbfgs``, a batched L-BFGS with an Armijo backtracking line search and
L-BFGS-B's stopping tests, drives them, each restart with its own memory,
line search and stopping tests, so no restart's step reads another
restart's values, and more restarts leave the first ones where they were.
A start of bases begins at theta = 0, where its evaluation is the
optimizer's first, and a start whose gradient there already passes the
stopping test takes no step: a stationary warm start costs one evaluation.
A start with a POVM frame begins at a seeded nudge, off the saddle where a
padded basis's zero rows have zero gradient.  Every search minimizes one objective,
``_tree_objective``: the entropy of a one-way tree of frames, its list of
levels, applied level by level to a factor rho = L L^dag taken once per
search.  A product measurement is the tree whose levels are frames shared
by every outcome path: LO*, LO and CQ are one search, ``_product_search``,
over one such frame per block; the LO search is seeded with the LO*
optimum, and CQ holds its classical block in the declared basis.  The
one-way LOCC search runs over a tree whose first level is the first block's
POVM frame, as a stack of one, and whose later levels but the last hold one
basis per outcome path, the last block measured in its conditional
eigenbasis; on a pure state the tree also stops before the second-to-last
block, whose optimal basis is its conditional eigenbasis in closed form.
``_tree_protocol`` reads the witness protocol off the winning tree, filled
with those eigenbases, after one forward pass of the same factor.  Every
witness's local POVMs and protocol nodes, and ``cq_gap``'s classical
basis, come from ``core._frame_povm``, whose isometry check is their one
validation.
``sep_gap_heuristic`` runs the LO* and one-way LOCC searches again at the
caller's config and returns the best of their witnesses and, when it is a
product basis, rho's eigenbasis.  ``werner_analytic`` is exact in closed
form, and
``ppt_gap_w3`` is proven optimal by a primal point and a dual certificate
checked in rational arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
# No oegap code calls scipy.  The name stays because perfbench/tracing.py proxies
# oegap.optimize.scipy.optimize; scipy loads a submodule on its first attribute
# access, so the package alone imports scipy's top level only (about 10 ms).
import scipy  # noqa: F401

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
    ZERO_ROW,
    DensityMatrix,
    PartitionSpec,
    Povm,
    ValidationError,
    _frame_povm,
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
STEP_TOL = 1e-7  # a restart stops once max |gradient| is at most this
MEMORY = 10  # L-BFGS pairs each restart keeps
LINE_EVALS = 20  # evaluations a line search may take before it counts as failed
LS_FTOL = 1e-3  # a line search accepts a step that lowers f by this share of the step times the slope
EPS = np.finfo(float).eps  # a pair with s.y at most EPS (-g.d) is not stored
ENTROPY_TOL = 1e-6  # restarts this close to the best count as agreeing
CQ_TOL = 1e-9  # largest off-diagonal block norm of a CQ state in its classical basis


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by all search-based minimizers.

    A search never drops a warm start, so it runs max(restarts, warm starts):
    ``restarts=1`` runs 2 for LO*, one-way LOCC and CQ (the computational and
    marginal eigenbases) and 3 for LO's second search (the LO* optimum too).
    """

    seed: int = 2025
    restarts: int = 64
    max_iters: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


DEFAULT_CONFIG = OptConfig()


class RestartRecord(NamedTuple):
    """One restart's polish: objective evaluations, L-BFGS iterations and why it stopped.

    ``stop`` is "gradient" (max |gradient| <= STEP_TOL), "decrease" (the last
    step lowered the value by at most 1e-13 relative), "max_iters", or "line
    search" (a line search failed with no L-BFGS memory left to drop).
    """

    evaluations: int
    iterations: int
    stop: str


@dataclass(frozen=True)
class OptResult:
    """Minimized entropy, gap, witnessing measurement, and optimizer trace."""

    entropy_bits: float
    gap_bits: float
    witness: object  # Povm or ConditionalMeasurement
    trace: tuple[float, ...]
    converged: bool
    bounds: tuple[float, float] | None = None
    records: tuple[RestartRecord, ...] = ()  # one per restart of the final search, as ``trace``


def _result(rho: DensityMatrix, s_best: float, witness, values, converged: bool, records) -> OptResult:
    """OptResult for a witness with entropy s_best; a gap short of 0 by float rounding is 0.

    No gap is below 0 (S_M >= S), so one within ENTROPY_TOL of 0 counts as converged.
    """
    gap = s_best - von_neumann(rho)
    if -1e-12 < gap < 0:
        gap = 0.0
    converged = converged or gap <= ENTROPY_TOL
    return OptResult(s_best, gap, witness, tuple(values), converged, records=tuple(records))


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
    frames of a search.
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


def _random_frame(d: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """Random m x d start frame: a Haar basis padded with zero rows or a Haar Stiefel frame, even odds."""
    if gen.uniform() < 0.5:
        return _pad_rows(dagger(_haar_frame(d, d, gen)), m)
    return _haar_frame(m, d, gen)


# ---------------------------------------------------------------------------
# the restart engine


class _LineSearch:
    """Armijo backtracking on phi(t) = f(x + t d), driven by its caller one trial at a time.

    It starts from phi(0), phi'(0) < 0 and a first trial ``step``; ``advance(f)``
    takes phi at ``step`` and returns True when that step meets sufficient
    decrease, phi(t) <= phi(0) + LS_FTOL t phi'(0).  Otherwise it sets the next
    trial to the least point of the quadratic through phi(0), phi'(0) and
    phi(t), kept within [0.1 t, 0.5 t], or to t / 2 when phi(t) is not finite
    (Nocedal & Wright, *Numerical Optimization*, Alg. 3.1 and section 3.5).
    """

    def __init__(self, f0: float, g0: float, step: float):
        self.f0, self.g0, self.step, self.evaluations = f0, g0, step, 0

    def advance(self, f: float) -> bool:
        self.evaluations += 1
        t = self.step
        if f <= self.f0 + LS_FTOL * t * self.g0:
            return True
        if math.isfinite(f):  # f lies above the tangent line, so the quadratic is convex
            self.step = min(max(t * (-self.g0 * t / (2 * (f - self.f0 - self.g0 * t))), 0.1 * t), 0.5 * t)
        else:
            self.step = 0.5 * t
        return False


_OLDER = np.tril(np.ones((MEMORY, MEMORY)), -1)  # pair i older than pair j, at [j, i]


def _lbfgs_direction(g: np.ndarray, s: np.ndarray, y: np.ndarray, rinv: np.ndarray, scale: np.ndarray):
    """-H g for each row of g (k, n): the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4).

    Each row has MEMORY pairs s, y (k, MEMORY, n), oldest first, and the
    initial H = scale * I; an unused pair is zero.  Each loop of the
    recursion is a triangular system in the pairs' inner products, with
    R[j, i] = s_j.y_i for pairs i no older than j (an unused pair's diagonal
    entry 1), and ``rinv`` holds R^-1: the first loop's
    alpha_j = (s_j.(g - sum_{i newer} alpha_i y_i)) / s_j.y_j is R alpha = S g,
    and with r = scale (g - sum_i alpha_i y_i) the second loop's
    beta_j = (y_j.(r + sum_{i older} (alpha_i - beta_i) s_i)) / s_j.y_j is
    R^T beta = Y r + L alpha, L the part of R^T below its diagonal.  Then
    H g = r + sum_i (alpha_i - beta_i) s_i.
    """
    alpha = rinv @ (s @ g[:, :, None])
    r = scale[:, None] * (g - (y.swapaxes(1, 2) @ alpha)[..., 0])
    lower = (y @ s.swapaxes(1, 2)) * _OLDER  # y_j . s_i for pairs i older than j
    beta = rinv.swapaxes(1, 2) @ (y @ r[:, :, None] + lower @ alpha)
    return -(r + (s.swapaxes(1, 2) @ (alpha - beta))[..., 0])


def _lbfgs(fun, x0: np.ndarray, max_iters: int, first=None):
    """Minimize a stack of functions, one per row of x0 (R, n), by L-BFGS in lockstep.

    ``fun(x, rows)`` returns the values (k,) and gradients (k, n) of the
    functions ``rows`` at the rows of x (k, n); ``first`` is its result at
    x0 for every row, when the caller has it.  Each step makes one call, at
    one point per live row, and each row keeps its own MEMORY pairs and its
    own ``_LineSearch``, so no row's step reads another row's values.

    The line search backtracks from a first step along -g of 1 / |g|, and
    from 1 after that; a pair with s.y <= eps (-g.d) is not stored; a line
    search that has not ended after LINE_EVALS evaluations, or a direction
    that is not a descent, clears the row's memory and restarts from -g, or
    stops the row when its memory is already empty.  A row stops when
    max |g| <= STEP_TOL, at its start too, when a step lowers the value by
    at most 1e-13 relative, or after ``max_iters`` steps; and, as on the
    decrease test, when its next trial step is too small to move x in
    floating point.  Returns the final points and values and one RestartRecord per row.
    """
    count, n = x0.shape
    rows = np.arange(count)  # the row of x0 at each live position
    x, trial, d, g = x0.copy(), x0.copy(), np.zeros((count, n)), np.zeros((count, n))
    f, slope, scale = np.zeros(count), np.zeros(count), np.ones(count)
    s_mem, y_mem = np.zeros((count, MEMORY, n)), np.zeros((count, MEMORY, n))
    rinv = np.tile(np.eye(MEMORY), (count, 1, 1))  # each row's R^-1, as _lbfgs_direction takes it
    searches: list[_LineSearch | None] = [None] * count
    evaluations, iterations, stops = [0] * count, [0] * count, [""] * count
    x_out, f_out = x0.copy(), np.zeros(count)

    def clear(k):  # drop position k's memory; False when it was empty already
        had = bool(s_mem[k, -1].any())
        s_mem[k], y_mem[k], rinv[k], scale[k] = 0.0, 0.0, np.eye(MEMORY), 1.0
        return had

    while rows.size:
        ft, gt = fun(trial, rows) if first is None else first
        first = None
        flat = (np.abs(gt).max(axis=1) <= STEP_TOL).tolist()
        fresh = []  # positions that need a new direction
        for k, r in enumerate(rows.tolist()):
            evaluations[r] += 1
            value, grad, search = float(ft[k]), gt[k], searches[k]
            if search is not None and not search.advance(value):
                if search.evaluations < LINE_EVALS:
                    continue
                if clear(k):  # a failed line search: x, f and g still hold the last accepted point
                    fresh.append(k)
                else:
                    stops[r] = "line search"
                continue
            previous = f[k]
            if search is not None:
                s, y = trial[k] - x[k], grad - g[k]
                iterations[r] += 1
            x[k], f[k], g[k] = trial[k], value, grad
            if search is not None and iterations[r] >= max_iters:
                stops[r] = "max_iters"
            elif flat[k]:
                stops[r] = "gradient"
            elif search is not None and previous - value <= 1e-13 * max(abs(previous), abs(value), 1.0):
                stops[r] = "decrease"
            else:
                fresh.append(k)
                sy = 0.0 if search is None else float(s @ y)
                if sy > 0 and sy > EPS * -slope[k] * search.step:
                    for mem, entry in ((s_mem, s), (y_mem, y)):  # oldest pair out
                        mem[k, :-1] = mem[k, 1:]
                        mem[k, -1] = entry
                    # R loses its first row and column, which leaves its inverse's
                    # trailing block, and gains the column s_j.y and the diagonal s.y
                    column = -(rinv[k, 1:, 1:] @ (s_mem[k, :-1] @ y)) / sy
                    rinv[k, :-1, :-1] = rinv[k, 1:, 1:]
                    rinv[k, :-1, -1], rinv[k, -1, :-1], rinv[k, -1, -1] = column, 0.0, 1 / sy
                    scale[k] = sy / (y @ y)
        while fresh:
            new = _lbfgs_direction(g, s_mem, y_mem, rinv, scale)
            retry = []
            for k in fresh:
                r, descent = rows[k], float(new[k] @ g[k])
                if descent >= 0:  # not a descent direction: drop the memory
                    if clear(k):
                        retry.append(k)
                    else:
                        stops[r] = "line search"
                    continue
                d[k], slope[k] = new[k], descent
                step = 1 / math.sqrt(new[k] @ new[k]) if iterations[r] == 0 else 1.0
                searches[k] = _LineSearch(f[k], descent, step)
            fresh = retry
        for k, (r, search) in enumerate(zip(rows.tolist(), searches)):
            if not stops[r]:
                np.add(x[k], search.step * d[k], out=trial[k])
                if (trial[k] == x[k]).all():  # a step below rounding: x cannot move
                    stops[r] = "decrease"
        done = np.array([bool(stops[r]) for r in rows.tolist()])
        if done.any():
            x_out[rows[done]], f_out[rows[done]] = x[done], f[done]
            if done.all():
                break
            live = ~done
            rows, x, trial, d, g, f, slope = (a[live] for a in (rows, x, trial, d, g, f, slope))
            scale, s_mem, y_mem, rinv = scale[live], s_mem[live], y_mem[live], rinv[live]
            searches = [search for search, alive in zip(searches, live) if alive]
    records = tuple(RestartRecord(e, i, stop) for e, i, stop in zip(evaluations, iterations, stops))
    return x_out, f_out, records


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
    A stack of frames gives a stack of unitaries.
    """
    return frame if frame.shape[-2] == frame.shape[-1] else _complete_unitary(frame)


@functools.cache
def _block_params(k: int, m: int) -> np.ndarray:
    """Where the parameters of a k x k Hermitian matrix sit among an m x m one's, as its top-left block.

    Both follow ``_hermitian_from_params``: the diagonal, then the (re, im)
    pairs of the upper triangle by rows.
    """
    upper = {pair: m + 2 * p for p, pair in enumerate(zip(*np.triu_indices(m, 1)))}
    pairs = [upper[pair] + part for pair in zip(*np.triu_indices(k, 1)) for part in (0, 1)]
    return np.array(list(range(k)) + pairs, dtype=np.intp)


def _descent(objective, starts: list[list[np.ndarray]], cfg: OptConfig, gens: list[np.random.Generator]):
    """Polish every restart's frames together, in lockstep; returns the values, frames and records.

    ``starts[i]`` is restart i's list of frames, each a row frame (rows, d)
    or a stack of them (paths, rows, d), of the same shapes for every
    restart.  The objective takes the restarts' frames stacked level by
    level, restart first, each level a (G, rows, d) stack, and returns one
    value per restart and, for each level, the matrices G_k of its shape
    with dS = Re Tr(G_k^dag dQ_k) for each restart.

    Each frame is charted from its ``_chart_base`` on consecutive slices of
    its restart's parameter vector.  The charts of every live restart form
    one stack of m x m charts, m the largest chart size: a smaller chart is
    the top-left block of an m x m one, its base padded with the identity and
    its other parameters held at 0.  So each step of ``_lbfgs`` makes one
    objective call, one eigh and one pullback, the frames' gradients stacked
    at the width of the widest frame, smaller ones padded with zeros.  When every
    frame is square (a basis) the polish starts at theta = 0, and the start's
    evaluation is the optimizer's first.  With POVM frames (more rows than
    columns) it starts at the seeded theta0 = 1e-2 N(0, 1) drawn from the
    restart's generator, since the zero rows of a padded basis have zero
    gradient at theta = 0, a saddle.  A restart keeps its start unless the
    polish beats it by 1e-13.  Restarts share stacks but no optimizer state.
    """
    count = len(starts)
    levels = [np.concatenate([f.reshape((-1,) + f.shape[-2:]) for f in column]) for column in zip(*starts)]
    units = [len(f) // count for f in levels]  # frames per restart on each level
    offsets = np.cumsum([0] + units)  # each level's first chart among a restart's charts
    m, widest = max(f.shape[-2] for f in levels), max(f.shape[-1] for f in levels)
    bases = np.tile(np.eye(m, dtype=complex), (count, offsets[-1], 1, 1))
    for f, a, u in zip(levels, offsets, units):
        k = f.shape[-2]
        bases[:, a : a + u, :k, :k] = _chart_base(f).reshape(count, u, k, k)
    # a restart's parameters, chart by chart, at their places in the charts' m x m parameter vectors
    params = np.concatenate([
        c * m * m + _block_params(f.shape[-2], m)
        for f, a, u in zip(levels, offsets, units)
        for c in range(a, a + u)
    ])
    padded = params.size < offsets[-1] * m * m

    def charted(theta, rows):
        full = theta
        if padded:
            full = np.zeros((len(rows), offsets[-1] * m * m))
            full[:, params] = theta
        live = bases if len(rows) == count else bases[rows]
        u, pullback = _chart(full.reshape(-1, m * m), live.reshape(-1, m, m))
        u = u.reshape(len(rows), -1, m, m)
        return [
            u[:, a:b, : f.shape[-2], : f.shape[-1]].reshape((-1,) + f.shape[1:])
            for f, a, b in zip(levels, offsets, offsets[1:])
        ], pullback

    def fun(theta, rows):
        new, pullback = charted(theta, rows)
        values, gs = objective(new)
        if len(levels) == 1:
            g = gs[0]
        else:
            g = np.zeros((len(rows), offsets[-1], m, widest), dtype=complex)
            for f, gk, a, b in zip(levels, gs, offsets, offsets[1:]):
                g[:, a:b, : f.shape[-2], : f.shape[-1]] = gk.reshape(len(rows), b - a, *f.shape[1:])
        jac = pullback(g.reshape(-1, m, g.shape[-1])).reshape(len(rows), -1)
        return values, jac[:, params] if padded else jac

    everyone = np.arange(count)
    if all(f.shape[-2] == f.shape[-1] for f in levels):
        theta0 = np.zeros((count, params.size))
        first = fun(theta0, everyone)
        start = first[0]
    else:
        theta0 = 1e-2 * np.stack([gen.normal(size=params.size) for gen in gens])
        first, start = None, objective(levels)[0]
    theta, values, records = _lbfgs(fun, theta0, cfg.max_iters, first)
    better = values < start - 1e-13
    polished = charted(theta, everyone)[0] if better.any() else levels
    frames = [
        [(polished if won else levels)[k].reshape(count, *f.shape)[i] for k, f in enumerate(own)]
        for i, (won, own) in enumerate(zip(better, starts))
    ]
    return np.where(better, values, start).tolist(), frames, records


def _blockwise_sampler(last: list[np.ndarray], draw):
    """Start sampler for ``_search``: block k from ``draw(k, gen)``, except that
    with several blocks a block keeps its frame in ``last`` with probability 0.35."""
    n = len(last)
    return lambda gen: [last[k] if n > 1 and gen.uniform() < 0.35 else draw(k, gen) for k in range(n)]


def _search(objective, warm, sample, offset: int, cfg: OptConfig):
    """Restarted descent over a list of frames, every restart in one lockstep ``_descent``.

    Restart i < len(warm) starts from ``warm[i]``; each later one from
    ``sample(gen)``, with gen seeded by (seed, offset + i) and handed on to
    ``_descent`` for the restart's nudge.  Returns the per-restart values,
    the best restart's frames, the convergence flag and the per-restart
    records.
    """
    gens = [_rng(cfg.seed, offset + i) for i in range(max(cfg.restarts, len(warm)))]
    starts = [warm[i] if i < len(warm) else sample(gen) for i, gen in enumerate(gens)]
    values, frames, records = _descent(objective, starts, cfg, gens)
    best, converged = _reduce_restarts(values)
    return values, frames[best], converged, records


def _marginal_eigenbras(rho: DensityMatrix, block) -> np.ndarray:
    """Eigenbasis of rho's reduced state on ``block``, as bras (rows) in descending eigenvalue order."""
    return dagger(np.linalg.eigh(partial_trace(rho.mat, rho.dims, block))[1][:, ::-1])


def _block_factor(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """L with L L^dag = rho, subsystems reordered block by block; eigenvalues <= P_EPS dropped."""
    order = [i for b in blocks for i in b]
    vals, vecs = np.linalg.eigh(permute_subsystems(rho.mat, rho.dims, order))
    keep = vals > P_EPS
    return vecs[:, keep] * np.sqrt(vals[keep])


def _block_dims(rho: DensityMatrix, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(int(np.prod([rho.dims[i] for i in b])) for b in blocks)


def _oneway_forward(factor: np.ndarray, bdims: tuple[int, ...], level_frames, count: int, restarts=1):
    """Apply the first ``count`` levels of one-way trees, one per restart, to a block-ordered factor.

    ``level_frames(k, x)`` gives level k's frames for its input x, of shape
    (restarts * paths, d_k, R): the unnormalised conditional factors of the
    blocks from k on, one per restart and outcome path, restart first, then
    the first outcome slowest.  A level is a stack (G, rows, d_k): with G =
    restarts it holds one frame per restart, which every path of that
    restart shares and matmul broadcasting applies to each; with G =
    restarts * paths it holds one frame per path.  Returns each level's
    input and frames, and the leaves T (restarts * paths, d, R), whose T T^dag
    are the unnormalised conditional states of the block after the last
    level (d = 1 when every block has a level).
    """
    x, dims = np.repeat(factor.reshape(1, bdims[0], -1), restarts, axis=0), bdims[1:] + (1,)
    xs, fs = [], []
    for k in range(count):
        f = level_frames(k, x)
        xs.append(x)
        fs.append(f)
        y = f[:, None] @ x.reshape(len(f), -1, *x.shape[1:])  # (G, paths per frame, rows, ...)
        x = y.reshape(-1, dims[k], y.shape[-1] // dims[k])
    return xs, fs, x


def _tree_objective(factor: np.ndarray, bdims: tuple[int, ...]):
    """S_M(rho) and its gradients, as a function of a stack of one-way trees' levels.

    ``factor`` is ``_block_factor``'s L and ``bdims`` its block dimensions,
    both in measurement order.  The objective takes a list of levels, level
    k a (G, rows, d_k) stack as in ``_oneway_forward``, for as many restarts
    as level 0 has frames: row q_i of a frame gives the effect |q_i^*><q_i^*|.  A
    product measurement (LO*, LO, CQ) has one frame per restart on every
    level, its outcomes in ``lostar_povm`` and ``lo_povm`` order; a one-way
    protocol has one frame per restart and path.  The block left after the
    last level, if any, is measured on each leaf in its conditional
    eigenbasis, exactly optimal there.  With A = T T^dag a leaf's
    unnormalised conditional state and V the product of the squared row
    norms along its path, each restart's value is

        S = sum_leaves (p log2 V - Tr A log2 A),   p = Tr A,

    eigenvalues of A at or below P_EPS masked, as in ``chain_entropy``.
    When every block has a level, A is 1 x 1 and equals p; when rho is pure
    and only the last block has none, T is a column and A has one nonzero
    eigenvalue, p: then no eigh runs.  When rho is pure and the last two
    blocks (B, C) have none, T is d_B x d_C and A = p rho_B, with rho_B the
    leaf's conditional marginal on B: -Tr A log2 A is then the entropy of B
    measured in rho_B's eigenbasis and C in its pure conditional state, the
    least over every basis of B (``_eigenbasis_tree``).
    A square level is a basis, of volume 1: it takes no volume term.
    Returns one value per restart and one gradient per level, of its shape.

    The gradient reuses the forward pass.  In A it is U diag(w) U^dag, with
    A = U diag(lam) U^dag and w = log2 V - log2 lam - 1/ln 2 on the live
    eigenvalues, 0 elsewhere; it runs back through the levels' frames, a
    shared frame's gradient summed over its paths in one matrix product.
    The volume term of a row is its live marginal probability over its
    squared norm, times 2 q_i / ln 2.
    """

    def objective(levels: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        restarts = len(levels[0])
        xs, _, leaves = _oneway_forward(factor, bdims, lambda k, x: levels[k], len(levels), restarts)
        norms, vol = [], np.ones(restarts)  # vol: the volume of each path so far
        for f in levels:
            square = f.shape[-2] == f.shape[-1]
            norms.append(None if square else (abs(f) ** 2).sum(axis=-1))
            if square:
                vol = vol.repeat(f.shape[-2])
            else:  # each frame's row norms, on the paths that share it
                vol = (vol.reshape(len(f), -1, 1) * norms[-1][:, None]).ravel()
        if 1 in leaves.shape[1:]:  # A = T T^dag has one eigenvalue that can be live, p
            lam, vecs = (abs(leaves) ** 2).sum(axis=(1, 2))[:, None], None
        else:
            lam, vecs = np.linalg.eigh(leaves @ dagger(leaves))
        live = lam > P_EPS
        ds = np.log2(np.where(live, vol[:, None], 1.0) / np.where(live, lam, 1.0))  # 0 where masked
        values = np.maximum(0.0, (lam * ds).reshape(restarts, -1).sum(axis=1))
        w = np.where(live, ds - LOG2_E, 0.0)
        if vecs is None:
            g = 2 * w[..., None] * leaves
        else:
            g = 2 * (vecs * w[:, None, :]) @ dagger(vecs) @ leaves
        p_live = np.where(live, lam, 0.0).sum(axis=-1)
        grads = []
        for k in range(len(levels) - 1, -1, -1):
            f, x, n = levels[k], xs[k], norms[k]
            share = len(x) // len(f)  # the paths each frame serves
            g = g.reshape(len(f), share, f.shape[-2], -1)  # gradient in the level's output
            xt = x.reshape(len(f), share, *x.shape[1:]).swapaxes(1, 2).reshape(len(f), x.shape[-2], -1)
            grad = g.swapaxes(1, 2).reshape(len(f), f.shape[-2], -1) @ dagger(xt)
            if n is not None:  # each row's live marginal probability over its squared norm
                ds_dn = p_live.reshape(len(f), share, f.shape[-2], -1).sum(axis=(1, 3))
                ds_dn /= np.where(n > 0, n, 1.0)  # a zero row's marginal is 0
                grad += 2 * LOG2_E * ds_dn[..., None] * f
            grads.append(grad)
            if k:
                g = dagger(f)[:, None] @ g
        return values, grads[::-1]

    return objective


# ---------------------------------------------------------------------------
# LO* and LO: local projective measurements and local POVMs


def _product_search(
    rho: DensityMatrix, partition: PartitionSpec, cfg: OptConfig, lo: bool, hold=None
) -> OptResult:
    """LO* search, then, when ``lo``, the LO search seeded with the LO* optimum.

    ``hold=(block, frame, povm)`` keeps that block measured by ``frame``, whose POVM is ``povm``.
    The LO restarts start from the LO* warm starts padded with zero rows,
    and restart 1 from the polished LO* bases, so the LO result can only
    improve on the projective optimum found with the same budget.
    """
    bdims = partition.block_dims(rho.dims)
    product = _tree_objective(_block_factor(rho, partition.blocks), bdims)
    free = list(range(partition.n_blocks))
    if hold is None:
        objective = product
    else:
        held, frame, held_povm = hold
        free.remove(held)

        def objective(qs):  # the held block's frame inserted, one per restart, its gradient dropped
            values, gs = product(qs[:held] + [np.repeat(frame[None], len(qs[0]), axis=0)] + qs[held:])
            return values, gs[:held] + gs[held + 1 :]

    ds = [bdims[k] for k in free]
    eyes = [np.eye(d, dtype=complex) for d in ds]
    eigs = [_marginal_eigenbras(rho, partition.blocks[k]) for k in free]
    values, frames, converged, records = _search(
        objective,
        [eyes, eigs],
        _blockwise_sampler(eigs, lambda k, gen: dagger(_haar_frame(ds[k], ds[k], gen))),
        0,
        cfg,
    )
    if lo:
        ms = [4 if d == 2 else d + 1 for d in ds]
        warm = [[_pad_rows(q, m) for q, m in zip(qs, ms)] for qs in (eyes, frames, eigs)]
        values, frames, converged, records = _search(
            objective,
            warm,
            _blockwise_sampler(warm[-1], lambda k, gen: _random_frame(ds[k], ms[k], gen)),
            10_000,
            cfg,
        )
    if lo:
        local = _frame_povm(frames)
        if hold is not None:
            local.insert(held, held_povm)
        witness = lo_povm(local, partition, rho.dims)
    else:
        if hold is not None:
            frames.insert(held, frame)
        witness = lostar_povm([dagger(q) for q in frames], partition, rho.dims)
    return _result(rho, observational_entropy(rho, witness), witness, values, converged, records)


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
    (Q^dag Q = 1); random restarts draw each block's Q as a Haar basis
    padded with zero rows or a Haar Stiefel frame.  The LO* search runs
    first and seeds one restart.
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

    The search runs over a tree of frames (``_tree_objective``): the first
    block's POVM (rank-1 effects, Stiefel-row encoding) and, at each later
    level but the last, one basis per outcome path; the last block is
    measured in the eigenbasis of its conditional state, which is exactly
    optimal there.  On a pure state (rho of rank 1 after the P_EPS cut) the
    tree also leaves out the second-to-last block, measured in its
    conditional eigenbasis, which is exactly optimal there too
    (``_eigenbasis_tree``); the first block keeps its level.  So on W3 the
    search polishes the first qubit's 4 x 2 frame alone.  Each start is a
    first-block frame and the conditional eigenbases of its paths: the
    computational basis, the marginal eigenbasis, then random frames.  All
    of a restart's frames are polished together, every restart in lockstep.
    The winning tree, with every block it leaves out in its conditional
    eigenbases, is read off as a protocol (``_tree_protocol``), whose
    ``chain_entropy`` on rho is the reported entropy.
    """
    if ordering is None:
        ordering = tuple(range(partition.n_blocks))
    else:
        ordering = tuple(int(i) for i in ordering)
        if sorted(ordering) != list(range(partition.n_blocks)):
            raise ValidationError("ordering must be a permutation of the partition blocks")
    blocks = tuple(partition.blocks[k] for k in ordering)
    factor, bdims = _block_factor(rho, blocks), _block_dims(rho, blocks)
    d0 = bdims[0]
    m = 4 if d0 == 2 else d0 + 1
    firsts = [np.eye(d0, dtype=complex), _marginal_eigenbras(rho, blocks[0])]
    values, tree, converged, records = _search(
        _tree_objective(factor, bdims),
        [_eigenbasis_tree(factor, bdims, _pad_rows(q, m)) for q in firsts],
        lambda gen: _eigenbasis_tree(factor, bdims, _random_frame(d0, m, gen)),
        20_000,
        cfg,
    )
    witness = _tree_protocol(blocks, _eigenbasis_levels(factor, bdims, tree))
    return _result(rho, chain_entropy(witness, rho), witness, values, converged, records)


def _eigenbasis_levels(factor: np.ndarray, bdims, levels: list[np.ndarray]) -> list[np.ndarray]:
    """Every block's stacked frames: ``levels`` first, each later block in its conditional eigenbases.

    Level k is a stack (paths, rows, d_k) of frames, one per outcome path of
    the levels before it, the first outcome slowest; level 0 has one path.
    A block with no level given is measured, on each path, in the
    eigenvectors of its unnormalised conditional marginal (T T^dag on the
    last block) in descending eigenvalue order, as bras.  ``factor`` and
    ``bdims`` are those of ``_tree_objective``.
    """

    def level_frames(k, x):
        if k < len(levels):
            return levels[k]
        return dagger(np.linalg.eigh(x @ dagger(x))[1][..., ::-1])

    return _oneway_forward(factor, bdims, level_frames, len(bdims))[1]


def _eigenbasis_tree(factor: np.ndarray, bdims, q: np.ndarray) -> list[np.ndarray]:
    """The tree with first frame q and every later searched level in its conditional eigenbasis.

    On it ``_tree_objective`` equals the chain entropy of the greedy
    eigenbasis protocol after q.  Its levels are those of every block but the
    last, or, when rho is pure (``factor`` one column), of every block but
    the last two; always at least the first block's.  On a pure state every
    rank-1 effect leaves the last two blocks (B, C) in a pure conditional
    state, so measuring B in any basis and then C in its conditional
    eigenbasis reads H(diag rho_B), at least S(rho_B) by Schur-Horn with
    equality in rho_B's eigenbasis: the objective's leaf entropy
    -Tr A log2 A, A = p rho_B, is that optimum in closed form.
    """
    depth = len(bdims) - (2 if factor.shape[1] == 1 else 1)
    return _eigenbasis_levels(factor, bdims, [q[None]])[: max(1, depth)]


def _tree_protocol(blocks, levels: list[np.ndarray]) -> ConditionalMeasurement:
    """The one-way protocol of every block's stacked frames, as ``_eigenbasis_levels`` gives them.

    Node k on a path measures ``blocks[k]`` with the rows of that path's
    frame; row i of a frame leads to path ``path * rows + i`` of the next
    level.  A row of norm at most ZERO_ROW is no outcome and gets no child;
    ``_frame_povm`` is handed the frame cut to the other rows, one per child.
    """

    def node(k: int, path: int) -> ConditionalMeasurement:
        frame = levels[k][path]
        rows = np.flatnonzero(np.linalg.norm(frame, axis=1) > ZERO_ROW)
        povm = _frame_povm(frame[rows])
        if k + 1 == len(levels):
            return ConditionalMeasurement(blocks[k], povm)
        return ConditionalMeasurement(
            blocks[k], povm, tuple(node(k + 1, path * len(frame) + i) for i in rows)
        )

    return node(0, 0)


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
    diag = np.diag(np.eye(d, dtype=complex).ravel())  # |ii><ii| summed over i
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
    if basis.shape != (dc, dc):
        raise ValidationError(f"classical_basis must be a {dc} x {dc} unitary")
    try:
        hold = (classical_block, dagger(basis), _frame_povm(dagger(basis)))
    except ValidationError as err:
        raise ValidationError(f"classical_basis: {err}") from None
    _check_cq(rho, basis, classical_block)
    return _product_search(rho, PartitionSpec.full(2), cfg, klass == "lo", hold)


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


def _pt_first_qubit(x) -> list[list]:
    """Partial transpose of a three-qubit operator on its first qubit."""
    return [[x[(j & 4) | (i & 3)][(i & 4) | (j & 3)] for j in range(8)] for i in range(8)]


def _is_psd_exact(a: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, by fraction-free elimination.

    Bareiss's step scales each Schur complement by the last positive pivot
    and divides exactly by the one before, so every entry stays an int.
    """
    a = [row[:] for row in a]
    n = len(a)
    last = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1 :])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // last
        last = pivot
    return True


@functools.cache
def _w3_scaled_projectors() -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """(c, c Q_a): the six projectors as int matrices, c the least common denominator of their entries."""
    qs = _w3_invariant_projectors()
    c = math.lcm(*(x.denominator for q in qs for row in q for x in row))
    return c, tuple(tuple(tuple(int(x * c) for x in row) for row in q) for q in qs)


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
    Tr Q1 - Tr(Y PT(Q1)).  All of it is exact: the Q_a, t and the weights
    are scaled to ints by their least common denominators, so PT(M'), the
    traces and Tr(Y .) are Python ints, which cannot overflow; RuntimeError
    unless both parts hold and the two bounds meet.
    """
    c, scaled = _w3_scaled_projectors()
    pts = [_pt_first_qubit(q) for q in scaled]
    traces = [sum(q[i][i] for i in range(8)) for q in scaled]
    t = [Fraction(1)] + [Fraction(x) for x in coeffs]
    weights = [Fraction(w) for w, _ in dual]
    # scaled by their least common denominators, t and the weights become the ints ti and wi
    dt, dw = (math.lcm(*(x.denominator for x in xs)) for xs in (t, weights))
    ti = [x.numerator * (dt // x.denominator) for x in t]
    wi = [w.numerator * (dw // w.denominator) for w in weights]
    pt_m = [[sum(a * pt[i][j] for a, pt in zip(ti, pts)) for j in range(8)] for i in range(8)]  # c dt PT(M')
    if min(ti) < 0 or not _is_psd_exact(pt_m):
        raise RuntimeError("W3 PPT primal point is infeasible")
    upper = Fraction(sum(a * tr for a, tr in zip(ti, traces)), c * dt)

    def against_y(x):  # dw Tr(Y x)
        return sum(w * sum(y[i] * sum(x[i][j] * y[j] for j in range(8)) for i in range(8))
                   for w, (_, y) in zip(wi, dual))

    if min(wi) < 0 or any(against_y(pt) > dw * tr for pt, tr in zip(pts[1:], traces[1:])):
        raise RuntimeError("W3 PPT dual certificate is infeasible")
    lower = Fraction(dw * traces[0] - against_y(pts[0]), c * dw)
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
    c, scaled = _w3_scaled_projectors()
    qs = [np.array(q, dtype=complex) / c for q in scaled]
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
    spec = spectral(rho)
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
    if any(mult != 1 for mult in spectral(rho).multiplicities):
        return None
    vecs = rho.eigenvectors
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
    entropies in order.  ``converged`` is the winner's own flag; the product
    eigenbasis has gap 0, the proven minimum, so its flag is True.  The
    returned ``bounds`` is [0, heuristic gap].
    """
    star = minimize_lostar(rho, partition, cfg)
    candidates = [(star.entropy_bits, star.witness.retag("SEP"), star.converged, star.records)]
    if partition.n_blocks >= 2:
        locc = minimize_locc_oneway(rho, partition, None, cfg)
        flat = flatten_locc(locc.witness, rho.dims).retag("SEP")
        candidates.append((locc.entropy_bits, flat, locc.converged, locc.records))
    basis = _product_eigenbasis(rho, partition)
    if basis is not None:
        povm = Povm.from_basis(basis, "SEP")
        candidates.append((observational_entropy(rho, povm), povm, True, ()))
    s_best, witness, converged, records = min(candidates, key=lambda c: c[0])
    res = _result(rho, s_best, witness, [c[0] for c in candidates], converged, records)
    return replace(res, bounds=(0.0, res.gap_bits))
