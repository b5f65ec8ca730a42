"""Minimizers: analytic solvers exactly, search-based solvers at modest budgets.

Full-scale optimizer runs at the spec's tolerances live in test_acceptance.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from helpers import conditional_reference, random_density, random_pure
from oegap.classes import ConditionalMeasurement, flatten_locc, is_ppt, lo_povm, lostar_povm
from oegap.core import (
    DensityMatrix,
    PartitionSpec,
    Povm,
    ValidationError,
    dagger,
    partial_trace,
    permute_subsystems,
)
from oegap.entropy import (
    chain_entropy,
    observational_entropy,
    quantum_relative_entropy,
    coarse_grain,
    shannon,
    von_neumann,
)
import oegap.optimize
from oegap.optimize import (
    ENTROPY_TOL,
    EXACT_W3_COEFFS,
    EXACT_W3_DUAL,
    LINE_EVALS,
    LS_FTOL,
    STEP_TOL,
    OptConfig,
    RestartRecord,
    _LineSearch,
    _block_dims,
    _block_factor,
    _block_params,
    _certify_ppt_w3,
    _chart,
    _complete_unitary,
    _descent,
    _eigenbasis_levels,
    _eigenbasis_tree,
    _frame_povm,
    _haar_frame,
    _hermitian_from_params,
    _hermitian_gradient_params,
    _is_psd_exact,
    _lbfgs,
    _lbfgs_direction,
    _pad_rows,
    _random_frame,
    _result,
    _tree_objective,
    _tree_protocol,
    cq_gap,
    eigenseparability,
    minimize_lo,
    minimize_locc_oneway,
    minimize_lostar,
    ppt_gap_w3,
    sep_gap_heuristic,
    werner_analytic,
    werner_witness,
)
from oegap.partitions import CLASS_OPTIMIZERS
from oegap.states import (
    bell,
    cq,
    cq_example,
    domino_state,
    ghz,
    tiles_upb_state,
    trine_cq,
    two_bell,
    w,
    werner,
    werner_mixed_point,
)
from test_entropy import chain_reference

FULL2 = PartitionSpec.full(2)
FULL3 = PartitionSpec.full(3)
FAST = OptConfig(seed=11, restarts=6, max_iters=600)


@pytest.mark.parametrize("d", range(2, 11))
def test_werner_analytic_extremes(d):
    assert werner_analytic(d, 1.0).gap_bits == pytest.approx(1.0, abs=1e-12)
    assert werner_analytic(d, 0.0).gap_bits == pytest.approx(1 - 2 / (d + 1), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_werner_analytic_mixed_point(d):
    assert werner_analytic(d, werner_mixed_point(d)).gap_bits == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("d,lam", [(2, 0.25), (3, 0.8), (4, 0.5)])
def test_werner_analytic_matches_direct_evaluation(d, lam):
    rho = werner(d, lam)
    exact = werner_analytic(d, lam)
    assert observational_entropy(rho, exact.witness) == pytest.approx(
        exact.s_measured_bits, abs=1e-10
    )
    assert von_neumann(rho) == pytest.approx(exact.s_state_bits, abs=1e-10)


def test_werner_analytic_range_checks():
    from oegap.core import ValidationError

    with pytest.raises(ValidationError):
        werner_analytic(2, -0.1)
    with pytest.raises(ValidationError):
        werner_analytic(1, 0.5)


def test_minimize_lostar_bell():
    res = minimize_lostar(bell(), FULL2, FAST)
    assert res.gap_bits == pytest.approx(1.0, abs=1e-6)
    assert res.witness.class_tag == "LOStar"
    assert res.entropy_bits - res.gap_bits == pytest.approx(von_neumann(bell()), abs=1e-12)


def test_minimize_lostar_deterministic():
    a = minimize_lostar(werner(2, 0.4), FULL2, FAST)
    b = minimize_lostar(werner(2, 0.4), FULL2, FAST)
    assert a.entropy_bits == b.entropy_bits
    assert a.trace == b.trace
    assert np.array_equal(a.witness.effects, b.witness.effects)


CQX = cq_example()
SEARCHES = {
    "lo": lambda cfg: minimize_lo(CQX.state, FULL2, cfg),
    "locc1": lambda cfg: minimize_locc_oneway(CQX.state, FULL2, cfg=cfg),
    "cq-lostar": lambda cfg: cq_gap(CQX.state, CQX.classical_basis, "lostar", cfg),
    "cq-lo": lambda cfg: cq_gap(CQX.state, CQX.classical_basis, "lo", cfg),
}


def _assert_same_result(a, b):
    assert a.entropy_bits == b.entropy_bits
    assert a.trace == b.trace
    assert a.converged == b.converged
    if isinstance(a.witness, ConditionalMeasurement):
        a_eff = flatten_locc(a.witness, (2, 2)).effects
        b_eff = flatten_locc(b.witness, (2, 2)).effects
    else:
        a_eff, b_eff = a.witness.effects, b.witness.effects
    assert np.array_equal(a_eff, b_eff)


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_search_deterministic(search):
    cfg = OptConfig(seed=21, restarts=3, max_iters=200)
    _assert_same_result(SEARCHES[search](cfg), SEARCHES[search](cfg))


STOPS = {"gradient", "decrease", "max_iters", "line search"}


def test_polish_method_follows_the_objective(monkeypatch):
    # every search objective has a gradient, so every polish is the package's L-BFGS, LOCC1
    # included, and no start is drawn with a solver: neither scipy's minimize nor its nnls
    # is called, and each search reports one record per restart of its final search, each
    # with an L-BFGS stop reason
    def unused(*args, **kwargs):
        raise AssertionError("a scipy.optimize solver was called")

    monkeypatch.setattr(scipy.optimize, "minimize", unused)
    monkeypatch.setattr(scipy.optimize, "nnls", unused)
    # three restarts, so that each search polishes a seeded random start: the warm
    # starts of cq-lostar on cq-example are stationary, and never polished; at seed 4
    # LOCC1's random start is a qubit frame of four rank-1 effects
    cfg = OptConfig(seed=4, restarts=3, max_iters=50)
    for run in (SEARCHES["lo"], SEARCHES["locc1"], SEARCHES["cq-lostar"], SEARCHES["cq-lo"]):
        records = run(cfg).records
        assert len(records) == 3 and {r.stop for r in records} <= STOPS
        assert any(r.iterations > 0 for r in records)
        assert all(r.evaluations >= r.iterations + 1 for r in records)


@pytest.mark.parametrize("args", [(1, 0, 300), (1, 3, 0), (1, 3, -5)], ids=["restarts-0", "max-iters-0", "max-iters-neg"])
def test_opt_config_rejects_empty_budget(args):
    with pytest.raises(ValidationError, match="must be >= 1"):
        OptConfig(*args)
    OptConfig(1, 1, 1)


def joint_polish_reference(objective, frames, cfg):
    """scipy's L-BFGS-B over one restart's square ``frames`` from theta = 0, stationary or not.

    ``objective`` is a search's stacked objective, here given one restart.
    Each frame is charted from itself on consecutive slices of one parameter
    vector, and the start is kept unless the polish beats it by 1e-13.
    Returns the value, the frames and L-BFGS-B's iteration count.
    """
    single = _one_restart(objective)
    ends = np.cumsum([0] + [f.size for f in frames])

    def charted(theta):
        return [_chart(theta[a:b], f) for f, a, b in zip(frames, ends, ends[1:])]

    def fun(theta):
        charts = charted(theta)
        s, gs = single([u for u, _ in charts])
        return s, np.concatenate([pullback(g) for (_, pullback), g in zip(charts, gs)])

    start = single(frames)[0]
    res = scipy.optimize.minimize(
        fun, np.zeros(ends[-1]), method="L-BFGS-B", jac=True,
        options={"maxiter": cfg.max_iters, "ftol": 1e-13, "gtol": STEP_TOL},
    )
    if res.fun < start - 1e-13:
        return float(res.fun), [u for u, _ in charted(res.x)], res.nit
    return start, frames, res.nit


@pytest.mark.parametrize(
    "case",
    [
        (ghz(4), PartitionSpec.full(4), OptConfig(1, 2, 300), True),
        (two_bell(), PartitionSpec.full(4), OptConfig(1, 2, 300), True),
        (w(3), FULL3, OptConfig(107, 3, 300), False),
    ],
    ids=["ghz4-1-2", "two-bell-1-2", "w3-107-3"],
)
def test_descent_skip_equals_joint_polish(case, monkeypatch):
    # a start of bases whose chart gradient passes the stop test takes no step and is
    # returned as it is, exactly as scipy's L-BFGS-B from theta = 0 returns it at iteration
    # 0; the other starts of bases are polished to L-BFGS-B's value
    rho, part, cfg, all_stationary = case
    calls = []

    def recording(*args):
        calls.append(args)
        return _descent(*args)

    monkeypatch.setattr(oegap.optimize, "_descent", recording)
    minimize_lostar(rho, part, cfg)
    (objective, starts, cfg, gens), = calls
    values, got, records = _descent(objective, starts, cfg, gens)
    assert len(records) == max(cfg.restarts, 2)
    iterations = []
    for value, frames, record, start in zip(values, got, records, starts):
        want_value, want, nit = joint_polish_reference(objective, start, cfg)
        assert (record.iterations == 0) == (nit == 0)
        if nit == 0:
            assert record == RestartRecord(1, 0, "gradient")
            assert value == want_value
            assert all(np.array_equal(a, b) for a, b in zip(frames, start))
        else:
            assert value == pytest.approx(want_value, abs=1e-9)
        iterations.append(nit)
    assert all(nit == 0 for nit in iterations) == all_stationary


def _stationary_cases(m: int, d: int, gen):
    """(chart base, gradient, kind) triples: random, stationary and near-threshold gradients.

    The frames are a Haar basis or Stiefel frame and, when m > d, a Haar basis
    padded with zero rows.
    """
    frames = [_haar_frame(m, d, gen)]
    if m > d:
        frames.append(_pad_rows(dagger(_haar_frame(d, d, gen)), m))
    for frame in frames:
        base = frame if m == d else _complete_unitary(frame)
        pullback = _chart(np.zeros(m * m), base)[1]
        g = gen.normal(size=(m, d)) + 1j * gen.normal(size=(m, d))
        yield base, g, "random"
        yield base, np.zeros((m, d), dtype=complex), "zero"
        s = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        yield base, frame @ (s + dagger(s)), "hermitian"  # no first-order change
        scale = STEP_TOL / np.max(np.abs(pullback(g)))
        for factor in (1 - 1e-6, 1 + 1e-6):
            yield base, factor * scale * g, f"threshold-{factor}"


@pytest.mark.parametrize("m,d", [(2, 2), (3, 3), (4, 2), (4, 3)])
def test_stationary_agrees_with_lbfgsb(m, d):
    # the optimizer takes no step from theta = 0 on a frame's chart exactly where scipy's
    # L-BFGS-B stops at iteration 0; here f = Re Tr(G^dag Q), Q the chart's first d
    # columns, and every case of one chart size runs as one lockstep batch
    cases = list(_stationary_cases(m, d, np.random.default_rng(53 + m + d)))
    bases = np.stack([base for base, _, _ in cases])
    gs = np.stack([g for _, g, _ in cases])

    def batch(theta, rows):
        u, pullback = _chart(theta, bases[rows])
        return np.real((gs[rows].conj() * u[..., :d]).sum(axis=(1, 2))), pullback(gs[rows])

    records = _lbfgs(batch, np.zeros((len(cases), m * m)), 300)[2]
    kinds = set()
    for (base, g, kind), record in zip(cases, records):

        def fun(theta):
            u, pullback = _chart(theta, base)
            return float(np.real(np.vdot(g, u[:, :d]))), pullback(g)

        res = scipy.optimize.minimize(
            fun, np.zeros(m * m), method="L-BFGS-B", jac=True,
            options={"maxiter": 300, "ftol": 1e-13, "gtol": STEP_TOL},
        )
        assert (record.iterations == 0) == (res.nit == 0), kind
        if res.nit == 0:
            assert record == RestartRecord(1, 0, "gradient"), kind
        kinds.add((kind, res.nit == 0))
    assert {("random", False), ("zero", True), ("hermitian", True)} <= kinds
    assert {(f"threshold-{1 - 1e-6}", True), (f"threshold-{1 + 1e-6}", False)} <= kinds


@pytest.mark.parametrize(
    "runs,stepping",
    [
        (lambda: [minimize_lostar(ghz(4), PartitionSpec.full(4), OptConfig(1, 2, 300))], 0),
        (lambda: [minimize_lostar(two_bell(), PartitionSpec.full(4), OptConfig(1, 2, 300))], 0),
        # minimize_lo runs minimize_lostar's search, same seeds, before its own
        (lambda: [minimize_lostar(w(3), FULL3, PINNED), minimize_lo(w(3), FULL3, PINNED)], 4),
    ],
    ids=["ghz4-lostar-1-2", "two-bell-lostar-1-2", "w3-lo-107-3"],
)
def test_stationary_starts_make_no_solver_call(runs, stepping):
    # the warm starts of GHZ4 and two-bell are stationary on every block; of W3 LO's
    # six starts, the LO* random start and the three padded LO starts are polished.
    # A stationary start costs its one evaluation and takes no step.
    records = [r for res in runs() for r in res.records]
    assert sum(r.iterations > 0 for r in records) == stepping
    assert all(r == RestartRecord(1, 0, "gradient") for r in records if r.iterations == 0)


def _quadratics(conditions, n: int = 8, seed: int = 7):
    """A batch of convex quadratics f_i = x.A_i x / 2 - b_i.x, A_i of the given condition numbers."""
    gen = np.random.default_rng(seed)
    mats = []
    for kappa in conditions:
        q = np.linalg.qr(gen.normal(size=(n, n)))[0]
        mats.append((q * np.logspace(0, np.log10(kappa), n)) @ q.T)
    mats, b = np.array(mats), gen.normal(size=(len(conditions), n))

    def fun(x, rows):
        ax = (mats[rows] @ x[:, :, None])[..., 0]
        return 0.5 * (x * ax).sum(axis=1) - (b[rows] * x).sum(axis=1), ax - b[rows]

    best = np.linalg.solve(mats, b[:, :, None])[..., 0]
    return fun, best, -0.5 * (b * best).sum(axis=1), gen.normal(size=(len(conditions), n))


def test_lbfgs_reaches_quadratic_minimizers():
    fun, best, lowest, x0 = _quadratics([1.0, 10.0, 1e3, 1e5])
    x, values, records = _lbfgs(fun, x0, 300)
    assert np.allclose(values, lowest, rtol=0, atol=1e-10)
    assert np.allclose(x, best, rtol=0, atol=1e-6)
    assert {r.stop for r in records} <= {"gradient", "decrease"}
    assert records[0].iterations <= 2  # on the identity, the step after the first pair is exact


def test_lbfgs_rows_match_batches_of_one():
    # each row keeps its own memory and line search: in a batch it takes the very iterates
    # it takes alone, though the rows stop at different steps
    fun, _, _, x0 = _quadratics([3.0, 1e2, 1e4])
    x, values, records = _lbfgs(fun, x0, 300)
    assert len({r.evaluations for r in records}) > 1
    for i in range(len(x0)):
        alone = _lbfgs(lambda t, rows: fun(t, rows + i), x0[i : i + 1], 300)
        assert np.array_equal(alone[0][0], x[i]) and alone[1][0] == values[i]
        assert alone[2][0] == records[i]


def test_lbfgs_line_searches_end_on_a_flat_function(monkeypatch):
    # values flat within 1e-14, gradients that promise descent: no line search can meet its
    # sufficient decrease, and each ends within LINE_EVALS evaluations; so does every line
    # search of cq-lostar, whose third restart ends in rounding noise around 1.5
    counts = {}
    advance = _LineSearch.advance

    def counting(self, f):
        accepted = advance(self, f)
        counts[id(self)] = self.evaluations
        return accepted

    monkeypatch.setattr(_LineSearch, "advance", counting)
    gen = np.random.default_rng(71)
    weights, slopes = gen.normal(size=6), 1e-3 * (1 + gen.uniform(size=(4, 6)))

    def flat(x, rows):
        return 1.5 + 1e-14 * np.sin(1e4 * x @ weights), slopes[rows]

    _, _, records = _lbfgs(flat, gen.normal(size=(4, 6)), 300)
    assert counts and max(counts.values()) <= LINE_EVALS
    assert {r.stop for r in records} <= {"decrease", "line search"}
    assert all(r.iterations <= 2 for r in records)
    counts.clear()
    res = SEARCHES["cq-lostar"](PINNED)
    assert counts and max(counts.values()) <= LINE_EVALS
    assert {r.stop for r in res.records} <= STOPS - {"max_iters"}


def test_lbfgs_stationary_start_takes_no_step():
    # a start that passes the gradient test is returned as it is, after its one evaluation
    fun, best, lowest, _ = _quadratics([1.0, 50.0])
    calls = []

    def counting(x, rows):
        calls.append(rows.tolist())
        return fun(x, rows)

    x, values, records = _lbfgs(counting, best, 300)
    assert calls == [[0, 1]] and np.array_equal(x, best)
    assert records == (RestartRecord(1, 0, "gradient"),) * 2
    calls.clear()
    x, values, records = _lbfgs(counting, best, 300, first=fun(best, np.arange(2)))
    assert calls == [] and records == (RestartRecord(1, 0, "gradient"),) * 2


def _line_search_functions(gen):
    """Random 1-D functions phi(t) -> (phi, phi') with phi'(0) < 0: quartic, sinusoidal, near-linear."""
    a, b, c, slope = gen.uniform(0.01, 2.0), gen.normal(), gen.normal(), -gen.uniform(0.01, 10.0)
    w, shift = gen.uniform(0.1, 20.0), gen.uniform(0.05, np.pi - 0.05)
    eps = 10.0 ** gen.uniform(-14, -2)
    return {
        "quartic": lambda t: (
            (((a * t + b) * t + c) * t + slope) * t, ((4 * a * t + 3 * b) * t + 2 * c) * t + slope
        ),
        "sinusoidal": lambda t: (
            math.cos(w * t + shift) + 0.1 * t * t, -w * math.sin(w * t + shift) + 0.2 * t
        ),
        "near-linear": lambda t: (slope * t + eps * t * t, slope + 2 * eps * t),
    }


def test_line_search_backtracks_to_sufficient_decrease():
    # on each function and first step: every accepted step meets sufficient decrease, each
    # next trial lies in [0.1 t, 0.5 t] of the trial t it follows, and every search accepts
    # a step within LINE_EVALS trials; a value that is not finite halves the step
    gen = np.random.default_rng(79)
    trials = []
    for _ in range(150):
        for name, phi in _line_search_functions(gen).items():
            f0, g0 = phi(0.0)
            search = _LineSearch(f0, g0, 10.0 ** gen.uniform(-3, 3))
            for trial in range(1, LINE_EVALS + 1):
                t = search.step
                f = phi(t)[0]
                if search.advance(f):
                    assert f <= f0 + LS_FTOL * t * g0, (name, t, f)
                    break
                assert 0.1 * t <= search.step <= 0.5 * t, (name, t, search.step)
            else:
                pytest.fail(f"{name}: no step accepted in {LINE_EVALS} trials")
            trials.append(trial)
    assert len(trials) == 450 and max(trials) > 2  # some searches backtrack more than once
    search = _LineSearch(0.0, -1.0, 4.0)
    assert not search.advance(math.inf) and search.step == 2.0
    assert not search.advance(math.nan) and search.step == 1.0


def test_result_counts_a_zero_gap_as_converged():
    # no gap is below 0, so one within ENTROPY_TOL of 0 is the minimum whatever the restarts gave
    rho = werner(2, 0.3)
    s = von_neumann(rho)
    for gap, converged in ((0.0, True), (0.5 * ENTROPY_TOL, True), (2 * ENTROPY_TOL, False)):
        res = _result(rho, s + gap, None, [s + gap, s + 1.0], False, ())
        assert res.converged is converged, gap
    assert _result(rho, s + 1.0, None, [s + 1.0] * 2, True, ()).converged


def test_frame_povm_rejects_a_frame_that_is_not_an_isometry():
    # a frame's nonzero rows are its outcomes; no deficit outcome repairs a frame that is no isometry
    with pytest.raises(ValidationError, match="completeness"):
        _frame_povm(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))


def _two_loop_reference(g, s, y, scale):
    """-H g by the two loops of Nocedal & Wright's Alg. 7.4, one row and one pair at a time."""
    out = []
    for gi, si, yi, ci in zip(g, s, y, scale):
        q, alpha = gi.copy(), np.zeros(len(si))
        rho = [1 / (a @ b) if a.any() else 0.0 for a, b in zip(si, yi)]
        for j in reversed(range(len(si))):
            alpha[j] = rho[j] * (si[j] @ q)
            q -= alpha[j] * yi[j]
        q *= ci
        for j in range(len(si)):
            q += si[j] * (alpha[j] - rho[j] * (yi[j] @ q))
        out.append(-q)
    return np.array(out)


def test_lbfgs_direction_matches_two_loop_recursion():
    # rows with full, partial and empty memories; unused pairs are zero, with R's diagonal 1
    gen = np.random.default_rng(73)
    s = gen.normal(size=(3, 10, 7))
    y = s + 0.3 * gen.normal(size=s.shape)
    s[1, :6] = y[1, :6] = 0.0
    s[2] = y[2] = 0.0
    r = np.triu(s @ y.swapaxes(1, 2)) + np.eye(10) * ~s.any(axis=2)[:, None, :]
    g, scale = gen.normal(size=(3, 7)), np.array([0.7, 1.3, 1.0])
    got = _lbfgs_direction(g, s, y, np.linalg.inv(r), scale)
    assert np.allclose(got, _two_loop_reference(g, s, y, scale), rtol=0, atol=1e-12)
    assert np.array_equal(got[2], -g[2])


def test_minimize_locc_gap_not_below_zero():
    # float rounding used to leave S_M - S at -4.4e-16 on the CQ trine state
    cfg = OptConfig(seed=107, restarts=3, max_iters=300)
    res = minimize_locc_oneway(trine_cq().state, FULL2, cfg=cfg)
    assert res.gap_bits >= 0.0


def test_minimize_lostar_gap_invariants():
    res = minimize_lostar(werner(2, 0.9), FULL2, FAST)
    s = von_neumann(werner(2, 0.9))
    assert res.gap_bits == pytest.approx(res.entropy_bits - s, abs=1e-12)
    assert res.gap_bits >= -ENTROPY_TOL
    assert len(res.trace) == max(FAST.restarts, 2)


def test_minimize_lo_classically_correlated_zero():
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    rho = DensityMatrix(np.diag(probs).astype(complex), (2, 2))
    res = minimize_lo(rho, FULL2, FAST)
    assert res.gap_bits == pytest.approx(0.0, abs=1e-9)
    res_star = minimize_lostar(rho, FULL2, FAST)
    assert res_star.gap_bits == pytest.approx(0.0, abs=1e-9)


def test_minimize_lo_w3_no_improvement_below_log3():
    # regression on the reported numerics: no local POVM beats log2(3) on W3
    res = minimize_lo(w(3), FULL3, FAST)
    assert res.gap_bits >= math.log2(3) - 1e-6
    assert res.gap_bits == pytest.approx(math.log2(3), abs=1e-3)


@pytest.mark.parametrize("seed", [1, 2, 3, 107])
def test_minimize_lo_trine_leaves_the_padded_saddle(seed):
    # at three restarts every LO start is a basis padded with zero rows, whose
    # gradient vanishes at theta = 0; the search must still reach 2 - log2(3)
    res = minimize_lo(trine_cq().state, FULL2, OptConfig(seed, 3, 300))
    assert res.gap_bits == pytest.approx(2 - math.log2(3), abs=1e-3)


def test_minimize_locc_cq_states_zero():
    rng = np.random.default_rng(5)
    # a CQ state with nontrivial conditional states
    kets = [np.array([1, 0]), np.array([np.cos(0.6), np.sin(0.6)])]
    rho = cq([0.7, 0.3], [np.outer(k, k) for k in kets]).state
    res = minimize_locc_oneway(rho, FULL2, cfg=FAST)
    assert res.gap_bits == pytest.approx(0.0, abs=1e-6)
    assert res.witness.povm.d == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_chart_matches_loop(d):
    theta = np.random.default_rng(d).normal(size=d * d)
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = theta[:d]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = theta[k] + 1j * theta[k + 1]
            h[j, i] = theta[k] - 1j * theta[k + 1]
            k += 2
    assert np.array_equal(_hermitian_from_params(theta, d), h)


def _one_restart(objective):
    """A stacked objective on one restart's frames, as a search holds them: a value and their gradients.

    A row frame (rows, d) is that restart's shared level, a stack (paths,
    rows, d) one frame per path.
    """

    def single(frames):
        values, grads = objective([f.reshape((-1,) + f.shape[-2:]) for f in frames])
        return float(values[0]), [g.reshape(f.shape) for g, f in zip(grads, frames)]

    return single


def _objective(rho, blocks):
    """The tree objective of rho with ``blocks`` in measurement order, on one restart."""
    return _one_restart(_tree_objective(_block_factor(rho, blocks), _block_dims(rho, blocks)))


PRODUCT_CASES = {
    "w3": (w(3), FULL3),
    "w3-AC|B": (w(3), PartitionSpec.from_string("AC|B", 3)),
    "ghz4": (ghz(4), PartitionSpec.full(4)),
    # W3 and GHZ4 are permutation-symmetric; this state shows a wrong block order
    "mixed-232-rank2-AC|B": (
        random_density(np.random.default_rng(4), (2, 3, 2), rank=2),
        PartitionSpec.from_string("AC|B", 3),
    ),
    "trine": (trine_cq().state, FULL2),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_product_objective_matches_observational_entropy(case):
    # the tree objective on one shared level per block against the product POVM it stands for
    rho, part = PRODUCT_CASES[case]
    bdims = part.block_dims(rho.dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    objective = _objective(rho, part.blocks)
    gen = np.random.default_rng(23)
    frame_sets = [[_random_frame(d, m, gen) for d, m in zip(bdims, ms)] for _ in range(6)]
    # Haar bases padded with zero rows: those outcomes have p = 0 and V = 0
    frame_sets.append([_pad_rows(dagger(_haar_frame(d, d, gen)), m) for d, m in zip(bdims, ms)])
    for qs in frame_sets:
        witness = lo_povm([_frame_povm(q) for q in qs], part, rho.dims)
        assert objective(qs)[0] == pytest.approx(observational_entropy(rho, witness), abs=1e-12)
    for _ in range(4):
        us = [_haar_frame(d, d, gen) for d in bdims]
        witness = lostar_povm(us, part, rho.dims)
        assert objective([dagger(u) for u in us])[0] == pytest.approx(
            observational_entropy(rho, witness), abs=1e-12
        )


def _finite_difference_gradient(f, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a real f at a complex matrix z, as d/dRe + i d/dIm."""
    g = np.zeros(z.shape, dtype=complex)
    for idx in np.ndindex(z.shape):
        for unit in (1.0, 1j):
            step = np.zeros(z.shape, dtype=complex)
            step[idx] = unit * h
            g[idx] += unit * (f(z + step) - f(z - step)) / (2 * h)
    return g


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_product_objective_gradient_matches_finite_differences(case):
    # the tree objective's gradient in shared levels
    rho, part = PRODUCT_CASES[case]
    bdims = part.block_dims(rho.dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    objective = _objective(rho, part.blocks)
    gen = np.random.default_rng(29)
    frame_sets = [
        [_random_frame(d, m, gen) for d, m in zip(bdims, ms)],
        # Haar bases padded with zero rows: those outcomes have p = 0 and V = 0
        [_pad_rows(dagger(_haar_frame(d, d, gen)), m) for d, m in zip(bdims, ms)],
    ]
    for qs in frame_sets:
        grads = objective(qs)[1]
        for k in range(len(qs)):
            numeric = _finite_difference_gradient(
                lambda z, k=k: objective(qs[:k] + [z] + qs[k + 1 :])[0], qs[k]
            )
            assert _relative_error(grads[k], numeric) <= 1e-6


@pytest.mark.parametrize("case", ["w3", "mixed-232-rank2-AC|B"])
def test_shared_level_equals_its_per_path_stack(case):
    # a level every path shares is its frame repeated once per path: the same value,
    # and its gradient is the per-path gradients summed over the paths
    rho, part = PRODUCT_CASES[case]
    bdims = part.block_dims(rho.dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    objective = _objective(rho, part.blocks)
    gen = np.random.default_rng(31)
    frame_sets = [
        [_random_frame(d, m, gen) for d, m in zip(bdims, ms)],
        [dagger(_haar_frame(d, d, gen)) for d in bdims],  # bases: no volume term
        [_pad_rows(dagger(_haar_frame(d, d, gen)), m) for d, m in zip(bdims, ms)],
    ]
    for qs in frame_sets:
        paths = np.cumprod([1] + [len(q) for q in qs[:-1]])
        stacks = [np.broadcast_to(q, (n,) + q.shape).copy() for q, n in zip(qs, paths)]
        value, grads = objective(qs)
        stacked_value, stacked_grads = objective(stacks)
        assert stacked_value == pytest.approx(value, abs=1e-12)
        for g, stacked, n in zip(grads, stacked_grads, paths):
            assert stacked.shape == (n,) + g.shape
            assert np.allclose(stacked.sum(axis=0), g, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "kind,case",
    [
        ("product", "w3"),
        ("product", "trine"),
        ("product", "mixed-232-rank2-AC|B"),
        ("oneway", "w3"),
        ("oneway", "mixed-2222-rank3-ordered-3102"),
    ],
)
def test_stacked_objective_matches_single_restarts(kind, case):
    # three restarts' levels stacked restart first: one value per restart and gradients
    # stacked the same way, each equal to that restart's own call
    gen = np.random.default_rng(79)
    if kind == "oneway":
        rho, blocks, factor, bdims, m = _oneway_case(case)
        firsts = [_random_frame(bdims[0], m, gen) for _ in range(3)]
        trees = [_random_levels(_full_tree(factor, bdims, q), gen) for q in firsts]
    else:
        rho, part = PRODUCT_CASES[case]
        blocks, bdims = part.blocks, part.block_dims(rho.dims)
        factor = _block_factor(rho, blocks)
        trees = [[_random_frame(d, 4 if d == 2 else d + 1, gen)[None] for d in bdims] for _ in range(3)]
    objective = _tree_objective(factor, bdims)
    values, grads = objective([np.concatenate(level) for level in zip(*trees)])
    assert values.shape == (3,)
    for i, tree in enumerate(trees):
        value, own = objective(tree)
        assert values[i] == pytest.approx(value[0], abs=1e-13)
        for stacked, g in zip(grads, own):
            assert np.allclose(stacked[i * len(g) : (i + 1) * len(g)], g, rtol=0, atol=1e-13)


LOCKSTEP_SEARCHES = {
    "trine-lostar": lambda cfg: minimize_lostar(trine_cq().state, FULL2, cfg),
    "w3-lo": lambda cfg: minimize_lo(w(3), FULL3, cfg),
    "w3-locc1": lambda cfg: minimize_locc_oneway(w(3), FULL3, cfg=cfg),
    "cq-lostar": SEARCHES["cq-lostar"],
    "cq-lo": SEARCHES["cq-lo"],
}


@pytest.mark.parametrize("search", sorted(LOCKSTEP_SEARCHES))
def test_restarts_do_not_depend_on_each_other(search):
    # every restart steps in lockstep with the others, on its own seed stream and its own
    # optimizer state: two more restarts leave the first three where they were
    run = LOCKSTEP_SEARCHES[search]
    three, five = run(OptConfig(107, 3, 300)), run(OptConfig(107, 5, 300))
    assert np.allclose(three.trace, five.trace[:3], rtol=0, atol=1e-12)
    assert three.records == five.records[:3]


def test_mixed_state_restart_agrees_across_restart_counts():
    # W3 with 10% white noise pads its one-way tree's charts, so the live restarts' gradients
    # reach _lbfgs as strided rows: its first two restarts still end at the same values
    # after the same steps at every restart count
    rho = DensityMatrix(0.9 * w(3).mat + 0.1 * np.eye(8) / 8, (2, 2, 2))
    runs = [minimize_locc_oneway(rho, FULL3, cfg=OptConfig(107, k, 300)) for k in (2, 3, 4, 5)]
    for res in runs[1:]:
        assert res.trace[:2] == runs[0].trace[:2]
        assert res.records[:2] == runs[0].records[:2]


def _hermitian_params(h: np.ndarray) -> np.ndarray:
    """theta with _hermitian_from_params(theta, d) == h."""
    d = h.shape[0]
    rows, cols = np.triu_indices(d, 1)
    theta = np.empty(d * d)
    theta[:d] = np.real(np.diag(h))
    theta[d::2] = h[rows, cols].real
    theta[d + 1 :: 2] = h[rows, cols].imag
    return theta


def _chart_theta(kind: str, m: int, gen) -> np.ndarray:
    if kind == "random":
        return gen.normal(size=m * m)
    if kind == "zero":
        return np.zeros(m * m)
    # H = V diag(0.4, ..., 0.4, -0.9) V^dag, or 0.4 I when m = 2: a repeated eigenvalue
    vals = np.full(m, 0.4)
    if m > 2:
        vals[-1] = -0.9
    v = _haar_frame(m, m, gen)
    return _hermitian_params((v * vals) @ dagger(v))


@pytest.mark.parametrize("kind", ["random", "zero", "repeated"])
@pytest.mark.parametrize("m,d", [(2, 2), (3, 3), (4, 2), (4, 3)])
def test_chart_gradient_matches_finite_differences(kind, m, d):
    gen = np.random.default_rng(37 + m + d)
    base = _haar_frame(m, m, gen)
    theta = _chart_theta(kind, m, gen)
    if kind == "repeated":
        assert np.sum(np.isclose(np.linalg.eigvalsh(_hermitian_from_params(theta, m)), 0.4)) >= 2
    g = gen.normal(size=(m, d)) + 1j * gen.normal(size=(m, d))

    def f(t):  # Re Tr(G^dag Q), Q the first d columns of the chart
        return float(np.real(np.vdot(g, _chart(t, base)[0][:, :d])))

    u, pullback = _chart(theta, base)
    assert np.allclose(dagger(u) @ u, np.eye(m), atol=1e-12)
    h = 1e-6
    numeric = np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h) for e in np.eye(m * m)])
    assert _relative_error(pullback(g), numeric) <= 1e-6


@pytest.mark.parametrize("k,m", [(1, 3), (2, 2), (2, 4), (3, 4)])
def test_block_params_embed_a_smaller_chart(k, m):
    # a k x k chart charted as the top-left block of an m x m one: H is the block, and the
    # chart is exp(iH) on that block and the identity elsewhere
    theta = np.random.default_rng(83 + k + m).normal(size=k * k)
    full = np.zeros(m * m)
    full[_block_params(k, m)] = theta
    h = _hermitian_from_params(full, m)
    assert np.array_equal(h[:k, :k], _hermitian_from_params(theta, k))
    assert not h[k:].any() and not h[:, k:].any()
    u = _chart(full, np.eye(m, dtype=complex))[0]
    assert np.allclose(u[:k, :k], _chart(theta, np.eye(k, dtype=complex))[0], rtol=0, atol=1e-14)
    assert np.allclose(u[k:, k:], np.eye(m - k), rtol=0, atol=1e-14)


@pytest.mark.parametrize("m,d", [(2, 2), (4, 2), (4, 3)])
def test_stacked_chart_matches_single_charts(m, d):
    # the one-way search charts each level's equal-shaped bases as one stack
    gen = np.random.default_rng(43 + m + d)
    bases = np.stack([_haar_frame(m, m, gen) for _ in range(3)])
    thetas = gen.normal(size=(3, m * m))
    g = gen.normal(size=(3, m, d)) + 1j * gen.normal(size=(3, m, d))
    u, pullback = _chart(thetas, bases)
    stacked_grad = pullback(g)
    for k in range(3):
        u_k, pullback_k = _chart(thetas[k], bases[k])
        assert np.allclose(u[k], u_k, atol=1e-14)
        assert np.allclose(stacked_grad[k], pullback_k(g[k]), atol=1e-13)


def test_stacked_complete_unitary_matches_single_calls():
    # a one-way tree's first frame is a stack of one; a stack completes frame by frame
    gen = np.random.default_rng(67)
    for m, d in [(2, 2), (3, 2), (4, 2), (4, 3)]:
        frames = [_haar_frame(m, d, gen) for _ in range(3)]
        if m == 4 and d == 2:  # a basis padded with zero rows: its QR meets |r_ii| <= 1e-12
            frames.append(_pad_rows(np.eye(2, dtype=complex), 4))
        stack = _complete_unitary(np.stack(frames))
        assert stack.shape == (len(frames), m, m)
        for q, u in zip(frames, stack):
            assert np.array_equal(u, _complete_unitary(q))
            assert np.allclose(dagger(u) @ u, np.eye(m), rtol=0, atol=1e-12)
            assert np.allclose(u[:, :d], q, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("m,d", [(2, 2), (3, 3), (4, 2), (4, 3)])
def test_chart_at_zero_is_the_base(m, d, stack):
    # at theta = 0 the chart is the base, and its pullback the parameter map of -i base^dag G
    gen = np.random.default_rng(47 + m + d)
    shape = () if stack is None else (stack,)
    base = np.stack([_haar_frame(m, m, gen) for _ in range(stack or 1)]).reshape(shape + (m, m))
    g = gen.normal(size=shape + (m, d)) + 1j * gen.normal(size=shape + (m, d))
    u, pullback = _chart(np.zeros(shape + (m * m,)), base)
    assert u is base
    closed_form = -1j * (base.conj().swapaxes(-1, -2) @ g @ np.eye(d, m))
    assert np.array_equal(pullback(g), _hermitian_gradient_params(closed_form))


def test_chart_of_a_large_block_costs_quadratic_memory():
    # blocks up to core.MAX_DIM can be searched: the parameter map must not grow as m^4
    # (a dense (m^2, 2 m^2) map is 2 m^4 floats, 157 MB at m = 56)
    m, d = 56, 3
    gen = np.random.default_rng(61)
    base = _haar_frame(m, m, gen)
    theta = 0.1 * gen.normal(size=m * m)
    g = gen.normal(size=(m, d)) + 1j * gen.normal(size=(m, d))
    tracemalloc.start()
    try:
        u, pullback = _chart(theta, base)
        jac = pullback(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * m * m * 16  # 100 complex m x m matrices: 5 MB
    assert np.allclose(dagger(u) @ u, np.eye(m), atol=1e-12)
    direction, h = gen.normal(size=m * m), 1e-6

    def f(t):  # Re Tr(G^dag Q), Q the first d columns of the chart
        return float(np.real(np.vdot(g, _chart(t, base)[0][:, :d])))

    numeric = (f(theta + h * direction) - f(theta - h * direction)) / (2 * h)
    assert jac @ direction == pytest.approx(numeric, rel=1e-6)


def _descent_fun(objective, starts, monkeypatch):
    """The stacked function of theta that ``_descent`` hands to ``_lbfgs``, and its start; no step."""
    seen = []

    def stub(fun, x0, max_iters, first=None):
        seen.append((fun, x0))
        return x0, np.full(len(x0), np.inf), (RestartRecord(0, 0, "gradient"),) * len(x0)

    gens = [np.random.default_rng(i) for i in range(len(starts))]
    with monkeypatch.context() as patch:
        patch.setattr(oegap.optimize, "_lbfgs", stub)
        _descent(objective, starts, OptConfig(1, 1, 300), gens)
    assert len(seen) == 1
    return seen[0]


MIXED_232 = random_density(np.random.default_rng(4), (2, 3, 2), rank=2)
MIXED_222 = random_density(np.random.default_rng(6), (2, 2, 2), rank=2)
DESCENT_CASES = {
    # (search, frame shapes of the recorded starts): two POVM frames of one chart size
    "trine-lo": (lambda cfg: minimize_lo(trine_cq().state, FULL2, cfg), [(4, 3), (4, 2)]),
    # a pure state: one 4 x 4 chart, the last two qubits measured in closed form
    "w3-locc1": (lambda cfg: minimize_locc_oneway(w(3), FULL3, None, cfg), [(1, 4, 2)]),
    # a mixed state: a 4 x 4 chart and four 2 x 2 charts, the latter as blocks of 4 x 4 charts
    "mixed-222-locc1": (lambda cfg: minimize_locc_oneway(MIXED_222, FULL3, None, cfg), [(1, 4, 2), (4, 2, 2)]),
    # the classical block held in its basis: the objective inserts the held frame
    "cq-example-lo-held": (lambda cfg: cq_gap(CQX.state, CQX.classical_basis, "lo", cfg), [(4, 2)]),
    # the two qubit bases are 2 x 2 blocks of 3 x 3 charts, in one stack with the qutrit's
    "mixed-232-lostar": (lambda cfg: minimize_lostar(MIXED_232, FULL3, cfg), [(2, 2), (3, 3), (2, 2)]),
}


@pytest.mark.parametrize("case", sorted(DESCENT_CASES))
def test_descent_gradient_matches_finite_differences(case, monkeypatch):
    # the stacked function of all restarts: each row's gradient against central differences
    # of its own value, every row moved at once, and a subset of live rows gives those
    # rows' values and gradients unchanged
    search, shapes = DESCENT_CASES[case]
    calls = []

    def recording(*args):
        calls.append(args)
        return _descent(*args)

    with monkeypatch.context() as patch:
        patch.setattr(oegap.optimize, "_descent", recording)
        search(OptConfig(3, 3, 20))
    objective, starts = next(
        (o, s) for o, s, _, _ in calls if [q.shape for q in s[0]] == [tuple(t) for t in shapes]
    )
    fun, theta0 = _descent_fun(objective, starts, monkeypatch)
    theta = theta0 + 0.3 * np.random.default_rng(59).normal(size=theta0.shape)
    rows = np.arange(len(theta))
    values, jac = fun(theta, rows)
    h = 1e-6
    steps = h * np.eye(theta.shape[1])
    numeric = np.stack([fun(theta + e, rows)[0] - fun(theta - e, rows)[0] for e in steps], axis=1) / (2 * h)
    assert np.array_equal(values, fun(theta, rows)[0])
    for got, want in zip(jac, numeric):
        assert _relative_error(got, want) <= 1e-6
    live = rows[1:]
    live_values, live_jac = fun(theta[live], live)
    assert np.allclose(live_values, values[live], rtol=0, atol=1e-14)
    assert np.allclose(live_jac, jac[live], rtol=0, atol=1e-12)


ONEWAY_CASES = {
    "w3": (w(3), FULL3, (0, 1, 2)),
    "w3-ordered-201": (w(3), FULL3, (2, 0, 1)),
    "ghz3-AC|B": (ghz(3), PartitionSpec.from_string("AC|B", 3), (0, 1)),
    "trine": (trine_cq().state, FULL2, (0, 1)),
    # no permutation symmetry, unequal dimensions: block order and placement show
    "mixed-232-ordered-201": (random_density(np.random.default_rng(4), (2, 3, 2)), FULL3, (2, 0, 1)),
    "mixed-232-B-then-AC": (
        random_density(np.random.default_rng(4), (2, 3, 2)),
        PartitionSpec.from_string("AC|B", 3),
        (1, 0),
    ),
}


# four blocks: the paths of the third level run over two outcomes before it
DEEP_ONEWAY_CASES = ONEWAY_CASES | {
    "mixed-2222-rank3-ordered-3102": (
        random_density(np.random.default_rng(5), (2, 2, 2, 2), rank=3),
        PartitionSpec.full(4),
        (3, 1, 0, 2),
    ),
}


def _oneway_case(case: str):
    """(rho, blocks in measurement order, block factor, block dims, first-frame rows) of a one-way case."""
    rho, part, ordering = DEEP_ONEWAY_CASES[case]
    blocks = tuple(part.blocks[k] for k in ordering)
    bdims = _block_dims(rho, blocks)
    return rho, blocks, _block_factor(rho, blocks), bdims, 4 if bdims[0] == 2 else bdims[0] + 1


def _first_frames(d0: int, m: int, gen, n_random: int) -> list[np.ndarray]:
    frames = [_random_frame(d0, m, gen) for _ in range(n_random)]
    # a Haar basis padded with a zero row: that outcome has p = 0 and V = 0
    frames.append(_pad_rows(dagger(_haar_frame(d0, d0, gen)), m))
    # the computational basis: on GHZ3 under AC|B two outcomes have p = 0 and V = 1
    frames.append(_pad_rows(np.eye(d0, dtype=complex), m))
    return frames


def _full_tree(factor: np.ndarray, bdims, q: np.ndarray) -> list[np.ndarray]:
    """The conditional-eigenbasis tree after q with a level for every block but the last, pure or not."""
    return _eigenbasis_levels(factor, bdims, [q[None]])[: max(1, len(bdims) - 1)]


def _random_levels(tree: list[np.ndarray], gen) -> list[np.ndarray]:
    """The tree with every basis after the first frame replaced by a Haar basis."""
    return tree[:1] + [
        np.stack([dagger(_haar_frame(len(b), len(b), gen)) for b in level]) for level in tree[1:]
    ]


def eigenbasis_protocol_reference(mat, dims, blocks, live, levels=(), path=0) -> ConditionalMeasurement:
    """Protocol measuring each block in its frame from ``levels``, else in its conditional eigenbasis.

    Rebuilt node by node from normalised conditional states: ``blocks`` hold
    positions within the current state, ``live`` maps them to the original
    subsystem labels, and ``levels[0][path]`` is the first block's frame on
    this path, whose row i leads to path ``path * rows + i`` of ``levels[1]``.
    A block with no level left is measured in the eigenbasis of its
    conditional marginal.
    """
    pos = tuple(blocks[0])
    if levels:
        frame = levels[0][path]
        povm = _frame_povm(frame)
        rows = [i for i, row in enumerate(frame) if np.linalg.norm(row) > 1e-7]
    else:
        reduced = partial_trace(mat, dims, pos)
        tr = float(np.real(np.trace(reduced)))
        if tr > 1e-14:
            reduced = reduced / tr
        vecs = np.linalg.eigh(0.5 * (reduced + dagger(reduced)))[1]
        povm = Povm.from_basis(vecs[:, ::-1].copy())
        rows = []
    label_block = tuple(live[j] for j in pos)
    if len(blocks) == 1:
        return ConditionalMeasurement(label_block, povm, None)
    rest_pos = tuple(j for j in range(len(dims)) if j not in pos)
    rest = (
        tuple(dims[j] for j in rest_pos),
        tuple(tuple(rest_pos.index(i) for i in b) for b in blocks[1:]),
        tuple(live[j] for j in rest_pos),
    )
    children = []
    for i, eff in enumerate(povm.effects):
        cond = conditional_reference(mat, dims, pos, eff)[1]
        below = (levels[1:], path * len(frame) + rows[i]) if levels else ()
        children.append(eigenbasis_protocol_reference(cond, *rest, *below))
    return ConditionalMeasurement(label_block, povm, tuple(children))


def _assert_tree_protocol_matches(rho, blocks, tree, reference):
    """The objective, the protocol read off the tree and the rebuilt reference agree within 1e-12."""
    factor, bdims = _block_factor(rho, blocks), _block_dims(rho, blocks)
    protocol = _tree_protocol(blocks, _eigenbasis_levels(factor, bdims, tree))
    value = _objective(rho, blocks)(tree)[0]
    assert value == pytest.approx(chain_entropy(protocol, rho), abs=1e-12)
    assert value == pytest.approx(chain_entropy(reference, rho), abs=1e-12)
    assert value == pytest.approx(chain_reference(reference, rho), abs=1e-12)


@pytest.mark.parametrize("case", sorted(ONEWAY_CASES))
def test_oneway_objective_matches_chain_entropy(case):
    # on each first frame's conditional-eigenbasis tree, the objective equals the
    # chain entropy of the greedy protocol after that frame
    rho, blocks, factor, bdims, m = _oneway_case(case)
    live = tuple(range(len(rho.dims)))
    # a level for every block but the last, on a pure state (one factor column) but the last two
    depth = max(1, len(bdims) - (2 if factor.shape[1] == 1 else 1))
    for q in _first_frames(bdims[0], m, np.random.default_rng(17), 12):
        tree = _eigenbasis_tree(factor, bdims, q)
        # one stack of bases per level after the first: m of them on the second
        assert [len(level) for level in tree] == [1, m][:depth]
        reference = eigenbasis_protocol_reference(rho.mat, rho.dims, blocks, live, [q[None]])
        _assert_tree_protocol_matches(rho, blocks, tree, reference)


@pytest.mark.parametrize("case", sorted(DEEP_ONEWAY_CASES))
def test_oneway_objective_matches_rebuilt_protocol(case):
    # random level bases: the objective against the protocol read off the whole tree
    rho, blocks, factor, bdims, m = _oneway_case(case)
    live = tuple(range(len(rho.dims)))
    gen = np.random.default_rng(19)
    for q in _first_frames(bdims[0], m, gen, 4):
        tree = _random_levels(_full_tree(factor, bdims, q), gen)
        reference = eigenbasis_protocol_reference(rho.mat, rho.dims, blocks, live, tree)
        _assert_tree_protocol_matches(rho, blocks, tree, reference)


@pytest.mark.parametrize("case", sorted(DEEP_ONEWAY_CASES))
def test_oneway_objective_gradient_matches_finite_differences(case):
    rho, blocks, factor, bdims, m = _oneway_case(case)
    objective = _one_restart(_tree_objective(factor, bdims))
    gen = np.random.default_rng(41)
    for q in _first_frames(bdims[0], m, gen, 1):
        tree = _random_levels(_full_tree(factor, bdims, q), gen)
        grads = objective(tree)[1]
        for k in range(len(tree)):
            numeric = _finite_difference_gradient(
                lambda z, k=k: objective(tree[:k] + [z] + tree[k + 1 :])[0], tree[k]
            )
            assert _relative_error(grads[k], numeric) <= 1e-6


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)], ids=str)
def test_pure_state_tree_measures_its_last_two_blocks_in_closed_form(dims):
    # on a pure state the tree stops before the last two blocks: its value equals the
    # full-depth tree's with the second-to-last block in its conditional eigenbasis, no
    # other basis there does better (Schur-Horn), and its gradient is exact
    rho = random_pure(np.random.default_rng(sum(dims)), dims)
    blocks = tuple((k,) for k in range(len(dims)))
    factor, bdims = _block_factor(rho, blocks), _block_dims(rho, blocks)
    objective = _one_restart(_tree_objective(factor, bdims))
    gen = np.random.default_rng(43)
    for q in _first_frames(bdims[0], 4, gen, 6):
        short = _random_levels(_eigenbasis_tree(factor, bdims, q), gen)
        assert len(short) == len(dims) - 2
        full = _eigenbasis_levels(factor, bdims, short)[: len(dims) - 1]
        value = objective(short)[0]
        assert value == pytest.approx(objective(full)[0], abs=1e-12)
        for _ in range(3):
            haar = np.stack([dagger(_haar_frame(len(b), len(b), gen)) for b in full[-1]])
            assert value <= objective(full[:-1] + [haar])[0] + 1e-12
    grads = objective(short)[1]
    for k in range(len(short)):
        numeric = _finite_difference_gradient(
            lambda z, k=k: objective(short[:k] + [z] + short[k + 1 :])[0], short[k]
        )
        assert _relative_error(grads[k], numeric) <= 1e-6


def test_oneway_search_factors_rho_once(monkeypatch):
    # the objective, every start's tree and the witness protocol share one block factor
    calls = []
    real = oegap.optimize._block_factor

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oegap.optimize, "_block_factor", counting)
    minimize_locc_oneway(w(3), FULL3, cfg=OptConfig(1, 4, 20))
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", [OptConfig(107, 3, 300), OptConfig(11, 4, 300)], ids=["107-3", "11-4"])
def test_minimize_locc_w3_converges(cfg):
    # every restart's frames are polished together, so at least two restarts meet
    res = minimize_locc_oneway(w(3), FULL3, cfg=cfg)
    assert res.converged
    assert res.entropy_bits <= 1.5448
    assert res.entropy_bits == chain_entropy(res.witness, w(3))


def test_minimize_locc_w3_reaches_its_minimum_from_every_seed():
    # with the last two qubits in closed form, no restart is held at W3's LO value 1.5849625
    for seed in range(1, 101):
        res = minimize_locc_oneway(w(3), FULL3, cfg=OptConfig(seed, 2, 300))
        assert res.gap_bits == pytest.approx(1.5444958889629756, abs=1e-6), seed
        assert res.converged, seed


def test_minimize_locc_w4_converges():
    # four pure qubits: the tree searches the first two, the last two in closed form
    res = minimize_locc_oneway(w(4), PartitionSpec.full(4), cfg=OptConfig(107, 3, 300))
    assert res.converged
    assert res.gap_bits <= 1.9256582
    assert res.entropy_bits == chain_entropy(res.witness, w(4))


def test_minimize_locc_tiles_independent_of_seed_and_budget():
    # the zero padded row of a warm start only leaves its saddle from a nudged start
    cfgs = [OptConfig(seed, 3, 300) for seed in (1, 2, 3, 107)] + [OptConfig(107, 8, 400)]
    gaps = [minimize_locc_oneway(tiles_upb_state(), FULL2, cfg=cfg).gap_bits for cfg in cfgs]
    assert max(gaps) - min(gaps) <= 1e-3


def test_minimize_locc_non_default_ordering():
    rho = w(3)
    res = minimize_locc_oneway(rho, FULL3, ordering=(1, 2, 0), cfg=OptConfig(11, 3, 300))
    assert res.witness.block == (1,)
    assert {child.block for child in res.witness.then} == {(2,)}
    assert res.entropy_bits == chain_entropy(res.witness, rho)
    marginal = max(von_neumann(rho.reduced([k])) for k in range(3))
    assert res.gap_bits >= marginal - von_neumann(rho) - 1e-9


def test_minimize_locc_ordering_validation():
    from oegap.core import ValidationError

    with pytest.raises(ValidationError):
        minimize_locc_oneway(bell(), FULL2, ordering=(0, 0), cfg=FAST)


def test_cq_gap_example_half_bit():
    state = cq_example()
    res = cq_gap(state.state, state.classical_basis, "lostar", FAST)
    assert res.gap_bits == pytest.approx(0.5, abs=1e-5)
    assert res.witness.class_tag == "LOStar"


def test_cq_gap_example_optimal_axis():
    # the optimal quantum-side basis measures along an axis with n_z = 0 or +-1
    from oegap.core import partial_trace

    state = cq_example()
    res = cq_gap(state.state, state.classical_basis, "lostar", FAST)
    quantum_effects = []
    for eff in res.witness.effects:
        marg = partial_trace(np.array(eff), (2, 2), [1])
        if np.linalg.norm(marg) > 1e-9 and np.linalg.matrix_rank(marg, tol=1e-9) == 1:
            quantum_effects.append(marg / np.real(np.trace(marg)))
    sz = np.diag([1.0, -1.0])
    n_z = abs(float(np.real(np.trace(sz @ quantum_effects[0]))))
    assert n_z == pytest.approx(0.0, abs=2e-2) or n_z == pytest.approx(1.0, abs=2e-2)


def test_cq_gap_matches_minimize_lostar():
    state = cq_example()
    direct = minimize_lostar(state.state, FULL2, FAST)
    reduced = cq_gap(state.state, state.classical_basis, "lostar", FAST)
    assert reduced.gap_bits == pytest.approx(direct.gap_bits, abs=1e-4)


def test_cq_gap_trine_lo():
    state = trine_cq()
    cfg = OptConfig(seed=11, restarts=8, max_iters=1500)
    res = cq_gap(state.state, state.classical_basis, "lo", cfg)
    assert res.gap_bits == pytest.approx(2 - math.log2(3), abs=1e-4)


TRINE = trine_cq()
LO_AND_LOSTAR = {  # case -> search(klass, cfg)
    "cq-trine": lambda klass, cfg: cq_gap(TRINE.state, TRINE.classical_basis, klass, cfg),
    "w3": lambda klass, cfg: CLASS_OPTIMIZERS[klass](w(3), FULL3, cfg),
    "trine": lambda klass, cfg: CLASS_OPTIMIZERS[klass](TRINE.state, FULL2, cfg),
    "ghz4": lambda klass, cfg: CLASS_OPTIMIZERS[klass](ghz(4), PartitionSpec.full(4), cfg),
}


@pytest.mark.parametrize("case", LO_AND_LOSTAR)
def test_cq_gap_lo_not_above_lostar(case):
    # LO contains LO*: the LO search starts from the polished LO* basis
    cfg = OptConfig(seed=107, restarts=3, max_iters=300)
    star = LO_AND_LOSTAR[case]("lostar", cfg)
    lo = LO_AND_LOSTAR[case]("lo", cfg)
    assert lo.gap_bits <= star.gap_bits


def test_cq_gap_commuting_conditionals_zero():
    rho = cq([0.6, 0.4], [np.diag([0.8, 0.2]), np.diag([0.3, 0.7])]).state
    res = cq_gap(rho, np.eye(2, dtype=complex), "lostar", FAST)
    assert res.gap_bits == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("klass", ["lostar", "lo"])
def test_cq_gap_reports_its_witness_entropy(klass):
    res = cq_gap(CQX.state, CQX.classical_basis, klass, FAST)
    assert res.entropy_bits == observational_entropy(CQX.state, res.witness)
    assert res.gap_bits >= 0.0


def test_cq_gap_classical_block_one():
    swapped = DensityMatrix(permute_subsystems(CQX.state.mat, (2, 2), (1, 0)), (2, 2))
    a = cq_gap(CQX.state, CQX.classical_basis, "lostar", FAST)
    b = cq_gap(swapped, CQX.classical_basis, "lostar", FAST, classical_block=1)
    assert b.gap_bits == pytest.approx(a.gap_bits, abs=1e-9)
    for res in (a, b):  # the LO* witness is a rank-1 product basis on either side
        assert res.witness.class_tag == "LOStar"
        assert res.witness.is_projective() and res.witness.n_outcomes == 4


@pytest.mark.parametrize(
    "basis",
    [np.eye(3), [[1, 1], [0, 1]], 2 * np.eye(2)],
    ids=["wrong-size", "not-unitary", "scaled-identity"],
)
def test_cq_gap_rejects_bad_classical_basis(basis):
    with pytest.raises(ValidationError, match="classical_basis"):
        cq_gap(CQX.state, basis, "lostar", FAST)


def test_cq_gap_rejects_non_cq_input():
    from oegap.core import ValidationError

    with pytest.raises(ValidationError):
        cq_gap(bell(), np.eye(2, dtype=complex), "lostar", FAST)


def test_ppt_gap_w3_exact():
    res = ppt_gap_w3()
    assert res.gap_bits == pytest.approx(math.log2(9 / 4), abs=1e-12)
    assert res.trace_value == pytest.approx(9 / 4, abs=1e-12)
    assert res.coefficients == pytest.approx((0.5, 0.0, 0.0, 2 / 3, 1 / 12))
    assert max(res.coefficients) <= 1.0


def test_ppt_gap_w3_witness_properties():
    res = ppt_gap_w3()
    assert all(is_ppt(res.witness, FULL3, (2, 2, 2)))
    # the witness achieves the gap on W3: p = (1, 0) with volumes (9/4, rest)
    s_m = observational_entropy(w(3), res.witness)
    assert s_m == pytest.approx(math.log2(9 / 4), abs=1e-10)
    assert res.witness.volumes()[0] == pytest.approx(9 / 4, abs=1e-10)


def test_ppt_w3_certificate_exact():
    assert _certify_ppt_w3(EXACT_W3_COEFFS, EXACT_W3_DUAL) == Fraction(9, 4)


def _perturbed_coeffs(index: int, delta: Fraction):
    coeffs = list(EXACT_W3_COEFFS)
    coeffs[index] += delta
    return tuple(coeffs)


def _perturbed_dual(index: int, weight_delta: Fraction, vector_delta=None):
    dual = list(EXACT_W3_DUAL)
    weight, vector = dual[index]
    if vector_delta is not None:
        vector = tuple(a + b for a, b in zip(vector, vector_delta))
    dual[index] = (weight + weight_delta, vector)
    return tuple(dual)


@pytest.mark.parametrize(
    "coeffs,dual,why",
    [
        (_perturbed_coeffs(0, Fraction(1, 100)), EXACT_W3_DUAL, "primal point is infeasible"),
        (_perturbed_coeffs(2, Fraction(-1, 100)), EXACT_W3_DUAL, "primal point is infeasible"),
        (_perturbed_coeffs(3, Fraction(-1, 100)), EXACT_W3_DUAL, "primal point is infeasible"),
        (_perturbed_coeffs(4, Fraction(-1, 1000)), EXACT_W3_DUAL, "primal point is infeasible"),
        (_perturbed_coeffs(1, Fraction(1, 100)), EXACT_W3_DUAL, "bounds do not meet"),
        (EXACT_W3_COEFFS, _perturbed_dual(0, Fraction(1, 100)), "dual certificate is infeasible"),
        (EXACT_W3_COEFFS, _perturbed_dual(1, Fraction(-1, 100)), "dual certificate is infeasible"),
        (EXACT_W3_COEFFS, _perturbed_dual(1, Fraction(0), (0, 0, 0, 0, 1, 0, 0, 0)), "bounds do not meet"),
        (EXACT_W3_COEFFS, ((Fraction(-1), (0,) * 7 + (1,)),) + EXACT_W3_DUAL, "dual certificate is infeasible"),
    ],
    ids=["t2-high", "t4-negative", "t5-low", "t6-low", "t3-high", "y1-heavy", "y2-light", "y2-vector", "y-negative"],
)
def test_ppt_w3_certificate_rejects_perturbations(coeffs, dual, why):
    with pytest.raises(RuntimeError, match=f"W3 PPT {why}"):
        _certify_ppt_w3(coeffs, dual)


TINY = Fraction(1, 10**30)  # its products overflow int64: the check must stay exact


@pytest.mark.parametrize(
    "coeffs,dual,message",
    [
        (_perturbed_coeffs(0, TINY), EXACT_W3_DUAL, "W3 PPT primal point is infeasible"),
        (_perturbed_coeffs(4, -TINY), EXACT_W3_DUAL, "W3 PPT primal point is infeasible"),
        (
            _perturbed_coeffs(1, TINY),
            EXACT_W3_DUAL,
            f"W3 PPT bounds do not meet: dual 9/4 < primal {Fraction(9, 4) + 2 * TINY}",
        ),
        (EXACT_W3_COEFFS, _perturbed_dual(0, TINY), "W3 PPT dual certificate is infeasible"),
        (
            EXACT_W3_COEFFS,
            _perturbed_dual(0, -TINY),
            f"W3 PPT bounds do not meet: dual {Fraction(9, 4) - Fraction(4, 3) * TINY} < primal 9/4",
        ),
    ],
    ids=["t2-high", "t6-low", "t3-high", "y1-heavy", "y1-light"],
)
def test_ppt_w3_certificate_is_exact_at_any_denominator(coeffs, dual, message):
    # a perturbation of 1e-30 is far below float resolution and its denominators overflow
    # int64, yet the certificate sees it, with the rational bounds in the message
    with pytest.raises(RuntimeError) as err:
        _certify_ppt_w3(coeffs, dual)
    assert str(err.value) == message


def _is_psd_rational(a) -> bool:
    """Whether a symmetric matrix is PSD, by Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in a]
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


def test_is_psd_exact_matches_rational_elimination():
    # integer Gram matrices, some with zero rows and so zero pivots, some with one
    # symmetric entry pair nudged: the fraction-free elimination agrees with Fractions
    gen = np.random.default_rng(17)
    verdicts = set()
    for _ in range(600):
        n = int(gen.integers(1, 9))
        v = gen.integers(-3, 4, size=(n, int(gen.integers(0, n + 1))))
        v[gen.random(n) < 0.2] = 0
        a = v @ v.T
        if gen.random() < 0.5:
            i, j = gen.integers(0, n, size=2)
            a[i, j] += 1
            if i != j:
                a[j, i] += 1
        matrix = [[int(x) for x in row] for row in a]
        verdicts.add(_is_psd_exact(matrix))
        assert _is_psd_exact(matrix) == _is_psd_rational(matrix)
    assert verdicts == {True, False}


def test_eigenseparability_domino():
    report = eigenseparability(domino_state(), FULL2)
    assert report.verdict == "Eigenseparable"
    assert report.kernel_verdict is None


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_eigenseparability_werner(d, lam):
    report = eigenseparability(werner(d, lam), FULL2)
    assert report.verdict == "NotEigenseparable"


def test_eigenseparability_werner_mixed_point():
    # at the maximally mixed point the only eigenprojector is the identity
    report = eigenseparability(werner(2, werner_mixed_point(2)), FULL2)
    assert report.verdict == "Eigenseparable"


def test_eigenseparability_tiles_kernel_flagged():
    report = eigenseparability(tiles_upb_state(), FULL2)
    assert report.verdict in ("Unknown", "NotEigenseparable")
    assert report.kernel_is_ppt is True
    assert report.kernel_verdict != "Separable"


def test_sep_heuristic_bipartite_pure():
    rng = np.random.default_rng(7)
    psi = random_pure(rng, (2, 2))
    from oegap.core import schmidt

    coeffs, _, _ = schmidt(psi.pure_vector(), (2, 2), [0])
    ent = shannon(coeffs**2)
    res = sep_gap_heuristic(psi, FULL2, cfg=FAST)
    assert res.gap_bits == pytest.approx(ent, abs=1e-4)
    assert res.witness.class_tag == "SEP"
    assert res.bounds[0] == 0.0


def test_sep_heuristic_werner_matches_analytic():
    rho = werner(2, 0.6)
    exact = werner_analytic(2, 0.6)
    res = sep_gap_heuristic(rho, FULL2, cfg=FAST)
    assert res.gap_bits == pytest.approx(exact.gap_bits, abs=1e-6)


def test_sep_heuristic_w3_sandwich():
    # the SEP gap lies between W3's proven PPT gap log2(9/4) and its LOCC1 bound
    res = sep_gap_heuristic(w(3), FULL3, cfg=FAST)
    assert math.log2(9 / 4) - 1e-9 <= res.gap_bits <= 1.551
    assert res.bounds == (0.0, res.gap_bits)


def test_sep_heuristic_domino_product_eigenbasis():
    # domino's eigenbasis is a product basis: SEP reaches gap 0, strictly below one-way LOCC
    cfg = OptConfig(107, 3, 300)
    rho = domino_state()
    sep = sep_gap_heuristic(rho, FULL2, cfg=cfg)
    locc = minimize_locc_oneway(rho, FULL2, cfg=cfg)
    assert sep.gap_bits <= 1e-12
    assert sep.converged  # the product eigenbasis reaches the proven minimum
    assert locc.gap_bits == pytest.approx(0.002178, abs=1e-6)
    # the witness is rho's eigenbasis: nine rank-1 projectors, each onto an eigenvector
    effects = np.array(sep.witness.effects)
    assert len(effects) == 9
    for eff in effects:
        assert np.allclose(eff @ eff, eff, atol=1e-12)
        assert np.trace(eff).real == pytest.approx(1.0, abs=1e-12)
        lam = np.trace(rho.mat @ eff).real
        assert np.allclose(rho.mat @ eff, lam * eff, atol=1e-12)
    assert observational_entropy(rho, sep.witness) - von_neumann(rho) <= 1e-12


@pytest.mark.parametrize("name", ["w3", "trine"])
def test_sep_heuristic_returns_its_best_seed(name):
    # without a product eigenbasis, SEP is exactly the better of its LO* and LOCC1 witnesses
    rho, part = (w(3), FULL3) if name == "w3" else (trine_cq().state, FULL2)
    cfg = OptConfig(107, 3, 300)
    sep = sep_gap_heuristic(rho, part, cfg=cfg)
    star = minimize_lostar(rho, part, cfg)
    locc = minimize_locc_oneway(rho, part, cfg=cfg)
    assert sep.entropy_bits == min(star.entropy_bits, locc.entropy_bits)
    assert sep.trace == (star.entropy_bits, locc.entropy_bits)


def test_sep_heuristic_reports_its_winners_convergence():
    # W3 at two restarts of three iterations: the LOCC1 witness wins, and its search,
    # stopped by the budget, did not converge
    cfg = OptConfig(1, 2, 3)
    sep = sep_gap_heuristic(w(3), FULL3, cfg=cfg)
    locc = minimize_locc_oneway(w(3), FULL3, cfg=cfg)
    assert sep.entropy_bits == locc.entropy_bits
    assert sep.gap_bits == pytest.approx(1.5465599, abs=1e-6)
    assert sep.converged is locc.converged is False


def test_sep_heuristic_below_its_seed_searches():
    # SEP reruns LO* and one-way LOCC at the caller's config and returns the better
    # of their witnesses, so its gap never exceeds either
    cfg = OptConfig(seed=21, restarts=3, max_iters=200)
    sep = sep_gap_heuristic(w(3), FULL3, cfg=cfg)
    assert sep.gap_bits <= minimize_locc_oneway(w(3), FULL3, cfg=cfg).gap_bits
    assert sep.gap_bits <= minimize_lostar(w(3), FULL3, cfg).gap_bits


def test_ree_style_lower_bound_on_werner_witness():
    # D(rho || P_M(rho)) <= gap for the optimal separable witness
    for d, lam in ((2, 0.8), (3, 0.2)):
        rho = werner(d, lam)
        exact = werner_analytic(d, lam)
        cg = coarse_grain(rho, exact.witness)
        dist = quantum_relative_entropy(rho, cg)
        assert dist <= exact.gap_bits + 1e-9


def test_minimize_lostar_witness_separable_bound():
    rho = werner(2, 0.9)
    res = minimize_lostar(rho, FULL2, FAST)
    marginal = max(von_neumann(rho.reduced([0])), von_neumann(rho.reduced([1])))
    assert res.entropy_bits >= marginal - 1e-8


# Gaps at OptConfig(107, 3, 300), recorded on numpy 2.4.6 and scipy 1.17.1. A search
# is seeded, so a gap that rises above its recorded value is a change in the search,
# not luck; the 1e-6 slack covers other numpy and scipy versions' rounding.
PINNED = OptConfig(107, 3, 300)
PINNED_GAPS = {
    ("w3", "lostar"): 1.584962500721156,
    ("w3", "lo"): 1.584962500721156,
    ("w3", "locc1"): 1.5444958889629756,
    ("w3", "sep"): 1.5444958889629756,
    ("trine", "lostar"): 0.5408520829727479,
    ("trine", "lo"): 0.4150374992788257,
    ("trine", "locc1"): 0.0,
    ("trine", "sep"): 0.0,
    ("bell", "lostar"): 0.9999999999999999,
    ("bell", "lo"): 0.9999999999999999,
    ("bell", "locc1"): 0.9999999999999999,
    ("bell", "sep"): 0.9999999999999999,
    ("werner-3-0.7", "lostar"): 0.2785494054857076,
    ("werner-3-0.7", "lo"): 0.2785494054857076,
    ("werner-3-0.7", "locc1"): 0.2785494054857076,
    ("werner-3-0.7", "sep"): 0.2785494054857076,
    ("domino", "lostar"): 0.007190273862303975,
    ("domino", "lo"): 0.007190273862303975,
    ("domino", "locc1"): 0.002177774102688712,
    ("domino", "sep"): 0.0,
    ("cq-example", "lostar"): 0.5,
    ("cq-example", "lo"): 0.4526090427302829,
    ("cq-example", "locc1"): 1.1102230246251565e-14,
    ("cq-example", "sep"): 1.1102230246251565e-14,
    ("ghz4", "lostar"): 0.9999999999999999,
    ("ghz4", "lo"): 0.9999999999999999,
    ("two-bell", "lostar"): 2.0,
    ("two-bell", "lo"): 2.0,
    ("cq_gap", "lostar"): 0.5,
    ("cq_gap", "lo"): 0.45260904273026936,
}
PINNED_STATES = {
    "w3": lambda: w(3),
    "trine": lambda: trine_cq().state,
    "bell": bell,
    "werner-3-0.7": lambda: werner(3, 0.7),
    "domino": domino_state,
    "cq-example": lambda: CQX.state,
    "ghz4": lambda: ghz(4),
    "two-bell": two_bell,
}


@pytest.mark.parametrize("case", sorted(PINNED_GAPS), ids="-".join)
def test_seeded_gap_not_above_its_pinned_value(case):
    name, klass = case
    if name == "cq_gap":
        res = cq_gap(CQX.state, CQX.classical_basis, klass, PINNED)
    else:
        rho = PINNED_STATES[name]()
        res = CLASS_OPTIMIZERS[klass](rho, PartitionSpec.full(len(rho.dims)), PINNED)
    assert res.gap_bits <= PINNED_GAPS[case] + 1e-6
