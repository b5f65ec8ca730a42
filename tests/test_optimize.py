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
    STEP_TOL,
    OptConfig,
    _block_dims,
    _certify_ppt_w3,
    _chart,
    _complete_unitary,
    _descent,
    _eigenbasis_tree,
    _frame_povm,
    _haar_frame,
    _hermitian_from_params,
    _hermitian_gradient_params,
    _oneway_objective,
    _pad_rows,
    _product_objective,
    _random_frame,
    _stationary,
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


def test_polish_method_follows_the_objective(monkeypatch):
    # every search objective has a gradient, so every polish is L-BFGS-B, LOCC1 included
    methods = []
    real = scipy.optimize.minimize

    def recording(*args, **kwargs):
        methods.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    # three restarts, so that each search polishes a seeded random start: the warm
    # starts of cq-lostar on cq-example are stationary, and never polished
    cfg = OptConfig(seed=3, restarts=3, max_iters=50)
    for run in (SEARCHES["lo"], SEARCHES["locc1"], SEARCHES["cq-lostar"], SEARCHES["cq-lo"]):
        methods.clear()
        run(cfg)
        assert methods and set(methods) == {"L-BFGS-B"}


@pytest.mark.parametrize("args", [(1, 0, 300), (1, 3, 0), (1, 3, -5)], ids=["restarts-0", "max-iters-0", "max-iters-neg"])
def test_opt_config_rejects_empty_budget(args):
    with pytest.raises(ValidationError, match="must be >= 1"):
        OptConfig(*args)
    OptConfig(1, 1, 1)


def joint_polish_reference(objective, frames, cfg):
    """One L-BFGS-B over all of the square ``frames`` from theta = 0, run whether stationary or not.

    Each frame is charted from itself on consecutive slices of one parameter
    vector, and the start is kept unless the polish beats it by 1e-13.
    Returns the value, the frames and L-BFGS-B's iteration count.
    """
    ends = np.cumsum([0] + [f.size for f in frames])

    def charted(theta):
        return [_chart(theta[a:b], f) for f, a, b in zip(frames, ends, ends[1:])]

    def fun(theta):
        charts = charted(theta)
        s, gs = objective([u for u, _ in charts])
        return s, np.concatenate([pullback(g) for (_, pullback), g in zip(charts, gs)])

    start = objective(frames)[0]
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
    # a start of bases whose every chart gradient passes _stationary is returned with
    # no solver call, exactly as an unconditional joint L-BFGS-B from theta = 0 would
    # return it; the other starts of bases take that L-BFGS-B itself
    rho, part, cfg, all_stationary = case
    calls = []

    def recording(*args):
        calls.append(args)
        return _descent(*args)

    monkeypatch.setattr(oegap.optimize, "_descent", recording)
    minimize_lostar(rho, part, cfg)
    iterations = []
    for objective, frames, cfg, gen in calls:
        value, got = _descent(objective, frames, cfg, gen)
        want_value, want, nit = joint_polish_reference(objective, frames, cfg)
        assert value == want_value
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
        iterations.append(nit)
    assert len(iterations) == max(cfg.restarts, 2)
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
    # _stationary holds exactly where L-BFGS-B, from theta = 0 on the frame's chart,
    # stops at iteration 0; here f = Re Tr(G^dag Q), Q the chart's first d columns
    gen = np.random.default_rng(53 + m + d)
    kinds = set()
    for base, g, kind in _stationary_cases(m, d, gen):

        def fun(theta):
            u, pullback = _chart(theta, base)
            return float(np.real(np.vdot(g, u[:, :d]))), pullback(g)

        res = scipy.optimize.minimize(
            fun, np.zeros(m * m), method="L-BFGS-B", jac=True,
            options={"maxiter": 300, "ftol": 1e-13, "gtol": STEP_TOL},
        )
        assert _stationary(base, g) == (res.nit == 0), kind
        kinds.add((kind, res.nit == 0))
    assert {("random", False), ("zero", True), ("hermitian", True)} <= kinds
    assert {(f"threshold-{1 - 1e-6}", True), (f"threshold-{1 + 1e-6}", False)} <= kinds


@pytest.mark.parametrize(
    "run,calls",
    [
        (lambda: minimize_lostar(ghz(4), PartitionSpec.full(4), OptConfig(1, 2, 300)), 0),
        (lambda: minimize_lostar(two_bell(), PartitionSpec.full(4), OptConfig(1, 2, 300)), 0),
        (lambda: minimize_lo(w(3), FULL3, OptConfig(107, 3, 300)), 4),
    ],
    ids=["ghz4-lostar-1-2", "two-bell-lostar-1-2", "w3-lo-107-3"],
)
def test_stationary_starts_make_no_solver_call(run, calls, monkeypatch):
    # the warm starts of GHZ4 and two-bell are stationary on every block; of W3 LO's
    # six starts, the LO* random start and the three padded LO starts are polished
    made = []
    real = scipy.optimize.minimize

    def counting(*args, **kwargs):
        made.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    run()
    assert len(made) == calls


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
    # the factor-and-matmul objective against the product POVM it stands for
    rho, part = PRODUCT_CASES[case]
    bdims = part.block_dims(rho.dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    objective = _product_objective(rho, part.blocks)
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
    rho, part = PRODUCT_CASES[case]
    bdims = part.block_dims(rho.dims)
    ms = [4 if d == 2 else d + 1 for d in bdims]
    objective = _product_objective(rho, part.blocks)
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


def _descent_fun(objective, frames, monkeypatch):
    """The function of theta that ``_descent`` hands to L-BFGS-B, and its start; no step is taken."""
    seen = []

    def stub(fun, x0, **kwargs):
        seen.append((fun, x0))
        return scipy.optimize.OptimizeResult(fun=np.inf, x=x0)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "minimize", stub)
        _descent(objective, frames, OptConfig(1, 1, 300), np.random.default_rng(0))
    assert len(seen) == 1
    return seen[0]


MIXED_232 = random_density(np.random.default_rng(4), (2, 3, 2), rank=2)
DESCENT_CASES = {
    # (search, frame shapes of the recorded start): two POVM frames of one chart size
    "trine-lo": (lambda cfg: minimize_lo(trine_cq().state, FULL2, cfg), [(4, 3), (4, 2)]),
    # a 4 x 4 chart and a stack of four 2 x 2 charts
    "w3-locc1": (lambda cfg: minimize_locc_oneway(w(3), FULL3, None, cfg), [(1, 4, 2), (4, 2, 2)]),
    # the classical block held in its basis: the objective inserts the held frame
    "cq-example-lo-held": (lambda cfg: cq_gap(CQX.state, CQX.classical_basis, "lo", cfg), [(4, 2)]),
    # the two qubit bases share a chart stack, though the qutrit basis lies between them
    "mixed-232-lostar": (lambda cfg: minimize_lostar(MIXED_232, FULL3, cfg), [(2, 2), (3, 3), (2, 2)]),
}


@pytest.mark.parametrize("case", sorted(DESCENT_CASES))
def test_descent_gradient_matches_finite_differences(case, monkeypatch):
    search, shapes = DESCENT_CASES[case]
    calls = []

    def recording(*args):
        calls.append(args)
        return _descent(*args)

    with monkeypatch.context() as patch:
        patch.setattr(oegap.optimize, "_descent", recording)
        search(OptConfig(3, 3, 20))
    objective, frames = next(
        (o, f) for o, f, _, _ in calls if [q.shape for q in f] == [tuple(s) for s in shapes]
    )
    fun, theta0 = _descent_fun(objective, frames, monkeypatch)
    theta = theta0 + 0.3 * np.random.default_rng(59).normal(size=theta0.size)
    value, jac = fun(theta)
    h = 1e-6
    numeric = np.array(
        [(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2 * h) for e in np.eye(theta.size)]
    )
    assert value == fun(theta)[0]
    assert _relative_error(jac, numeric) <= 1e-6


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
    """(rho, blocks in measurement order, block dims, first-frame rows) of a one-way case."""
    rho, part, ordering = DEEP_ONEWAY_CASES[case]
    blocks = tuple(part.blocks[k] for k in ordering)
    bdims = _block_dims(rho, blocks)
    return rho, blocks, bdims, 4 if bdims[0] == 2 else bdims[0] + 1


def _first_frames(d0: int, m: int, gen, n_random: int) -> list[np.ndarray]:
    frames = [_random_frame(d0, m, gen) for _ in range(n_random)]
    # a Haar basis padded with a zero row: that outcome has p = 0 and V = 0
    frames.append(_pad_rows(dagger(_haar_frame(d0, d0, gen)), m))
    # the computational basis: on GHZ3 under AC|B two outcomes have p = 0 and V = 1
    frames.append(_pad_rows(np.eye(d0, dtype=complex), m))
    return frames


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
    A block with no level left, and the outcome that reabsorbs a frame's
    dropped rows, is measured in the eigenbasis of its conditional marginal.
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
        below = (levels[1:], path * len(frame) + rows[i]) if i < len(rows) else ()
        children.append(eigenbasis_protocol_reference(cond, *rest, *below))
    return ConditionalMeasurement(label_block, povm, tuple(children))


def _assert_tree_protocol_matches(rho, blocks, tree, reference):
    """The objective, the protocol read off the tree and the rebuilt reference agree within 1e-12."""
    protocol = _tree_protocol(rho, blocks, tree)
    value = _oneway_objective(rho, blocks)(tree)[0]
    assert value == pytest.approx(chain_entropy(protocol, rho), abs=1e-12)
    assert value == pytest.approx(chain_entropy(reference, rho), abs=1e-12)
    assert value == pytest.approx(chain_reference(reference, rho), abs=1e-12)


@pytest.mark.parametrize("case", sorted(ONEWAY_CASES))
def test_oneway_objective_matches_chain_entropy(case):
    # on each first frame's conditional-eigenbasis tree, the objective equals the
    # chain entropy of the greedy protocol after that frame
    rho, blocks, bdims, m = _oneway_case(case)
    live = tuple(range(len(rho.dims)))
    for q in _first_frames(bdims[0], m, np.random.default_rng(17), 12):
        tree = _eigenbasis_tree(rho, blocks, q)
        # one stack of bases per level between the first and the last: m of them on three blocks
        assert [len(level) for level in tree[1:]] == ([m] if len(bdims) == 3 else [])
        reference = eigenbasis_protocol_reference(rho.mat, rho.dims, blocks, live, [q[None]])
        _assert_tree_protocol_matches(rho, blocks, tree, reference)


@pytest.mark.parametrize("case", sorted(DEEP_ONEWAY_CASES))
def test_oneway_objective_matches_rebuilt_protocol(case):
    # random level bases: the objective against the protocol read off the whole tree
    rho, blocks, bdims, m = _oneway_case(case)
    live = tuple(range(len(rho.dims)))
    gen = np.random.default_rng(19)
    for q in _first_frames(bdims[0], m, gen, 4):
        tree = _random_levels(_eigenbasis_tree(rho, blocks, q), gen)
        reference = eigenbasis_protocol_reference(rho.mat, rho.dims, blocks, live, tree)
        _assert_tree_protocol_matches(rho, blocks, tree, reference)


@pytest.mark.parametrize("case", sorted(DEEP_ONEWAY_CASES))
def test_oneway_objective_gradient_matches_finite_differences(case):
    rho, blocks, bdims, m = _oneway_case(case)
    objective = _oneway_objective(rho, blocks)
    gen = np.random.default_rng(41)
    for q in _first_frames(bdims[0], m, gen, 1):
        tree = _random_levels(_eigenbasis_tree(rho, blocks, q), gen)
        grads = objective(tree)[1]
        for k in range(len(tree)):
            numeric = _finite_difference_gradient(
                lambda z, k=k: objective(tree[:k] + [z] + tree[k + 1 :])[0], tree[k]
            )
            assert _relative_error(grads[k], numeric) <= 1e-6


@pytest.mark.parametrize("cfg", [OptConfig(107, 3, 300), OptConfig(11, 4, 300)], ids=["107-3", "11-4"])
def test_minimize_locc_w3_converges(cfg):
    # every restart's frames are polished together, so at least two restarts meet
    res = minimize_locc_oneway(w(3), FULL3, cfg=cfg)
    assert res.converged
    assert res.entropy_bits <= 1.5448
    assert res.entropy_bits == chain_entropy(res.witness, w(3))


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
