"""Each benchmark check accepts a correct result and rejects a corrupted one.

Run with ``python3 -m pytest perfbench``.  The corrupted results are a
witness that is no longer a POVM or no longer in its class, and a gap
moved by a small delta past the check's tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks
import oegap
import workloads

DELTA = 1e-6  # well above the 1e-9 entropy tolerance
BOUND_DELTA = 2e-3  # well above the 1e-3 search tolerance


def _bell() -> np.ndarray:
    v = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return np.outer(v, v.conj()).astype(complex)


def _computational(d: int) -> np.ndarray:
    return np.array([np.diag(row) for row in np.eye(d)], dtype=complex)


def _bell_basis() -> np.ndarray:
    s = 1 / math.sqrt(2)
    kets = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]])
    return np.array([np.outer(k, k) for k in kets], dtype=complex)


BLOCKS2 = ((0,), (1,))


def test_witness_check_accepts_a_correct_witness():
    assert checks.witness_problems(_bell(), (2, 2), BLOCKS2, _computational(4), 1.0, 1.0,
                                   projective=True) == []


def test_witness_check_rejects_an_incomplete_povm():
    effects = _computational(4)
    effects[0] *= 1 + DELTA * 1e3
    problems = checks.witness_problems(_bell(), (2, 2), BLOCKS2, effects, 1.0, 1.0)
    assert any("identity" in p for p in problems)


def test_witness_check_rejects_a_non_psd_effect():
    effects = _computational(4)
    effects[0, 0, 1] = effects[0, 1, 0] = 0.5  # Hermitian, eigenvalue below zero
    effects[1] -= effects[0] - np.diag(np.diag(effects[0]))
    assert checks.povm_problems(effects)


def test_witness_check_rejects_an_entangled_effect():
    problems = checks.witness_problems(_bell(), (2, 2), BLOCKS2, _bell_basis(), 0.0, 0.0)
    assert any("not a product" in p for p in problems)


def test_witness_check_rejects_a_non_projective_lostar_witness():
    a = np.array([[0.5, 0], [0, 0]], dtype=complex)
    local = np.array([a, np.eye(2) - a])
    effects = np.array([np.kron(x, y) for x in local for y in _computational(2)])
    problems = checks.witness_problems(_bell(), (2, 2), BLOCKS2, effects,
                                       checks.oe_bits(_bell(), effects),
                                       checks.oe_bits(_bell(), effects), projective=True)
    assert any("delta_ij" in p for p in problems)


@pytest.mark.parametrize("field", ["entropy", "gap"])
def test_witness_check_rejects_an_off_by_delta_value(field):
    entropy = 1.0 + (DELTA if field == "entropy" else 0.0)
    gap = 1.0 + (DELTA if field == "gap" else 0.0)
    assert checks.witness_problems(_bell(), (2, 2), BLOCKS2, _computational(4), entropy, gap)


def test_witness_check_rejects_a_gap_below_the_separable_floor():
    # an entangled measurement reaches S_M = S, below max_K S(rho_K) - S(rho) = 1
    problems = checks.witness_problems(_bell(), (2, 2), BLOCKS2, _bell_basis(), 0.0, 0.0)
    assert any("below" in p for p in problems)


def test_ppt_check_accepts_the_w3_witness_and_rejects_an_npt_effect():
    witness = np.asarray(oegap.ppt_gap_w3().witness.effects)
    assert checks.ppt_problems(witness, (2, 2, 2)) == []
    npt = np.array([np.kron(b, np.eye(2)) for b in _bell_basis()])
    assert checks.ppt_problems(npt, (2, 2, 2))


def test_flatten_protocol_matches_the_program():
    rng = np.random.default_rng(3)
    first = workloads._random_povm(rng, 2, 3)
    follow = [workloads._random_povm(rng, 4, 2) for _ in range(3)]
    node = oegap.ConditionalMeasurement(
        (0,), oegap.Povm(first),
        tuple(oegap.ConditionalMeasurement((1,), oegap.Povm(f)) for f in follow))
    ours = checks.flatten_protocol(node, (2, 4))
    theirs = np.asarray(oegap.flatten_locc(node, (2, 4)).effects)
    assert np.allclose(ours, theirs, atol=1e-12)


def test_marginal_floor_of_w3():
    w3 = np.asarray(oegap.states.w(3).mat)
    h = checks.shannon_bits([1 / 3, 2 / 3])
    assert checks.marginal_floor_bits(w3, (2, 2, 2), ((0,), (1,), (2,))) == pytest.approx(h)


def _class_chain_op(name):
    return {op.name: op for op in workloads.class_chain().ops}[name]


def _exact_w3_lostar():
    w3 = oegap.states.w(3)
    full3 = oegap.PartitionSpec.full(3)
    witness = oegap.lostar_povm([np.eye(2)] * 3, full3, (2, 2, 2))
    return oegap.OptResult(math.log2(3), math.log2(3), witness, (), True)


def test_class_chain_check_accepts_the_exact_w3_lostar_witness():
    assert _class_chain_op("w3-lostar").check(_exact_w3_lostar()) == []


def test_class_chain_check_rejects_an_off_by_delta_gap():
    res = _exact_w3_lostar()
    assert _class_chain_op("w3-lostar").check(replace(res, gap_bits=res.gap_bits + DELTA))


def test_paper_bounds_reject_off_by_delta_values():
    target, tol = math.log2(3), workloads.SEARCH_TOL
    assert checks.close_problems("gap", target + tol / 2, target, tol) == []
    assert checks.close_problems("gap", target + BOUND_DELTA, target, tol)
    assert checks.close_problems("gap", target - BOUND_DELTA, target, tol)
    assert checks.at_most_problems("entropy", 1.551, 1.551) == []
    assert checks.at_most_problems("entropy", 1.551 + DELTA, 1.551)
    assert checks.at_least_problems("gap", math.log2(9 / 4), math.log2(9 / 4)) == []
    assert checks.at_least_problems("gap", math.log2(9 / 4) - DELTA, math.log2(9 / 4))


def test_class_chain_check_rejects_a_corrupted_witness():
    res = _exact_w3_lostar()
    effects = np.array(res.witness.effects)
    effects[[0, 1]] = effects[[1, 0]] * (1 + DELTA)
    corrupted = replace(res, witness=type("W", (), {"effects": effects})())
    assert _class_chain_op("w3-lostar").check(corrupted)


def test_class_order_check_rejects_a_broken_chain():
    finish = workloads.class_chain().finish
    fake = {f"w3-{k}": type("R", (), {"gap_bits": g})()
            for k, g in zip(("lostar", "lo", "locc1", "sep"), (1.58, 1.58, 1.5, 1.6))}
    assert finish(fake)
    fake["w3-sep"].gap_bits = 1.5
    assert finish(fake) == []


def test_known_fault_is_the_trine_lo_bound_only():
    op = _class_chain_op("trine-lo")
    assert op.known_fault == workloads.TRINE_LO_FAULT
    assert checks.at_most_problems(workloads.TRINE_LO_FAULT, 0.4825,
                                   2 - math.log2(3) + workloads.SEARCH_TOL)[0].startswith(
        workloads.TRINE_LO_FAULT)


def test_partition_expectations():
    scan = workloads._scan_expected("two-bell")
    assert len(scan) == 14
    assert scan["AC|BD"] == 0 and scan["AB|CD"] == 2 and scan["A|BD|C"] == 1
    rob = workloads._robustness_expected("two-bell")
    assert len(rob) == 14
    assert rob["A"] == 1 and rob["AB"] == 0 and rob["AC"] == 1 and rob["ABC"] == 0
    assert set(workloads._scan_expected("ghz4").values()) == {1.0}


def test_partition_rows_reject_an_off_by_delta_gap():
    expected = workloads._robustness_expected("two-bell")
    rows = [{"discarded": k, "gap_bits": str(v)} for k, v in expected.items()]
    assert workloads._rows_problems(rows, "discarded", expected, "rob") == []
    rows[0]["gap_bits"] = str(expected[rows[0]["discarded"]] + BOUND_DELTA * 3)
    assert workloads._rows_problems(rows, "discarded", expected, "rob")
    assert workloads._rows_problems(rows[1:], "discarded", expected, "rob")


def test_werner_closed_form_matches_the_program():
    for d, lam in ((2, 0.3), (4, 0.85)):
        s_m, s = workloads.werner_closed_form(d, lam)
        exact = oegap.werner_analytic(d, lam)
        assert s_m == pytest.approx(exact.s_measured_bits, abs=1e-12)
        assert s == pytest.approx(exact.s_state_bits, abs=1e-12)


def test_evaluate_checks_accept_results_and_reject_corruptions():
    for op in workloads.evaluate(seed=5).ops:
        res = op.call()
        assert op.check(res) == [], op.name
        s_m, s, sandwich, cert, chain, flat = res
        assert op.check((s_m + DELTA, s, sandwich, cert, chain, flat)), op.name
        assert op.check((s_m, s, sandwich, cert, chain + DELTA, flat)), op.name
        bad = replace(sandwich, upper=s_m - BOUND_DELTA)
        assert op.check((s_m, s, bad, cert, chain, flat)), op.name


def test_benchmark_json_names_the_reported_metrics():
    import json
    from pathlib import Path
    from types import SimpleNamespace

    import run
    import tracing

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    rounds = [SimpleNamespace(op_s=[0.1, 0.2], wall_s=0.3, gap_bits=1.0)]
    reported = run.end_to_end(rounds, [0.5])
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)
    assert all(spec_m["unit"] == reported[spec_m["name"]]["unit"] for spec_m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_round_counts_raising_operations_and_unreadable_results_as_failed():
    import run

    ops = [
        workloads.Op("ok", lambda: 1, lambda res: [], lambda res: 1.0),
        workloads.Op("raises", lambda: 1 / 0, lambda res: []),
        workloads.Op("unreadable", lambda: 1, lambda res: [][0]),
        workloads.Op("known", lambda: 1, lambda res: ["fault: missed"], lambda res: 0.5,
                     known_fault="fault"),
    ]
    out = run.run_round(workloads.Workload(ops))
    assert len(out.op_s) == 4 and out.failed == 3
    assert out.gap_bits == 1.5
    assert [p.split(":")[0] for p in out.unexpected] == ["raises", "unreadable"]
