"""Partition enumeration and multipartite scans."""

import numpy as np
import pytest

from helpers import random_density, random_pure
from oegap.core import PartitionSpec, ValidationError, schmidt
from oegap.entropy import shannon
from oegap.optimize import OptConfig, OptResult, minimize_lo, minimize_lostar
from oegap.partitions import (
    enumerate_partitions,
    robustness_scan,
    robustness_to_csv,
    scan_partitions,
)
from oegap.states import ghz, two_bell, w

FAST = OptConfig(seed=3, restarts=6, max_iters=600)


def test_enumerate_counts_bell_numbers():
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15


def test_enumerate_shape_filters():
    assert len(enumerate_partitions(4, "2+2")) == 3
    assert len(enumerate_partitions(4, "1+3")) == 4
    assert len(enumerate_partitions(4, "1+1+1+1")) == 1


def test_enumerate_invalid_shape():
    with pytest.raises(ValidationError):
        enumerate_partitions(4, "2+3")
    with pytest.raises(ValidationError):
        enumerate_partitions(7)


def test_scan_two_bell_lostar():
    scan = scan_partitions(two_bell(), "lostar", FAST, state_name="two-bell")
    assert scan.gap(PartitionSpec.from_string("AC|BD", 4)) == pytest.approx(0.0, abs=1e-9)
    assert scan.gap(PartitionSpec.from_string("AB|CD", 4)) == pytest.approx(2.0, abs=1e-9)
    assert scan.gap(PartitionSpec.from_string("AD|BC", 4)) == pytest.approx(2.0, abs=1e-9)
    averages = dict(scan.shape_averages)
    assert averages["2+2"] == pytest.approx(4 / 3, abs=1e-9)


MONOTONICITY_STATES = {
    "ghz3": ghz(3),
    **{f"mixed-222-rank{r}": random_density(np.random.default_rng(20 + r), (2, 2, 2), r) for r in (1, 2, 3)},
}
# (state, class, bits added to every two-block search's result)
MONOTONICITY_CASES = [(s, k, 0.0) for s in MONOTONICITY_STATES for k in ("lostar", "lo")] + [
    (s, k, 3.0) for s in ("mixed-222-rank2", "mixed-222-rank3") for k in ("lostar", "lo")
]


@pytest.mark.parametrize(
    "state, klass, handicap",
    MONOTONICITY_CASES,
    ids=[f"{s}-{k}" + ("-handicapped" if h else "") for s, k, h in MONOTONICITY_CASES],
)
def test_scan_refinement_monotonicity_recorded(monkeypatch, state, klass, handicap):
    # the lattice repair orders every pair: a coarser partition's gap is at most a
    # finer one's.  A handicap of 3 bits, the largest gap on three qubits, on each
    # searched bipartition leaves that order to the repair alone; pure states'
    # bipartitions take the Schmidt value and are never searched.
    # A repaired row is the refining partition's whole result, trace and flag included.
    minimize = {"lostar": minimize_lostar, "lo": minimize_lo}[klass]
    raw = {}

    def handicapped(rho, partition, cfg):
        res = minimize(rho, partition, cfg)
        if partition.n_blocks < 3:
            res = OptResult(res.entropy_bits + handicap, res.gap_bits + handicap, res.witness, res.trace, res.converged)
        raw[partition] = res
        return res

    monkeypatch.setattr(f"oegap.partitions.{minimize.__name__}", handicapped)
    scan = scan_partitions(MONOTONICITY_STATES[state], klass, OptConfig(seed=5, restarts=1, max_iters=20))
    pairs = [(p, q) for p, _ in scan.results for q, _ in scan.results if p != q and p.refines(q)]
    assert len(pairs) == 3  # A|B|C refines each of the three bipartitions
    for p, q in pairs:
        assert scan.gap(q) <= scan.gap(p) + 1e-12, (p, q)
    if handicap:
        full = PartitionSpec.full(3)
        assert all(res is raw[full] for _, res in scan.results)


def test_scan_pure_bipartition_fast_path_matches_optimizer():
    rng = np.random.default_rng(4)
    psi = random_pure(rng, (2, 2))
    scan = scan_partitions(psi, "lostar", FAST, state_name="psi")
    slow = minimize_lostar(psi, PartitionSpec.full(2), FAST)
    coeffs, _, _ = schmidt(psi.pure_vector(), (2, 2), [0])
    ent = shannon(coeffs**2)
    assert scan.gap(PartitionSpec.full(2)) == pytest.approx(ent, abs=1e-6)
    assert slow.gap_bits == pytest.approx(ent, abs=1e-6)


def test_scan_csv_and_json_schema():
    scan = scan_partitions(ghz(3), "lostar", FAST, state_name="ghz3")
    csv_text = scan.to_csv()
    header, *rows = csv_text.strip().splitlines()
    assert header == "state,class,partition,shape,gap_bits,converged"
    assert len(rows) == 4  # B3 minus the trivial partition
    payload = scan.to_json()
    assert '"shape_averages"' in payload


def test_robustness_ghz3():
    rob = robustness_scan(ghz(3), "lostar", FAST)
    # losing any qubit leaves a classically correlated state
    for discard in [(0,), (1,), (2,)]:
        assert rob[discard].gap_bits == pytest.approx(0.0, abs=1e-8)
    # losing two leaves a single subsystem: gap 0 by definition
    assert rob[(0, 1)].gap_bits == 0.0
    csv_text = robustness_to_csv("ghz3", "lostar", rob)
    assert csv_text.splitlines()[0] == "state,class,discarded,gap_bits,converged"
    assert len(csv_text.strip().splitlines()) == 1 + 6


def test_robustness_w3_reduced():
    rob = robustness_scan(w(3), "lostar", FAST)
    # the two-qubit W marginal keeps quantum correlations
    assert rob[(2,)].gap_bits > 0.1
