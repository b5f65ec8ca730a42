"""Partition enumeration and multipartite scans."""

import numpy as np
import pytest

from helpers import random_pure
from oegap.core import PartitionSpec, ValidationError, schmidt
from oegap.entropy import shannon
from oegap.optimize import OptConfig, minimize_lostar
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


def test_scan_refinement_monotonicity_recorded():
    scan = scan_partitions(ghz(3), "lostar", FAST, state_name="ghz3")
    fine = scan.gap(PartitionSpec.full(3))
    for p, res in scan.results:
        assert fine >= res.gap_bits - 5e-3


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
