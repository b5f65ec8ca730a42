"""The three benchmark workloads: class-chain, partition-scan and evaluate.

``build(name, seed, out_dir)`` makes a workload's inputs from its seed and
returns a ``Workload``: a fixed list of operations (one round) plus a check
over the whole round.  Every round repeats the same operations on the same
inputs, so a seed fixes every result.  Operations reach oegap only through
its public names, looked up at call time so that a traced run sees them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oegap
import oegap.cli
import oegap.states

LOG2_3 = math.log2(3)
CHAIN_TOL = 5e-3  # class-order and partition tolerance of the acceptance suite
SEARCH_TOL = 1e-3  # tolerance on searched values the paper gives exactly
CQ_TOL = 1e-4

# class-chain: one modest budget and one fixed search seed for every search (the
# budget-probe seed of acceptance criterion 7).  At this budget the search seed
# alone moves the round time by about 16% (interquartile range over ten seeds),
# so the workload's seed does not enter; see README.
CHAIN_SEED = 107
CHAIN_RESTARTS = 3
CHAIN_MAX_ITERS = 300
TRINE_LO_FAULT = "trine LO gap"

# partition-scan: budget passed to `oegap scan` / `oegap robustness`.  With two
# restarts only the deterministic warm starts run, so the search work is the same
# for every seed; the seed draws the local phases of the scanned states instead.
SCAN_RESTARTS = 2
SCAN_MAX_ITERS = 300
SCAN_STATES = ("two-bell", "ghz4")
TWO_BELL_PAIRS = ((0, 2), (1, 3))  # |phi+>_AC (x) |phi+>_BD

# evaluate: (dims, kind, state rank, outcomes of M, outcomes of the protocol's first POVM)
EVALUATE_LAYOUT = (
    ((2, 2), "random", 4, 4, 2),
    ((2, 2), "random", 2, 4, 3),
    ((2, 2), "random", 1, 4, 2),
    ((2, 2), "werner", 4, 2, 3),
    ((2, 4), "random", 8, 5, 2),
    ((2, 4), "random", 4, 5, 3),
    ((2, 4), "random", 1, 5, 2),
    ((4, 4), "random", 16, 6, 3),
    ((4, 4), "random", 8, 6, 2),
    ((4, 4), "random", 1, 6, 3),
    ((4, 4), "werner", 16, 2, 2),
)
FOLLOWUP_OUTCOMES = 3
# independent draws of the layout per round; the round's gap sum then varies by
# about 2% (interquartile range over seeds) instead of 5% with a single draw
EVALUATE_DRAWS = 8


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` lists problems with its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    gap: Callable[[object], float] | None = None  # bits added to gap_bits_sum
    known_fault: str | None = None  # prefix of the one problem this operation is known to hit


@dataclass
class Workload:
    ops: list[Op]
    finish: Callable[[dict], list[str]] = field(default=lambda results: [])


def build(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "class-chain":
        return class_chain()
    if name == "partition-scan":
        return partition_scan(seed, out_dir)
    if name == "evaluate":
        return evaluate(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# class-chain


def _mat(rho) -> np.ndarray:
    return np.asarray(rho.mat)


def _search_check(rho, blocks, *, projective=False, protocol=False, bounds=()):
    """Witness checks for one search result, then the paper's bounds on it."""
    mat = _mat(rho)
    dims = tuple(rho.dims)

    def check(res) -> list[str]:
        if protocol:
            effects = checks.flatten_protocol(res.witness, dims)
        else:
            effects = np.asarray(res.witness.effects)
        out = checks.witness_problems(
            mat, dims, blocks, effects, res.entropy_bits, res.gap_bits, projective=projective
        )
        for bound in bounds:
            out += bound(res)
        return out

    return check


def class_chain() -> Workload:
    optimize = oegap.optimize
    w3 = oegap.states.w(3)
    trine = oegap.states.trine_cq().state
    cqx = oegap.states.cq_example()
    full3 = oegap.PartitionSpec.full(3)
    full2 = oegap.PartitionSpec.full(2)
    blocks3 = full3.blocks
    blocks2 = full2.blocks
    cfg = oegap.OptConfig(seed=CHAIN_SEED, restarts=CHAIN_RESTARTS, max_iters=CHAIN_MAX_ITERS)
    ppt_target = math.log2(9 / 4)
    trine_star = 4 / 3 - 0.5 * LOG2_3
    trine_lo = 2 - LOG2_3

    def gap(res):
        return res.gap_bits

    def ppt_check(res) -> list[str]:
        effects = np.asarray(res.witness.effects)
        out = checks.povm_problems(effects) + checks.ppt_problems(effects, (2, 2, 2))
        s_m = checks.oe_bits(_mat(w3), effects)
        out += checks.close_problems("PPT witness S_M", s_m, ppt_target, checks.ENTROPY_TOL)
        out += checks.close_problems("PPT gap", res.gap_bits, ppt_target, checks.ENTROPY_TOL)
        return out

    ops = [
        Op("w3-lostar", lambda: optimize.minimize_lostar(w3, full3, cfg),
           _search_check(w3, blocks3, projective=True, bounds=[
               lambda r: checks.close_problems("W3 LO* gap", r.gap_bits, LOG2_3, SEARCH_TOL)]),
           gap),
        Op("w3-lo", lambda: optimize.minimize_lo(w3, full3, cfg),
           _search_check(w3, blocks3), gap),
        Op("w3-locc1", lambda: optimize.minimize_locc_oneway(w3, full3, cfg=cfg),
           _search_check(w3, blocks3, protocol=True, bounds=[
               lambda r: checks.at_most_problems("W3 LOCC1 entropy", r.entropy_bits, 1.551)]),
           gap),
        Op("w3-sep", lambda: optimize.sep_gap_heuristic(w3, full3, cfg=cfg),
           _search_check(w3, blocks3, bounds=[
               lambda r: checks.at_least_problems("W3 SEP gap", r.gap_bits,
                                                  ppt_target - checks.ENTROPY_TOL)]),
           gap),
        Op("trine-lostar", lambda: optimize.minimize_lostar(trine, full2, cfg),
           _search_check(trine, blocks2, projective=True, bounds=[
               lambda r: checks.close_problems("trine LO* gap", r.gap_bits, trine_star,
                                               SEARCH_TOL)]),
           gap),
        Op("trine-lo", lambda: optimize.minimize_lo(trine, full2, cfg),
           _search_check(trine, blocks2, bounds=[
               lambda r: checks.at_most_problems(TRINE_LO_FAULT, r.gap_bits,
                                                 trine_lo + SEARCH_TOL)]),
           gap, known_fault=TRINE_LO_FAULT),
        Op("trine-locc1", lambda: optimize.minimize_locc_oneway(trine, full2, cfg=cfg),
           _search_check(trine, blocks2, protocol=True, bounds=[
               lambda r: checks.close_problems("trine LOCC1 gap", r.gap_bits, 0.0,
                                               checks.ENTROPY_TOL)]),
           gap),
        Op("trine-sep", lambda: optimize.sep_gap_heuristic(trine, full2, cfg=cfg),
           _search_check(trine, blocks2, bounds=[
               lambda r: checks.close_problems("trine SEP gap", r.gap_bits, 0.0,
                                               checks.ENTROPY_TOL)]),
           gap),
        Op("w3-ppt", lambda: optimize.ppt_gap_w3(), ppt_check),
        Op("cq-lostar",
           lambda: optimize.cq_gap(cqx.state, cqx.classical_basis, "lostar", cfg),
           _search_check(cqx.state, blocks2, projective=True, bounds=[
               lambda r: checks.close_problems("cq-example LO* gap", r.gap_bits, 0.5, CQ_TOL)]),
           gap),
    ]

    def finish(results: dict) -> list[str]:
        """Class order LO* >= LO >= LOCC1 >= SEP on both states."""
        out = []
        for state in ("w3", "trine"):
            chain = [results.get(f"{state}-{k}") for k in ("lostar", "lo", "locc1", "sep")]
            if any(r is None for r in chain):
                continue
            vals = [r.gap_bits for r in chain]
            if any(vals[i] < vals[i + 1] - CHAIN_TOL for i in range(3)):
                out.append(f"{state}: class order broken: " + " >= ".join(f"{v:.6f}" for v in vals))
        return out

    return Workload(ops, finish)


# ---------------------------------------------------------------------------
# partition-scan


def _letters(indices) -> str:
    return "".join(chr(ord("A") + i) for i in indices)


def _set_partitions(items: list[int]):
    if len(items) == 1:
        yield [items]
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[head] + sub[k]] + sub[k + 1:]
        yield [[head]] + sub


def _scan_expected(state: str) -> dict[str, float]:
    """Gap of every nontrivial partition: pairs cut for two-bell, 1 for GHZ4."""
    out = {}
    for blocks in _set_partitions([0, 1, 2, 3]):
        if len(blocks) < 2:
            continue
        key = "|".join(sorted(_letters(sorted(b)) for b in blocks))
        if state == "two-bell":
            where = {i: k for k, b in enumerate(blocks) for i in b}
            out[key] = float(sum(where[a] != where[b] for a, b in TWO_BELL_PAIRS))
        else:
            out[key] = 1.0
    return out


def _robustness_expected(state: str) -> dict[str, float]:
    """Fully partitioned gap after each loss: pairs intact for two-bell, 0 for GHZ4."""
    out = {}
    for r in range(1, 4):
        for lost in itertools.combinations(range(4), r):
            if state == "two-bell":
                out[_letters(lost)] = float(
                    sum(a not in lost and b not in lost for a, b in TWO_BELL_PAIRS))
            else:
                out[_letters(lost)] = 0.0
    return out


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _rows_problems(rows, key, expected, what) -> list[str]:
    got = {}
    out = []
    for row in rows:
        got[row[key]] = float(row["gap_bits"])
    if set(got) != set(expected):
        return [f"{what}: rows {sorted(got)} differ from {sorted(expected)}"]
    for k, want in expected.items():
        out += checks.close_problems(f"{what} {k}", got[k], want, CHAIN_TOL)
    return out


def _manifest_problems(path: Path, outputs: list[Path]) -> list[str]:
    manifest = json.loads(path.read_text())
    listed = sorted(Path(p).resolve() for p in manifest["outputs"])
    if listed != sorted(p.resolve() for p in outputs):
        return [f"manifest {path.name} lists {manifest['outputs']}"]
    return []


def _normalize_partition(text: str) -> str:
    return "|".join(sorted(text.split("|")))


def _phased_state(state: str, rng) -> np.ndarray:
    """Two-bell or GHZ4 with a random phase on each qubit's |1>; no gap depends on them."""
    vec = np.zeros(16, dtype=complex)
    if state == "two-bell":
        for a, b in itertools.product((0, 1), repeat=2):
            vec[8 * a + 4 * b + 2 * a + b] = 0.5  # qubits ordered A, B, C, D
    else:
        vec[0] = vec[15] = 1 / math.sqrt(2)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    bits = (np.arange(16)[:, None] >> np.array([3, 2, 1, 0])) & 1
    vec = vec * np.exp(1j * bits @ phases)
    return np.outer(vec, vec.conj())


def partition_scan(seed: int, out_dir: Path) -> Workload:
    from click.testing import CliRunner

    runner = CliRunner()
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    budget = ["--class", "lostar", "--seed", str(seed), "--restarts", str(SCAN_RESTARTS),
              "--max-iters", str(SCAN_MAX_ITERS)]
    ops = []
    for state in SCAN_STATES:
        stem = state.replace("-", "_")
        scan_csv = out_dir / f"scan_{stem}.csv"
        rob_csv = out_dir / f"robustness_{stem}.csv"
        state_json = out_dir / f"{stem}.json"
        rho = _phased_state(state, rng)
        state_json.write_text(json.dumps(
            {"dims": [2, 2, 2, 2], "re": rho.real.ravel().tolist(), "im": rho.imag.ravel().tolist()}))

        def run(command, out, state_json=state_json):
            def call():
                return runner.invoke(oegap.cli.main,
                                     [command, "--file", str(state_json), *budget, "--out", str(out)])
            return call

        def scan_check(res, state=state, scan_csv=scan_csv) -> list[str]:
            if res.exit_code != 0:
                return [f"oegap scan exited {res.exit_code}: {res.output.strip()[-300:]}"]
            rows = _read_rows(scan_csv)
            for row in rows:
                row["partition"] = _normalize_partition(row["partition"])
            out = _rows_problems(rows, "partition", _scan_expected(state), f"scan {state}")
            payload = json.loads(scan_csv.with_suffix(".json").read_text())
            if len(payload["partitions"]) != len(rows):
                out.append(f"scan {state}: JSON and CSV row counts differ")
            out += _manifest_problems(scan_csv.with_suffix(".manifest.json"),
                                      [scan_csv, scan_csv.with_suffix(".json")])
            return out

        def rob_check(res, state=state, rob_csv=rob_csv) -> list[str]:
            if res.exit_code != 0:
                return [f"oegap robustness exited {res.exit_code}: {res.output.strip()[-300:]}"]
            rows = _read_rows(rob_csv)
            out = _rows_problems(rows, "discarded", _robustness_expected(state),
                                 f"robustness {state}")
            out += _manifest_problems(rob_csv.with_suffix(".manifest.json"), [rob_csv])
            return out

        ops.append(Op(f"scan-{stem}", run("scan", scan_csv), scan_check,
                      lambda res, p=scan_csv: _csv_gap_sum(p)))
        ops.append(Op(f"robustness-{stem}", run("robustness", rob_csv), rob_check,
                      lambda res, p=rob_csv: _csv_gap_sum(p)))
    return Workload(ops)


def _csv_gap_sum(path: Path) -> float:
    return float(sum(float(row["gap_bits"]) for row in _read_rows(path)))


# ---------------------------------------------------------------------------
# evaluate


def _random_state(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _random_povm(rng, d: int, k: int) -> np.ndarray:
    mats = []
    for _ in range(k):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(mats))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    effects = np.array([inv_sqrt @ m @ inv_sqrt for m in mats])
    return 0.5 * (effects + effects.conj().transpose(0, 2, 1))


def werner_state(d: int, lam: float) -> np.ndarray:
    """(1 - lam) P_sym / w+ + lam P_anti / w- built from the swap operator."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    eye = np.eye(d * d)
    w_plus, w_minus = d * (d + 1) / 2, d * (d - 1) / 2
    return (1 - lam) * 0.5 * (eye + swap) / w_plus + lam * 0.5 * (eye - swap) / w_minus


def werner_witness(d: int) -> np.ndarray:
    diag = np.zeros((d * d, d * d))
    for i in range(d):
        diag[i * d + i, i * d + i] = 1.0
    return np.array([diag, np.eye(d * d) - diag], dtype=complex)


def werner_closed_form(d: int, lam: float) -> tuple[float, float]:
    """The paper's closed forms: S_M under the diagonal/off-diagonal witness, and S."""
    x = (d - 1 + 2 * lam) / (d + 1)
    s_m = checks.shannon_bits([x, 1 - x]) + (1 - x) * math.log2(d) + x * math.log2(d * (d - 1))
    s = (checks.shannon_bits([lam, 1 - lam]) + (1 - lam) * math.log2(d * (d + 1) / 2)
         + lam * math.log2(d * (d - 1) / 2))
    return s_m, s


def _evaluate_op(index, dims, mat, effects, first, follow, werner=None) -> Op:
    core, entropy, classes = oegap.core, oegap.entropy, oegap.classes
    d = mat.shape[0]

    def call():
        rho = core.DensityMatrix(mat, dims)
        povm = core.Povm(effects)
        s_m = entropy.observational_entropy(rho, povm)
        s = entropy.von_neumann(rho)
        sandwich = entropy.recovery_bounds(rho, povm)
        cert = entropy.certify_optimal(rho, povm)
        children = tuple(classes.ConditionalMeasurement((1,), core.Povm(e)) for e in follow)
        protocol = classes.ConditionalMeasurement((0,), core.Povm(first), children)
        chain = entropy.chain_entropy(protocol, rho)
        flat = entropy.observational_entropy(rho, classes.flatten_locc(protocol, dims))
        return s_m, s, sandwich, cert, chain, flat

    own_sm = checks.oe_bits(mat, effects)
    own_s = checks.vn_bits(mat)
    own_chain = checks.oe_bits(mat, [np.kron(a, b) for a, f in zip(first, follow) for b in f])

    def check(res) -> list[str]:
        s_m, s, sandwich, cert, chain, flat = res
        tol = checks.ENTROPY_TOL
        out = checks.close_problems("S_M", s_m, own_sm, tol)
        out += checks.close_problems("S", s, own_s, tol)
        out += checks.at_least_problems("S_M - S", s_m - s, -tol)
        out += checks.at_most_problems("S_M", s_m, math.log2(d) + tol)
        out += checks.at_most_problems("recovery lower bound - S_M", sandwich.lower - s_m, 1e-8)
        out += checks.at_most_problems("S_M - recovery upper bound", s_m - sandwich.upper, 1e-8)
        out += checks.close_problems("certificate S_M", cert.entropy_bits, own_sm, tol)
        if cert.optimal and own_sm - own_s > 1e-6:
            out.append(f"certificate claims optimal with S_M - S = {own_sm - own_s:.3e}")
        out += checks.close_problems("chain entropy", chain, own_chain, tol)
        out += checks.close_problems("flattened protocol S_M", flat, chain, tol)
        if werner is not None:
            closed_sm, closed_s = werner_closed_form(*werner)
            out += checks.close_problems("Werner S_M", s_m, closed_sm, tol)
            out += checks.close_problems("Werner S", s, closed_s, tol)
        return out

    return Op(f"evaluate-{index}-d{d}", call, check, lambda res: res[0] - res[1])


def evaluate(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    layout = [slot for _ in range(EVALUATE_DRAWS) for slot in EVALUATE_LAYOUT]
    for index, (dims, kind, rank, k, k_first) in enumerate(layout):
        d = int(np.prod(dims))
        werner = None
        if kind == "werner":
            werner = (dims[0], float(rng.uniform()))
            mat = werner_state(*werner)
            effects = werner_witness(dims[0])
        else:
            mat = _random_state(rng, d, rank)
            effects = _random_povm(rng, d, k)
        first = _random_povm(rng, dims[0], k_first)
        follow = [_random_povm(rng, dims[1], FOLLOWUP_OUTCOMES) for _ in range(k_first)]
        ops.append(_evaluate_op(index, dims, mat, effects, first, follow, werner))
    return Workload(ops)
