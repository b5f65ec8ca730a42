"""CLI: parsing, JSON round-trips, commands, exit codes, deterministic outputs."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oegap
from helpers import random_density
from oegap.cli import (
    main,
    operator_from_json,
    operator_to_json,
    povm_from_json,
    povm_to_json,
    state_from_json,
)
from oegap.classes import lostar_povm
from oegap.core import PartitionSpec, Povm
from oegap.optimize import OptResult, werner_analytic
from oegap.states import bell, werner


def local_computational_payload():
    povm = lostar_povm([np.eye(2, dtype=complex)] * 2, PartitionSpec.full(2), (2, 2))
    return povm_to_json(povm, (2, 2))


def test_operator_json_roundtrip():
    rho = werner(2, 0.3)
    payload = operator_to_json(rho.mat, rho.dims)
    mat, dims = operator_from_json(payload)
    assert dims == (2, 2)
    assert np.allclose(mat, rho.mat)
    again = operator_to_json(*operator_from_json(payload))
    assert again == payload


def test_operator_json_reads_integral_float_dims():
    payload = operator_to_json(np.eye(4) / 4, (2, 2))
    _, dims = operator_from_json(dict(payload, dims=[2.0, 2.0]))
    assert dims == (2, 2) and all(type(d) is int for d in dims)


def test_povm_json_roundtrip():
    povm = lostar_povm([np.eye(2, dtype=complex)] * 2, PartitionSpec.full(2), (2, 2))
    payload = povm_to_json(povm, (2, 2))
    back = povm_from_json(payload)
    assert np.allclose(back.effects, povm.effects)
    assert back.labels == povm.labels


def test_state_json_validation_error():
    bad = {"dims": [2], "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
    with pytest.raises(Exception):
        state_from_json(bad)


def test_cmd_entropy_bell(tmp_path):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps(local_computational_payload()))
    runner = CliRunner()
    result = runner.invoke(main, ["entropy", "--state", "bell", "--povm", str(povm_file)])
    assert result.exit_code == 0, result.output
    assert "S_M(rho)  = 1.000000000 bits" in result.output
    assert "S(rho)    = 0.000000000 bits" in result.output
    assert "optimal   : no" in result.output


def test_cmd_entropy_eigenbasis_optimal(tmp_path):
    rho = werner(2, 0.3)
    vals, vecs = np.linalg.eigh(rho.mat)
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps(povm_to_json(Povm.from_basis(vecs), (2, 2))))
    runner = CliRunner()
    result = runner.invoke(main, ["entropy", "--state", "werner(2,0.3)", "--povm", str(povm_file)])
    assert result.exit_code == 0
    assert "optimal   : yes" in result.output


def test_cmd_entropy_validation_exit_code(tmp_path):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps({"dims": [2], "effects": [{"re": [1, 0, 0, 1]}, {"re": [1, 0, 0, 1]}]}))
    runner = CliRunner()
    result = runner.invoke(main, ["entropy", "--state", "bell", "--povm", str(povm_file)])
    assert result.exit_code == 2


def _povm_payload(first=None, **change):
    """The computational-basis POVM payload, with fields changed and effect 0's updated by ``first``."""
    payload = dict(local_computational_payload(), **change)
    if first is not None:
        payload["effects"] = [dict(payload["effects"][0], **first)] + payload["effects"][1:]
    return payload


def _state_payload(**change):
    return dict({"dims": [2], "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4}, **change)


DIMS_ERROR = '"dims" is a list of positive integers'
MALFORMED_PAYLOADS = [  # command, payload, a fragment of the error line
    pytest.param("entropy", _povm_payload({"re": [1.0] * 15}), 'effect 0 "re" has 15 entries, expected 16', id="povm-re-short"),
    pytest.param("entropy", _povm_payload({"im": [0.0] * 3}), 'effect 0 "im" has 3 entries, expected 16', id="povm-im-short"),
    pytest.param("entropy", _povm_payload({"re": ["a"] * 16}), 'effect 0 "re" is not a list of numbers', id="povm-re-text"),
    pytest.param("entropy", _povm_payload({"im": "x"}), 'effect 0 "im" is not a list of numbers', id="povm-im-text"),
    pytest.param("entropy", _povm_payload(effects=[5]), 'effect 0 must be a JSON object', id="povm-effect-not-object"),
    pytest.param("entropy", _povm_payload(effects=5), 'POVM "effects" must be a list', id="povm-effects-not-list"),
    pytest.param("entropy", _povm_payload(dims=4), DIMS_ERROR, id="povm-dims-int"),
    pytest.param("entropy", _povm_payload(dims=[2, 2.5]), DIMS_ERROR, id="povm-dims-fraction"),
    pytest.param("entropy", [1.0, 0.0], "POVM must be a JSON object", id="povm-list"),
    pytest.param("entropy", _povm_payload({"re": [0.0] * 16}), "completeness violation", id="povm-incomplete"),
    pytest.param("entropy", _povm_payload(labels=5), 'POVM "labels" must be a list', id="povm-labels-int"),
    pytest.param("entropy", _povm_payload(labels={"a": 1, "b": 2, "c": 3, "d": 4}), 'POVM "labels" must be a list', id="povm-labels-object"),
    pytest.param("gap", [0.5, 0.0, 0.0, 0.5], "operator must be a JSON object", id="state-list"),
    pytest.param("gap", _state_payload(re=[0.5, 0.0, 0.0]), 'operator "re" has 3 entries, expected 4', id="state-re-short"),
    pytest.param("gap", _state_payload(im=[0.0] * 3), 'operator "im" has 3 entries, expected 4', id="state-im-short"),
    pytest.param("gap", _state_payload(re=["a", 0, 0, 0.5]), 'operator "re" is not a list of numbers', id="state-re-text"),
    pytest.param("gap", {"dims": [2]}, 'operator must be a JSON object with an "re" field', id="state-no-re"),
    pytest.param("gap", _state_payload(dims=2), DIMS_ERROR, id="state-dims-int"),
    pytest.param("gap", _state_payload(dims=[2.5]), DIMS_ERROR, id="state-dims-fraction"),
    pytest.param("gap", _state_payload(dims=["x"]), DIMS_ERROR, id="state-dims-text"),
    pytest.param("gap", _state_payload(re=[1.0, 0.0, 0.0, 1.0]), "trace differs from 1", id="state-trace-2"),
]


@pytest.mark.parametrize("command, payload, fragment", MALFORMED_PAYLOADS)
def test_cmd_rejects_malformed_json_payloads(tmp_path, command, payload, fragment):
    # a malformed or invalid operator file is one error line and exit 2, never a traceback
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    args = {
        "entropy": ["entropy", "--state", "bell", "--povm", str(path)],
        "gap": ["gap", "--file", str(path), "--class", "lostar", "--restarts", "1", "--max-iters", "10"],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output
    assert fragment in result.output
    assert isinstance(result.exception, SystemExit)


def test_cmd_entropy_nats(tmp_path):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps(local_computational_payload()))
    runner = CliRunner()
    result = runner.invoke(main, ["entropy", "--state", "bell", "--povm", str(povm_file), "--nats"])
    assert f"S_M(rho)  = {math.log(2):.9f} nats" in result.output


def test_cmd_gap_ppt_w3():
    runner = CliRunner()
    result = runner.invoke(main, ["gap", "--state", "w(3)", "--class", "ppt-w3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["gap"] == pytest.approx(math.log2(9 / 4), abs=1e-9)


def test_cmd_gap_ppt_w3_rejects_other_states():
    runner = CliRunner()
    result = runner.invoke(main, ["gap", "--state", "bell", "--class", "ppt-w3"])
    assert result.exit_code == 2
    assert "ppt-w3" in result.output
    assert "Traceback" not in result.output


def test_cmd_gap_werner_exact_and_witness(tmp_path):
    runner = CliRunner()
    out = tmp_path / "witness.json"
    result = runner.invoke(
        main,
        ["gap", "--state", "werner(3,0.5)", "--class", "werner-exact", "--witness-out", str(out)],
    )
    assert result.exit_code == 0
    witness = json.loads(out.read_text())
    assert witness["kind"] == "povm"
    assert len(witness["effects"]) == 2
    manifest = json.loads((tmp_path / "witness.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]


@pytest.mark.parametrize("spec", ["Werner(3,0.5)", " werner(3,0.5)", "WERNER(3, lambda=0.5)", "werner (3, lam=0.5)"])
def test_cmd_gap_werner_exact_accepts_every_catalog_spelling(spec):
    # werner-exact reads the name as the catalog does: stripped, in lower case
    result = CliRunner().invoke(main, ["gap", "--state", spec, "--class", "werner-exact"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["gap"] == pytest.approx(werner_analytic(3, 0.5).gap_bits, abs=1e-12)


@pytest.mark.parametrize("spec", [None, "w(3)", "werner2(3,0.5)"])
def test_cmd_gap_werner_exact_rejects_other_states(spec):
    args = ["gap", "--class", "werner-exact"] + ([] if spec is None else ["--state", spec])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.output == 'error: class "werner-exact" requires --state "werner(d,lambda)"\n'


def test_cmd_gap_locc_cq_example():
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "gap", "--state", "cq-example", "--class", "locc1",
            "--restarts", "4", "--max-iters", "400", "--seed", "5",
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["gap"]) < 1e-6


@pytest.mark.parametrize("klass", ["lostar", "sep"])
def test_cmd_gap_zero_counts_as_converged(klass):
    # bell as one block at two restarts: restart 0 stalls on the stationary
    # computational basis, restart 1 reaches gap 0, the least any gap can be
    runner = CliRunner()
    result = runner.invoke(main, ["gap", "--state", "bell", "--class", klass, "--partition", "AB", "--restarts", "2"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert payload["gap"] == pytest.approx(0.0, abs=1e-12)


def test_cmd_gap_sep_exits_3_when_its_winner_did_not_converge():
    # W3 at two restarts of three iterations: SEP's winner is the LOCC1 witness, whose
    # search the budget stopped before it converged
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gap", "--state", "w(3)", "--class", "sep", "--seed", "1", "--restarts", "2", "--max-iters", "3"],
    )
    assert result.exit_code == 3, result.output
    payload = json.loads(result.output)
    assert payload["converged"] is False
    assert payload["gap"] == pytest.approx(1.545185, abs=1e-6)


def test_cmd_gap_requires_exactly_one_source(tmp_path):
    rho = bell()
    state_file = tmp_path / "bell.json"
    state_file.write_text(json.dumps(operator_to_json(rho.mat, rho.dims)))
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gap", "--state", "bell", "--file", str(state_file), "--class", "lostar"],
    )
    assert result.exit_code == 2
    result = runner.invoke(main, ["gap", "--class", "lostar"])
    assert result.exit_code == 2


def test_cmd_gap_unknown_class():
    runner = CliRunner()
    result = runner.invoke(main, ["gap", "--state", "bell", "--class", "nonsense"])
    assert result.exit_code != 0


def test_cmd_gap_malformed_partition():
    runner = CliRunner()
    result = runner.invoke(
        main, ["gap", "--state", "bell", "--class", "lostar", "--partition", "AZ|B"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("budget", [("--restarts", "0"), ("--max-iters", "0")], ids=["restarts-0", "max-iters-0"])
@pytest.mark.parametrize("command", ["gap", "scan", "robustness", "reproduce"])
def test_cmd_rejects_empty_search_budget(tmp_path, command, budget):
    # one error line and exit 2 from every searching command, before it writes anything
    out_dir = tmp_path / "out"
    args = {
        "gap": ["gap", "--state", "bell", "--class", "lostar"],
        "scan": ["scan", "--state", "bell", "--out", str(out_dir / "scan.csv")],
        "robustness": ["robustness", "--state", "bell", "--out", str(out_dir / "robustness.csv")],
        "reproduce": ["reproduce", "trine", "--out-dir", str(out_dir)],
    }[command]
    result = CliRunner().invoke(main, args + list(budget))
    assert result.exit_code == 2
    assert result.output == f"error: {budget[0][2:].replace('-', '_')} must be >= 1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("spec", ["ghz()", "bell(2)", "werner(3)", "w(x=3)"])
@pytest.mark.parametrize("command", ["gap", "werner-exact", "scan", "robustness"])
def test_cmd_rejects_catalog_arguments_that_do_not_fit(tmp_path, command, spec):
    # arguments that do not fit the catalog builder are a validation failure, not a traceback
    out_dir = tmp_path / "out"
    args = {
        "gap": ["gap", "--state", spec, "--class", "lostar"],
        "werner-exact": ["gap", "--state", spec, "--class", "werner-exact"],
        "scan": ["scan", "--state", spec, "--out", str(out_dir / "scan.csv")],
        "robustness": ["robustness", "--state", spec, "--out", str(out_dir / "robustness.csv")],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert not out_dir.exists()


def test_cmd_scan_and_manifest(tmp_path):
    runner = CliRunner()
    out = tmp_path / "scan.csv"
    result = runner.invoke(
        main,
        [
            "scan", "--state", "ghz(3)", "--class", "lostar",
            "--restarts", "4", "--max-iters", "300", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,class,partition,shape,gap_bits,converged"
    manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert list(manifest) == ["command", "config", "seed", "version", "wall_time_s", "outputs"]
    assert manifest["config"] == {"seed": 2025, "restarts": 4, "max_iters": 300, "class": "lostar"}
    assert manifest["seed"] == 2025
    assert str(out) in manifest["outputs"]
    assert (tmp_path / "scan.json").exists()


def test_cmd_scan_exits_0_with_unconverged_rows(tmp_path):
    # scan reports convergence per row; only gap exits 3
    rho = random_density(np.random.default_rng(22), (2, 2, 2), 2)
    state_file = tmp_path / "rank2.json"
    state_file.write_text(json.dumps(operator_to_json(rho.mat, rho.dims)))
    out = tmp_path / "scan.csv"
    result = CliRunner().invoke(
        main,
        ["scan", "--file", str(state_file), "--seed", "5", "--restarts", "1", "--max-iters", "40", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert ",False\n" in out.read_text()


def test_cmd_scan_leaves_no_results_alive(tmp_path):
    # a command that ends in sys.exit on success keeps its frame, and with it every
    # result it made, in a reference cycle through the SystemExit traceback
    runner = CliRunner()
    args = ["scan", "--state", "ghz(3)", "--restarts", "2", "--max-iters", "100",
            "--out", str(tmp_path / "scan.csv")]

    def live_results():
        return sum(isinstance(obj, OptResult) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        assert runner.invoke(main, args).exit_code == 0
        after_one = live_results()
        assert runner.invoke(main, args).exit_code == 0
        assert live_results() <= after_one
    finally:
        gc.enable()


def test_cmd_scan_seeded_byte_identical(tmp_path):
    runner = CliRunner()
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            [
                "scan", "--state", "ghz(3)", "--class", "lostar",
                "--seed", "42", "--restarts", "3", "--max-iters", "200", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cmd_reproduce_werner_curves_deterministic(tmp_path):
    runner = CliRunner()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for target in (d1, d2):
        result = runner.invoke(main, ["reproduce", "werner-curves", "--out-dir", str(target)])
        assert result.exit_code == 0
    text1 = (d1 / "werner_curves.csv").read_bytes()
    text2 = (d2 / "werner_curves.csv").read_bytes()
    assert text1 == text2  # byte-identical across runs
    lines = text1.decode().strip().splitlines()
    assert lines[0] == "d,lambda,s_measured_bits,s_state_bits,gap_bits"
    assert len(lines) == 1 + 4 * 101
    # row-wise sanity: no NaNs, gaps within the general bounds
    for line in lines[1:]:
        d, lam, s_m, s, gap = line.split(",")
        assert "nan" not in line.lower()
        assert float(gap) == pytest.approx(float(s_m) - float(s), abs=5e-9)
        assert -1e-9 <= float(gap) <= 2 * math.log2(float(d))
    # spot-check the paper endpoints
    row = [l for l in lines if l.startswith("2,1.00")][0]
    assert float(row.split(",")[4]) == pytest.approx(1.0, abs=1e-9)


def test_cmd_reproduce_w_family(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["reproduce", "w-family", "--out-dir", str(tmp_path), "--restarts", "4", "--max-iters", "400"],
    )
    assert result.exit_code == 0
    lines = (tmp_path / "w_family.csv").read_text().strip().splitlines()
    assert lines[0] == "n,gap_bits"
    values = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert values[2] == pytest.approx(1.0, abs=1e-3)
    assert values[3] == pytest.approx(math.log2(3), abs=1e-3)
    assert values[4] == pytest.approx(2.0, abs=1e-3)


def test_cmd_catalog():
    runner = CliRunner()
    result = runner.invoke(main, ["catalog"])
    assert result.exit_code == 0
    assert "werner" in result.output
    assert "trine" in result.output


def test_cmd_gap_file_input(tmp_path):
    rho = bell()
    state_file = tmp_path / "bell.json"
    state_file.write_text(json.dumps(operator_to_json(rho.mat, rho.dims)))
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gap", "--file", str(state_file), "--class", "lostar", "--restarts", "4", "--max-iters", "300"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["gap"] == pytest.approx(1.0, abs=1e-5)


SEARCH_CLASSES = ("lostar", "lo", "locc1", "sep")
STATE_PARAMS = [("state", ("--state",), None, ()), ("file", ("--file",), None, ())]
# name, flags, default (None when required), choices: what each command's --help shows
COMMAND_PARAMS = {
    "catalog": [],
    "entropy": STATE_PARAMS + [("povm_file", ("--povm",), None, ()), ("nats", ("--nats",), False, ())],
    "gap": STATE_PARAMS + [
        ("klass", ("--class",), None, SEARCH_CLASSES + ("ppt-w3", "werner-exact")),
        ("partition", ("--partition",), "", ()),
        ("seed", ("--seed",), 2025, ()),
        ("restarts", ("--restarts",), 16, ()),
        ("max_iters", ("--max-iters",), 1200, ()),
        ("nats", ("--nats",), False, ()),
        ("witness_out", ("--witness-out",), None, ()),
    ],
    "reproduce": [
        ("figure", ("figure",), None, ("werner-curves", "multipartite-scan", "trine", "w-family")),
        ("out_dir", ("--out-dir",), ".", ()),
        ("seed", ("--seed",), 2025, ()),
        ("restarts", ("--restarts",), 8, ()),
        ("max_iters", ("--max-iters",), 800, ()),
    ],
}
for _command, _out in (("scan", "scan.csv"), ("robustness", "robustness.csv")):
    COMMAND_PARAMS[_command] = STATE_PARAMS + [
        ("klass", ("--class",), "lostar", SEARCH_CLASSES),
        ("seed", ("--seed",), 2025, ()),
        ("restarts", ("--restarts",), 8, ()),
        ("max_iters", ("--max-iters",), 800, ()),
        ("out", ("--out",), _out, ()),
    ]


@pytest.mark.parametrize("command", sorted(COMMAND_PARAMS))
def test_command_parameters_are_pinned(command):
    params = [
        (p.name, tuple(p.opts), None if p.required else p.default, tuple(getattr(p.type, "choices", ())))
        for p in main.commands[command].params
    ]
    assert params == COMMAND_PARAMS[command]


COLD_START = """
import sys

import numpy as np
from click.testing import CliRunner

import oegap, oegap.cli
from oegap.core import PartitionSpec, Povm
from oegap.entropy import observational_entropy
from oegap.optimize import OptConfig, minimize_lo, sep_gap_heuristic
from oegap.states import bell

result = CliRunner().invoke(oegap.cli.main, ["gap", "--state", "bell", "--class", "lostar"])
assert result.exit_code == 0, result.output
cfg = OptConfig(seed=1, restarts=2, max_iters=50)
minimize_lo(bell(), PartitionSpec.full(2), cfg)
sep_gap_heuristic(bell(), PartitionSpec.full(2), cfg)
observational_entropy(bell(), Povm.from_basis(np.eye(4)))
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
assert oegap.optimize.scipy.optimize.__name__ == "scipy.optimize"
"""


def test_cold_start_does_not_import_scipy_optimize():
    # scipy.optimize is most of a fresh process's start-up time and memory, and no oegap
    # code calls it; pytest's own process has loaded it already, so the check runs in a
    # fresh interpreter: the package, the CLI and a search leave it unloaded, and the
    # module's scipy still reaches it on first use, as perfbench/tracing.py does
    src = str(Path(oegap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
