"""Command-line interface: entropies, gaps, scans, and paper-example reproduction.

State sources are either catalog names (``--state "werner(3,0.7)"``) or JSON
operator files (``--file state.json``).  Operator JSON is row-major:
``{"dims": [2, 2], "re": [...], "im": [...]}``; POVM JSON is
``{"effects": [{"re": [...], "im": [...]}, ...], "dims": [...]}``.
Every file-writing command drops a RunManifest JSON next to its outputs.
Exit codes: 0 success, 2 validation failure, 3 from ``gap`` alone, when its
result did not converge.  ``scan``, ``robustness`` and ``reproduce`` report
``converged`` on each CSV row instead.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .classes import ConditionalMeasurement
from .core import DensityMatrix, PartitionSpec, Povm, ValidationError, opnorm
from .entropy import certify_optimal, observational_entropy, recovery_bounds, von_neumann
from .optimize import (
    OptConfig,
    OptResult,
    minimize_lo,
    minimize_lostar,
    ppt_gap_w3,
    werner_analytic,
)
from .partitions import CLASS_OPTIMIZERS, robustness_scan, robustness_to_csv, scan_partitions
from .states import CATALOG, from_catalog

LN2 = math.log(2.0)

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


# ---------------------------------------------------------------------------
# JSON operator formats


def operator_to_json(mat: np.ndarray, dims) -> dict:
    a = np.asarray(mat, dtype=complex)
    return {
        "dims": [int(d) for d in dims],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def _is_number(x) -> bool:
    """Whether a decoded JSON value is a float, or an int that a float holds; true and false are not."""
    return isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max


def _decode_dims(payload, name: str) -> tuple[int, ...]:
    """The "dims" of a JSON payload: a nonempty list of positive integers (2.0 reads as 2)."""
    dims = payload.get("dims") if isinstance(payload, dict) else None
    if not isinstance(dims, list) or not dims or not all(
        _is_number(n) and float(n).is_integer() and n >= 1 for n in dims
    ):
        raise ValidationError(f'{name} must be a JSON object whose "dims" is a list of positive integers')
    return tuple(int(n) for n in dims)


def _decode_operator(entry, d: int, name: str) -> np.ndarray:
    """The d x d matrix of a row-major {"re", "im"} entry of flat number lists; "im" defaults to 0."""
    if not isinstance(entry, dict) or "re" not in entry:
        raise ValidationError(f'{name} must be a JSON object with an "re" field')
    parts = []
    for key in ("re", "im"):
        part = entry.get(key, [0.0] * (d * d))
        if not isinstance(part, list) or not all(_is_number(x) for x in part):
            raise ValidationError(f'{name} "{key}" is not a list of numbers')
        if len(part) != d * d:
            raise ValidationError(f'{name} "{key}" has {len(part)} entries, expected {d * d}')
        parts.append(np.array(part, dtype=float))
    return (parts[0] + 1j * parts[1]).reshape(d, d)


def operator_from_json(payload: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    dims = _decode_dims(payload, "operator")
    return _decode_operator(payload, int(np.prod(dims)), "operator"), dims


def state_from_json(payload: dict) -> DensityMatrix:
    return DensityMatrix(*operator_from_json(payload))


def povm_from_json(payload: dict) -> Povm:
    d = int(np.prod(_decode_dims(payload, "POVM")))
    entries = payload.get("effects")
    if not isinstance(entries, list):
        raise ValidationError('POVM "effects" must be a list')
    effects = [_decode_operator(e, d, f"effect {i}") for i, e in enumerate(entries)]
    labels = payload.get("labels", [])
    if not isinstance(labels, list):
        raise ValidationError('POVM "labels" must be a list')
    tag = payload.get("class_tag", "Unverified")
    return Povm(np.array(effects), tuple(labels), tag)


def povm_to_json(povm: Povm, dims) -> dict:
    return {
        "dims": [int(d) for d in dims],
        "labels": list(povm.labels),
        "class_tag": povm.class_tag,
        "effects": [
            {"re": e.real.ravel().tolist(), "im": e.imag.ravel().tolist()}
            for e in povm.effects
        ],
    }


def witness_to_json(witness, dims) -> dict:
    if witness is None:
        return {"kind": "none"}
    if isinstance(witness, Povm):
        out = povm_to_json(witness, dims)
        out["kind"] = "povm"
        return out
    if isinstance(witness, ConditionalMeasurement):
        return {"kind": "protocol", "root": _protocol_to_json(witness)}
    raise ValidationError(f"cannot serialize witness of type {type(witness)!r}")


def _protocol_to_json(node: ConditionalMeasurement) -> dict:
    block_dim = node.povm.d
    payload = {
        "block": list(node.block),
        "povm": povm_to_json(node.povm, (block_dim,)),
    }
    if node.then is not None:
        payload["then"] = [_protocol_to_json(child) for child in node.then]
    return payload


# ---------------------------------------------------------------------------
# state / config parsing


def _split_state_spec(spec: str) -> tuple[str, list, dict]:
    """Split "name(a, b, key=c)" into (name, positional args, keyword args)."""
    spec = spec.strip()
    if "(" not in spec:
        return spec.lower(), [], {}
    name, rest = spec.split("(", 1)
    if not rest.endswith(")"):
        raise ValidationError(f"malformed state spec {spec!r}")
    args = []
    kwargs = {}
    body = rest[:-1].strip()
    if body:
        for token in body.split(","):
            token = token.strip()
            if "=" in token:
                key, val = token.split("=", 1)
                kwargs[key.strip()] = _parse_number(val)
            else:
                args.append(_parse_number(token))
    if "lambda" in kwargs:  # python keyword; catalog uses lam
        kwargs["lam"] = kwargs.pop("lambda")
    return name.strip().lower(), args, kwargs


def _parse_state_spec(spec: str) -> DensityMatrix:
    name, args, kwargs = _split_state_spec(spec)
    return from_catalog(name, *args, **kwargs)


def _parse_number(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_state(state: str | None, file: str | None) -> DensityMatrix:
    if (state is None) == (file is None):
        raise ValidationError("provide exactly one of --state or --file")
    if state is not None:
        return _parse_state_spec(state)
    payload = json.loads(Path(file).read_text())
    return state_from_json(payload)


def _units(value: float, nats: bool) -> float:
    return value * LN2 if nats else value


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    version: str
    wall_time_s: float
    outputs: list[str]


def _write_manifest(path: Path, config: dict, t0: float, outputs: list[str]):
    """Write the RunManifest of a command started at ``t0``; ``config`` holds its seed."""
    manifest = RunManifest(
        command=" ".join(sys.argv),
        config=config,
        seed=config["seed"],
        version=__version__,
        wall_time_s=time.time() - t0,
        outputs=outputs,
    )
    path.write_text(json.dumps(asdict(manifest), indent=2) + "\n")


def _fail(err: Exception):
    """A validation failure: one error line, then exit 2."""
    click.echo(f"error: {err}", err=True)
    sys.exit(EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Observational-entropy gaps under locality-restricted measurements."""


_state_opts = [
    click.option("--state", default=None, help='catalog state, e.g. "werner(3,0.7)" or "w(4)"'),
    click.option("--file", default=None, type=click.Path(exists=True), help="state JSON file"),
]


def _search_opts(restarts: int, max_iters: int):
    """The --seed/--restarts/--max-iters options of a searching command, with its defaults."""
    return [
        click.option("--seed", default=2025, show_default=True),
        click.option("--restarts", default=restarts, show_default=True,
                     help="starts per search; a search runs at least its warm starts: "
                          "2 for LO*, LOCC1 and CQ, 3 for LO's second search"),
        click.option("--max-iters", default=max_iters, show_default=True),
    ]


def _apply(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return wrap


@main.command()
@_apply(_state_opts)
@click.option("--povm", "povm_file", required=True, type=click.Path(exists=True), help="POVM JSON file")
@click.option("--nats", is_flag=True, help="report entropies in nats instead of bits")
def entropy(state, file, povm_file, nats):
    """Observational entropy of a state under a POVM, with recovery sandwich."""
    try:
        rho = _load_state(state, file)
        povm = povm_from_json(json.loads(Path(povm_file).read_text()))
        if povm.d != rho.d:
            raise ValidationError(
                f"POVM dimension {povm.d} does not match state dimension {rho.d}"
            )
    except (ValidationError, KeyError, json.JSONDecodeError) as err:
        _fail(err)
    s_m = observational_entropy(rho, povm)
    s = von_neumann(rho)
    sandwich = recovery_bounds(rho, povm)
    cert = certify_optimal(rho, povm)
    unit = "nats" if nats else "bits"
    click.echo(f"S_M(rho)  = {_units(s_m, nats):.9f} {unit}")
    click.echo(f"S(rho)    = {_units(s, nats):.9f} {unit}")
    click.echo(f"gap       = {_units(s_m - s, nats):.9f} {unit}")
    click.echo(
        f"recovery  : {_units(sandwich.lower, nats):.9f} <= S_M <= {_units(sandwich.upper, nats):.9f}"
    )
    click.echo(f"optimal   : {'yes' if cert.optimal else 'no'} ({cert.reason})")


SCAN_CLASSES = tuple(CLASS_OPTIMIZERS)
GAP_CLASSES = SCAN_CLASSES + ("ppt-w3", "werner-exact")


@main.command()
@_apply(_state_opts)
@click.option("--class", "klass", required=True, type=click.Choice(GAP_CLASSES))
@click.option("--partition", default="", help='partition string like "AB|CD"; default fully partitioned')
@_apply(_search_opts(16, 1200))
@click.option("--nats", is_flag=True)
@click.option("--witness-out", default=None, type=click.Path(), help="write the witness JSON here")
def gap(state, file, klass, partition, seed, restarts, max_iters, nats, witness_out):
    """Minimize the entropy gap of a state over a measurement class."""
    t0 = time.time()
    try:
        if klass == "ppt-w3":
            rho = from_catalog("w", 3)
            if state is not None or file is not None:
                given = _load_state(state, file)
                if given.dims != rho.dims or opnorm(given.mat - rho.mat) > 1e-9:
                    raise ValidationError(
                        'class "ppt-w3" is exact for the three-qubit W state only; '
                        "pass no state or --state w(3)"
                    )
            res_w3 = ppt_gap_w3()
            result = OptResult(
                res_w3.gap_bits, res_w3.gap_bits, res_w3.witness, (res_w3.gap_bits,), True
            )
        elif klass == "werner-exact":
            name, args, kwargs = _split_state_spec(state or "")
            if name != "werner":
                raise ValidationError('class "werner-exact" requires --state "werner(d,lambda)"')
            rho = from_catalog(name, *args, **kwargs)
            lam = kwargs["lam"] if "lam" in kwargs else args[1]
            exact = werner_analytic(rho.dims[0], float(lam))
            result = OptResult(
                exact.s_measured_bits, exact.gap_bits, exact.witness, (exact.s_measured_bits,), True
            )
        else:
            rho = _load_state(state, file)
            part = PartitionSpec.from_string(partition, len(rho.dims))
            cfg = OptConfig(seed=seed, restarts=restarts, max_iters=max_iters)
            result = CLASS_OPTIMIZERS[klass](rho, part, cfg)
    except (ValidationError, KeyError, json.JSONDecodeError) as err:
        _fail(err)
    unit = "nats" if nats else "bits"
    payload = {
        "class": klass,
        "entropy": _units(result.entropy_bits, nats),
        "gap": _units(result.gap_bits, nats),
        "units": unit,
        "converged": result.converged,
        "restart_trace": [_units(v, nats) for v in result.trace],
        "wall_time_s": time.time() - t0,
    }
    if result.bounds is not None:
        payload["bounds"] = [_units(b, nats) for b in result.bounds]
    click.echo(json.dumps(payload, indent=2))
    if witness_out:
        out_path = Path(witness_out)
        out_path.write_text(
            json.dumps(witness_to_json(result.witness, rho.dims), indent=2) + "\n"
        )
        config = {"seed": seed, "restarts": restarts, "max_iters": max_iters,
                  "class": klass, "partition": partition}
        _write_manifest(out_path.with_suffix(".manifest.json"), config, t0, [str(out_path)])
    if not result.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@_apply(_state_opts)
@click.option("--class", "klass", default="lostar", type=click.Choice(SCAN_CLASSES), show_default=True)
@_apply(_search_opts(8, 800))
@click.option("--out", default="scan.csv", type=click.Path(), show_default=True)
def scan(state, file, klass, seed, restarts, max_iters, out):
    """Per-partition gap scan of a state (CSV + JSON + manifest)."""
    t0 = time.time()
    try:
        rho = _load_state(state, file)
        cfg = OptConfig(seed=seed, restarts=restarts, max_iters=max_iters)
        result = scan_partitions(rho, klass, cfg, state_name=state or file)
    except (ValidationError, json.JSONDecodeError) as err:
        _fail(err)
    out_path = Path(out)
    out_path.write_text(result.to_csv())
    json_path = out_path.with_suffix(".json")
    json_path.write_text(result.to_json() + "\n")
    config = {"seed": seed, "restarts": restarts, "max_iters": max_iters, "class": klass}
    _write_manifest(out_path.with_suffix(".manifest.json"), config, t0, [str(out_path), str(json_path)])
    click.echo(result.to_csv(), nl=False)


@main.command()
@_apply(_state_opts)
@click.option("--class", "klass", default="lostar", type=click.Choice(SCAN_CLASSES), show_default=True)
@_apply(_search_opts(8, 800))
@click.option("--out", default="robustness.csv", type=click.Path(), show_default=True)
def robustness(state, file, klass, seed, restarts, max_iters, out):
    """Fully partitioned gap of every reduced state after subsystem loss."""
    t0 = time.time()
    try:
        rho = _load_state(state, file)
        cfg = OptConfig(seed=seed, restarts=restarts, max_iters=max_iters)
        result = robustness_scan(rho, klass, cfg)
    except (ValidationError, json.JSONDecodeError) as err:
        _fail(err)
    csv_text = robustness_to_csv(state or file, klass, result)
    out_path = Path(out)
    out_path.write_text(csv_text)
    config = {"seed": seed, "restarts": restarts, "max_iters": max_iters, "class": klass}
    _write_manifest(out_path.with_suffix(".manifest.json"), config, t0, [str(out_path)])
    click.echo(csv_text, nl=False)


REPRODUCE_IDS = ("werner-curves", "multipartite-scan", "trine", "w-family")


@main.command()
@click.argument("figure", type=click.Choice(REPRODUCE_IDS))
@click.option("--out-dir", default=".", type=click.Path(file_okay=False), show_default=True)
@_apply(_search_opts(8, 800))
def reproduce(figure, out_dir, seed, restarts, max_iters):
    """Regenerate a paper example as CSV files with a manifest."""
    t0 = time.time()
    try:
        cfg = OptConfig(seed=seed, restarts=restarts, max_iters=max_iters)
    except ValidationError as err:
        _fail(err)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []

    def write(name: str, text: str):
        path = out_dir / name
        path.write_text(text)
        outputs.append(str(path))

    if figure == "werner-curves":
        lines = ["d,lambda,s_measured_bits,s_state_bits,gap_bits"]
        for d in (2, 3, 4, 5):
            for lam in np.round(np.arange(0, 1.0001, 0.01), 2):
                w = werner_analytic(d, float(lam))
                lines.append(
                    f"{d},{lam:.2f},{w.s_measured_bits:.9f},{w.s_state_bits:.9f},{w.gap_bits:.9f}"
                )
        write("werner_curves.csv", "\n".join(lines) + "\n")
    elif figure == "multipartite-scan":
        for name in ("ghz(4)", "w(4)", "two-bell"):
            rho = _parse_state_spec(name)
            stem = name.replace("(", "").replace(")", "").replace(",", "_")
            write(f"scan_{stem}.csv", scan_partitions(rho, "lostar", cfg, state_name=name).to_csv())
            rob = robustness_scan(rho, "lostar", cfg)
            write(f"robustness_{stem}.csv", robustness_to_csv(name, "lostar", rob))
    elif figure == "trine":
        rho, part = _parse_state_spec("trine"), PartitionSpec.full(2)
        star, lo = minimize_lostar(rho, part, cfg), minimize_lo(rho, part, cfg)
        write("trine.csv", f"class,gap_bits\nlostar,{star.gap_bits:.9f}\nlo,{lo.gap_bits:.9f}\n")
    else:  # w-family
        rows = ["n,gap_bits"]
        for n in (2, 3, 4):
            res = minimize_lostar(_parse_state_spec(f"w({n})"), PartitionSpec.full(n), cfg)
            rows.append(f"{n},{res.gap_bits:.9f}")
        write("w_family.csv", "\n".join(rows) + "\n")
    config = {"seed": seed, "restarts": restarts, "max_iters": max_iters}
    _write_manifest(out_dir / f"{figure}.manifest.json", config, t0, outputs)
    for o in outputs:
        click.echo(o)


@main.command()
def catalog():
    """List the named states the CLI can build."""
    for name, (_, desc) in sorted(CATALOG.items()):
        click.echo(f"{name:16s} {desc}")


if __name__ == "__main__":
    main()
