"""Partition enumeration and multipartite genuineness/robustness scans."""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, PartitionSpec, ValidationError, schmidt
from .entropy import shannon, von_neumann
from .optimize import (
    DEFAULT_CONFIG,
    OptConfig,
    OptResult,
    minimize_lo,
    minimize_locc_oneway,
    minimize_lostar,
    sep_gap_heuristic,
)

# class name -> minimizer(rho, partition, cfg); each entry looks its function up
# at call time, so a wrapper installed on this module's globals is honoured
CLASS_OPTIMIZERS = {
    "lostar": lambda rho, partition, cfg: minimize_lostar(rho, partition, cfg),
    "lo": lambda rho, partition, cfg: minimize_lo(rho, partition, cfg),
    "locc1": lambda rho, partition, cfg: minimize_locc_oneway(rho, partition, cfg=cfg),
    "sep": lambda rho, partition, cfg: sep_gap_heuristic(rho, partition, cfg=cfg),
}


def _class_optimizer(klass: str):
    """The registered minimizer for a class name (case-insensitive)."""
    try:
        return CLASS_OPTIMIZERS[klass.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown class {klass!r}; scans support {', '.join(sorted(CLASS_OPTIMIZERS))}"
        ) from None


def enumerate_partitions(n: int, shape: str | None = None) -> list[PartitionSpec]:
    """All set partitions of n subsystems, optionally filtered by shape string.

    Shapes are sorted block sizes joined by "+", e.g. "1+1+2".  Counts follow
    the Bell numbers (5 partitions for n=3, 15 for n=4).
    """
    if not 2 <= n <= 6:
        raise ValidationError("enumerate_partitions supports 2 <= n <= 6")
    if shape is not None:
        sizes = sorted(int(s) for s in shape.split("+"))
        if any(s < 1 for s in sizes) or sum(sizes) != n:
            raise ValidationError(f"shape {shape!r} is not a partition of {n}")
        wanted = "+".join(str(s) for s in sizes)
    out = [PartitionSpec(tuple(tuple(b) for b in spec)) for spec in _set_partitions(list(range(n)))]
    out = [p for p in out if shape is None or p.shape_string() == wanted]
    return sorted(out, key=lambda p: (p.n_blocks, str(p)))


def _set_partitions(items: list[int]):
    if len(items) == 1:
        yield [items]
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[head] + sub[k]] + sub[k + 1 :]
        yield [[head]] + sub


def _schmidt_fast_path(rho: DensityMatrix, partition: PartitionSpec) -> float | None:
    """Entanglement entropy of a pure state across a bipartition, or None."""
    if partition.n_blocks != 2 or not rho.is_pure():
        return None
    vec = rho.pure_vector()
    coeffs, _, _ = schmidt(vec, rho.dims, partition.blocks[0])
    return shannon(coeffs**2)


@dataclass(frozen=True)
class PartitionScan:
    """Per-partition gaps for one state and class, with per-shape averages."""

    state_name: str
    klass: str
    results: tuple[tuple[PartitionSpec, OptResult], ...]
    shape_averages: tuple[tuple[str, float], ...]

    def gap(self, partition: PartitionSpec) -> float:
        for p, r in self.results:
            if p == partition:
                return r.gap_bits
        raise KeyError(str(partition))

    def to_rows(self) -> list[dict]:
        return [
            {
                "state": self.state_name,
                "class": self.klass,
                "partition": str(p),
                "shape": p.shape_string(),
                "gap_bits": r.gap_bits,
                "converged": r.converged,
            }
            for p, r in self.results
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("state,class,partition,shape,gap_bits,converged\n")
        for row in self.to_rows():
            buf.write(
                f"{row['state']},{row['class']},{row['partition']},"
                f"{row['shape']},{row['gap_bits']:.9f},{row['converged']}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "state": self.state_name,
            "class": self.klass,
            "partitions": self.to_rows(),
            "shape_averages": dict(self.shape_averages),
        }
        return json.dumps(payload, indent=2)


def scan_partitions(
    rho: DensityMatrix,
    klass: str,
    cfg: OptConfig = DEFAULT_CONFIG,
    state_name: str = "state",
) -> PartitionScan:
    """Optimize the class gap on every partition of two or more blocks.

    Pure-state bipartitions use the Schmidt value directly.  Results are
    min-reduced along the refinement order (a finer partition's witness is a
    valid coarser-partition measurement), so no coarser partition's gap
    exceeds a finer one's: a repaired row is the finer partition's whole
    result, its trace and ``converged`` flag included.
    """
    minimize = _class_optimizer(klass)
    n = len(rho.dims)
    partitions = [p for p in enumerate_partitions(n) if p.n_blocks >= 2]
    s_rho = von_neumann(rho)
    raw: dict[PartitionSpec, OptResult] = {}
    for p in partitions:
        fast = _schmidt_fast_path(rho, p)
        if fast is not None:
            raw[p] = OptResult(fast + s_rho, fast, None, (fast + s_rho,), True)
        else:
            raw[p] = minimize(rho, p, cfg)

    # lattice repair: every finer partition's optimum is feasible for coarser ones,
    # so p takes the whole result of the lowest-entropy partition refining it (p on ties)
    repaired = {}
    for p in partitions:
        finer = [raw[q] for q in partitions if q is not p and q.refines(p)]
        repaired[p] = min([raw[p]] + finer, key=lambda r: r.entropy_bits)

    shapes: dict[str, list[float]] = {}
    for p in partitions:
        shapes.setdefault(p.shape_string(), []).append(repaired[p].gap_bits)
    averages = tuple(
        (shape, float(np.mean(vals))) for shape, vals in sorted(shapes.items())
    )
    ordered = tuple((p, repaired[p]) for p in partitions)
    return PartitionScan(state_name, klass.lower(), ordered, averages)


def robustness_scan(
    rho: DensityMatrix,
    klass: str,
    cfg: OptConfig = DEFAULT_CONFIG,
) -> dict[tuple[int, ...], OptResult]:
    """Fully partitioned gap of every reduced state (each nonempty discard set)."""
    minimize = _class_optimizer(klass)
    n = len(rho.dims)
    out: dict[tuple[int, ...], OptResult] = {}
    for r in range(1, n):
        for discard in itertools.combinations(range(n), r):
            keep = tuple(i for i in range(n) if i not in discard)
            reduced = rho.reduced(keep)
            part = PartitionSpec.full(len(keep))
            if len(keep) == 1:
                # single remaining subsystem: its eigenbasis closes the gap
                s = von_neumann(reduced)
                out[discard] = OptResult(s, 0.0, None, (s,), True)
            else:
                out[discard] = minimize(reduced, part, cfg)
    return out


def robustness_to_csv(state_name: str, klass: str, scan: dict[tuple[int, ...], OptResult]) -> str:
    buf = io.StringIO()
    buf.write("state,class,discarded,gap_bits,converged\n")
    for discard, res in sorted(scan.items(), key=lambda kv: (len(kv[0]), kv[0])):
        letters = "".join(chr(ord("A") + i) for i in discard)
        buf.write(f"{state_name},{klass},{letters},{res.gap_bits:.9f},{res.converged}\n")
    return buf.getvalue()
