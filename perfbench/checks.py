"""Correctness checks made apart from the program, with plain numpy.

Nothing here imports ``oegap``: every entropy, marginal and class test is
recomputed from the raw matrices the program returns.  Each ``*_problems``
function returns a list of human-readable problems; an empty list means the
check passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

P_EPS = 1e-14
ENTROPY_TOL = 1e-9  # float rounding allowed between two evaluations of one entropy
POVM_TOL = 1e-9
PRODUCT_TOL = 1e-8


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > P_EPS]
    return float(-np.sum(p * np.log2(p)))


def vn_bits(rho: np.ndarray) -> float:
    """von Neumann entropy in bits from the eigenvalues of a Hermitian matrix."""
    return shannon_bits(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


def oe_bits(rho: np.ndarray, effects) -> float:
    """Observational entropy S_M = -sum_i p_i log2(p_i / V_i)."""
    effects = np.asarray(effects)
    p = np.real(np.einsum("iab,ba->i", effects, rho))
    v = np.real(np.einsum("iaa->i", effects))
    keep = p > P_EPS
    return float(-np.sum(p[keep] * np.log2(p[keep] / v[keep])))


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced operator on the subsystems in ``keep`` (ascending order)."""
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    order = keep + drop
    dk = int(np.prod([dims[i] for i in keep]))
    dr = int(np.prod([dims[i] for i in drop]))
    t = rho.reshape(tuple(dims) * 2).transpose(order + [n + i for i in order])
    return np.einsum("ajbj->ab", t.reshape(dk, dr, dk, dr))


def embed(op: np.ndarray, block, dims) -> np.ndarray:
    """``op`` on the subsystems ``block`` and the identity on every other one."""
    n = len(dims)
    rest = [i for i in range(n) if i not in block]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest))
    order = list(block) + rest
    back = [order.index(i) for i in range(n)]
    t = big.reshape([dims[i] for i in order] * 2)
    d = int(np.prod(dims))
    return t.transpose(back + [n + i for i in back]).reshape(d, d)


def flatten_protocol(node, dims) -> list[np.ndarray]:
    """Product effects of a one-way protocol tree (``block``, ``povm.effects``, ``then``)."""
    out = []

    def walk(node, prefix):
        for i, eff in enumerate(np.asarray(node.povm.effects)):
            acc = embed(eff, node.block, dims)
            acc = acc if prefix is None else prefix @ acc
            if node.then is None:
                out.append(acc)
            else:
                walk(node.then[i], acc)

    walk(node, None)
    return out


def marginal_floor_bits(rho: np.ndarray, dims, blocks) -> float:
    """max over proper block subsets K of S(rho_K) - S(rho); separable S_M obeys it."""
    s_rho = vn_bits(rho)
    best = 0.0
    for r in range(1, len(blocks)):
        for subset in itertools.combinations(blocks, r):
            keep = sorted(i for b in subset for i in b)
            best = max(best, vn_bits(partial_trace(rho, dims, keep)))
    return best - s_rho


def povm_problems(effects, tol: float = POVM_TOL) -> list[str]:
    """Hermitian PSD effects that sum to the identity."""
    effects = np.asarray(effects)
    d = effects.shape[1]
    out = []
    for i, e in enumerate(effects):
        if np.linalg.norm(e - e.conj().T, 2) > tol:
            out.append(f"effect {i} is not Hermitian")
            continue
        lo = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0])
        if lo < -tol:
            out.append(f"effect {i} has eigenvalue {lo:.3e} < 0")
    gap = float(np.linalg.norm(effects.sum(axis=0) - np.eye(d), 2))
    if gap > tol:
        out.append(f"effects sum to the identity only within {gap:.3e}")
    return out


def product_problems(effects, dims, blocks, tol: float = PRODUCT_TOL) -> list[str]:
    """Every effect is a tensor product across the blocks.

    An operator is a product across (block | rest) iff its realignment on
    that cut has operator-Schmidt rank 1; holding for every block makes it
    a product of one factor per block.
    """
    n = len(dims)
    out = []
    for i, e in enumerate(np.asarray(effects)):
        t = e.reshape(tuple(dims) * 2)
        for block in blocks:
            rest = [j for j in range(n) if j not in block]
            if not rest:
                continue
            axes = list(block) + [n + j for j in block] + rest + [n + j for j in rest]
            db = int(np.prod([dims[j] for j in block]))
            m = t.transpose(axes).reshape(db * db, -1)
            s = np.linalg.svd(m, compute_uv=False)
            if s[0] > tol and s[1] > tol * s[0]:
                out.append(f"effect {i} is not a product across block {tuple(block)}")
                break
    return out


def projective_problems(effects, tol: float = PRODUCT_TOL) -> list[str]:
    effects = np.asarray(effects)
    for i, j in itertools.product(range(len(effects)), repeat=2):
        ref = effects[i] if i == j else 0.0
        if np.linalg.norm(effects[i] @ effects[j] - ref, 2) > tol:
            return [f"effects {i} and {j} violate M_i M_j = delta_ij M_i"]
    return []


def partial_transpose(op: np.ndarray, dims, subsys) -> np.ndarray:
    n = len(dims)
    axes = list(range(2 * n))
    for i in subsys:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    d = op.shape[0]
    return op.reshape(tuple(dims) * 2).transpose(axes).reshape(d, d)


def ppt_problems(effects, dims, tol: float = POVM_TOL) -> list[str]:
    """Each effect stays PSD under the partial transpose of every subsystem."""
    out = []
    for i, e in enumerate(np.asarray(effects)):
        for k in range(len(dims)):
            pt = partial_transpose(e, dims, (k,))
            lo = float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))[0])
            if lo < -tol:
                out.append(f"effect {i} has a non-PSD partial transpose on subsystem {k} ({lo:.3e})")
    return out


def close_problems(what: str, value: float, target: float, tol: float) -> list[str]:
    if not math.isfinite(value) or abs(value - target) > tol:
        return [f"{what} = {value:.9f}, expected {target:.9f} +- {tol:.0e}"]
    return []


def at_most_problems(what: str, value: float, bound: float) -> list[str]:
    if not math.isfinite(value) or value > bound:
        return [f"{what} = {value:.9f} exceeds {bound:.9f}"]
    return []


def at_least_problems(what: str, value: float, bound: float) -> list[str]:
    if not math.isfinite(value) or value < bound:
        return [f"{what} = {value:.9f} is below {bound:.9f}"]
    return []


def witness_problems(
    rho: np.ndarray,
    dims,
    blocks,
    effects,
    reported_entropy: float,
    reported_gap: float,
    projective: bool = False,
) -> list[str]:
    """A search witness is a valid product-effect POVM whose S_M is what was reported.

    Also checks the reported gap against S_M - S and the separable floor
    max_K S(rho_K) - S(rho), allowing float rounding of ``ENTROPY_TOL``.
    """
    effects = np.asarray(effects)
    out = povm_problems(effects) + product_problems(effects, dims, blocks)
    if projective:
        out += projective_problems(effects)
    s_m = oe_bits(rho, effects)
    out += close_problems("reported S_M", reported_entropy, s_m, ENTROPY_TOL)
    out += close_problems("reported gap", reported_gap, s_m - vn_bits(rho), ENTROPY_TOL)
    floor = marginal_floor_bits(rho, dims, blocks)
    out += at_least_problems("gap", reported_gap, floor - ENTROPY_TOL)
    return out
