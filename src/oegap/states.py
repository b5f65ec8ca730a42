"""Catalog of named states and channels used throughout the examples.

Every constructor returns a validated :class:`~oegap.core.DensityMatrix`
(classical-quantum constructors additionally carry their classical basis).
Catalog entries are addressable by name for the CLI, e.g. ``werner(3,0.7)``.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass

import numpy as np

from .core import MAX_DIM, DensityMatrix, ValidationError, as_operator, embed

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def _size(n, name: str) -> int:
    """A catalog size as an int of at least 2; an integral float reads as its integer, as JSON dims do."""
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ValidationError(f"{name} must be an integer >= 2, got {n!r}")
    return int(n)


def _dimension(base: int, power: int) -> int:
    """base ** power, or ``DensityMatrix``'s cap error before any array is built; power is bounded first."""
    if power >= MAX_DIM.bit_length() or base**power > MAX_DIM:  # base >= 2
        shown = base**power if power * base.bit_length() <= 64 else f"{base}^{power}"
        raise ValidationError(f"invalid state: dimension {shown} exceeds the supported cap of {MAX_DIM}")
    return base**power


def _dm_from_vector(vec: np.ndarray, dims) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), tuple(dims))


def bell() -> DensityMatrix:
    """Two-qubit Bell pair (|00> + |11>)/sqrt(2)."""
    return _dm_from_vector(bell_vector(), (2, 2))


def bell_vector() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def ghz(n: int) -> DensityMatrix:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    n = _size(n, "ghz(n)")
    v = np.zeros(_dimension(2, n), dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return _dm_from_vector(v, (2,) * n)


def w_vector(n: int) -> np.ndarray:
    n = _size(n, "w(n)")
    v = np.zeros(_dimension(2, n), dtype=complex)
    v[1 << np.arange(n)] = 1 / np.sqrt(n)  # the n states with one excitation
    return v


def w(n: int) -> DensityMatrix:
    """n-qubit W state: uniform superposition of single-excitation basis states."""
    return _dm_from_vector(w_vector(n), (2,) * int(n))  # w_vector checks n first


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F on two d-level systems."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def symmetric_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the symmetric and antisymmetric subspaces of C^d x C^d."""
    f = flip_operator(d)
    eye = np.eye(d * d)
    return 0.5 * (eye + f), 0.5 * (eye - f)


def werner(d: int, lam: float) -> DensityMatrix:
    """Werner state (1-lam) * sym/w+ + lam * antisym/w- on two qudits."""
    d = _size(d, "werner(d, lambda)")
    _dimension(d, 2)
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"werner parameter must lie in [0, 1], got {lam}")
    plus, minus = symmetric_projectors(d)
    w_plus = d * (d + 1) / 2
    w_minus = d * (d - 1) / 2
    mat = (1 - lam) * plus / w_plus + lam * minus / w_minus
    return DensityMatrix(mat, (d, d))


def werner_mixed_point(d: int) -> float:
    """lam at which the Werner state equals the maximally mixed state."""
    return (d - 1) / (2 * d)


@dataclass(frozen=True)
class CqState:
    """A classical-quantum state with its declared classical basis."""

    state: DensityMatrix
    classical_block: int
    classical_basis: np.ndarray  # unitary; columns are the classical basis

    @property
    def dims(self):
        return self.state.dims


def cq(weights, quantum_states, classical_basis=None) -> CqState:
    """Assemble sum_k w_k |k><k| (x) rho_k with |k> columns of ``classical_basis``."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-10:
        raise ValidationError("cq weights must be a probability distribution")
    mats = [as_operator(q) for q in quantum_states]
    if len(mats) != len(weights):
        raise ValidationError("one quantum state required per weight")
    dc = len(weights)
    dq = mats[0].shape[0]
    basis = np.eye(dc, dtype=complex) if classical_basis is None else as_operator(classical_basis)
    mat = np.zeros((dc * dq, dc * dq), dtype=complex)
    for k, (lam, rho_k) in enumerate(zip(weights, mats)):
        ket = basis[:, k]
        mat += lam * np.kron(np.outer(ket, ket.conj()), rho_k)
    return CqState(DensityMatrix(mat, (dc, dq)), 0, basis)


def trine_vectors() -> list[np.ndarray]:
    """The three equidistant qubit states on the xy-plane of the Bloch sphere."""
    return [
        (KET0 + np.exp(2j * np.pi * k / 3) * KET1) / np.sqrt(2) for k in range(3)
    ]


def trine_cq() -> CqState:
    """CQ trine state: qutrit classical register paired with the trine qubit ensemble."""
    kets = trine_vectors()
    return cq([1 / 3] * 3, [np.outer(v, v.conj()) for v in kets])


def cq_example() -> CqState:
    """The two-qubit state (|00><00| + |1+><1+|)/2."""
    return cq(
        [0.5, 0.5],
        [np.outer(KET0, KET0.conj()), np.outer(KET_PLUS, KET_PLUS.conj())],
    )


def cq_example_pure() -> DensityMatrix:
    """Pure superposition (|00> + |1+>)/sqrt(2), the un-dephased cousin of cq_example."""
    v = np.kron(KET0, KET0) + np.kron(KET1, KET_PLUS)
    return _dm_from_vector(v, (2, 2))


def two_bell() -> DensityMatrix:
    """Two Bell pairs |phi+>_AC (x) |phi+>_BD on four qubits ordered A,B,C,D."""
    phi = bell_vector()
    t = np.einsum("ac,bd->abcd", phi.reshape(2, 2), phi.reshape(2, 2))
    return _dm_from_vector(t.ravel(), (2, 2, 2, 2))


def domino_basis() -> list[tuple[np.ndarray, np.ndarray]]:
    """The nine product vectors of the 3x3 domino basis, as (A-factor, B-factor) pairs."""
    e = np.eye(3, dtype=complex)
    s = 1 / np.sqrt(2)
    pairs = [
        (e[1], e[1]),
        (e[0], s * (e[0] + e[1])),
        (e[0], s * (e[0] - e[1])),
        (e[2], s * (e[1] + e[2])),
        (e[2], s * (e[1] - e[2])),
        (s * (e[1] + e[2]), e[0]),
        (s * (e[1] - e[2]), e[0]),
        (s * (e[0] + e[1]), e[2]),
        (s * (e[0] - e[1]), e[2]),
    ]
    return pairs


def domino_state(probs=None) -> DensityMatrix:
    """Mixture of the domino-basis projectors with strictly positive, distinct weights."""
    if probs is not None and len(np.unique(np.round(np.asarray(probs, dtype=float), 12))) != 9:
        raise ValidationError("domino mixture weights must be pairwise distinct")
    return _product_mixture("domino", domino_basis(), probs)


def tiles_upb() -> list[tuple[np.ndarray, np.ndarray]]:
    """The five product vectors of the 3x3 "tiles" unextendible product basis."""
    e = np.eye(3, dtype=complex)
    s = 1 / np.sqrt(2)
    stopper = (e[0] + e[1] + e[2]) / np.sqrt(3)
    return [
        (e[0], s * (e[0] - e[1])),
        (e[2], s * (e[1] - e[2])),
        (s * (e[0] - e[1]), e[2]),
        (s * (e[1] - e[2]), e[0]),
        (stopper, stopper),
    ]


def tiles_upb_state(probs=None) -> DensityMatrix:
    """Mixture of the tiles-UPB projectors; its kernel projector is PPT entangled."""
    return _product_mixture("tiles", tiles_upb(), probs)


def _product_mixture(name: str, pairs, probs) -> DensityMatrix:
    """sum_k p_k |a_k b_k><a_k b_k| on two qutrits; by default p_k is proportional to k."""
    if probs is None:
        probs = np.arange(1, len(pairs) + 1, dtype=float)
        probs /= probs.sum()
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(pairs) or np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-10:
        raise ValidationError(f"{name} mixture needs {len(pairs)} strictly positive weights summing to 1")
    mat = np.zeros((9, 9), dtype=complex)
    for p, (a, b) in zip(probs, pairs):
        v = np.kron(a, b)
        mat += p * np.outer(v, v.conj())
    return DensityMatrix(mat, (3, 3))


# ---------------------------------------------------------------------------
# channels


def dephase_local(rho: DensityMatrix, block: int, basis=None) -> DensityMatrix:
    """Dephase one subsystem in the given local basis (columns; default computational)."""
    dims = rho.dims
    db = dims[block]
    u = np.eye(db, dtype=complex) if basis is None else as_operator(basis)
    out = np.zeros_like(rho.mat)
    for k in range(db):
        ket = u[:, k]
        proj = embed(np.outer(ket, ket.conj()), (block,), dims)
        out += proj @ rho.mat @ proj
    return DensityMatrix(out, dims)


def depolarize(rho: DensityMatrix) -> DensityMatrix:
    """Fully depolarizing channel: every input goes to the maximally mixed state."""
    return DensityMatrix(np.eye(rho.d) / rho.d, rho.dims)


def twirl_uu(op: np.ndarray, d: int) -> np.ndarray:
    """Exact U (x) U twirl, by projecting onto the commutant span{identity, flip}.

    The Haar average of (U (x) U) op (U (x) U)^dag is the unique element
    a*I + b*F with the same trace and flip overlap as ``op``, so no sampling
    is involved.
    """
    a_mat = as_operator(op)
    if a_mat.shape[0] != d * d:
        raise ValidationError(f"twirl_uu expects a two-qudit operator of dimension {d * d}")
    f = flip_operator(d)
    t1 = complex(np.trace(a_mat))
    tf = complex(np.trace(f @ a_mat))
    dd = d * d
    # solve [[dd, d], [d, dd]] @ [a, b] = [t1, tf]
    det = dd * dd - d * d
    a = (dd * t1 - d * tf) / det
    b = (dd * tf - d * t1) / det
    return a * np.eye(dd) + b * f


def twirl_uu_state(rho: DensityMatrix) -> DensityMatrix:
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValidationError("twirl_uu_state expects two equal-dimension subsystems")
    return DensityMatrix(twirl_uu(rho.mat, rho.dims[0]), rho.dims)


# ---------------------------------------------------------------------------
# catalog registry for the CLI


CATALOG = {
    "bell": (bell, "Bell pair |phi+> on 2 qubits"),
    "ghz": (ghz, "ghz(n): n-qubit GHZ state"),
    "w": (w, "w(n): n-qubit W state"),
    "werner": (werner, "werner(d, lambda): two-qudit Werner state"),
    "trine": (lambda: trine_cq().state, "CQ trine state (qutrit register, qubit ensemble)"),
    "cq-example": (lambda: cq_example().state, "(|00><00| + |1+><1+|)/2"),
    "cq-example-pure": (cq_example_pure, "(|00> + |1+>)/sqrt(2) pure cousin"),
    "two-bell": (two_bell, "|phi+>_AC (x) |phi+>_BD on A,B,C,D"),
    "domino": (domino_state, "domino-basis mixture with distinct weights (3x3)"),
    "tiles": (tiles_upb_state, "tiles-UPB mixture (3x3)"),
}


def from_catalog(name: str, *args, **kwargs) -> DensityMatrix:
    """The catalog state ``name`` built from the given arguments.

    An unknown name, or arguments that do not fit the builder's signature,
    is a ValidationError; an error raised inside the builder propagates.
    """
    key = name.strip().lower()
    if key not in CATALOG:
        raise ValidationError(
            f"unknown catalog state {name!r}; known: {', '.join(sorted(CATALOG))}"
        )
    build, description = CATALOG[key]
    try:
        inspect.signature(build).bind(*args, **kwargs)
    except TypeError as err:
        raise ValidationError(f"catalog state {key!r} ({description}): {err}") from None
    return build(*args, **kwargs)
