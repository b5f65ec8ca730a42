"""Validated quantum data types and dense complex linear algebra.

Operators are plain ``numpy.ndarray`` objects (complex128, row-major); the
dataclasses in this module attach subsystem dimensions and enforce the
physical invariants (Hermiticity, positivity, unit trace, completeness) at
construction time.  A POVM is validated as one (k, d, d) stack of effects,
with one batched ``eigvalsh`` rather than a loop over its effects.  A state
is validated and eigendecomposed once: ``DensityMatrix`` keeps the ``eigh``
its validation computes, and the entropies, ``spectral`` and
``pure_vector`` read it.  Every spectral norm comes from a Hermitian
eigensolve, not an SVD (``opnorm``).
All entropies elsewhere in the package are in bits.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_DIM = 256

TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_COMPLETE = 1e-9
TOL_TRACE = 1e-10
CLUSTER_TOL = 1e-8
TOL_PURE = 1e-9  # is_pure: purity at least 1 - TOL_PURE
TOL_PURE_VECTOR = 1e-8  # pure_vector rejects a purity below 1 - TOL_PURE_VECTOR
TOL_PROJECTIVE = 1e-8  # is_projective: largest ||M_i M_j - delta_ij M_i||
ZERO_ROW = 1e-7  # _frame_povm drops a frame row of at most this norm: it is no outcome
GRAM_MIN, GRAM_MAX = 1e-250, 1e250  # opnorm: range of Tr(A^dag A) taken without rescaling

CLASS_TAGS = (
    "General",
    "LOStar",
    "LO",
    "LOCC1",
    "SEP",
    "PPT",
    "RCT",
    "Unverified",
)


class ValidationError(ValueError):
    """A state, POVM, or partition violates one of its invariants."""


def as_operator(mat) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def opnorm(a: np.ndarray) -> float | np.ndarray:
    """Spectral norm sigma_max(A) = sqrt(lambda_max(A^dag A)); a stack (..., m, n) gives one per matrix.

    The largest eigenvalue of the Gram matrix (taken on the smaller side)
    comes from ``eigvalsh``, which is backward stable, so the norm is within
    O(n eps) of sigma_max relative to itself, at a fraction of an SVD's cost.
    A matrix whose squared Frobenius norm Tr(A^dag A) lies outside
    [GRAM_MIN, GRAM_MAX], where the Gram matrix could overflow or lose
    digits to underflow, is divided by its largest |entry| first.  A single
    matrix gives a float, a stack an array.
    """
    a = np.asarray(a)
    stack = a.reshape((-1,) + a.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(stack)
    frob2 = gram.trace(axis1=1, axis2=2).real
    peak = np.ones(len(stack))
    rescale = ~((frob2 >= GRAM_MIN) & (frob2 <= GRAM_MAX))
    if rescale.any():
        entry = np.abs(stack[rescale]).max(axis=(1, 2))
        peak[rescale] = np.where(entry > 0.0, entry, 1.0)
        gram = _gram(stack / peak[:, None, None])
    norm = peak * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    return float(norm[0]) if a.ndim == 2 else norm.reshape(a.shape[:-2])


def _gram(stack: np.ndarray) -> np.ndarray:
    """A^dag A or A A^dag for each matrix A of a stack, whichever is smaller."""
    return dagger(stack) @ stack if stack.shape[-2] >= stack.shape[-1] else stack @ dagger(stack)


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a non-empty list of matrices."""
    if len(ops) == 0:
        raise ValidationError("tensor() requires at least one operator")
    return functools.reduce(np.kron, [np.asarray(op, dtype=complex) for op in ops])


def _check_dims(op: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"subsystem dimensions must be >= 1, got {dims}")
    total = int(np.prod(dims))
    if total != op.shape[0]:
        raise ValidationError(
            f"product of dims {dims} is {total}, operator dimension is {op.shape[0]}"
        )
    return dims


def _check_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValidationError(f"subsystem indices {idx} contain duplicates")
    for i in idx:
        if not 0 <= i < n:
            raise ValidationError(f"subsystem index {i} out of range for {n} factors")
    return idx


def permute_subsystems(op: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of an operator; ``order[k]`` is the old index of new factor k."""
    a = as_operator(op)
    dims = _check_dims(a, dims)
    n = len(dims)
    order = _check_indices(order, n)
    if len(order) != n:
        raise ValidationError("order must list every subsystem exactly once")
    t = a.reshape(dims + dims)
    perm = list(order) + [n + i for i in order]
    d = a.shape[0]
    return np.ascontiguousarray(t.transpose(perm).reshape(d, d))


def partial_trace(op: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all factors not in ``keep``; kept factors stay in ascending index order."""
    a = as_operator(op)
    dims = _check_dims(a, dims)
    n = len(dims)
    keep = tuple(sorted(_check_indices(keep, n)))
    t = a.reshape(dims + dims)
    letters = string.ascii_letters
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(letters[n + i] for i in keep)
    sub = "".join(row) + "".join(col) + "->" + out
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.ascontiguousarray(np.einsum(sub, t).reshape(dk, dk))


def partial_transpose(op: np.ndarray, dims: Sequence[int], subsys: Iterable[int]) -> np.ndarray:
    """Transpose the chosen tensor factors, leaving the rest untouched."""
    a = as_operator(op)
    dims = _check_dims(a, dims)
    n = len(dims)
    subsys = _check_indices(subsys, n)
    t = a.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in subsys:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    d = a.shape[0]
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def embed(op: np.ndarray, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Operator acting as ``op`` on ``subsys`` (in the given order) and as identity elsewhere."""
    a = as_operator(op)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    subsys = _check_indices(subsys, n)
    d_sub = int(np.prod([dims[i] for i in subsys]))
    if a.shape[0] != d_sub:
        raise ValidationError(
            f"operator dimension {a.shape[0]} does not match subsystems {subsys} of dims {dims}"
        )
    rest = [i for i in range(n) if i not in subsys]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(a, np.eye(d_rest))
    # big lives on (subsys..., rest...); permute back to natural order
    current = list(subsys) + rest
    order = [current.index(i) for i in range(n)]
    return permute_subsystems(big, [dims[i] for i in current], order)


def is_hermitian(a: np.ndarray) -> bool:
    """Whether ||A - A^dag|| <= TOL_HERM * max(1, ||A||); ||A|| is only needed above TOL_HERM.

    i(A - A^dag) is exactly Hermitian in floating point, so its norm is its
    largest |eigenvalue|.
    """
    vals = np.linalg.eigvalsh(1j * (a - dagger(a)))
    return not _exceeds_scaled(max(-vals[0], vals[-1]), TOL_HERM, a)


def _exceeds_scaled(x: float, tol: float, a: np.ndarray) -> bool:
    """Whether x > tol * max(1, ||A||), with ||A|| computed only when x > tol.

    As max(1, ||A||) >= 1, no x <= tol can exceed the scaled tolerance.
    """
    return x > tol and x > tol * max(1.0, opnorm(a))


def min_eig(a: np.ndarray) -> float:
    h = 0.5 * (a + dagger(a))
    return float(np.linalg.eigvalsh(h)[0])


# ---------------------------------------------------------------------------
# validation reports


def validate_state(mat, dims=None) -> list[str]:
    """List every violated state invariant with its magnitude; empty means valid."""
    problems: list[str] = []
    try:
        a = as_operator(mat)
    except ValidationError as err:
        return [str(err)]
    d = a.shape[0]
    if d > MAX_DIM:
        problems.append(f"dimension {d} exceeds the supported cap of {MAX_DIM}")
        return problems
    if dims is not None:
        try:
            _check_dims(a, dims)
        except ValidationError as err:
            problems.append(str(err))
            return problems
    (herm,), (low,), (scale,) = _hermitian_psd_checks(a[None])
    if herm > TOL_HERM:
        problems.append(f"not Hermitian: relative asymmetry {herm:.3e}")
    if low < -TOL_PSD * scale:
        problems.append(f"not positive semidefinite: min eigenvalue {low:.3e}")
    tr = abs(np.trace(a) - 1.0)
    if tr > TOL_TRACE:
        problems.append(f"trace differs from 1 by {tr:.3e}")
    return problems


def validate_povm(effects) -> list[str]:
    """List every violated POVM invariant with its magnitude; empty means valid.

    The effects are checked as one (k, d, d) stack by ``_hermitian_psd_checks``:
    one batched ``eigvalsh`` gives their asymmetries and least eigenvalues,
    and their norms are computed only for effects that could fail.  The
    completeness violation's spectral norm is computed only when an upper
    bound on it, d times its largest |entry|, exceeds TOL_COMPLETE.
    Problems are listed by effect, Hermitian before PSD, then completeness.
    """
    if not isinstance(effects, np.ndarray):
        effects = list(effects)
    if len(effects) == 0:
        return ["POVM has no effects"]
    try:
        stack = np.asarray(effects, dtype=complex)
    except ValueError:  # effects of different shapes
        return _malformed_povm(effects)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not np.all(np.isfinite(stack)):
        return _malformed_povm(effects)
    d = stack.shape[1]
    if d == 0:
        return ["effects have dimension 0"]
    if d > MAX_DIM:
        return [f"dimension {d} exceeds the supported cap of {MAX_DIM}"]
    problems = _effect_problems(stack)
    deficit = stack.sum(axis=0) - np.eye(d)
    # ||X|| <= d max |X_ij|, so the spectral norm is needed only where that bound exceeds the tolerance
    if d * np.abs(deficit).max() > TOL_COMPLETE:
        gap = opnorm(deficit)
        if gap > TOL_COMPLETE:
            problems.append(f"completeness violation of norm {gap:.3e}")
    return problems


def _malformed_povm(effects) -> list[str]:
    """Problems of effects that do not form a finite (k, d, d) stack.

    Reports the first effect that is not a finite square matrix; otherwise the
    first effect whose dimension differs from effect 0's, after the problems
    of the effects before it.
    """
    try:
        mats = [as_operator(e) for e in effects]
    except ValidationError as err:
        return [str(err)]
    d = mats[0].shape[0]
    if d > MAX_DIM:
        return [f"dimension {d} exceeds the supported cap of {MAX_DIM}"]
    bad = next(i for i, e in enumerate(mats) if e.shape[0] != d)
    problems = _effect_problems(np.array(mats[:bad]))
    return problems + [f"effect {bad} has dimension {mats[bad].shape[0]}, expected {d}"]


def _hermitian_psd_checks(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative asymmetry, least eigenvalue and scale of each matrix A of a (k, d, d) stack.

    The asymmetry ||A - A^dag|| and the least eigenvalue of (A + A^dag) / 2
    come from one ``eigvalsh`` over the 2k matrices i(A - A^dag) and
    (A + A^dag) / 2, both exactly Hermitian in floating point, so the norm
    of the first is its largest |eigenvalue|.  A check fails when
    asymmetry / scale > TOL_HERM or the least eigenvalue is below -TOL_PSD *
    scale, with scale = max(1, ||A||).  As scale >= 1 neither can fail where
    the asymmetry is at most TOL_HERM and the least eigenvalue at least
    -TOL_PSD, so ||A|| is computed only for the other matrices; the scale is
    1 where it is not computed, which gives the same verdicts.
    """
    k = stack.shape[0]
    adjoint = dagger(stack)
    vals = np.linalg.eigvalsh(np.concatenate([1j * (stack - adjoint), 0.5 * (stack + adjoint)]))
    asym, low = np.maximum(-vals[:k, 0], vals[:k, -1]), vals[k:, 0]
    scale = np.ones(k)
    suspect = (asym > TOL_HERM) | (low < -TOL_PSD)
    if suspect.any():
        scale[suspect] = np.maximum(1.0, opnorm(stack[suspect]))
    return asym / scale, low, scale


def _effect_problems(stack: np.ndarray) -> list[str]:
    """Hermiticity and positivity problems of a (k, d, d) stack, by effect index."""
    herm, low, scale = _hermitian_psd_checks(stack)
    problems = []
    for i in np.flatnonzero((herm > TOL_HERM) | (low < -TOL_PSD * scale)):
        if herm[i] > TOL_HERM:
            problems.append(f"effect {i} not Hermitian: relative asymmetry {herm[i]:.3e}")
        if low[i] < -TOL_PSD * scale[i]:
            problems.append(f"effect {i} not PSD: min eigenvalue {low[i]:.3e}")
    return problems


# ---------------------------------------------------------------------------
# data types


def _hermitian_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of (A + A^dag) / 2, read-only: ascending eigenvalues, eigenvectors as columns."""
    vals, vecs = np.linalg.eigh(0.5 * (a + dagger(a)))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _validated_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_hermitian_eigh`` of a state matrix; raises ``ValidationError`` on ``validate_state``'s problems.

    The matrix passes at once when ||A - A^dag|| <= d max |A - A^dag| and the
    least eigenvalue of (A + A^dag) / 2 both lie within half their
    tolerances, and the trace within TOL_TRACE, as ``validate_state``
    computes it.  With half a tolerance to spare, no rounding difference
    between this ``eigh`` and ``validate_state``'s ``eigvalsh`` can flip a
    verdict, so ``validate_state`` itself runs only for the other matrices,
    and its problems are the message, word for word.
    """
    d = a.shape[0]
    if d <= MAX_DIM:  # above it, validate_state reports the cap
        vals, vecs = _hermitian_eigh(a)
        if (
            d * np.abs(a - dagger(a)).max() <= 0.5 * TOL_HERM
            and vals[0] >= -0.5 * TOL_PSD
            and abs(np.trace(a) - 1.0) <= TOL_TRACE
        ):
            return vals, vecs
    problems = validate_state(a)
    if problems:
        raise ValidationError("invalid state: " + "; ".join(problems))
    return vals, vecs


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace operator with a subsystem-dimension vector.

    A state is validated and eigendecomposed once, when it is built.
    ``eigenvalues`` (ascending) and ``eigenvectors`` (columns) are the
    ``eigh`` of (mat + mat^dag) / 2 that validation computes; ``von_neumann``,
    ``quantum_relative_entropy``, ``spectral`` and ``pure_vector`` read them
    instead of decomposing ``mat`` again.  ``coarse_grain`` and ``reduced``
    build states from validated ones through ``_built``, which decomposes
    without checking.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_operator(self.mat)
        dims = _check_dims(a, self.dims)
        self._store(a.copy(), dims, *_validated_eigh(a))

    @classmethod
    def _built(cls, mat: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """A state the package built from a validated one: decomposed, not checked.

        ``mat`` is a (d, d) complex array that nothing else writes to; it is
        stored read-only without a copy.
        """
        out = object.__new__(cls)
        out._store(mat, dims, *_hermitian_eigh(mat))
        return out

    def _store(self, mat: np.ndarray, dims: tuple[int, ...], vals: np.ndarray, vecs: np.ndarray):
        mat.flags.writeable = False
        for name, value in zip(("mat", "dims", "eigenvalues", "eigenvectors"), (mat, dims, vals, vecs)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def reduced(self, keep: Iterable[int]) -> "DensityMatrix":
        keep = tuple(sorted(_check_indices(keep, len(self.dims))))
        sub = partial_trace(self.mat, self.dims, keep)
        return DensityMatrix._built(sub, tuple(self.dims[i] for i in keep))

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def is_pure(self) -> bool:
        return self.purity() >= 1.0 - TOL_PURE

    def pure_vector(self) -> np.ndarray:
        """State vector of a pure state (global phase fixed); raises if mixed."""
        if self.purity() < 1.0 - TOL_PURE_VECTOR:
            raise ValidationError("state is not pure")
        v = self.eigenvectors[:, -1]
        k = int(np.argmax(np.abs(v)))
        return v * np.exp(-1j * np.angle(v[k]))


def _check_tag(class_tag: str) -> None:
    if class_tag not in CLASS_TAGS:
        raise ValidationError(f"unknown class tag {class_tag!r}")


def _labels(labels, n: int) -> tuple[str, ...]:
    """Labels as strings; "0" to "n-1" when there are none."""
    return tuple(str(x) for x in labels) or tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class Povm:
    """Finite list of PSD effects summing to identity, with class tag and labels.

    ``effects`` is stored as a (k, d, d) array; the class tag records which
    measurement class the POVM is claimed to belong to (``Unverified`` when
    nothing is claimed).
    """

    effects: np.ndarray
    labels: tuple[str, ...] = ()
    class_tag: str = "Unverified"

    def __post_init__(self):
        try:
            eff = np.asarray(self.effects, dtype=complex)
        except ValueError:  # effects of different shapes: validate_povm names the odd one out
            eff = list(self.effects)
        else:
            if eff.ndim in (0, 2):  # one effect; a scalar then fails validate_povm's shape check
                eff = eff[None]
        problems = validate_povm(eff)
        if problems:
            raise ValidationError("invalid POVM: " + "; ".join(problems))
        labels = _labels(self.labels, eff.shape[0])
        if len(labels) != eff.shape[0]:
            raise ValidationError(
                f"{len(labels)} labels for {eff.shape[0]} effects"
            )
        _check_tag(self.class_tag)
        eff = eff.copy()
        eff.flags.writeable = False
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def volumes(self) -> np.ndarray:
        """Macrostate volumes V_i = Tr M_i."""
        return self.effects.trace(axis1=1, axis2=2).real

    def is_projective(self) -> bool:
        for i in range(self.n_outcomes):
            for j in range(self.n_outcomes):
                prod = self.effects[i] @ self.effects[j]
                ref = self.effects[i] if i == j else 0.0
                if opnorm(prod - ref) > TOL_PROJECTIVE:
                    return False
        return True

    @classmethod
    def _built(cls, effects: np.ndarray, labels=(), class_tag: str = "Unverified") -> "Povm":
        """A POVM whose effects the package built from validated parts: only the tag is checked.

        ``effects`` is a (k, d, d) complex array that nothing else writes to;
        it is stored read-only without a copy.
        """
        _check_tag(class_tag)
        effects.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "effects", effects)
        object.__setattr__(out, "labels", _labels(labels, len(effects)))
        object.__setattr__(out, "class_tag", class_tag)
        return out

    def retag(self, class_tag: str) -> "Povm":
        """The same read-only effects and labels under another class tag."""
        return Povm._built(self.effects, self.labels, class_tag)

    @staticmethod
    def trivial(d: int) -> "Povm":
        return Povm(np.eye(d)[None, :, :], ("all",), "General")

    @staticmethod
    def from_basis(basis: np.ndarray, class_tag: str = "General") -> "Povm":
        """Rank-1 projective POVM from the columns of a unitary: ``_frame_povm`` of its bras."""
        return _frame_povm(dagger(as_operator(basis)), class_tag)


def _frame_povm(frames, class_tag: str = "Unverified"):
    """Validated POVM of a frame's rows: effect |q_i^*><q_i^*| for each row q_i of norm above ZERO_ROW.

    The kept rows Q must be finite and an isometry (unitary, for a basis's
    bras): ||Q^dag Q - 1|| <= TOL_COMPLETE.  The effects are Hermitian PSD
    dyads summing to Q^dag Q, so this is ``validate_povm``'s completeness
    test, the only one they can fail; frames of one shape are checked as one
    stack, ``opnorm`` only where d max |X_ij| >= ||X|| exceeds the tolerance.
    One (m, d) array gives one ``Povm``; a sequence, a list.
    """
    single = isinstance(frames, np.ndarray) and frames.ndim == 2
    frames = [frames] if single else list(frames)
    povms = [None] * len(frames)
    for m, d in dict.fromkeys(np.shape(q) for q in frames):
        index = [i for i, q in enumerate(frames) if np.shape(q) == (m, d)]
        stack = np.array([frames[i] for i in index], dtype=complex)
        if not np.isfinite(stack).all():
            raise ValidationError("frame contains NaN or Inf entries")
        live = np.linalg.norm(stack, axis=-1) > ZERO_ROW
        kept = stack * live[..., None]  # a dropped row adds exact zeros to Q^dag Q
        residual = dagger(kept) @ kept - np.eye(d)
        for j in np.flatnonzero(d * np.abs(residual).max(axis=(1, 2)) > TOL_COMPLETE):
            gap = opnorm(residual[j])
            if gap > TOL_COMPLETE:
                what = "basis not unitary" if m == d else "frame not an isometry"
                raise ValidationError(f"{what}: completeness violation of norm {gap:.3e}")
        for i, q, rows in zip(index, stack, live):
            povms[i] = Povm._built(q[rows].conj()[:, :, None] * q[rows][:, None, :], class_tag=class_tag)
    return povms[0] if single else povms


@dataclass(frozen=True)
class PartitionSpec:
    """Grouping of subsystem indices into disjoint, exhaustive blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        if any(len(b) == 0 for b in blocks):
            raise ValidationError("partition contains an empty block")
        flat = [i for b in blocks for i in b]
        if len(set(flat)) != len(flat):
            raise ValidationError("partition blocks are not disjoint")
        if sorted(flat) != list(range(len(flat))):
            raise ValidationError(
                f"partition must cover indices 0..{len(flat) - 1} exactly, got {sorted(flat)}"
            )
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_subsystems(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_dims(self, dims: Sequence[int]) -> tuple[int, ...]:
        dims = tuple(dims)
        if len(dims) != self.n_subsystems:
            raise ValidationError(
                f"partition covers {self.n_subsystems} subsystems, state has {len(dims)}"
            )
        return tuple(int(np.prod([dims[i] for i in b])) for b in self.blocks)

    def refines(self, other: "PartitionSpec") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n_subsystems != other.n_subsystems:
            return False
        where = {}
        for k, blk in enumerate(other.blocks):
            for i in blk:
                where[i] = k
        return all(len({where[i] for i in b}) == 1 for b in self.blocks)

    def shape_string(self) -> str:
        return "+".join(str(s) for s in sorted(len(b) for b in self.blocks))

    @staticmethod
    def full(n: int) -> "PartitionSpec":
        return PartitionSpec(tuple((i,) for i in range(n)))

    @staticmethod
    def single(n: int) -> "PartitionSpec":
        return PartitionSpec((tuple(range(n)),))

    @staticmethod
    def from_string(text: str, n: int) -> "PartitionSpec":
        """Parse partition notation like ``"AB|CD"`` (letters A..Z are subsystems)."""
        text = text.strip().upper()
        if not text:
            return PartitionSpec.full(n)
        blocks = []
        for part in text.split("|"):
            block = []
            for ch in part.strip():
                idx = ord(ch) - ord("A")
                if not 0 <= idx < n:
                    raise ValidationError(f"subsystem letter {ch!r} out of range for {n} parties")
                block.append(idx)
            blocks.append(tuple(block))
        spec = PartitionSpec(tuple(blocks))
        if spec.n_subsystems != n:
            raise ValidationError(f"partition {text!r} does not cover all {n} subsystems")
        return spec

    def __str__(self) -> str:
        return "|".join("".join(chr(ord("A") + i) for i in b) for b in self.blocks)


@dataclass(frozen=True)
class Spectrum:
    """Clustered spectral decomposition: distinct eigenvalues with eigenprojectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("k,kab->ab", self.eigenvalues, self.projectors)


def spectral(op) -> Spectrum:
    """Spectral decomposition with eigenvalues clustered into distinct groups.

    Eigenvalues closer than ``CLUSTER_TOL`` are merged greedily in sorted
    order; each cluster's projector is the sum of its eigenvector dyads and
    its reported eigenvalue is the multiplicity-weighted mean.  A
    ``DensityMatrix`` gives the decomposition it carries; a matrix is checked
    Hermitian and decomposed here.
    """
    if isinstance(op, DensityMatrix):
        vals, vecs = op.eigenvalues, op.eigenvectors
    else:
        a = as_operator(op)
        if not is_hermitian(a):
            raise ValidationError("spectral() requires a Hermitian matrix")
        vals, vecs = np.linalg.eigh(0.5 * (a + dagger(a)))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    # a cluster starts wherever the next eigenvalue is more than CLUSTER_TOL below
    starts = np.flatnonzero(np.concatenate([[True], vals[:-1] - vals[1:] > CLUSTER_TOL]))
    sizes = np.diff(np.append(starts, len(vals)))
    dyads = np.einsum("ai,bi->iab", vecs, vecs.conj())
    projectors = np.add.reduceat(dyads, starts, axis=0)
    eigenvalues = np.add.reduceat(vals, starts) / sizes
    return Spectrum(tuple(eigenvalues.tolist()), tuple(projectors), tuple(sizes.tolist()))


def schmidt(
    vec, dims: Sequence[int], left: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a vector across the bipartition (left, rest).

    Returns descending non-negative coefficients plus orthonormal vectors on
    each side (as matrix columns), so that
    ``vec = sum_k c[k] * kron(lvecs[:, k], rvecs[:, k])`` after permuting the
    left factors to the front.
    """
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValidationError("cannot Schmidt-decompose the zero vector")
    v = v / norm
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != v.size:
        raise ValidationError(f"product of dims {dims} does not match vector length {v.size}")
    n = len(dims)
    left = tuple(sorted(_check_indices(left, n)))
    right = tuple(i for i in range(n) if i not in left)
    if not left or not right:
        raise ValidationError("split must leave factors on both sides")
    t = v.reshape(dims).transpose(left + right)
    dl = int(np.prod([dims[i] for i in left]))
    dr = int(np.prod([dims[i] for i in right]))
    u, s, vh = np.linalg.svd(t.reshape(dl, dr), full_matrices=False)
    keep = s > 1e-12
    if not np.any(keep):
        keep = s >= s[0]
    return s[keep], u[:, keep], vh[keep, :].T
