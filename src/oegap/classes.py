"""Constructors, membership validators, and postprocessing for measurement classes.

Covers local projective (LO*), local POVM (LO), one-way LOCC protocols
(LOCC1), separable (SEP), positive-partial-transpose (PPT) and
reduction-criterion (RCT) measurements, plus classical postprocessing.

A product witness (``lostar_povm``, ``lo_povm``) is a ``ProductPovm``: it
keeps one validated local POVM per block, multiplies their volumes, and
contracts a state block by block, so no search builds its Π_k m_k dense
d x d effects.  ``_product_effects`` forms those effects in one broadcast
product, with the same bits as ``np.kron``, and one subsystem permutation;
it runs only where something reads a product witness's ``effects``, and for
``flatten_locc``'s one-way protocols.  ``lostar_povm``'s local POVMs come
from ``core._frame_povm``, the bases' one check.  These witnesses and
``cpp_apply`` combine validated parts, so nothing checks them again but the
class tag and, for a product witness, its block dimensions.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    TOL_PSD,
    PartitionSpec,
    Povm,
    ValidationError,
    _check_tag,
    _exceeds_scaled,
    _frame_povm,
    as_operator,
    dagger,
    embed,
    opnorm,
    min_eig,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
)

RANK1_TOL = 1e-12  # rank1_refine drops eigenvalues at or below this
PRODUCT_TOL = 1e-8  # purity shortfall and residual allowed of a product vector or operator


class SeparabilityVerdict(str, enum.Enum):
    SEPARABLE = "Separable"
    ENTANGLED = "Entangled"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class StochasticMap:
    """Column-stochastic matrix Lambda[j, i] = P(new outcome j | old outcome i)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValidationError("stochastic map must be a matrix")
        if np.any(m < -1e-12):
            raise ValidationError("stochastic map has negative entries")
        col = m.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > 1e-12:
            raise ValidationError("stochastic map columns must sum to 1")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ConditionalMeasurement:
    """One-way LOCC protocol node: measure ``block`` now, then branch on the outcome.

    ``block`` holds subsystem indices (into the global dims), ``povm`` acts on
    that block, and ``then`` holds one follow-up protocol per outcome for the
    remaining blocks (None once every block has been measured).
    """

    block: tuple[int, ...]
    povm: Povm
    then: tuple["ConditionalMeasurement", ...] | None = None

    def __post_init__(self):
        block = tuple(int(i) for i in self.block)
        if list(block) != sorted(set(block)):
            raise ValidationError("protocol block indices must be strictly ascending")
        object.__setattr__(self, "block", block)
        if self.then is not None:
            if len(self.then) != self.povm.n_outcomes:
                raise ValidationError(
                    f"protocol provides {len(self.then)} follow-ups for "
                    f"{self.povm.n_outcomes} outcomes"
                )
            for child in self.then:
                if set(child.block) & set(block):
                    raise ValidationError("follow-up measures an already-measured block")


def _check_product(sizes: Sequence[int], blocks, dims) -> None:
    """Raise unless the blocks cover each subsystem once and block k has dimension sizes[k]."""
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(len(dims))):
        raise ValidationError(
            f"blocks {tuple(blocks)} do not cover each of {len(dims)} subsystems once"
        )
    for size, b in zip(sizes, blocks):
        if size != math.prod(dims[i] for i in b):
            raise ValidationError(
                f"operator dimension {size} does not match subsystems {tuple(b)} of dims {dims}"
            )


def _product_effects(stacks: Sequence[np.ndarray], blocks, dims) -> np.ndarray:
    """Full-space product effects: row r is stacks[0][r] (x) stacks[1][r] (x) ...

    ``stacks[k]`` is an (n, d_k, d_k) array of effects on the subsystems
    ``blocks[k]``, taken in that order; together the blocks must cover every
    subsystem once.  The factors are multiplied by broadcasting from the left,
    the association ``np.kron`` uses, so every entry has the same bits as the
    Kronecker product; one transpose of the whole stack then puts the
    subsystems in their natural order.
    """
    _check_product([s.shape[1] for s in stacks], blocks, dims)
    flat = [i for b in blocks for i in b]
    out = stacks[0]
    for s in stacks[1:]:
        n, m, k = out.shape[0], out.shape[1], s.shape[1]
        out = (out[:, :, None, :, None] * s[:, None, :, None, :]).reshape(n, m * k, m * k)
    n_sub, d = len(dims), int(np.prod(dims))
    order = [flat.index(i) for i in range(n_sub)]
    axes = [0] + [1 + o for o in order] + [1 + n_sub + o for o in order]
    shape = (out.shape[0],) + tuple(dims[i] for i in flat) * 2
    return out.reshape(shape).transpose(axes).reshape(out.shape[0], d, d)


def _grid(counts: Sequence[int]) -> np.ndarray:
    """Row k holds block k's index in every combination, first block slowest."""
    return np.indices(counts).reshape(len(counts), -1)


class ProductPovm(Povm):
    """Tensor product M_1 (x) ... (x) M_n of one validated local POVM per block.

    ``factors[k]`` acts on the subsystems ``blocks[k]`` of ``dims``, in that
    order; the outcomes are the combinations of local outcomes, the first
    block's slowest, labelled by their local labels joined with ",".  A
    product of POVMs is a POVM, so nothing is validated but the class tag
    and the block dimensions.  ``volumes`` multiplies the local volumes, and
    ``expectations`` contracts an operator block by block.  The dense
    ``effects`` and ``labels`` are built on first read, by
    ``_product_effects``, and kept; ``retag`` keeps the factors.
    """

    def __init__(self, factors: Sequence[Povm], blocks, dims, class_tag: str):
        _check_tag(class_tag)
        dims = tuple(int(d) for d in dims)
        _check_product([m.d for m in factors], blocks, dims)
        for name, value in (("factors", tuple(factors)), ("blocks", tuple(blocks)),
                            ("dims", dims), ("class_tag", class_tag)):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return (f"ProductPovm(blocks={self.blocks}, dims={self.dims}, "
                f"n_outcomes={self.n_outcomes}, class_tag={self.class_tag!r})")

    @functools.cached_property
    def effects(self) -> np.ndarray:
        grid = _grid([m.n_outcomes for m in self.factors])
        out = _product_effects([m.effects[i] for m, i in zip(self.factors, grid)], self.blocks, self.dims)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        grid = _grid([m.n_outcomes for m in self.factors])
        return tuple(
            ",".join(m.labels[i] for m, i in zip(self.factors, combo)) for combo in grid.T.tolist()
        )

    @property
    def d(self) -> int:
        return math.prod(self.dims)

    @property
    def n_outcomes(self) -> int:
        return math.prod(m.n_outcomes for m in self.factors)

    def volumes(self) -> np.ndarray:
        """Macrostate volumes V_i = Tr M_i: the products of the local volumes."""
        return functools.reduce(lambda v, w: (v[:, None] * w).ravel(), [m.volumes() for m in self.factors])

    def expectations(self, a: np.ndarray) -> np.ndarray:
        """Re Tr(M_i A), one matrix product per block after one permutation into block order.

        Block k's effects act on the slowest factor of the operator left by
        the blocks before it, X (rows, columns, outcomes so far), whose rows
        and columns then become Tr_k((E_i (x) 1) X).  The largest array is
        the first block's, m_1 (d / d_1)^2 entries.
        """
        flat = [i for b in self.blocks for i in b]
        if flat != sorted(flat):
            a = permute_subsystems(a, self.dims, flat)
        x = a.reshape(self.d, self.d, 1)
        for m in self.factors:
            dk = m.d
            rest = x.shape[0] // dk
            # sum over a, b of X[a r, b s] E_i[b, a]
            x = x.reshape(dk, rest, dk, rest, -1).transpose(1, 3, 4, 2, 0).reshape(-1, dk * dk)
            x = (x @ m.effects.reshape(len(m.effects), -1).T).reshape(rest, rest, -1)
        return np.real(x.ravel())

    def retag(self, class_tag: str) -> "ProductPovm":
        """The same local POVMs under another class tag; no dense effects are built."""
        return ProductPovm(self.factors, self.blocks, self.dims, class_tag)


def lostar_povm(bases, partition: PartitionSpec, dims) -> Povm:
    """Rank-1 product projector POVM from one local basis per block.

    Each basis is a unitary matrix whose columns are the basis vectors; its
    local POVM is ``_frame_povm`` of its bras.
    """
    local = _frame_povm([dagger(as_operator(u)) for u in bases], "General")
    if len(local) != partition.n_blocks:
        raise ValidationError(f"{len(local)} bases for {partition.n_blocks} blocks")
    return ProductPovm(local, partition.blocks, dims, "LOStar")


def lo_povm(povms: Sequence[Povm], partition: PartitionSpec, dims) -> Povm:
    """Tensor product of one local POVM per block."""
    if len(povms) != partition.n_blocks:
        raise ValidationError(f"{len(povms)} local POVMs for {partition.n_blocks} blocks")
    return ProductPovm(povms, partition.blocks, dims, "LO")


def flatten_locc(protocol: ConditionalMeasurement, dims) -> Povm:
    """Global POVM of a one-way protocol: product effects A_i (x) B_j|i (x) ... and path labels.

    Outcomes are listed depth first.  The outcome paths that measure the same
    blocks in the same order are assembled by one ``_product_effects`` call;
    subsystems that a path leaves unmeasured get an identity factor.
    """
    dims = tuple(int(d) for d in dims)
    paths: dict[tuple, list] = {}  # block order -> [(outcome index, local effects)]
    labels: list[str] = []

    def _walk(node: ConditionalMeasurement, factors: tuple, blocks: tuple, label: str):
        blocks = blocks + (node.block,)
        for i, name in enumerate(node.povm.labels):
            here = factors + (node.povm.effects[i],)
            tag = f"{label};{name}" if label else name
            if node.then is None:
                paths.setdefault(blocks, []).append((len(labels), here))
                labels.append(tag)
            else:
                _walk(node.then[i], here, blocks, tag)

    _walk(protocol, (), (), "")
    d = int(np.prod(dims))
    effects = np.empty((len(labels), d, d), dtype=complex)
    for blocks, rows in paths.items():
        stacks = [np.array(s) for s in zip(*(f for _, f in rows))]
        rest = tuple(i for i in range(len(dims)) if not any(i in b for b in blocks))
        if rest:
            d_rest = int(np.prod([dims[i] for i in rest]))
            stacks.append(np.broadcast_to(np.eye(d_rest), (len(rows), d_rest, d_rest)))
            blocks += (rest,)
        effects[[r for r, _ in rows]] = _product_effects(stacks, blocks, dims)
    return Povm._built(effects, labels, "LOCC1")


def rank1_refine(povm: Povm) -> Povm:
    """Split every effect into rank-1 pieces; the input is a rebinning of the output.

    The first nonzero amplitude of each piece is made real positive so
    outputs are reproducible.
    """
    effects = []
    labels = []
    for idx in range(povm.n_outcomes):
        eff = povm.effects[idx]
        vals, vecs = np.linalg.eigh(0.5 * (eff + dagger(eff)))
        pieces = 0
        for lam, v in zip(vals[::-1], vecs.T[::-1]):
            if lam <= RANK1_TOL:
                continue
            k = int(np.argmax(np.abs(v) > 1e-8))
            v = v * np.exp(-1j * np.angle(v[k]))
            effects.append(lam * np.outer(v, v.conj()))
            labels.append(f"{povm.labels[idx]}.{pieces}")
            pieces += 1
        if pieces == 0:
            # keep a zero-ish effect so rebinning reproduces the input exactly
            effects.append(np.array(eff))
            labels.append(f"{povm.labels[idx]}.0")
    return Povm(np.array(effects), tuple(labels), "Unverified")


def cpp_apply(stoch, povm: Povm) -> Povm:
    """Classical postprocessing: new effects N_j = sum_i Lambda[j, i] M_i."""
    if not isinstance(stoch, StochasticMap):
        stoch = StochasticMap(np.asarray(stoch, dtype=float))
    lam = stoch.matrix
    if lam.shape[1] != povm.n_outcomes:
        raise ValidationError(
            f"stochastic map expects {lam.shape[1]} outcomes, POVM has {povm.n_outcomes}"
        )
    effects = np.einsum("ji,iab->jab", lam, povm.effects)
    tag = povm.class_tag
    if tag in ("LOStar", "LO", "LOCC1"):
        tag = "SEP"  # positive sums of product effects stay separable, not product
    elif tag not in ("General", "SEP", "PPT", "RCT"):
        tag = "Unverified"
    return Povm._built(effects, class_tag=tag)


def _bipartition_subsets(n_blocks: int, include_complements: bool):
    """Nonempty proper subsets of block indices; complements dropped when redundant."""
    seen = set()
    for r in range(1, n_blocks):
        for subset in itertools.combinations(range(n_blocks), r):
            comp = tuple(i for i in range(n_blocks) if i not in subset)
            if not include_complements and comp in seen:
                continue
            seen.add(subset)
            yield subset


def effect_is_ppt(effect: np.ndarray, partition: PartitionSpec, dims) -> bool:
    """True when every block-bipartition partial transpose of the effect is PSD."""
    a = as_operator(effect)
    dims = tuple(int(d) for d in dims)
    for subset in _bipartition_subsets(partition.n_blocks, include_complements=False):
        subs = [i for k in subset for i in partition.blocks[k]]
        if _exceeds_scaled(-min_eig(partial_transpose(a, dims, subs)), TOL_PSD, a):
            return False
    return True


def is_ppt(povm: Povm, partition: PartitionSpec, dims) -> list[bool]:
    """Per-effect PPT verdicts for a POVM."""
    return [effect_is_ppt(e, partition, dims) for e in povm.effects]


def effect_is_rct(effect: np.ndarray, partition: PartitionSpec, dims) -> bool:
    """Reduction criterion: (Tr_rest M) (x) 1 - M is PSD for every block bipartition."""
    a = as_operator(effect)
    dims = tuple(int(d) for d in dims)
    for subset in _bipartition_subsets(partition.n_blocks, include_complements=True):
        subs = sorted(i for k in subset for i in partition.blocks[k])
        marginal = partial_trace(a, dims, subs)
        lifted = embed(marginal, subs, dims)
        if _exceeds_scaled(-min_eig(lifted - a), TOL_PSD, a):
            return False
    return True


def is_rct(povm: Povm, partition: PartitionSpec, dims) -> list[bool]:
    """Per-effect reduction-criterion verdicts for a POVM."""
    return [effect_is_rct(e, partition, dims) for e in povm.effects]


def product_vector_factors(vec, partition: PartitionSpec, dims):
    """Factor a vector as a tensor product across blocks, or return None.

    A vector is a product across the partition iff each block marginal of its
    dyad is pure; the factors are the top eigenvectors.
    """
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return None
    v = v / norm
    dims = tuple(int(d) for d in dims)
    dyad = np.outer(v, v.conj())
    factors = []
    for block in partition.blocks:
        red = partial_trace(dyad, dims, block)
        vals, vecs = np.linalg.eigh(red)
        if vals[-1] < 1.0 - PRODUCT_TOL:
            return None
        factors.append(vecs[:, -1])
    rebuilt = tensor(factors)
    flat = [i for b in partition.blocks for i in b]
    order = [flat.index(i) for i in range(len(dims))]
    rebuilt = rebuilt.reshape([dims[i] for i in flat]).transpose(order).ravel()
    k = int(np.argmax(np.abs(rebuilt)))
    phase = v[k] / rebuilt[k]
    if np.linalg.norm(v - phase * rebuilt) > 10 * PRODUCT_TOL:
        return None
    factors[0] = factors[0] * phase
    return factors


def _try_product_operator(effect: np.ndarray, partition: PartitionSpec, dims):
    """Check whether the effect factorizes as a single tensor product of PSD blocks."""
    tr = float(np.real(np.trace(effect)))
    if tr <= PRODUCT_TOL:
        return None
    parts = [partial_trace(effect, dims, block) / tr for block in partition.blocks]
    rebuilt = tr * _product_effects([p[None] for p in parts], partition.blocks, dims)[0]
    if _exceeds_scaled(opnorm(rebuilt - effect), PRODUCT_TOL, effect):
        return None
    return parts


def is_separable_effect(effect: np.ndarray, partition: PartitionSpec, dims) -> SeparabilityVerdict:
    """Three-valued separability test for a PSD effect.

    Separable when a product-sum decomposition is exhibited (a single product
    factorization, or every eigenvector with nonzero eigenvalue is a product
    vector); Entangled when some partial transpose fails; Unknown otherwise.
    Deciding separability in general is out of reach at this scale.
    """
    a = as_operator(effect)
    dims = tuple(int(d) for d in dims)
    if opnorm(a) <= 1e-12:
        return SeparabilityVerdict.SEPARABLE
    if not effect_is_ppt(a, partition, dims):
        return SeparabilityVerdict.ENTANGLED
    if partition.n_blocks < 2:
        return SeparabilityVerdict.SEPARABLE
    if _try_product_operator(a, partition, dims) is not None:
        return SeparabilityVerdict.SEPARABLE
    vals, vecs = np.linalg.eigh(0.5 * (a + dagger(a)))
    all_product = True
    for lam, v in zip(vals, vecs.T):
        if lam <= 1e-10:
            continue
        if product_vector_factors(v, partition, dims) is None:
            all_product = False
            break
    if all_product:
        return SeparabilityVerdict.SEPARABLE
    return SeparabilityVerdict.UNKNOWN
