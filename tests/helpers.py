"""Shared generators and small oracles for the test suite."""

import numpy as np

from oegap.core import DensityMatrix, Povm, embed, partial_trace, spectral


def random_density(rng, dims, rank=None) -> DensityMatrix:
    d = int(np.prod(dims))
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat), dims)


def random_pure(rng, dims) -> DensityMatrix:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def random_povm(rng, d, k) -> Povm:
    mats = []
    for _ in range(k):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(1 / np.sqrt(vals)) @ vecs.conj().T
    effects = np.array([inv_sqrt @ m @ inv_sqrt for m in mats])
    effects = 0.5 * (effects + np.conj(np.transpose(effects, (0, 2, 1))))
    return Povm(effects)


def random_unitary(rng, d) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_basis_povm(rng, d) -> Povm:
    return Povm.from_basis(random_unitary(rng, d))


def pt_oracle(mat, da, db, on_second=True):
    """Partial transpose by explicit index loops, independent of the library path."""
    out = np.zeros((da * db, da * db), dtype=complex)
    for a in range(da):
        for b in range(db):
            for c in range(da):
                for e in range(db):
                    if on_second:
                        out[a * db + b, c * db + e] = mat[a * db + e, c * db + b]
                    else:
                        out[a * db + b, c * db + e] = mat[c * db + b, a * db + e]
    return out


def shannon_oracle(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-14]
    return float(-(p * np.log2(p)).sum())


def conditional_reference(mat, dims, pos, effect):
    """Weight p and state Tr_pos[(E (x) 1) rho] / p of the subsystems outside ``pos``.

    The effect is embedded, multiplied and traced out one at a time; at
    p <= 1e-14 the conditional state is maximally mixed.
    """
    lifted = embed(effect, pos, dims) @ mat
    p = float(np.real(np.trace(lifted)))
    rest = tuple(j for j in range(len(dims)) if j not in pos)
    if p <= 1e-14:
        n = int(np.prod([dims[j] for j in rest]))
        return p, np.eye(n) / n
    cond = partial_trace(lifted, dims, rest) / p
    return p, 0.5 * (cond + cond.conj().T)


def certify_svd_reference(rho, povm):
    """certify_optimal's support check with every norm from a stacked SVD: (failing index, reason).

    The same steps as the library's: each effect's residual at the cluster
    holding most of its trace, then, for an effect that fails there, its
    best residual over all clusters; (None, None) when every effect passes.
    """
    eff = povm.effects
    proj = np.array(spectral(rho.mat).projectors)
    scale = np.linalg.svd(eff, compute_uv=False)[:, 0]
    home = proj[np.argmax(np.real(np.einsum("kab,iba->ik", proj, eff)), axis=1)]
    residual = np.linalg.svd(eff - home @ eff @ home, compute_uv=False)[:, 0]
    for idx in np.flatnonzero((scale > 1e-12) & (residual > 1e-8 * scale)):
        best = np.linalg.svd(eff[idx] - proj @ eff[idx] @ proj, compute_uv=False)[:, 0].min()
        if best > 1e-8 * scale[idx]:
            return int(idx), f"effect {idx} is not supported on a single eigenspace (best residual {best:.3e})"
    return None, None
