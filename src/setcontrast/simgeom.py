"""Similarity geometry: pairwise similarity triples, a symmetric
eigendecomposition with its eigenvalue gradient, and sorted spectrum
products.

Eigenvalues come from LAPACK through ``np.linalg.eigh``. The gradient
rule d lambda_i / dM = u_i u_i^T is exact for a simple eigenvalue; inside
a degenerate eigenspace the eigenvectors are not unique, so the rule
gives one valid subgradient whatever the solver, and ``eigvals`` flags
that case on the tape. Results are deterministic for a given LAPACK
build; they were never byte-identical across machines, because matrix
products already go through BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import tensor as T
from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray

# below this gap neighbouring eigenvalues count as degenerate and the
# gradient rule degrades to a subgradient choice
DEGENERATE_EIGENGAP = 1e-8


@dataclass(frozen=True)
class SimilarityTriple:
    """Inter-set matrix S plus the two intra-set matrices S_A, S_B.

    ``mode`` is "euclidean" (entries are distances, zero diagonals on
    S_A/S_B) or "cosine" (entries are cosine similarities, unit
    diagonals). All three may be tape-tracked Tensors.
    """

    s: T.Tensor
    s_a: T.Tensor
    s_b: T.Tensor
    mode: str


@dataclass(frozen=True)
class EigenDecomposition:
    values: Array   # (n,), sorted descending
    vectors: Array  # (n, n), columns matched to values


def _as_matrix(m) -> Array:
    a = m.data if isinstance(m, T.Tensor) else np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise EvaluationError("sym_eigen: matrix contains NaN or Inf")
    return a


def sym_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix via LAPACK
    (``np.linalg.eigh``), eigenvalues sorted descending.

    Input asymmetry up to 1e-9 (relative) is tolerated and symmetrized
    away; larger asymmetry raises ContractError, and NaN or Inf entries
    raise EvaluationError. Within a repeated eigenvalue the returned
    eigenvectors are one arbitrary basis of that eigenspace.
    """
    a = _as_matrix(m)
    scale = float(np.linalg.norm(a))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-9 * max(1.0, scale):
        raise ContractError("sym_eigen: matrix is not symmetric within 1e-9")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    return EigenDecomposition(vals[::-1], vecs[:, ::-1])


def _finite(values, name: str) -> Array:
    """``values`` flattened to float64; EvaluationError on NaN or Inf."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise EvaluationError(f"{name}: values contain NaN or Inf")
    return v


def min_eigengap(values: Array) -> float:
    """Smallest gap between neighbouring sorted eigenvalues (inf for n=1).
    NaN or Inf values raise EvaluationError."""
    vals = np.sort(_finite(values, "min_eigengap"))
    if vals.size < 2:
        return float("inf")
    return float(np.min(np.diff(vals)))


def eigenvalue_gradient(decomp: EigenDecomposition, upstream) -> Array:
    """Pull an upstream gradient on the sorted eigenvalues back to the
    matrix: d lambda_i / dM = u_i u_i^T. For degenerate spectra this is
    one valid subgradient; callers detect that case via min_eigengap."""
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    u = decomp.vectors
    if up.shape[0] != u.shape[1]:
        raise ShapeError("eigenvalue_gradient: upstream length mismatch")
    g = (u * up[None, :]) @ u.T
    return (g + g.T) / 2.0


def eigvals(m) -> T.Tensor:
    """Differentiable sorted-descending eigenvalues, shape (n, 1).

    Flags "degenerate-eigenvalues" on the active tape when neighbouring
    eigenvalues are closer than the degeneracy gap.
    """
    mt = T.as_tensor(m)
    dec = sym_eigen(mt.data)
    tape = T.active_tape(mt)
    if tape is not None and min_eigengap(dec.values) < DEGENERATE_EIGENGAP:
        tape.flags.add("degenerate-eigenvalues")

    def vjp(g):
        return (eigenvalue_gradient(dec, g[:, 0]),)

    return T.custom_op((mt,), dec.values.reshape(-1, 1), vjp)


def eig_dot(values_a, values_b, sense: str) -> float:
    """Extremal sum of eigenvalue products over pairings.

    "min": descending against ascending; "max": descending against
    descending (classical rearrangement pairings). NaN or Inf values
    raise EvaluationError.
    """
    la = _finite(values_a, "eig_dot")
    lb = _finite(values_b, "eig_dot")
    if la.shape != lb.shape:
        raise ShapeError(f"eig_dot: lengths differ, {la.shape} vs {lb.shape}")
    if sense not in ("min", "max"):
        raise ContractError(f"eig_dot: sense must be 'min' or 'max', got {sense!r}")
    la = np.sort(la)[::-1]
    lb = np.sort(lb)
    if sense == "max":
        lb = lb[::-1]
    return float(la @ lb)


def _embedded(z_a, z_b, mode: str, name: str):
    """The two sets as the similarity sees them (raw for euclidean,
    row-normalized for cosine) and the pairwise map of the mode."""
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    if za.shape[1] != zb.shape[1]:
        raise ShapeError(f"{name}: feature dims differ, {za.shape} vs {zb.shape}")
    if mode == "euclidean":
        return za, zb, T.pairwise_dist
    if mode == "cosine":
        return (T.row_l2_normalize(za), T.row_l2_normalize(zb),
                lambda x, y: T.matmul(x, T.transpose(y)))
    raise ContractError(f"unknown similarity mode {mode!r}")


def pairwise_distances(z_a, z_b, mode: str = "euclidean") -> SimilarityTriple:
    """Build the (S, S_A, S_B) triple from two embedding sets.

    Euclidean mode stores unsquared distances from explicit difference
    norms; cosine mode row-normalizes and stores inner products. Both
    keep the tape alive when the embeddings are tracked.
    """
    xa, xb, sim = _embedded(z_a, z_b, mode, "pairwise_distances")
    return SimilarityTriple(s=sim(xa, xb), s_a=sim(xa, xa), s_b=sim(xb, xb),
                            mode=mode)


def cross_distances(z_a, z_b, mode: str = "euclidean") -> T.Tensor:
    """The inter-set matrix S of ``pairwise_distances`` alone, built by
    the same operations, for callers that never read S_A and S_B."""
    xa, xb, sim = _embedded(z_a, z_b, mode, "cross_distances")
    return sim(xa, xb)
