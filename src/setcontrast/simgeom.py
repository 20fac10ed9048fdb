"""Similarity geometry: the inter-set matrix S and the intra-set
matrices S_A and S_B of two embedding sets, a symmetric
eigendecomposition with its eigenvalue gradient, and sorted spectrum
products.

Every similarity matrix of the program is built here, by one
array-level function (``_similarity``) that returns the matrix and its
pullback: ``losses.objective`` and ``harness`` call it on arrays, and
``cross_distances`` and ``pairwise_distances`` wrap it as tape nodes.
Euclidean mode gives distances, in explicit form for small sets and in
Gram form above 1024 elements (``_distances``). Cosine mode takes the
inner products of the rows as given and normalizes nothing: the encoder
is the one place that makes rows unit, so on its embeddings these are
the cosine similarities.

Eigenvalues come from LAPACK through ``np.linalg.eigh``. The two
matrices that ``losses.qare`` decomposes (the (E+1) x (E+1) Gram
matrices of the factors of 1 + Z_A Z_A^T and 1 + Z_B Z_B^T) go to it
as one stack (``sym_eigen_pair``): one call, and each matrix gets the
bits of a call of its own. The gradient rule
d lambda_i / dM = u_i u_i^T is exact for a simple eigenvalue; inside a
degenerate eigenspace the eigenvectors are not unique. Over a cluster
of equal eigenvalues with equal upstream g the rule still gives g times
the cluster's projector, whatever basis the solver returns (Lewis 1996,
"Derivatives of spectral functions"); unequal upstream values make it
one valid subgradient among many, which one turning on that basis. So
``losses.qare``, whose upstream is the partner spectrum, needs no
special case at a cluster.
Results are deterministic for a given LAPACK build; they were never
byte-identical across machines, because matrix products already go
through BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class EigenDecomposition:
    values: Array   # (n,), sorted descending
    vectors: Array  # (n, n), columns matched to values


def _square_matrix(m) -> Array:
    """``m`` as a float64 array; ShapeError unless it is one square
    matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def _sym_eigen_stack(a: Array):
    """Eigenpairs of a stack a (k, n, n) of symmetric matrices, values
    descending: one finiteness test, one asymmetry test and one
    ``np.linalg.eigh`` call for the whole stack. LAPACK decomposes each
    matrix of a stack on its own, so each gets the bits of a call of its
    own.

    The bound 0.5e-9 * max(1, ||a||_F) on the halves' asymmetry is never
    below 0.5e-9, so a matrix's norm is taken only where some entry goes
    past that, and then as max|a| * ||a / max|a| ||_F with the 0.5e-9
    applied first, which keeps the bound finite for any finite a."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise EvaluationError("sym_eigen: matrix contains NaN or Inf")
    h = 0.5 * a  # halves: neither their difference nor their sum overflows
    ht = h.swapaxes(1, 2)
    skew = np.abs(h - ht)
    if skew.max(initial=0.0) > 0.5e-9:
        for m, d in zip(a, skew):
            top = np.abs(m).max()
            if d.max() > max(0.5e-9, 0.5e-9 * top * float(np.linalg.norm(m / top))):
                raise ContractError("sym_eigen: matrix is not symmetric within 1e-9")
    vals, vecs = np.linalg.eigh(h + ht)
    return vals[:, ::-1], vecs[:, :, ::-1]


def sym_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix via LAPACK
    (``np.linalg.eigh``), eigenvalues sorted descending.

    An entrywise asymmetry up to 1e-9 * max(1, ||a||_F) is tolerated and
    symmetrized away; larger asymmetry raises ContractError, and NaN or
    Inf entries raise EvaluationError. The norm is scaled by max|a|, so
    it stays finite for entries near the float range. The matrix
    decomposed is a/2 + a^T/2, which cannot overflow; outside the
    subnormal range it has the bits of (a + a^T) / 2, so an exactly
    symmetric matrix is decomposed as it is. Within a repeated eigenvalue
    the returned eigenvectors are one arbitrary basis of that eigenspace.
    """
    vals, vecs = _sym_eigen_stack(_square_matrix(m)[None])
    return EigenDecomposition(vals[0], vecs[0])


def sym_eigen_pair(a, b):
    """``(sym_eigen(a), sym_eigen(b))`` bit for bit, from one stacked
    ``np.linalg.eigh`` call, for callers that need both spectra of a pair
    of matrices, as ``losses.qare`` does. The two must have the same shape
    (ShapeError); the checks and messages are ``sym_eigen``'s, over both.
    """
    x, y = _square_matrix(a), _square_matrix(b)
    if x.shape != y.shape:
        raise ShapeError(f"sym_eigen_pair: shapes differ, {x.shape} vs {y.shape}")
    vals, vecs = _sym_eigen_stack(np.array((x, y)))
    return tuple(EigenDecomposition(v, u) for v, u in zip(vals, vecs))


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
    matrix: d lambda_i / dM = u_i u_i^T. A cluster of equal eigenvalues
    with equal upstream values gives that value times the cluster's
    projector, whatever basis ``decomp`` holds; with unequal ones it gives
    one valid subgradient of many. NaN or Inf upstream values raise
    EvaluationError."""
    up = _finite(upstream, "eigenvalue_gradient")
    u = decomp.vectors
    if up.shape[0] != u.shape[1]:
        raise ShapeError("eigenvalue_gradient: upstream length mismatch")
    g = (u * up[None, :]) @ u.T
    return (g + g.T) / 2.0


def eigvals(m) -> T.Tensor:
    """Differentiable sorted-descending eigenvalues, shape (n, 1), whose
    VJP is ``eigenvalue_gradient`` of the upstream column."""
    mt = T.as_tensor(m)
    dec = sym_eigen(mt.data)

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


def _inner_products(xd: Array, yd: Array):
    """x y^T of two 2-D arrays, and its pullback g -> (g y, (x^T g)^T). y
    enters both products as a C-ordered copy of y^T: BLAS rounds
    differently with another memory layout, so the layout is part of the
    result."""
    yt = yd.T.copy()

    def pullback(g):
        return g @ yt.T, (xd.T @ g).T

    return xd @ yt, pullback


_EXPLICIT_MAX_ELEMENTS = 1024
_EPS = float(np.finfo(np.float64).eps)


def _distances(da: Array, db: Array):
    """Euclidean distance matrix D[i, j] = ||a_i - b_j|| of an (N, E) and
    an (M, E) array, and its pullback g -> (g_a, g_b), in one of two forms
    chosen by size.

    Up to N*M*E = 1024 it sums the squares of the explicit (N, M, E)
    difference tensor. Above that it uses the Gram form
    sqrt(|a_i|^2 + |b_j|^2 - 2 a_i.b_j), which builds only (N, M) arrays
    and one matmul. The bound is near where the two cost the same: the
    Gram form's ten or so numpy calls outweigh the explicit form's four
    on tiny sets. On a 2-core Xeon with BLAS on one thread (best of
    7 x 2000 calls, explicit against Gram), 4x4x3 took 3.7 against
    9.8 us, 16x16x4 11.8 against 12.1 us, 16x16x8 12.7 against 11.9 us
    and 32x32x16 63 against 18.5 us. So the thousands of 4x4 calls of
    ``verify`` stay explicit, while a 32x32x16 training batch and a
    128x128x16 evaluation sit far above the bound. The last bits of a
    distance thus depend on the size class and, through the matmul, on
    the BLAS build, as every matmul's bits already do.

    In the Gram form a squared distance at or below
    4(E + 2) eps (|a_i|^2 + |b_j|^2) becomes exactly 0. The rounding
    argument: with u = eps/2 and gamma_E = E u / (1 - E u), each squared
    norm carries an error of at most gamma_E times itself, the inner
    product at most gamma_E sum_k |a_ik b_jk| <= gamma_E (|a_i|^2 +
    |b_j|^2) / 2 in any summation order, and the sum and the difference
    add u each on values of at most 2(|a_i|^2 + |b_j|^2). So the computed
    value lies within (2 gamma_E + 3u)(|a_i|^2 + |b_j|^2), about
    (E + 1.5) eps (|a_i|^2 + |b_j|^2), of the exact one, a quarter of the
    bound; an entry at or below the bound cannot be told apart from 0.
    So equal rows, and the diagonal of a self-distance matrix, give
    exactly 0, as the explicit form does. Near-coincident rows lose what
    the explicit form keeps: a pair whose exact squared distance is at
    most 5(E + 2) eps (|a_i|^2 + |b_j|^2) may read 0 (a distance of
    2.0e-7 for unit rows at E = 16), and a small distance above that
    carries the squared error as an absolute one, where the explicit
    form's error is relative. A self-distance matrix is symmetric bit
    for bit when one array is on both sides: numpy computes an array
    times its own transpose as one symmetric product. Two equal arrays
    take the general product, whose bits may differ.

    Zero-distance pairs get zero gradient: the norm has no direction
    there. The caller checks the feature dims."""
    if da.shape[0] * db.shape[0] * da.shape[1] <= _EXPLICIT_MAX_ELEMENTS:
        diff = da[:, None, :] - db[None, :, :]  # (N, M, E)
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
    else:
        norms = (np.add.reduce(da * da, axis=1)[:, None]
                 + np.add.reduce(db * db, axis=1)[None, :])
        sq = norms - 2.0 * (da @ db.T)
        bound = (4.0 * (da.shape[1] + 2) * _EPS) * norms
        dist = np.sqrt(np.where(sq > bound, sq, 0.0))

    def pullback(g):
        w = np.divide(g, dist, out=np.zeros(dist.shape), where=dist > 0.0)
        ga = np.add.reduce(w, axis=1, keepdims=True) * da - w @ db
        gb = np.add.reduce(w, axis=0)[:, None] * db - w.T @ da
        return ga, gb

    return dist, pullback


def _similarity(za: Array, zb: Array, mode: str, name: str):
    """The pairwise map of ``mode`` between two 2-D float64 arrays, as the
    (N, M) matrix and its pullback g -> (g_a, g_b): ``_distances`` in
    "euclidean" mode, the inner products of the rows as given in "cosine"
    mode. ShapeError, naming ``name``, when the feature dims differ.
    ``losses.objective`` builds S with it, ``harness`` its evaluation and
    center-gap distances, and each similarity node of this module wraps
    it."""
    if za.shape[1] != zb.shape[1]:
        raise ShapeError(f"{name}: feature dims differ, {za.shape} vs {zb.shape}")
    if mode == "euclidean":
        return _distances(za, zb)
    if mode == "cosine":
        return _inner_products(za, zb)
    raise ContractError(f"unknown similarity mode {mode!r}")


def pairwise_distances(z_a, z_b, mode: str = "euclidean") -> tuple:
    """The (S, S_A, S_B) triple of two embedding sets, as a plain tuple of
    three ``cross_distances``: S of the two sets, and S_A and S_B of each
    set against itself, so one array is on both sides.

    Euclidean mode stores unsquared distances (explicit differences for
    small sets, the Gram form above 1024 elements; see ``_distances``),
    with zero diagonals on S_A and S_B; cosine mode stores the inner
    products of the rows as given, which are cosine similarities, with
    unit diagonals on S_A and S_B, only for unit rows such as the
    encoder's. Each matrix is one node, so the tape stays alive when the
    embeddings are tracked.
    """
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    return tuple(cross_distances(x, y, mode) for x, y in ((za, zb), (za, za), (zb, zb)))


def cross_distances(z_a, z_b, mode: str = "euclidean") -> T.Tensor:
    """The matrix of ``mode`` between two embedding sets, S of
    ``pairwise_distances``, as one node: distances in euclidean mode, in
    cosine mode the inner products of the rows as given."""
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    return T.custom_op((za, zb),
                       *_similarity(za.data, zb.data, mode, "cross_distances"))
