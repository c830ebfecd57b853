"""Kernel functions, dense Gram matrices and low-rank Gram factors.

The RBF kernel uses the exp(-||x - z||^2 / sigma^2) parameterization.
RBF values below the smallest normal double (about 2.2e-308) are flushed to
zero: subnormal operands make every later floating-point operation on them
much slower, and a term that small cannot move a sum of normal-sized terms.
The flush acts on the exponent (arguments below log(2.2e-308) become -inf),
which also spares exp() its slow underflow path.
Gram matrices are stored dense and row-major, in float64 (8 * N^2 bytes) or
in float32 (4 * N^2 bytes).  A float32 Gram is filled from the float64
kernel rows, with entries below the smallest normal float32 (about
1.2e-38) flushed to zero before rounding, for the same reason as above.
:func:`gram_factor` instead builds a greedy pivoted-Cholesky factor
K ~= L L^T (Fine & Scheinberg 2001), float64 and N x r, from the kernel
rows of its pivots; it gives up once r reaches N/4, where its 2 N r
eight-byte reads per product no longer beat a float32 Gram's N^2
four-byte ones.
:func:`helssvr.model.fit_cells` trains a set whose float64 Gram would
take an optimizer stack of its own (from 257 rows) on its factor, in
stacks shared with the factors of sets of its size, and makes the pivot
rows its models' centers; where the factor gives up, the set trains alone
on a float32 Gram.  Gram builds, factor columns and prediction all
evaluate kernel rows through :func:`kernel_row`, a block of
:func:`block_rows` points at a time; each row of a block is bit-identical
to the row of its point alone, so a Gram row, a prediction's kernel row
and :func:`kernel_row` of one point agree bitwise, and the matrix is
exactly symmetric.  An RBF row sums its squared distances one feature at
a time, so its bits rest on elementwise operations only.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (RBF, LINEAR)

#: exp() of anything below this is subnormal or zero
_LOG_TINY = np.log(np.finfo(float).tiny)

#: float32 entries of smaller magnitude than this would be subnormal
_TINY32 = np.finfo(np.float32).tiny

#: byte alignment of a Gram matrix's buffer.  numpy aligns to 16 bytes, and
#: OpenBLAS's matrix-vector product over an n=320 Gram whose address is not
#: a multiple of 32 took about 25% longer, so training speed depended on
#: where the allocator happened to place the Gram.
_GRAM_ALIGN = 64


def _physical_memory() -> int:
    """Bytes of physical memory, or sys.maxsize where the system does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize
    return pages * page_size if pages > 0 and page_size > 0 else sys.maxsize


#: most bytes one :func:`gram_buffer` may allocate, and one
#: :func:`gram_factor` may hold: the machine's physical memory, so a request
#: that could never fit raises (or gives up) before anything is allocated
#: instead of failing in the allocator or swapping
GRAM_MAX_BYTES = _physical_memory()

#: a :func:`gram_factor` is complete once its residual diagonal, which
#: bounds the trace of K - L L^T, sums to at most this share of K's trace
#: (N for the RBF kernel)
FACTOR_TOL = 1e-12

#: most bytes of one block of kernel rows' (b, n) arrays together: its
#: rows and, with more than one feature, an RBF block's scratch, so that a
#: block stays in the per-core L2 cache.  Blocks of 1 MiB ran a 2000-row
#: fit plus a 40,000-row predict 2% faster but raised its peak RSS from
#: 73.7 to 75.6 MB.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters (sigma is the RBF width)."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == RBF:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError("rbf kernel requires sigma > 0")
        elif self.sigma is not None:
            raise ValueError("linear kernel does not take sigma")


@dataclass(frozen=True)
class GramMatrix:
    """Dense N x N matrix of pairwise kernel values, or a (f, N, N) stack
    of f such matrices, one per training set of N rows."""

    values: np.ndarray

    @property
    def n(self) -> int:
        """Training rows N."""
        return self.values.shape[-1]


@dataclass(frozen=True)
class GramFactor:
    """Low-rank factor of one training set's N x N Gram matrix:
    K ~= Lt.T @ Lt, with ``Lt`` the (r, N) transpose of the pivoted-Cholesky
    factor L and ``pivots`` the (r,) rows it pivoted on, in order (see
    :func:`gram_factor`).  ``Lt[:, pivots]`` is upper triangular with a
    positive diagonal but for rounding (an entry below the diagonal, times
    its row's diagonal entry, is a rounding residue of K's scale), and the
    pivot rows are exact to rounding: ``K[pivots] ~= Lt[:, pivots].T @ Lt``."""

    Lt: np.ndarray
    pivots: np.ndarray

    @property
    def n(self) -> int:
        """Training rows N."""
        return self.Lt.shape[1]


class GramFactors(tuple):
    """The :class:`GramFactor` of each of f training sets of N rows, in set
    order; their ranks may differ."""

    @property
    def n(self) -> int:
        """Training rows N."""
        return self[0].n


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got ndim={X.ndim}")
    return X


def block_rows(n: int, d: int) -> int:
    """Points per block of :func:`kernel_row` against n training rows of d
    features: as many as keep the block's (b, n) arrays, its rows and, for
    d > 1, the RBF kernel's scratch, within :data:`BLOCK_BYTES` together,
    and at least one."""
    return max(1, BLOCK_BYTES // (8 * n * (2 if d > 1 else 1)))


def kernel_row(spec: KernelSpec, x, X, out=None) -> np.ndarray:
    """Kernel values of one point ``x`` against every row of ``X``, or of
    each point of a 2-d block ``x`` of b points.

    One point gives an (n,) row, a block a (b, n) array of rows; either is
    written into ``out`` when given, an array of that shape.  Each row of a
    block is bit-identical to the row of its point alone: the RBF kernel
    makes only elementwise operations, summing the squared differences of
    one feature at a time, and the linear kernel keeps one matrix-vector
    product per point (a matrix product would sum in another order).
    Raises ValueError for ``x`` of more than two dimensions or no features.
    """
    X = _as_matrix(X)
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"expected one point or a 2-d block of points, got ndim={x.ndim}")
    Q = x if x.ndim == 2 else x.reshape(1, -1)
    if Q.shape[1] != X.shape[1]:
        raise ValueError(
            f"dimension mismatch: point has {Q.shape[1]} features, matrix has {X.shape[1]}"
        )
    if X.shape[1] == 0:
        raise ValueError("kernel rows need at least one feature")
    shape = (Q.shape[0], X.shape[0]) if x.ndim == 2 else (X.shape[0],)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"kernel rows of shape {shape} need an output of that shape, got {out.shape}")
    rows = out.reshape(Q.shape[0], X.shape[0])
    if spec.kind == LINEAR:
        for q, row in zip(Q, rows):
            np.matmul(X, q, out=row)
        return out
    np.subtract(X[:, 0], Q[:, :1], out=rows)
    np.square(rows, out=rows)
    scratch = np.empty_like(rows) if X.shape[1] > 1 else None
    for j in range(1, X.shape[1]):
        np.subtract(X[:, j], Q[:, j : j + 1], out=scratch)
        np.square(scratch, out=scratch)
        rows += scratch
    rows /= -(spec.sigma * spec.sigma)
    rows[rows < _LOG_TINY] = -np.inf
    np.exp(rows, out=rows)
    return out


def _gram_stride(n: int, itemsize: int) -> int:
    """Elements from one matrix of a :func:`gram_buffer` to the next: n * n
    rounded up to whole alignments."""
    align = _GRAM_ALIGN // itemsize
    return -(-n * n // align) * align


def gram_buffer_bytes(f: int, n: int, dtype=np.float64) -> int:
    """Bytes :func:`gram_buffer` allocates for f matrices of n rows."""
    itemsize = np.dtype(dtype).itemsize
    return itemsize * (f * _gram_stride(n, itemsize) + _GRAM_ALIGN // itemsize)


def gram_buffer(f: int, n: int, dtype=np.float64) -> np.ndarray:
    """An uninitialized (f, n, n) array of ``dtype`` (float64 or float32) in
    one buffer, each of whose f matrices starts on a
    :data:`_GRAM_ALIGN`-byte boundary.

    Raises ValueError, before allocating, when the buffer would take more
    than :data:`GRAM_MAX_BYTES`.
    """
    itemsize = np.dtype(dtype).itemsize
    align, stride = _GRAM_ALIGN // itemsize, _gram_stride(n, itemsize)
    size = gram_buffer_bytes(f, n, dtype)
    if size > GRAM_MAX_BYTES:
        raise ValueError(
            f"a Gram buffer of f={f} matrices of N={n} rows needs {size:,} bytes, "
            f"more than kernels.GRAM_MAX_BYTES = {GRAM_MAX_BYTES:,}"
        )
    buf = np.empty(f * stride + align, dtype)
    skip = (-buf.ctypes.data % _GRAM_ALIGN) // itemsize
    return buf[skip : skip + f * stride].reshape(f, stride)[:, : n * n].reshape(f, n, n)


def gram_matrix(spec: KernelSpec, X, out=None) -> GramMatrix:
    """Pairwise kernel matrix of the rows of ``X``.

    Rows are filled a block of :func:`block_rows` at a time through
    :func:`kernel_row`; construction is single-threaded and deterministic.
    The matrix is written into ``out``, an (n, n) array such as one matrix
    of a :func:`gram_buffer`, or else into a new float64 one that starts on
    a :data:`_GRAM_ALIGN`-byte boundary.  A float32 ``out`` gets each
    float64 block rounded to float32, after entries of magnitude below
    float32's smallest normal are set to 0.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("gram matrix of an empty sample set")
    values = gram_buffer(1, n)[0] if out is None else out
    if values.shape != (n, n):
        raise ValueError(f"gram matrix of {n} samples needs an ({n}, {n}) output, got {values.shape}")
    step = block_rows(*X.shape)
    wide = values.dtype == np.float64
    block = None if wide else np.empty((min(step, n), n))
    for lo in range(0, n, step):
        target = values[lo : lo + step]
        rows = kernel_row(spec, X[lo : lo + step], X, out=target if wide else block[: len(target)])
        if not wide:
            rows[np.abs(rows) < _TINY32] = 0.0
            target[...] = rows
    return GramMatrix(values)


def gram_factor(spec: KernelSpec, X) -> GramFactor | None:
    """Greedy pivoted-Cholesky factor of the Gram matrix of the rows of
    ``X``, or None once its rank reaches N/4.

    Each step pivots on the row of largest residual diagonal (the first
    on a tie), takes that row's :func:`kernel_row`, removes the earlier
    columns' part and divides by the square root of its residual diagonal.
    The factor is complete once the residual diagonal sums to at most
    :data:`FACTOR_TOL` times the trace of K (Harbrecht, Peters & Schneider
    2012 bound the error by that sum).  An RBF diagonal is all ones; a
    linear one is ||x||^2, and its factor has at most d columns.  The
    columns are held in a buffer that doubles as it fills, up to ceil(N/4)
    columns and :data:`GRAM_MAX_BYTES`; a factor that needs more gives up,
    before allocating it.  Deterministic: the same inputs give the same bits.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("gram factor of an empty sample set")
    resid = np.ones(n) if spec.kind == RBF else np.einsum("ij,ij->i", X, X)
    stop = FACTOR_TOL * resid.sum()
    Lt, r, pivots = np.empty((0, n)), 0, np.empty(n, np.intp)
    while resid.sum() > stop:
        if r == len(Lt):
            columns = min(max(2 * r, 16), -(-n // 4), GRAM_MAX_BYTES // (8 * n))
            if columns == r:
                return None
            grown = np.empty((columns, n))
            grown[:r] = Lt
            Lt = grown
        p = pivots[r] = np.argmax(resid)
        col = kernel_row(spec, X[p], X, out=Lt[r])
        col -= Lt[:r, p] @ Lt[:r]
        col /= np.sqrt(resid[p])
        resid -= col * col
        resid[p] = 0.0
        np.maximum(resid, 0.0, out=resid)
        r += 1
    return GramFactor(Lt[:r], pivots[:r])
