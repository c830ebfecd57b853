"""The RBF kernel, the only kernel, and the three forms of a training Gram.

The RBF kernel uses the exp(-||x - z||^2 / sigma^2) parameterization.
RBF values below the smallest normal double (about 2.2e-308) are flushed to
zero: subnormal operands make every later floating-point operation on them
much slower, and a term that small cannot move a sum of normal-sized terms.
The flush acts on the exponent (arguments below log(2.2e-308) become -inf),
which also spares exp() its slow underflow path.  Gram builds, factor
columns and prediction all evaluate kernel rows through :func:`kernel_row`,
a block of :func:`block_rows` points at a time; each row of a block is
bit-identical to the row of its point alone, so a Gram row, a prediction's
kernel row and :func:`kernel_row` of one point agree bitwise, and the
matrix is exactly symmetric.  An RBF row sums its squared distances one
feature at a time, so its bits rest on elementwise operations only.

:func:`helssvr.model.fit_cells` gives each training set of N rows one Gram
form, once, and trains sets of one size and form in shared optimizer
stacks while their Grams' bytes fit the stack budget
(:data:`helssvr.model.STACK_GRAM_BYTES`, 1 MiB):

* below 257 rows, where two float64 Grams fit the budget, a float64
  :class:`GramMatrix`, dense and row-major, 8 N^2 bytes;
* from 257 rows, a greedy pivoted-Cholesky factor K ~= L L^T
  (:func:`gram_factor`; Fine & Scheinberg 2001), float64 and N x r, held
  in :class:`GramFactors`, 8 N r bytes: a product reads 2 N r doubles
  instead of N^2 entries;
* where the factor's rank reaches N/4, and its reads no longer beat a
  float32 Gram's, a float32 :class:`GramMatrix`, 4 N^2 bytes, filled from
  the float64 kernel rows with entries below the smallest normal float32
  (about 1.2e-38) flushed to zero before rounding, for the reason above.

Both classes make the products :func:`helssvr.optimizer.train_adam` needs
through the same methods, so the trainer never asks which form it holds:
``products`` makes K a for every row a of a stack, per span of rows of
one set; ``batch_products`` makes a mini-batch's K_B^T d per row, on its
gathered batch rows; ``one_set`` is one set's Gram in its form, on which
:func:`helssvr.optimizer.objective_value` makes K alpha as the one-row
product.  A span of one row runs as a GEMV (for a factor the GEMV pair
L (L^T a)), the product a one-cell run makes; a span of several rows as
one GEMM (pair), which sums in another order and so differs in the last
bits; a span of one row per set as each set's GEMV, bit for bit.  A dense
Gram makes every product in its own dtype: numpy rounds the float64
operand to float32 and widens the product into the float64 result, and a
float32 Gram is never upcast.  A factor's products are float64.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

RBF = "rbf"

#: exp() of anything below this is subnormal or zero
_LOG_TINY = np.log(np.finfo(float).tiny)

#: float32 entries of smaller magnitude than this would be subnormal
_TINY32 = np.finfo(np.float32).tiny

#: byte alignment of a Gram matrix's buffer and of a Gram factor's.  numpy
#: aligns to 16 bytes, and OpenBLAS's matrix-vector product over an n=320
#: Gram whose address is not a multiple of 32 took about 25% longer, so
#: training speed depended on where the allocator happened to place the
#: Gram; a 2000-row fit on a factor 32 bytes off took about 10% longer.
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
#: N (an RBF diagonal is all ones)
FACTOR_TOL = 1e-12

#: most bytes of one block of kernel rows' (b, n) arrays together: its
#: rows and, with more than one feature, an RBF block's scratch, so that a
#: block stays in the per-core L2 cache.  Blocks of 1 MiB ran a 2000-row
#: fit plus a 40,000-row predict 2% faster but raised its peak RSS from
#: 73.7 to 75.6 MB.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class KernelSpec:
    """The RBF kernel of width sigma: ``kind`` is always ``"rbf"``."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind != RBF:
            raise ValueError(f"unknown kernel kind {self.kind!r}: the only kind is {RBF!r}")
        if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
            raise ValueError(f"kernel.sigma must be a finite number > 0, got {self.sigma!r}")


@dataclass(frozen=True)
class GramMatrix:
    """Dense N x N matrix of pairwise kernel values, or a (f, N, N) stack
    of f such matrices, one per training set of N rows, in float64 or
    float32."""

    values: np.ndarray

    @property
    def n(self) -> int:
        """Training rows N."""
        return self.values.shape[-1]

    @property
    def target_shape(self) -> tuple[int, ...]:
        """Shape of the targets it trains on: (N,) for one matrix, (f, N)
        for a stack."""
        return self.values.shape[:-1]

    def one_set(self, k: int) -> GramMatrix:
        """Set k's matrix alone."""
        return GramMatrix(self.values.reshape(-1, self.n, self.n)[k])

    def products(self, A, out, spans) -> None:
        """Store K_k @ A[r] in ``out[r]`` for every row r of every set k.

        ``A`` and ``out`` are C-contiguous (m, N) arrays whose rows come in
        blocks of one set; ``spans`` lists each block's (k, slice of rows),
        in row order, a k of None marking a block of one row per set, in
        set order.  A block of several rows runs as one GEMM, A_k @ K_k,
        which equals K_k applied to each row because K_k is symmetric; a
        block of one row per set as one broadcast ``K @ a``, which numpy
        runs as the GEMV of each set (see the module docstring).  The
        result depends only on the block sizes, not on what else is in
        ``A``.
        """
        K = self.values.reshape(-1, self.n, self.n)
        for k, rows in spans:
            if k is None:
                np.matmul(K, A[rows, :, None], out=out[rows, :, None], dtype=K.dtype)
            elif rows.stop - rows.start == 1:
                np.matmul(K[k], A[rows.start], out=out[rows.start], dtype=K.dtype)
            else:
                np.matmul(A[rows], K[k], out=out[rows], dtype=K.dtype)

    def batch_products(self, batch, D, out, spans, sets) -> None:
        """Store K_k[batch[r]].T @ D[r] in ``out[r]`` for every row r, with
        k = ``sets[r]``: one GEMV per row on its gathered batch rows, the
        gather a temporary.  ``spans`` is as for :meth:`products`."""
        K = self.values.reshape(-1, self.n, self.n)
        KB = K[sets[:, None], batch]
        np.matmul(KB.transpose(0, 2, 1), D[:, :, None], out=out[:, :, None], dtype=K.dtype)


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
    order; their ranks may differ.  Raises ValueError for sets of several
    sizes."""

    def __new__(cls, factors=()):
        self = super().__new__(cls, factors)
        if len(sizes := {factor.n for factor in self}) > 1:
            raise ValueError(f"Gram factors of {sorted(sizes)} rows: sets must be of one size")
        return self

    @property
    def n(self) -> int:
        """Training rows N (0 for no sets)."""
        return self[0].n if self else 0

    @property
    def target_shape(self) -> tuple[int, int]:
        """Shape of the targets it trains on: (f, N)."""
        return (len(self), self.n)

    def one_set(self, k: int) -> GramFactors:
        """Set k's factor alone."""
        return GramFactors((self[k],))

    def products(self, A, out, spans) -> None:
        """:meth:`GramMatrix.products` on the factors: store
        L_k (L_k^T A[r]) in ``out[r]``, each row on its own set's factor."""
        for k, rows in spans:
            if k is not None and rows.stop - rows.start > 1:
                np.matmul(np.matmul(A[rows], self[k].Lt.T), self[k].Lt, out=out[rows])
                continue
            for i, r in enumerate(range(rows.start, rows.stop)):
                Lt = self[i if k is None else k].Lt
                np.matmul(np.matmul(Lt, A[r]), Lt, out=out[r])

    def batch_products(self, batch, D, out, spans, sets) -> None:
        """:meth:`GramMatrix.batch_products` on the factors: store
        L_k (L_k[batch[r]]^T D[r]) in ``out[r]``, two GEMVs per row on its
        gathered rows of its set's L, in one call per block of one set and
        one per row of a block of one row per set."""
        for k, rows in spans:
            if k is not None:
                np.matmul(np.matmul(D[rows, None, :], self[k].Lt.T[batch[rows]]), self[k].Lt, out=out[rows, None, :])
                continue
            for i, r in enumerate(range(rows.start, rows.stop)):
                np.matmul(np.matmul(D[r], self[i].Lt.T[batch[r]]), self[i].Lt, out=out[r])


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
    block is bit-identical to the row of its point alone: it is made by
    elementwise operations only, summing the squared differences of one
    feature at a time.
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


def _aligned(size: int, dtype=np.float64) -> np.ndarray:
    """An uninitialized 1-d array of ``size`` items of ``dtype`` that starts
    on a :data:`_GRAM_ALIGN`-byte boundary."""
    buf = np.empty(size + _GRAM_ALIGN // np.dtype(dtype).itemsize, dtype)
    skip = (-buf.ctypes.data % _GRAM_ALIGN) // buf.itemsize
    return buf[skip : skip + size]


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
    stride = _gram_stride(n, np.dtype(dtype).itemsize)
    size = gram_buffer_bytes(f, n, dtype)
    if size > GRAM_MAX_BYTES:
        raise ValueError(
            f"a Gram buffer of f={f} matrices of N={n} rows needs {size:,} bytes, "
            f"more than kernels.GRAM_MAX_BYTES = {GRAM_MAX_BYTES:,}"
        )
    return _aligned(f * stride, dtype).reshape(f, stride)[:, : n * n].reshape(f, n, n)


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
    2012 bound the error by that sum).  An RBF diagonal is all ones, so a
    factor has at least one column.  The columns are held in a buffer that
    doubles as it fills, up to ceil(N/4) columns and
    :data:`GRAM_MAX_BYTES`; a factor that needs more gives up, before
    allocating it.  Deterministic: the same inputs give the same bits.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("gram factor of an empty sample set")
    resid = np.ones(n)
    stop = FACTOR_TOL * n
    Lt, r, pivots = np.empty((0, n)), 0, np.empty(n, np.intp)
    while resid.sum() > stop:
        if r == len(Lt):
            columns = min(max(2 * r, 16), -(-n // 4), GRAM_MAX_BYTES // (8 * n))
            if columns == r:
                return None
            grown = _aligned(columns * n).reshape(columns, n)
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
