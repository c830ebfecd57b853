"""Kernel functions and dense Gram-matrix construction.

The RBF kernel uses the exp(-||x - z||^2 / sigma^2) parameterization.
RBF values below the smallest normal double (about 2.2e-308) are flushed to
zero: subnormal operands make every later floating-point operation on them
much slower, and a term that small cannot move a sum of normal-sized terms.
The flush acts on the exponent (arguments below log(2.2e-308) become -inf),
which also spares exp() its slow underflow path.
Gram matrices are stored dense and row-major (8 * N^2 bytes); every row is
produced by the same code path as :func:`kernel_row`, so the two agree
bitwise and the matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (RBF, LINEAR)

#: exp() of anything below this is subnormal or zero
_LOG_TINY = np.log(np.finfo(float).tiny)

#: byte alignment of a Gram matrix's buffer.  numpy aligns to 16 bytes, and
#: OpenBLAS's matrix-vector product over an n=320 Gram whose address is not
#: a multiple of 32 took about 25% longer, so training speed depended on
#: where the allocator happened to place the Gram.
_GRAM_ALIGN = 64


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


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got ndim={X.ndim}")
    return X


def kernel_row(spec: KernelSpec, x, X) -> np.ndarray:
    """Kernel values of one point ``x`` against every row of ``X``."""
    X = _as_matrix(X)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != X.shape[1]:
        raise ValueError(
            f"dimension mismatch: point has {x.shape[0]} features, matrix has {X.shape[1]}"
        )
    if spec.kind == LINEAR:
        return X @ x
    diff = X - x
    sq = np.einsum("ij,ij->i", diff, diff)
    arg = -sq / (spec.sigma * spec.sigma)
    arg[arg < _LOG_TINY] = -np.inf
    return np.exp(arg, out=arg)


def gram_buffer(f: int, n: int) -> np.ndarray:
    """An uninitialized (f, n, n) float array in one buffer, each of whose
    f matrices starts on a :data:`_GRAM_ALIGN`-byte boundary."""
    align = _GRAM_ALIGN // 8
    stride = -(-n * n // align) * align  # n * n rounded up to whole alignments
    buf = np.empty(f * stride + align)
    skip = (-buf.ctypes.data % _GRAM_ALIGN) // 8
    return buf[skip : skip + f * stride].reshape(f, stride)[:, : n * n].reshape(f, n, n)


def gram_matrix(spec: KernelSpec, X, out=None) -> GramMatrix:
    """Pairwise kernel matrix of the rows of ``X``.

    Rows are filled one at a time through :func:`kernel_row`; construction
    is single-threaded and deterministic.  The matrix is written into
    ``out``, an (n, n) array such as one matrix of a :func:`gram_buffer`,
    or else into a new one that starts on a :data:`_GRAM_ALIGN`-byte
    boundary.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("gram matrix of an empty sample set")
    values = gram_buffer(1, n)[0] if out is None else out
    if values.shape != (n, n):
        raise ValueError(f"gram matrix of {n} samples needs an ({n}, {n}) output, got {values.shape}")
    for i in range(n):
        values[i] = kernel_row(spec, X[i], X)
    return GramMatrix(values)
