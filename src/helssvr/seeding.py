"""Deterministic random sources.

All randomness in the library flows through a counter-based Philox
generator keyed by integer seeds, so every training run, fold split, and
synthetic dataset is reproducible bit-for-bit from its seed alone.
"""

from __future__ import annotations

import numpy as np


def make_rng(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by one or more integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


def copy_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator in ``rng``'s state: a new bit generator of
    its kind set to that state, in a third of ``copy.deepcopy``'s time."""
    bits = type(rng.bit_generator)(0)
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits)


def child_seed(master: int, *indices: int) -> int:
    """Derived seed for an indexed work item (grid cell, fold, ...).

    Deterministic in (master, indices) and independent of the order in
    which work items are executed.
    """
    seq = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(seq.generate_state(1, np.uint64)[0])


def sample_without_replacement(rng: np.random.Generator, n: int, k: int, draws: int | None = None) -> np.ndarray:
    """Draw ``k`` distinct indices from ``range(n)``, uniformly.

    Partial Fisher-Yates over an index buffer: only the first ``k``
    positions are shuffled.  The k uniform variates are drawn in one call
    and mapped to shrinking ranges, which keeps the draw cheap for small
    batches from large index sets.

    With ``draws`` set, returns a (draws, k) block whose row t is the t-th
    of ``draws`` successive one-draw calls, bit for bit, and leaves ``rng``
    in the same state: the variates come in one (draws, k) call, in the
    order the successive calls take them, and each of the k swaps runs
    once for all draws on a flat index buffer of draws * n entries.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} distinct indices from {n}")
    rows = 1 if draws is None else draws
    us = rng.random((rows, k))
    cols = np.arange(k)
    base = np.arange(rows)[:, None] * n  # each draw's offset in the flat buffer
    src = (base + cols).T.copy()
    dst = (base + cols + (us * (n - cols)).astype(np.intp)).T.copy()
    idx = np.tile(np.arange(n), rows)
    for a, b in zip(src, dst):
        idx[a], idx[b] = idx[b], idx[a]
    block = idx.reshape(rows, n)[:, :k]
    return block[0].copy() if draws is None else block.copy()
