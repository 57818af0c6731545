"""Deterministic input-data generators for the workload suite.

All randomness flows through seeded ``numpy`` generators so every
(workload, scale, seed) triple is perfectly reproducible across runs
and machines -- a hard requirement for comparing 68 processor
configurations against each other.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, salt: str) -> np.random.Generator:
    """A generator uniquely determined by (seed, salt)."""
    mix = np.frombuffer(salt.encode(), dtype=np.uint8).sum()
    return np.random.default_rng(np.uint64(seed * 1_000_003 + int(mix)))


def int_array(seed: int, salt: str, n: int, lo: int = 0,
              hi: int = 256) -> list[int]:
    return [int(x) for x in rng(seed, salt).integers(lo, hi, size=n)]


def float_array(seed: int, salt: str, n: int, lo: float = -1.0,
                hi: float = 1.0) -> list[float]:
    """Floats rounded to three decimals so reference computations in
    Python match the simulator bit-for-bit (both use binary64)."""
    values = rng(seed, salt).uniform(lo, hi, size=n)
    return [float(round(x, 3)) for x in values]


def permutation(seed: int, salt: str, n: int) -> list[int]:
    return [int(x) for x in rng(seed, salt).permutation(n)]


def linked_list_order(seed: int, salt: str, n: int) -> list[int]:
    """next[] pointers forming one random Hamiltonian cycle over
    range(n) -- the mcf/pointer-chase input."""
    perm = permutation(seed, salt, n)
    nxt = [0] * n
    for i in range(n):
        nxt[perm[i]] = perm[(i + 1) % n]
    return nxt


def sparse_rows(
    seed: int, salt: str, rows: int, cols: int, per_row: int
) -> tuple[list[int], list[int], list[float]]:
    """A CSR-ish matrix: (row_start, col_index, value) arrays with
    exactly ``per_row`` entries per row (simplifies dataflow loops)."""
    g = rng(seed, salt)
    row_start = [i * per_row for i in range(rows + 1)]
    col_index: list[int] = []
    values: list[float] = []
    for _ in range(rows):
        cols_here = sorted(
            int(c) for c in g.choice(cols, size=per_row, replace=False)
        )
        col_index.extend(cols_here)
        values.extend(float(round(v, 3)) for v in g.uniform(-1, 1, per_row))
    return row_start, col_index, values
