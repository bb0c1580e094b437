"""Exact cosine k-nearest-neighbor mining of substitutes and complements.

Substitute queries run against the multi-iteration (shared-context) space
and complement queries against the single-iteration (direct co-purchase)
space. A seeded random recommender provides the evaluation baseline.
"""

from __future__ import annotations

import warnings
from os.path import commonprefix
from typing import Iterable, Sequence, TextIO

import numpy as np

from .embedding import (
    COMPLEMENT_ITERATIONS,
    SUBSTITUTE_ITERATIONS,
    EmbeddingMatrix,
    _row_norms,
    reseed_philox,
)
from .errors import (
    ConfigurationMismatchWarning,
    InvalidParameterError,
    UnknownProductError,
    at_least,
)


# Similarities are computed one block of rows at a time, each block a whole
# (rows x n) product. A block holds max(2, BLOCK_ENTRIES // n) rows, so the
# partition depends on n alone: BLAS picks its kernel by block height (GEMV
# for one row, GEMM for more), and a row's similarities must come from the
# same call whichever queries ask for it.
BLOCK_ENTRIES = 2**17  # 1 MiB of float64


# Up to this many neighbours per query, a block's picks come from k argmax
# passes over its rows; beyond it, each queried row is partitioned instead.
_ARGMAX_MAX_K = 8


def nearest_codes(code: str, known: Iterable[str]) -> list[str]:
    """The five known codes with the longest shared prefix with ``code``,
    then by code; the suggestions an :class:`UnknownProductError` carries."""
    return sorted(known, key=lambda c: (-len(commonprefix([code, c])), c))[:5]


def _reject_string(queries) -> None:
    if isinstance(queries, str):
        raise InvalidParameterError(
            f"queries must be a sequence of product codes, got the string {queries!r}"
        )


def _argmax_picks(sims: np.ndarray, passes: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's ``passes`` largest entries,
    by similarity descending and column ascending, as (rows x passes) arrays.

    Each pass takes every row's maximum (``argmax`` returns the lowest
    column among equal maxima) and overwrites it with -inf, in place.
    """
    every = np.arange(len(sims))
    picks = np.empty((passes, len(sims)), dtype=np.int64)
    values = np.empty((passes, len(sims)))
    for i in range(passes):
        picks[i] = sims.argmax(axis=1)
        values[i] = sims[every, picks[i]]
        sims[every, picks[i]] = -np.inf
    return picks.T, values.T


def top_k_batch(
    embeddings: EmbeddingMatrix,
    queries: Iterable[str],
    k: int,
    candidates: Iterable[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k cosine neighbors of every query, as ``(rows, sims)``.

    ``rows`` is an int64 (queries x width) array of indices into
    ``embeddings.codes``, one row per query in query order, best first;
    ``sims`` holds the float64 similarities that go with them. The width
    is that of the longest list: k, unless fewer candidates are left. A
    shorter list is padded at its end with -1 in ``rows`` and NaN in
    ``sims``.

    Ties are broken by ascending row index, so results are deterministic,
    and a query's list does not depend on which other queries share the
    batch.

    Args:
        embeddings: the space to search.
        queries: a sequence of query product codes; a bare string is
            rejected rather than read as one code per character.
        k: how many neighbors to return per query.
        candidates: optional restriction of the candidate codes (unknown
            codes are ignored; a query is always excluded from its own list).

    Raises:
        UnknownProductError: if a query is not embedded.
        InvalidParameterError: if ``queries`` is a string, if k < 1, if
            the space holds a NaN or infinite value, or if a query or a
            candidate it is ranked against is a zero vector.
    """
    _reject_string(queries)
    at_least("k", k, 1)
    codes = embeddings.codes
    index = {code: i for i, code in enumerate(codes)}
    queries = list(queries)
    rows = []
    for query in queries:
        row = index.get(query)
        if row is None:
            raise UnknownProductError(query, nearest_codes(query, codes))
        rows.append(row)
    n = len(codes)
    vectors = embeddings.vectors
    norms = _row_norms(vectors)
    if not np.isfinite(norms).all():
        raise InvalidParameterError("embedding holds a NaN or infinite value")
    if candidates is None:
        pool = np.ones(n, dtype=bool)
    else:
        pool = np.zeros(n, dtype=bool)
        pool[[index[c] for c in candidates if c in index]] = True
    zero = pool & (norms == 0.0)
    pool_size, zero_count = int(pool.sum()), int(zero.sum())
    for row in rows:
        if pool_size - int(pool[row]) and (
            norms[row] == 0.0 or zero_count - int(zero[row])
        ):
            raise InvalidParameterError(
                "cosine similarity of a zero vector is undefined"
            )
    step = max(2, BLOCK_ENTRIES // max(n, 1))
    by_block: dict = {}
    for pos, row in enumerate(rows):
        by_block.setdefault(row // step, []).append(pos)
    sizes = np.minimum(pool_size - pool[rows], min(k, n))
    width = int(sizes.max(initial=0))
    picked = np.full((len(queries), width), -1, dtype=np.int64)
    picked_sims = np.full((len(queries), width), np.nan)
    buffer = np.empty((min(step, n), n))
    for block, positions in by_block.items():
        a = block * step
        z = min(a + step, n)
        sims = np.matmul(vectors[a:z], vectors.T, out=buffer[: z - a])
        # A zero row that no query ranks against gives 0/0 here; those
        # entries are masked or never read.
        with np.errstate(invalid="ignore", divide="ignore"):
            for i, norm in enumerate(norms[a:z]):
                sims[i] /= norm * norms
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[:, ~pool] = -np.inf
        targets = np.array([rows[pos] for pos in positions])
        most = int(sizes[positions].max())
        if most <= _ARGMAX_MAX_K:
            # Drop each query's own entry, then scan the rows from the first
            # queried one to the last.
            sims[targets - a, targets] = -np.inf
            lo = targets.min()
            picks, values = _argmax_picks(sims[lo - a : targets.max() + 1 - a], most)
            short = np.arange(most) >= sizes[positions, None]
            picked[positions, :most] = np.where(short, -1, picks[targets - lo])
            picked_sims[positions, :most] = np.where(short, np.nan, values[targets - lo])
            continue
        for pos, row, size in zip(positions, targets.tolist(), sizes[positions].tolist()):
            if size == 0:
                continue
            line = sims[row - a]
            line[row] = -np.inf
            # Keep every entry tied with the k-th value, then order by
            # similarity descending and row index ascending.
            kth = np.partition(line, n - size)[n - size]
            top = np.flatnonzero(line >= kth)
            picked[pos, :size] = top[np.lexsort((top, -line[top]))][:size]
            picked_sims[pos, :size] = line[picked[pos, :size]]
    return picked, picked_sims


def recommend_substitutes(
    substitute_space: EmbeddingMatrix, queries: Sequence[str], k: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k substitute candidates from the shared-context space:
    :func:`top_k_batch` with the same arguments and errors.

    Warns (without failing) once per call if the space's recorded
    iteration count is below :data:`SUBSTITUTE_ITERATIONS`.
    """
    done = substitute_space.iterations
    if done is not None and done < SUBSTITUTE_ITERATIONS:
        warnings.warn(
            f"substitute queries expect an embedding trained with at least "
            f"{SUBSTITUTE_ITERATIONS} iterations; this space records {done}",
            ConfigurationMismatchWarning,
            stacklevel=2,
        )
    return top_k_batch(substitute_space, queries, k)


def recommend_complements(
    complement_space: EmbeddingMatrix, queries: Sequence[str], k: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k complement candidates from the direct co-purchase space:
    :func:`top_k_batch` with the same arguments and errors.

    Warns (without failing) once per call if the space's recorded
    iteration count does not equal :data:`COMPLEMENT_ITERATIONS`.
    """
    done = complement_space.iterations
    if done is not None and done != COMPLEMENT_ITERATIONS:
        warnings.warn(
            f"complement queries expect an embedding trained with exactly "
            f"{COMPLEMENT_ITERATIONS} iteration(s); this space records {done}",
            ConfigurationMismatchWarning,
            stacklevel=2,
        )
    return top_k_batch(complement_space, queries, k)


def random_recommender(
    vocabulary: Sequence[str], queries: Sequence[str], k: int, seed: int
) -> np.ndarray:
    """Baseline: k distinct products sampled uniformly, excluding the query.

    ``vocabulary`` holds distinct codes. Gives an int64 (queries x k) array
    of positions in ``vocabulary``, one row per query in query order; a
    bare string is rejected, as by :func:`top_k_batch`. Deterministic per
    (seed, query), whatever the other queries.
    """
    _reject_string(queries)
    at_least("k", k, 1)
    n = len(vocabulary)
    position = {code: i for i, code in enumerate(vocabulary)}
    gen = np.random.Generator(np.random.Philox(0))
    # A k above n fails below for every query, before any row is written.
    picked = np.empty((len(queries), min(k, n)), dtype=np.int64)
    for i, query in enumerate(queries):
        skip = position.get(query, n)
        pool = n - (skip < n)
        if k > pool:
            raise InvalidParameterError(f"k={k} exceeds the {pool} available products")
        reseed_philox(gen, f"{seed}\x1erandom\x1e{query}")
        # Pick among the other products by position, stepping over the query.
        picks = gen.choice(pool, size=k, replace=False)
        picked[i] = picks + (picks >= skip)
    return picked


def write_neighbors(
    codes: Sequence[str], queries: Sequence[str], rows, sims, stream: TextIO
) -> None:
    """Write the ``(rows, sims)`` of :func:`top_k_batch` as tab-separated
    lines ``<query> <rank> <neighbor> <similarity>``, rank starting at 1;
    ``rows`` index ``codes``, and padding is skipped."""
    for query, picks, values in zip(queries, rows.tolist(), sims.tolist()):
        for rank, (j, sim) in enumerate(zip(picks, values), start=1):
            if j >= 0:
                stream.write(f"{query}\t{rank}\t{codes[j]}\t{format(sim, '.9g')}\n")
