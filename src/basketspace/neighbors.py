"""Exact cosine k-nearest-neighbor mining of substitutes and complements.

Substitute queries run against the multi-iteration (shared-context) space
and complement queries against the single-iteration (direct co-purchase)
space. A seeded random recommender provides the evaluation baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .embedding import (
    COMPLEMENT_ITERATIONS,
    SUBSTITUTE_ITERATIONS,
    EmbeddingMatrix,
    reseed_philox,
)
from .errors import (
    ConfigurationMismatchWarning,
    InvalidParameterError,
    UnknownProductError,
)
from .ingest import nearest_codes


@dataclass
class NeighborList:
    """Ranked neighbors for one query.

    Attributes:
        query: the query product code.
        neighbors: (code, similarity) pairs in non-increasing similarity
            order; the query never appears; no duplicates.
        relation_kind: "substitute", "complement", or "random".
    """

    query: str
    neighbors: list
    relation_kind: str = "substitute"

    def codes(self) -> list:
        return [code for code, _ in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


# Similarities are computed one block of rows at a time, each block a whole
# (rows x n) product. A block holds max(2, BLOCK_ENTRIES // n) rows, so the
# partition depends on n alone: BLAS picks its kernel by block height (GEMV
# for one row, GEMM for more), and a row's similarities must come from the
# same call whichever queries ask for it.
BLOCK_ENTRIES = 2**17  # 1 MiB of float64


# Up to this many neighbours per query, a block's picks come from k argmax
# passes over its rows; beyond it, each queried row is partitioned instead.
_ARGMAX_MAX_K = 8


def _reject_string(queries) -> None:
    if isinstance(queries, str):
        raise InvalidParameterError(
            f"queries must be a sequence of product codes, got the string {queries!r}"
        )


def _argmax_picks(sims: np.ndarray, passes: int) -> tuple[list, list]:
    """Column indices and values of each row's ``passes`` largest entries,
    by similarity descending and column ascending, one list per row.

    Each pass takes every row's maximum (``argmax`` returns the lowest
    column among equal maxima) and overwrites it with -inf, in place.
    """
    every = np.arange(len(sims))
    picks = np.empty((passes, len(sims)), dtype=np.intp)
    values = np.empty((passes, len(sims)))
    for i in range(passes):
        picks[i] = sims.argmax(axis=1)
        values[i] = sims[every, picks[i]]
        sims[every, picks[i]] = -np.inf
    return picks.T.tolist(), values.T.tolist()


def top_k_batch(
    embeddings: EmbeddingMatrix,
    queries: Iterable[str],
    k: int,
    candidates: Iterable[str] | None = None,
    relation_kind: str = "substitute",
) -> list[NeighborList]:
    """Exact top-k cosine neighbors of every query, one NeighborList per
    query in query order.

    Ties are broken by ascending row index, so results are deterministic,
    and a query's list does not depend on which other queries share the
    batch.

    Args:
        embeddings: the space to search.
        queries: a sequence of query product codes; a bare string is
            rejected rather than read as one code per character.
        k: how many neighbors to return per query (fewer if the pool is
            small).
        candidates: optional restriction of the candidate codes (unknown
            codes are ignored; a query is always excluded from its own list).
        relation_kind: label recorded on the results.

    Raises:
        UnknownProductError: if a query is not embedded.
        InvalidParameterError: if ``queries`` is a string, if k < 1, if
            the space holds a NaN or infinite value, or if a query or a
            candidate it is ranked against is a zero vector.
    """
    _reject_string(queries)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    codes = embeddings.codes
    index = embeddings.index_map()
    queries = list(queries)
    rows = []
    for query in queries:
        row = index.get(query)
        if row is None:
            raise UnknownProductError(query, nearest_codes(query, codes))
        rows.append(row)
    n = len(codes)
    norms = embeddings.row_norms()
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
    vectors = embeddings.vectors
    step = max(2, BLOCK_ENTRIES // max(n, 1))
    by_block: dict = {}
    for pos, row in enumerate(rows):
        by_block.setdefault(row // step, []).append(pos)
    results = [None] * len(queries)
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
        targets = [rows[pos] for pos in positions]
        sizes = [min(k, pool_size - int(pool[row])) for row in targets]
        most = max(sizes)
        if most <= _ARGMAX_MAX_K:
            # Drop each query's own entry, then scan the rows from the first
            # queried one to the last.
            sims[[row - a for row in targets], targets] = -np.inf
            lo = min(targets)
            picks, values = _argmax_picks(sims[lo - a : max(targets) + 1 - a], most)
            for pos, row, size in zip(positions, targets, sizes):
                pairs = zip(picks[row - lo][:size], values[row - lo])
                results[pos] = NeighborList(
                    queries[pos], [(codes[j], v) for j, v in pairs], relation_kind
                )
            continue
        for pos, row, size in zip(positions, targets, sizes):
            if size == 0:
                results[pos] = NeighborList(queries[pos], [], relation_kind)
                continue
            line = sims[row - a]
            line[row] = -np.inf
            # Keep every entry tied with the k-th value, then order by
            # similarity descending and row index ascending.
            kth = np.partition(line, n - size)[n - size]
            top = np.flatnonzero(line >= kth)
            top = top[np.lexsort((top, -line[top]))][:size]
            results[pos] = NeighborList(
                queries[pos],
                [(codes[j], float(line[j])) for j in top],
                relation_kind,
            )
    return results


def recommend_substitutes(
    substitute_space: EmbeddingMatrix,
    queries: Sequence[str],
    k: int = 2,
    candidates: Iterable[str] | None = None,
    expected_iterations: int = SUBSTITUTE_ITERATIONS,
) -> list[NeighborList]:
    """Top-k substitute candidates from the shared-context space:
    :func:`top_k_batch` with the same arguments and errors.

    Warns (without failing) once per call if the space's recorded
    iteration count is below ``expected_iterations``.
    """
    done = substitute_space.iterations
    if done is not None and done < expected_iterations:
        warnings.warn(
            f"substitute queries expect an embedding trained with at least "
            f"{expected_iterations} iterations; this space records {done}",
            ConfigurationMismatchWarning,
            stacklevel=2,
        )
    return top_k_batch(substitute_space, queries, k, candidates, "substitute")


def recommend_complements(
    complement_space: EmbeddingMatrix,
    queries: Sequence[str],
    k: int = 2,
    candidates: Iterable[str] | None = None,
    expected_iterations: int = COMPLEMENT_ITERATIONS,
) -> list[NeighborList]:
    """Top-k complement candidates from the direct co-purchase space:
    :func:`top_k_batch` with the same arguments and errors.

    Warns (without failing) once per call if the space's recorded
    iteration count does not equal ``expected_iterations``.
    """
    done = complement_space.iterations
    if done is not None and done != expected_iterations:
        warnings.warn(
            f"complement queries expect an embedding trained with exactly "
            f"{expected_iterations} iteration(s); this space records {done}",
            ConfigurationMismatchWarning,
            stacklevel=2,
        )
    return top_k_batch(complement_space, queries, k, candidates, "complement")


def random_recommender(
    vocabulary: Sequence[str], queries: Sequence[str], k: int, seed: int
) -> list[NeighborList]:
    """Baseline: k distinct products sampled uniformly, excluding the query.

    ``vocabulary`` holds distinct codes. Gives one NeighborList per query,
    in query order; a bare string is rejected, as by :func:`top_k_batch`.
    Deterministic per (seed, query), whatever the other queries;
    similarities are reported as 0.
    """
    _reject_string(queries)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    n = len(vocabulary)
    position = {code: i for i, code in enumerate(vocabulary)}
    gen = np.random.Generator(np.random.Philox(0))
    results = []
    for query in queries:
        skip = position.get(query, n)
        pool = n - (skip < n)
        if k > pool:
            raise InvalidParameterError(f"k={k} exceeds the {pool} available products")
        reseed_philox(gen, f"{seed}\x1erandom\x1e{query}")
        # Pick among the other products by position, stepping over the query.
        picks = gen.choice(pool, size=k, replace=False)
        picks += picks >= skip
        results.append(
            NeighborList(query, [(vocabulary[int(i)], 0.0) for i in picks], "random")
        )
    return results


def write_neighbors(lists: Iterable[NeighborList], stream: TextIO) -> None:
    """Write tab-separated lines ``<query> <rank> <neighbor> <similarity>``,
    rank starting at 1."""
    for nl in lists:
        for rank, (code, sim) in enumerate(nl.neighbors, start=1):
            stream.write(f"{nl.query}\t{rank}\t{code}\t{format(sim, '.9g')}\n")
