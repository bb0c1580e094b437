"""Chunked random-walk power-iteration embedding over a co-occurrence graph.

The training loop:

1. Partition the edge set into Q chunks by a stable hash of the code pair.
2. Per chunk, build the row-stochastic transition matrix
   m(a, b) = e_ab / deg_q(a), where deg_q is the weighted degree counted
   within the chunk only.
3. Initialize one row per non-isolated node from U(-1, 1), keyed by
   (seed, product code) so the result is independent of node order,
   chunking, and thread count; rows are L2-normalized at initialization.
   Each chunk starts from its nodes' rows.
4. Per chunk, iterate I times: multiply by the transition matrix, then
   L2-normalize each row.
5. Merge chunks per node with weights w(q, v) = deg_q(v) / deg(v), adding
   each chunk into one sum per requested iteration count, and L2-normalize
   the merged rows.

Embeddings trained with a single iteration capture direct co-purchase
structure (complements); more iterations (six by default) capture shared
purchase context (substitutes). One pass can yield both.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyGraphError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
    UnknownProductError,
)
from .ingest import CooccurrenceGraph, nearest_codes

# A multiply result with norm at or below this is treated as a cancelled row.
ZERO_ROW_NORM = 1e-30

DEFAULT_DIMENSION = 1024
SUBSTITUTE_ITERATIONS = 6
COMPLEMENT_ITERATIONS = 1

# Guard for the dense reference path, which materializes an n x n matrix.
DENSE_REFERENCE_MAX_NODES = 10_000

# Values per np.loadtxt call in read_embedding (64 rows at d=128). Larger
# batches left more memory behind after the read; chosen by peak memory.
_READ_VALUES = 1 << 13


@dataclass
class EmbeddingMatrix:
    """Embedding rows for a node set, one L2-normalized vector per node.

    Attributes:
        codes: external product codes, one per row, in row order.
        vectors: (n, d) float64 array.
        iterations: iteration count the rows were trained with, or None
            when unknown (e.g. read back from a file).
        seed: seed the rows were trained with, or None when unknown.
        zero_rows_replaced: how many multiply results cancelled to zero and
            were replaced by their previous value during training.
    """

    codes: list
    vectors: np.ndarray
    iterations: int | None = None
    seed: int | None = None
    zero_rows_replaced: int = 0
    _index: dict = field(default=None, repr=False, compare=False)
    _norms: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.codes)

    def index_map(self) -> dict:
        if self._index is None:
            self._index = {code: i for i, code in enumerate(self.codes)}
        return self._index

    def row_norms(self) -> np.ndarray:
        """L2 norm of every row, computed once and cached like
        :meth:`index_map`, so ``vectors`` must not be edited in place."""
        if self._norms is None:
            self._norms = np.linalg.norm(self.vectors, axis=1)
        return self._norms

    def vector(self, code: str) -> np.ndarray:
        idx = self.index_map().get(code)
        if idx is None:
            raise UnknownProductError(code, nearest_codes(code, self.codes))
        return self.vectors[idx]


@dataclass
class TransitionMatrix:
    """Row-stochastic transition matrix for one chunk.

    Attributes:
        chunk_index: which chunk this matrix belongs to.
        nodes: global vocabulary indices of the chunk's nodes, ascending.
        matrix: (n_q, n_q) CSR matrix with m(a, b) = e_ab / deg_q(a).
        degrees: float64 chunk-local weighted degree deg_q of each node,
            aligned with ``nodes``.
    """

    chunk_index: int
    nodes: np.ndarray
    matrix: sp.csr_matrix
    degrees: np.ndarray


def partition_chunks(graph: CooccurrenceGraph, chunk_count: int) -> np.ndarray:
    """Chunk id of every edge, aligned with the graph's edge arrays.

    An edge's chunk is ``crc32(code_lo + "\\x1e" + code_hi) % chunk_count``
    over its two UTF-8 codes in sorted order, so the assignment does not
    depend on vocabulary insertion order.
    """
    if chunk_count < 1:
        raise InvalidParameterError(f"chunk count must be >= 1, got {chunk_count}")
    if chunk_count == 1:
        return np.zeros(graph.edge_count, dtype=np.int64)
    codes = graph.vocabulary.codes
    rank = np.empty(len(codes), dtype=np.int64)
    rank[sorted(range(len(codes)), key=codes.__getitem__)] = np.arange(len(codes))
    swap = rank[graph.a] > rank[graph.b]
    lo = np.where(swap, graph.b, graph.a).tolist()
    hi = np.where(swap, graph.a, graph.b).tolist()
    encoded = [code.encode("utf-8") for code in codes]
    # crc32 continues from a running value, so each code's prefix is hashed once.
    head = [zlib.crc32(e + b"\x1e") for e in encoded]
    crcs = [zlib.crc32(encoded[y], head[x]) for x, y in zip(lo, hi)]
    return np.array(crcs, dtype=np.int64) % chunk_count


def build_transition(
    graph: CooccurrenceGraph, chunk_ids: np.ndarray, chunk_index: int
) -> TransitionMatrix:
    """Build chunk ``chunk_index``'s transition matrix from the edges
    whose entry in ``chunk_ids`` (see :func:`partition_chunks`) equals it.

    Rows are normalized by the chunk-local weighted degree, so every row
    over the chunk's node set sums to 1.
    """
    mask = chunk_ids == chunk_index
    if not mask.any():
        raise InvalidParameterError(f"chunk {chunk_index} has no edges")
    w = graph.w[mask]
    nodes = np.unique(np.concatenate([graph.a[mask], graph.b[mask]]))
    ia = np.searchsorted(nodes, graph.a[mask])
    ib = np.searchsorted(nodes, graph.b[mask])
    n = len(nodes)
    deg = np.bincount(ia, weights=w, minlength=n) + np.bincount(ib, weights=w, minlength=n)
    matrix = sp.csr_matrix(
        (
            np.concatenate([w / deg[ia], w / deg[ib]]),
            (np.concatenate([ia, ib]), np.concatenate([ib, ia])),
        ),
        shape=(n, n),
    )
    return TransitionMatrix(chunk_index, nodes, matrix, deg)


_ZEROS = (0, 0, 0, 0)


def reseed_philox(gen: np.random.Generator, text: str) -> None:
    """Reset ``gen``'s Philox bit generator to the state a fresh
    ``Philox(key=int.from_bytes(blake2b(text, digest_size=16), "little"))``
    starts in: a zero counter and an empty buffer. Cheaper than building
    a new generator."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": struct.unpack("<QQ", digest)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def init_embedding(codes: Sequence[str], d: int, seed: int) -> EmbeddingMatrix:
    """Iteration-0 embedding: per-node seeded U(-1, 1) rows, L2-normalized.

    Entry (v, j) depends only on (seed, code of v, j), never on node order,
    chunk membership, or thread count. Each call reseeds one local
    generator per code, so concurrent calls do not share state.
    """
    if d < 1:
        raise InvalidParameterError(f"dimension must be >= 1, got {d}")
    vectors = np.empty((len(codes), d), dtype=np.float64)
    gen = np.random.Generator(np.random.Philox(0))
    for i, code in enumerate(codes):
        reseed_philox(gen, f"{seed}\x1e{code}")
        vectors[i] = gen.uniform(-1.0, 1.0, d)
    # uniform() can return its low endpoint, which the open interval
    # excludes, and a row can be too short to normalize. Such rows are drawn
    # again from their own seed and fixed by redrawing. A row's norm is at
    # least its largest entry up to rounding, so the doubled bound flags
    # every row whose norm can be at most ZERO_ROW_NORM.
    peak = np.abs(vectors).max(axis=1)
    for i in np.flatnonzero((peak >= 1.0) | (peak <= 2 * ZERO_ROW_NORM)).tolist():
        reseed_philox(gen, f"{seed}\x1e{codes[i]}")
        row = gen.uniform(-1.0, 1.0, d)
        bad = np.abs(row) >= 1.0
        while bad.any():
            row[bad] = gen.uniform(-1.0, 1.0, int(bad.sum()))
            bad = np.abs(row) >= 1.0
        while np.linalg.norm(row) <= ZERO_ROW_NORM:
            row = gen.uniform(-1.0, 1.0, d)
        vectors[i] = row
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return EmbeddingMatrix(list(codes), vectors, iterations=0, seed=seed)


def _matmul_rows(matrix: sp.csr_matrix, vectors: np.ndarray, threads: int) -> np.ndarray:
    """matrix @ vectors, optionally split across row blocks, using at most
    ``os.cpu_count()`` threads.

    Each row is accumulated over its stored neighbors in a fixed order, so
    the result is identical for every thread count.
    """
    n = matrix.shape[0]
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or n < 2 * threads:
        return matrix @ vectors
    out = np.empty((n, vectors.shape[1]), dtype=np.float64)
    bounds = np.linspace(0, n, threads + 1).astype(int)

    def work(i: int) -> None:
        a, b = bounds[i], bounds[i + 1]
        out[a:b] = matrix[a:b] @ vectors

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    return out


def iterate(
    T_prev: EmbeddingMatrix, M: TransitionMatrix, threads: int = 1
) -> EmbeddingMatrix:
    """One power-iteration step: multiply by M, then L2-normalize rows."""
    if T_prev.vectors.shape[0] != M.matrix.shape[0]:
        raise InternalConsistencyError(
            f"embedding has {T_prev.vectors.shape[0]} rows, "
            f"transition matrix expects {M.matrix.shape[0]}"
        )
    raw = _matmul_rows(M.matrix, T_prev.vectors, threads)
    norms = np.linalg.norm(raw, axis=1)
    zero = norms <= ZERO_ROW_NORM
    replaced = int(zero.sum())
    if replaced:
        # Exact cancellation: keep the previous (already unit-norm) row.
        raw[zero] = T_prev.vectors[zero]
        norms[zero] = 1.0
    raw /= norms[:, None]
    done = None if T_prev.iterations is None else T_prev.iterations + 1
    return EmbeddingMatrix(
        T_prev.codes,
        raw,
        iterations=done,
        seed=T_prev.seed,
        zero_rows_replaced=T_prev.zero_rows_replaced + replaced,
    )


def train(
    graph: CooccurrenceGraph,
    d: int = DEFAULT_DIMENSION,
    iterations: int | Sequence[int] = SUBSTITUTE_ITERATIONS,
    chunks: int = 1,
    seed: int = 0,
    threads: int = 1,
) -> EmbeddingMatrix | list[EmbeddingMatrix]:
    """Train an embedding: partition, per-chunk iteration, weighted merge.

    Every non-isolated product gets one initial row. Each chunk iterates
    its nodes' rows, then adds them, scaled by w(q, v), into one
    (nodes x d) sum in ascending chunk order, and is dropped. Merged rows
    are L2-normalized and follow vocabulary order.

    ``iterations`` is one count, giving one space, or a sequence of counts
    such as ``(6, 1)``, giving a list of spaces in that order from one
    pass: each chunk iterates up to the largest count and adds its rows
    into each count's own sum when it reaches that count. Every space
    equals the one a separate call with its count returns.

    Deterministic for fixed (graph, d, iterations, chunks, seed) at every
    thread count; ``threads`` above ``os.cpu_count()`` is clamped to it.
    Isolated products are absent from the output.

    Raises:
        InvalidParameterError: on non-positive d, iteration counts, chunks
            or threads, or an empty sequence of counts.
        EmptyGraphError: if the graph has no edges.
        InternalConsistencyError: if a merged row cancels to zero or a
            value is NaN or infinite.
    """
    single = np.ndim(iterations) == 0
    counts = [iterations] if single else list(iterations)
    if d < 1:
        raise InvalidParameterError(f"dimension must be >= 1, got {d}")
    if not counts:
        raise InvalidParameterError("need at least one iteration count")
    for count in counts:
        if count < 1:
            raise InvalidParameterError(f"iteration count must be >= 1, got {count}")
    if threads < 1:
        raise InvalidParameterError(f"thread count must be >= 1, got {threads}")
    if graph.edge_count == 0:
        raise EmptyGraphError("the co-occurrence graph has no edges")
    chunk_ids = partition_chunks(graph, chunks)
    nodes = np.flatnonzero(graph.degrees > 0)
    vocab_codes = graph.vocabulary.codes
    codes = [vocab_codes[v] for v in nodes.tolist()]
    start = init_embedding(codes, d, seed).vectors
    merged = [np.zeros_like(start) for _ in counts]
    replaced = [0] * len(counts)
    for q in np.unique(chunk_ids).tolist():
        M = build_transition(graph, chunk_ids, q)
        pos = np.searchsorted(nodes, M.nodes)
        weights = (M.degrees / graph.degrees[M.nodes])[:, None]
        T = EmbeddingMatrix(
            [codes[i] for i in pos.tolist()], start[pos], iterations=0, seed=seed
        )
        for step in range(1, max(counts) + 1):
            T = iterate(T, M, threads=threads)
            for j, count in enumerate(counts):
                if count == step:
                    merged[j][pos] += weights * T.vectors
                    replaced[j] += T.zero_rows_replaced
    spaces = []
    for count, rows, lost in zip(counts, merged, replaced):
        norms = np.linalg.norm(rows, axis=1)
        if (norms <= ZERO_ROW_NORM).any():
            raise InternalConsistencyError("merged row cancelled to zero")
        rows /= norms[:, None]
        if not np.isfinite(rows).all():
            raise InternalConsistencyError("embedding contains NaN or Inf entries")
        spaces.append(
            EmbeddingMatrix(
                list(codes), rows, iterations=count, seed=seed, zero_rows_replaced=lost
            )
        )
    return spaces[0] if single else spaces


def dense_reference_train(
    graph: CooccurrenceGraph, d: int, iterations: int, seed: int
) -> EmbeddingMatrix:
    """Brute-force single-chunk reference used as a testing oracle.

    Same contract as ``train(chunks=1)``, computed with an explicit dense
    transition matrix and plain array loops; shares only the seeded row
    initialization with the production path.
    """
    if d < 1:
        raise InvalidParameterError(f"dimension must be >= 1, got {d}")
    if iterations < 1:
        raise InvalidParameterError(f"iteration count must be >= 1, got {iterations}")
    if graph.edge_count == 0:
        raise EmptyGraphError("the co-occurrence graph has no edges")
    vocab = graph.vocabulary
    nodes = [int(v) for v in np.flatnonzero(graph.degrees > 0)]
    if len(nodes) > DENSE_REFERENCE_MAX_NODES:
        raise InvalidParameterError(
            f"dense reference limited to {DENSE_REFERENCE_MAX_NODES} nodes, "
            f"got {len(nodes)}"
        )
    local = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    M = np.zeros((n, n), dtype=np.float64)
    for a, b, w in zip(graph.a.tolist(), graph.b.tolist(), graph.w.tolist()):
        M[local[a], local[b]] = w
        M[local[b], local[a]] = w
    M /= M.sum(axis=1, keepdims=True)
    codes = [vocab.code(v) for v in nodes]
    T = init_embedding(codes, d, seed).vectors
    for _ in range(iterations):
        raw = M @ T
        norms = np.linalg.norm(raw, axis=1)
        zero = norms <= ZERO_ROW_NORM
        if zero.any():
            raw[zero] = T[zero]
            norms[zero] = 1.0
        T = raw / norms[:, None]
    # Mirror the merge-stage normalization of the production path.
    T = T / np.linalg.norm(T, axis=1, keepdims=True)
    return EmbeddingMatrix(codes, T, iterations=iterations, seed=seed)


def write_embedding(emb: EmbeddingMatrix, stream: TextIO) -> None:
    """Write the text format: ``<row_count> <d>`` header, then per node
    ``<code> <v1> ... <vd>`` at 9 significant digits.

    Values are rounded for writing; cosine ties closer than about 1e-8 may
    resolve differently after a round-trip.
    """
    n, d = emb.vectors.shape
    stream.write(f"{n} {d}\n")
    # '%.9g' % x equals format(x, ".9g"); one row is converted at a time.
    line = "%s" + " %.9g" * d + "\n"
    for code, row in zip(emb.codes, emb.vectors):
        stream.write(line % (code, *row.tolist()))


def read_embedding(stream: TextIO) -> EmbeddingMatrix:
    """Read the text format written by :func:`write_embedding`.

    Rows are read in batches of ``max(1, 8192 // d)`` lines, and one
    ``np.loadtxt`` call parses a batch's values. A batch with any sign of
    trouble is parsed again one line at a time, which accepts every token
    ``np.asarray`` does (``1_000``, ``\u0661``) and raises the first error in
    file order. The result carries no iteration or seed metadata.

    Raises:
        MalformedInputError: on a bad header, a short, duplicate,
            non-numeric or non-finite row, or a row beyond the declared
            count.
    """
    header = stream.readline()
    parts = header.split()
    if len(parts) != 2:
        raise MalformedInputError(
            f"embedding header must be '<row_count> <d>', got {header.rstrip()!r}"
        )
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedInputError(
            f"embedding header must be two integers, got {header.rstrip()!r}"
        ) from None
    if n < 0 or d < 1:
        raise MalformedInputError(f"invalid embedding shape {n} x {d}")
    codes = []
    vectors = np.empty((n, d), dtype=np.float64)
    seen = set()
    batch = max(1, _READ_VALUES // d)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        lines = list(islice(stream, stop - start))
        try:
            # Unpacking fails on a line without values. Parsing only the
            # values makes a ragged width raise; the shape check catches a
            # short read, a uniform wrong width and lines loadtxt skips.
            new, rests = zip(*(line.split(None, 1) for line in lines))
            block = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
            clean = block.shape == (stop - start, d) and np.isfinite(block).all()
        except ValueError:
            clean = False
        if clean and len(set(new)) == len(new) and seen.isdisjoint(new):
            vectors[start:stop] = block
            codes += new
            seen.update(new)
        else:
            _read_rows(chain(lines, stream), start, stop, vectors, codes, seen)
    for lineno, line in enumerate(stream, start=n + 2):
        if line.strip() and not line.lstrip().startswith("#"):
            raise MalformedInputError(
                f"line {lineno}: row beyond the {n} the header declares"
            )
    return EmbeddingMatrix(codes, vectors, iterations=None, seed=None)


def _read_rows(lines: Iterator[str], start: int, stop: int, vectors, codes, seen) -> None:
    """Parse rows ``start`` to ``stop - 1`` one line at a time, raising the
    first error in file order."""
    n, d = vectors.shape
    for i in range(start, stop):
        line = next(lines, "")
        if not line:
            raise MalformedInputError(f"expected {n} embedding rows, found {i}")
        tokens = line.split()
        if len(tokens) != d + 1:
            raise MalformedInputError(
                f"line {i + 2}: expected a code and {d} values, got {len(tokens)} tokens"
            )
        code = tokens[0]
        if code in seen:
            # Row j sits on line j + 2; a code -> line dict would cost
            # memory on every read, the search only on this error.
            raise MalformedInputError(
                f"line {i + 2}: duplicate code {code!r}, first listed on line "
                f"{codes.index(code) + 2}"
            )
        seen.add(code)
        codes.append(code)
        try:
            vectors[i] = np.asarray(tokens[1:], dtype=np.float64)
        except ValueError:
            raise MalformedInputError(f"line {i + 2}: non-numeric value") from None
        if not np.isfinite(vectors[i]).all():
            raise MalformedInputError(f"line {i + 2}: NaN or infinite value")
