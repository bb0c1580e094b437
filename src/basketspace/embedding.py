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
   the merged rows. A single chunk weighs every node 1.0, so its rows at the
   largest count are that count's sum as they stand and get no sum.

Embeddings trained with a single iteration capture direct co-purchase
structure (complements); more iterations (six by default) capture shared
purchase context (substitutes). One pass can yield both.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    EmptyGraphError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
    at_least,
)
from .ingest import CooccurrenceGraph, _content_lines, _distinct

# A multiply result with norm at or below this is treated as a cancelled row.
ZERO_ROW_NORM = 1e-30

DEFAULT_DIMENSION = 1024
SUBSTITUTE_ITERATIONS = 6
COMPLEMENT_ITERATIONS = 1

# Values per np.loadtxt call in read_embedding (64 rows at d=128). Larger
# batches left more memory behind after the read; chosen by peak memory.
_READ_VALUES = 1 << 13

# Values per row block of row norms, merges and write_embedding (256 at d=128).
_BLOCK_VALUES = 1 << 15


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

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class TransitionMatrix:
    """Row-stochastic transition matrix for one chunk, as the three arrays
    of an (n_q, n_q) CSR matrix with m(a, b) = e_ab / deg_q(a).

    The layout is the one ``scipy.sparse.csr_matrix`` gives: row r's
    entries are ``indices[indptr[r]:indptr[r + 1]]`` (columns, ascending,
    no repeats) and the same slice of ``data`` (their values).

    Attributes:
        nodes: the graph's indices of the chunk's nodes, ascending; row and
            column r stand for node ``nodes[r]``.
        indptr: int64 row offsets, length n_q + 1.
        indices: int64 column of each stored entry.
        data: float64 value of each stored entry.
        degrees: float64 chunk-local weighted degree deg_q of each node,
            aligned with ``nodes``.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    degrees: np.ndarray


def partition_chunks(graph: CooccurrenceGraph, chunk_count: int) -> np.ndarray:
    """Chunk id of every edge, aligned with the graph's edge arrays.

    An edge's chunk is ``crc32(code_lo + "\\x1e" + code_hi) % chunk_count``
    over its two UTF-8 codes in sorted order, so the assignment does not
    depend on the order of the graph's codes.
    """
    at_least("chunk count", chunk_count, 1)
    if chunk_count == 1:
        return np.zeros(graph.edge_count, dtype=np.int64)
    codes = graph.codes
    rank = np.empty(len(codes), dtype=np.int64)
    rank[sorted(range(len(codes)), key=codes.__getitem__)] = np.arange(len(codes))
    swap = rank[graph.a] > rank[graph.b]
    lo = np.where(swap, graph.b, graph.a)
    hi = np.where(swap, graph.a, graph.b)
    encoded = [code.encode("utf-8") for code in codes]
    head = np.array([zlib.crc32(e + b"\x1e") for e in encoded], dtype=np.uint32)
    tail = np.array([zlib.crc32(e) for e in encoded], dtype=np.uint32)
    sizes = np.array([len(e) for e in encoded], dtype=np.int64)
    # crc32(hi, start) is crc32(hi) ^ S(start), with S the linear map that
    # runs a crc over len(hi) zero bytes.
    crcs = tail[hi] ^ _crc_over_zeros(head[lo], sizes[hi])
    # A crc32 is below 2**32, so any larger count leaves it as it is.
    return crcs.astype(np.int64) % min(chunk_count, 2**32)


def _crc_over_zeros(crcs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``zlib.crc32(bytes(n), c) ^ zlib.crc32(bytes(n))`` in place of each
    uint32 c in ``crcs``, n its entry in ``lengths``: a GF(2)-linear map of
    c, applied by four 256-entry tables, indexed by c's bytes, per set bit j
    of n. The tables for 2**j zero bytes are those for 2**(j - 1) applied to
    themselves."""

    def apply(c: np.ndarray) -> np.ndarray:
        low = tables[0][c & 0xFF] ^ tables[1][c >> 8 & 0xFF]
        return low ^ tables[2][c >> 16 & 0xFF] ^ tables[3][c >> 24]

    zero = zlib.crc32(b"\0")
    tables = np.array(
        [[zlib.crc32(b"\0", v << 8 * k) ^ zero for v in range(256)] for k in range(4)],
        dtype=np.uint32,
    )
    for j in range(int(lengths.max(initial=0)).bit_length()):
        if j:
            tables = apply(tables)
        pick = np.flatnonzero(lengths >> j & 1)
        crcs[pick] = apply(crcs[pick])
    return crcs


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
    present = np.zeros(len(graph.codes), dtype=bool)
    present[graph.a[mask]] = True
    present[graph.b[mask]] = True
    nodes = np.flatnonzero(present)
    local = np.cumsum(present) - 1
    ia, ib = local[graph.a[mask]], local[graph.b[mask]]
    n = len(nodes)
    deg = np.bincount(ia, weights=w, minlength=n) + np.bincount(ib, weights=w, minlength=n)
    # Entry (row, column) is keyed row * n + column. The keys are distinct,
    # so any sort of them gives the (row, column) order of the CSR layout.
    keys = np.concatenate([ib, ia])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    keys *= n
    keys[: len(ia)] += ia
    keys[len(ia) :] += ib
    data = np.concatenate([w / deg[ib], w / deg[ia]])
    # Each array is dropped as soon as it is used, to keep the build's peak low.
    del ia, ib, local
    order = np.argsort(keys)
    data = data[order]
    indices = keys[order]
    del keys, order
    indices %= n
    return TransitionMatrix(nodes, indptr, indices, data, deg)


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


def init_embedding(codes: Sequence[str], d: int, seed: int) -> np.ndarray:
    """Iteration-0 rows: a float64 (codes x d) array of per-node seeded
    U(-1, 1) rows, L2-normalized, in the order of ``codes``.

    Entry (v, j) depends only on (seed, code of v, j), never on node order,
    chunk membership, or thread count. Each call reseeds one local
    generator per code, so concurrent calls do not share state.
    """
    at_least("dimension", d, 1)
    vectors = np.empty((len(codes), d), dtype=np.float64)
    gen = np.random.Generator(np.random.Philox(0))
    for i, code in enumerate(codes):
        reseed_philox(gen, f"{seed}\x1e{code}")
        gen.random(out=vectors[i])
    # uniform(-1, 1) is -1 + 2 * random() from the same stream; 2 * u is exact.
    vectors *= 2.0
    vectors -= 1.0
    # uniform() can return its low endpoint, which the open interval
    # excludes, and a row can be too short to normalize. Such rows are drawn
    # again from their own seed and fixed by redrawing. A row's norm is at
    # least its largest entry up to rounding, so the doubled bound flags
    # every row whose norm can be at most ZERO_ROW_NORM.
    peak = np.maximum(vectors.max(axis=1), -vectors.min(axis=1))
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
    vectors /= _row_norms(vectors)[:, None]
    return vectors


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` bit for bit, squaring one row block at
    a time into a small reused buffer instead of a copy of x."""
    step = max(1, _BLOCK_VALUES // x.shape[1])
    out, buf = np.empty(len(x)), np.empty_like(x[:step])
    for a in range(0, len(x), step):
        block = x[a : a + step]
        np.add.reduce(np.multiply(block, block, out=buf[: len(block)]), 1, out=out[a : a + step])
    return np.sqrt(out, out=out)


def _load_sparsetools():
    """scipy's compiled ``scipy.sparse._sparsetools`` module, loaded from its
    file so that neither ``scipy`` nor ``scipy.sparse`` is imported."""
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no _sparsetools extension in {folder}")


_csr_matvecs = None


def _kernel():
    """scipy's ``csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)``,
    which adds the CSR matrix times the row-major dense x into y; loaded on
    first use, by file path or, if that fails, by the normal import."""
    global _csr_matvecs
    if _csr_matvecs is None:
        try:
            _csr_matvecs = _load_sparsetools().csr_matvecs
        except Exception:
            from scipy.sparse._sparsetools import csr_matvecs

            _csr_matvecs = csr_matvecs
    return _csr_matvecs


def _matmul_rows(
    M: TransitionMatrix, vectors: np.ndarray, threads: int, out: np.ndarray | None = None
) -> np.ndarray:
    """M times vectors, into ``out`` if given, optionally split across row
    blocks, using at most ``os.cpu_count()`` threads.

    Each row is accumulated over its stored neighbors in a fixed order, so
    the result is identical for every thread count.
    """
    n, d = vectors.shape
    kernel = _kernel()
    x = vectors.reshape(-1)
    # The kernel adds into its output, so the rows start at zero.
    out = np.empty((n, d)) if out is None else out
    out.fill(0.0)
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or n < 2 * threads:
        threads = 1
    bounds = np.linspace(0, n, threads + 1).astype(int).tolist()

    def work(i: int) -> None:
        a, b = bounds[i], bounds[i + 1]
        kernel(b - a, n, d, M.indptr[a : b + 1], M.indices, M.data, x, out[a:b].reshape(-1))

    if threads == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(threads)))
    return out


def iterate(
    vectors: np.ndarray, M: TransitionMatrix, threads: int = 1, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """One power-iteration step: multiply the rows by M, then L2-normalize
    them. Returns the new rows and how many of them cancelled to zero and
    kept their previous value instead.

    The new rows are written into ``out`` if given: a C-contiguous float64
    array of the rows' shape that shares no memory with them.
    """
    if vectors.shape[0] != len(M.nodes):
        raise InternalConsistencyError(
            f"embedding has {vectors.shape[0]} rows, "
            f"transition matrix expects {len(M.nodes)}"
        )
    if out is not None and (
        out.shape != vectors.shape or out.dtype != np.float64
        or not out.flags.c_contiguous or np.may_share_memory(out, vectors)
    ):
        raise InternalConsistencyError(
            "a step's out must be a separate C-contiguous float64 array of the rows' shape"
        )
    raw = _matmul_rows(M, vectors, threads, out)
    norms = _row_norms(raw)
    zero = norms <= ZERO_ROW_NORM
    replaced = int(zero.sum())
    if replaced:
        # Exact cancellation: keep the previous (already unit-norm) row.
        raw[zero] = vectors[zero]
        norms[zero] = 1.0
    raw /= norms[:, None]
    return raw, replaced


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
    are L2-normalized and follow the order of the graph's codes. A single
    chunk's rows at the largest count are that count's sum bit for bit, so
    they become that space with no sum.

    ``iterations`` is one count, giving one space, or a sequence of counts
    such as ``(6, 1)``, giving a list of spaces in that order from one
    pass: each chunk iterates up to the largest count and adds its rows
    into each count's own sum when it reaches that count. Every space equals
    the one a separate call with its count returns, in an array of its own.

    Deterministic for fixed (graph, d, iterations, chunks, seed) at every
    thread count; ``threads`` above ``os.cpu_count()`` is clamped to it.
    Isolated products are absent from the output.

    Raises:
        InvalidParameterError: on non-positive d, iteration counts, chunks
            or threads, an empty sequence of counts, or a (nodes x d) shape
            that does not fit in memory.
        EmptyGraphError: if the graph has no edges.
        InternalConsistencyError: if a merged row cancels to zero or a
            value is NaN or infinite.
    """
    single = np.ndim(iterations) == 0
    counts = [iterations] if single else list(iterations)
    at_least("dimension", d, 1)
    if not counts:
        raise InvalidParameterError("need at least one iteration count")
    for count in counts:
        at_least("iteration count", count, 1)
    at_least("thread count", threads, 1)
    if graph.edge_count == 0:
        raise EmptyGraphError("the co-occurrence graph has no edges")
    chunk_ids = partition_chunks(graph, chunks)
    nodes = np.flatnonzero(graph.degrees > 0)
    codes = [graph.codes[v] for v in nodes.tolist()]
    qs = _distinct(chunk_ids).tolist()
    replaced = [0] * len(counts)
    # One chunk holds every node at weight deg_q(v) / deg(v) = 1.0 (sums of
    # integers) and pos = arange, and no step yields -0.0 (the kernel's sums
    # start at +0.0), so a sum 0.0 + 1.0 * T is T bit for bit: that chunk
    # steps between its first rows and one array, and its rows at the largest
    # count are that space. Sums, steps, then first rows: steps last put
    # embed's peak 0.3 MB up, sums after first rows put half of eval's peaks
    # 1.4 MB up, and the steps as two arrays put eval's peak 1.1 MB up.
    one = len(qs) == 1
    top = counts.index(max(counts)) if one else None
    merged = [
        None if j == top else _allocate(np.empty, len(codes), d, InvalidParameterError)
        for j in range(len(counts))
    ]
    make = np.empty if one else lambda shape: np.empty((2, *shape))
    what = "embedding shape {} x {}" if one else "step pair 2 x {} x {}"
    steps = _allocate(make, len(codes), d, InvalidParameterError, what)
    start = init_embedding(codes, d, seed)
    for q in qs:
        M = build_transition(graph, chunk_ids, q)
        n = len(M.nodes)
        block = min(max(1, _BLOCK_VALUES // d), n // 2)  # two blocks fit in n >= 2 rows
        pos = np.searchsorted(nodes, M.nodes)
        weights = (M.degrees / graph.degrees[M.nodes])[:, None]
        pair = (start, steps) if one else (steps[0, :n], steps[1, :n])
        # A chunk's nodes all have edges, so pos is in range; with an out,
        # mode="raise" would gather into a temporary copy first.
        T = start if one else np.take(start, pos, axis=0, out=pair[0], mode="clip")
        for step in range(1, max(counts) + 1):
            T, cancelled = iterate(T, M, threads, pair[step % 2])
            # The rows this step read are free until the next step writes there. The
            # merge weighs and gathers in them: a gather with no out allocates a block.
            spare = pair[(step + 1) % 2]
            for j, count in enumerate(counts):
                if count >= step:
                    replaced[j] += cancelled
                if count == step and j != top:
                    if q == qs[0]:  # np.zeros up front put eval's peak 0.13 MB up
                        merged[j].fill(0.0)
                    for a in range(0, n, block):
                        k = min(block, n - a)
                        r, old = slice(a, a + k), slice(block, block + k)
                        np.take(merged[j], pos[r], axis=0, out=spare[old], mode="clip")
                        spare[old] += np.multiply(weights[r], T[r], out=spare[:k])
                        merged[j][pos[r]] = spare[old]
        del M  # so that the next chunk can reuse its memory
    if one:
        merged[top] = T
    del T, start, steps, pair, spare  # so that the spaces' checks can reuse the memory
    spaces = []
    for count, rows, lost in zip(counts, merged, replaced):
        norms = _row_norms(rows)
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


# write_embedding's lookup tables, built on its first call: (groups, marks)
# as uint32 words of 4 ASCII bytes. groups[g] is the 4 digits of g < 10**4,
# groups[10**4 + g] the same with trailing zeros as NUL bytes; marks holds
# " 0.", " -0." and a word whose last byte is a newline.
_DIGIT_TABLES = None


def write_embedding(emb: EmbeddingMatrix, stream: TextIO) -> None:
    """Write the text format: ``<row_count> <d>`` header, then per node
    ``<code> <v1> ... <vd>`` at 9 significant digits, each value as
    ``'%.9g' % x`` gives it.

    Values are rounded for writing; cosine ties closer than about 1e-8 may
    resolve differently after a round-trip.

    Raises:
        InvalidParameterError: if d < 1, a shape the reader refuses.
    """
    global _DIGIT_TABLES
    n, d = emb.vectors.shape
    at_least("dimension", d, 1)
    if _DIGIT_TABLES is None:
        digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
        text = (digits + ord("0")).astype(np.uint8)
        bare = np.where(np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0, text, 0)
        groups = np.concatenate([text, bare]).astype(np.uint8).view(np.uint32).ravel()
        _DIGIT_TABLES = groups, np.frombuffer(b" 0.\0 -0.\0\0\0\n", np.uint32)
    stream.write(f"{n} {d}\n")
    step = max(1, _BLOCK_VALUES // d)
    for a in range(0, n, step):
        block = np.asarray(emb.vectors[a : a + step], dtype=np.float64)
        rows = _format_rows(block, *_DIGIT_TABLES)
        stream.write("".join(map("%s%s\n".__mod__, zip(emb.codes[a : a + step], rows))))


def _format_rows(x: np.ndarray, groups: np.ndarray, marks: np.ndarray) -> list:
    """The rows of the float64 block x as text, each value ``" " + '%.9g' % v``
    built in a 20-byte slot that NUL bytes pad.

    A value with 1e-4 <= |v| < 1 prints as ``0.`` and 12 fraction digits,
    less trailing zeros: its 9 digits n = rint(y), y = |v| * 10**(8 - e) with
    e = floor(log10 |v|), shifted by 10**(e + 4). y lies within 2**-24 of the
    exact product, so n is correctly rounded unless y is within 2**-20 of a
    tie or n carries to 10**9. Those values and all others take ``%``.
    """
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1.0)
    np.copyto(mag, 0.5, where=~fast)  # keeps the arithmetic below finite
    # e + 4, from comparisons with the powers of ten.
    e4 = (mag >= 1e-3).astype(np.intp) + (mag >= 1e-2) + (mag >= 1e-1)
    y = mag * np.array([1e12, 1e11, 1e10, 1e9]).take(e4)
    n = np.rint(y)
    fast &= (n >= 1e8) & (n < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 2.0**-20)
    fraction = n.astype(np.int64) * np.array([1, 10, 100, 1000]).take(e4)
    high = fraction // 10_000
    g1, g3 = high // 10_000, fraction - high * 10_000
    g2 = high - g1 * 10_000
    slots = np.zeros(x.shape + (5,), dtype=np.uint32)
    slots[..., 0] = marks[np.signbit(x).view(np.uint8)]
    # The last non-zero group and the zero groups after it lose trailing zeros.
    # Clipped: a refused carry to 10**9 at e = -1 gives g1 = 10**4.
    slots[..., 1] = groups.take(g1 + 10_000 * ((g2 | g3) == 0), mode="clip")
    slots[..., 2] = groups[g2 + 10_000 * (g3 == 0)]
    slots[..., 3] = groups[g3 + 10_000]
    slots[:, -1, 4] = marks[2]
    slow = np.flatnonzero(~fast)
    # At most 17 bytes, such as " -1.79769313e+308"; the newline is byte 19.
    text = np.array([" %.9g" % v for v in x.ravel()[slow].tolist()], dtype="S17")
    slots.view(np.uint8).reshape(-1, 20)[slow, :17] = text.view(np.uint8).reshape(-1, 17)
    return slots.tobytes().translate(None, b"\0").decode("ascii").split("\n")


def read_embedding(stream: TextIO) -> EmbeddingMatrix:
    """Read the text format written by :func:`write_embedding`.

    Rows are read in batches of ``max(1, 8192 // d)`` lines, and one
    ``np.loadtxt`` call parses a batch's values. A batch with any sign of
    trouble is parsed again one line at a time, which accepts every token
    ``np.asarray`` does (``1_000``, ``\u0661``) and raises the first error in
    file order. The result carries no iteration or seed metadata.

    Raises:
        MalformedInputError: on a bad header or one declaring a shape too
            large for memory, a short, ``#``-coded, duplicate, non-numeric or
            non-finite row, or a row beyond the declared count.
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
    shape = "embedding shape {} x {} from the header"
    vectors = _allocate(np.empty, n, d, MalformedInputError, shape)
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
        clean = clean and " #" not in " " + " ".join(new)  # "#" codes: see _read_rows
        if clean and len(set(new)) == len(new) and seen.isdisjoint(new):
            vectors[start:stop] = block
            codes += new
            seen.update(new)
        else:
            _read_rows(chain(lines, stream), start, stop, vectors, codes, seen)
    for lineno, _ in _content_lines(stream, n + 2):
        raise MalformedInputError(f"line {lineno}: row beyond the {n} the header declares")
    return EmbeddingMatrix(codes, vectors, iterations=None, seed=None)


def _allocate(make, n: int, d: int, error: type, what: str = "embedding shape {} x {}"):
    """``make((n, d))``, such as an (n, d) float64 ``np.empty``; a shape
    that cannot be allocated raises ``error`` with a message naming it as
    ``what``, a format string given n and d."""
    try:
        return make((n, d))
    except (MemoryError, ValueError):
        raise error(f"{what.format(n, d)} does not fit in memory") from None


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
        if code[0] == "#":
            raise MalformedInputError(
                f"line {i + 2}: product code {code!r} starts with '#', which marks a comment line"
            )
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
