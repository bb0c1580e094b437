"""Shared fixtures: the demo corpus with hand-enumerated expectations,
the dense training oracle, the embedding reader and writer oracles, plus
random-graph helpers used by oracle and invariant tests."""

import sys

# Write no bytecode cache into src/: the benchmark runs the checkout's
# source, and a cache left by a test run skews its start-up and memory.
sys.dont_write_bytecode = True

import io
from array import array

import numpy as np
import pytest

from basketspace import (
    Baskets,
    CooccurrenceGraph,
    EmbeddingMatrix,
    EmptyGraphError,
    InvalidParameterError,
    MalformedInputError,
    benchmark_baskets,
    expand_hyperedges,
    parse_baskets,
)
from basketspace.embedding import ZERO_ROW_NORM, init_embedding
from basketspace.errors import at_least

# Three-basket demo corpus used throughout the tests.
DEMO_TEXT = "p1 p3 p4\np2 p4\np5 p6 p3\n"

# Expected expansion, enumerated by hand: each basket contributes one unit
# per unordered pair of its distinct products.
DEMO_EDGES = {
    ("p1", "p3"): 1,
    ("p1", "p4"): 1,
    ("p3", "p4"): 1,
    ("p2", "p4"): 1,
    ("p5", "p6"): 1,
    ("p3", "p5"): 1,
    ("p3", "p6"): 1,
}
DEMO_DEGREES = {"p1": 2, "p2": 1, "p3": 4, "p4": 3, "p5": 2, "p6": 2}

# Guard for the dense reference path, which materializes an n x n matrix.
DENSE_REFERENCE_MAX_NODES = 10_000


def graph_from_text(text: str) -> CooccurrenceGraph:
    baskets, vocab = parse_baskets(io.StringIO(text))
    return expand_hyperedges(baskets, vocab)


def market_graph(market) -> CooccurrenceGraph:
    """The graph ``eval`` builds from the market's basket file."""
    lines = io.StringIO()
    market.write_baskets(lines)
    return expand_hyperedges(*parse_baskets(lines.getvalue().splitlines()))


def score_market(market, config):
    """The report ``eval`` writes for the market's basket and truth files."""
    return benchmark_baskets(market_graph(market), market.membership(), config)


def reference_parse_baskets(lines, max_basket_products: int = 5000):
    """Oracle: :func:`basketspace.parse_baskets` as one Python loop per line."""
    at_least("max basket size", max_basket_products, 1)
    index: dict = {}
    offsets = array("q", [0])
    items = array("q")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        for token in tokens:
            if token.startswith("#"):
                raise MalformedInputError(
                    f"line {lineno}: product code {token!r} starts with '#', "
                    "which marks a comment line"
                )
        distinct = dict.fromkeys(tokens)
        if len(distinct) > max_basket_products:
            raise MalformedInputError(
                f"line {lineno}: basket has {len(distinct)} distinct products, "
                f"exceeding the limit of {max_basket_products}"
            )
        # len(index) is read before setdefault inserts, so a new code gets
        # the next index.
        items.extend([index.setdefault(tok, len(index)) for tok in distinct])
        offsets.append(len(items))
    baskets = Baskets(np.frombuffer(offsets, np.int64), np.frombuffer(items, np.int64))
    return baskets, list(index)


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
    codes = [graph.codes[v] for v in nodes]
    T = init_embedding(codes, d, seed)
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



def reference_read_embedding(stream) -> EmbeddingMatrix:
    """Oracle: :func:`basketspace.read_embedding` as one Python loop per line."""
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
    for i in range(n):
        line = stream.readline()
        if not line:
            raise MalformedInputError(f"expected {n} embedding rows, found {i}")
        tokens = line.split()
        if len(tokens) != d + 1:
            raise MalformedInputError(
                f"line {i + 2}: expected a code and {d} values, got {len(tokens)} tokens"
            )
        code = tokens[0]
        if code.startswith("#"):
            raise MalformedInputError(
                f"line {i + 2}: product code {code!r} starts with '#', "
                "which marks a comment line"
            )
        if code in seen:
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
    for lineno, line in enumerate(stream, start=n + 2):
        if line.strip() and not line.lstrip().startswith("#"):
            raise MalformedInputError(
                f"line {lineno}: row beyond the {n} the header declares"
            )
    return EmbeddingMatrix(codes, vectors)


def reference_write_embedding(emb: EmbeddingMatrix, stream) -> None:
    """Oracle: :func:`basketspace.write_embedding` as one ``%`` call per
    row, every value formatted by ``'%.9g'``."""
    n, d = emb.vectors.shape
    stream.write(f"{n} {d}\n")
    line = "%s" + " %.9g" * d + "\n"
    for code, row in zip(emb.codes, emb.vectors):
        stream.write(line % (code, *row.tolist()))


def basket_rows(baskets) -> list:
    """The rows of a :class:`basketspace.Baskets` as lists of indices."""
    offsets, items = baskets
    return [items[s:e].tolist() for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def vector_of(emb: EmbeddingMatrix, code: str) -> np.ndarray:
    """The row of ``code`` in ``emb``."""
    return emb.vectors[emb.codes.index(code)]


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Oracle: cosine of the angle between two vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidParameterError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InvalidParameterError("cosine similarity of a zero vector is undefined")
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))


def normalize_rows(a: np.ndarray) -> np.ndarray:
    """Oracle: ``a`` with every row scaled to unit L2 norm."""
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    if (norms <= 1e-30).any():
        raise InvalidParameterError("cannot normalize a zero row")
    return a / norms


def ranked(codes, rows, sims=None) -> list:
    """A recommender's arrays as one list per query, padding dropped:
    ``[(code, sim), ...]`` given ``sims``, else ``[code, ...]``."""
    if sims is None:
        return [[codes[j] for j in row if j >= 0] for row in rows.tolist()]
    return [
        [(codes[j], s) for j, s in zip(row, values) if j >= 0]
        for row, values in zip(rows.tolist(), sims.tolist())
    ]


def hits_at_k(recommendations, truth: set, k: int) -> int:
    """Oracle: 1 if any of the first k recommended codes is in ``truth``, else 0."""
    if not truth:
        raise InvalidParameterError("truth set must not be empty")
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return int(any(code in truth for code in recommendations[:k]))


def first_recommendation_hit_rate(queries_with_truth, recommender) -> float:
    """Oracle: fraction of (query, truth set) pairs whose rank-1
    recommendation in ``recommender(query)``, a ranked list of codes, is
    in the truth set."""
    if not queries_with_truth:
        raise InvalidParameterError("need at least one query")
    hits = 0
    for query, truth in queries_with_truth:
        recs = recommender(query)
        if recs and recs[0] in truth:
            hits += 1
    return hits / len(queries_with_truth)


def graph_from_edges(edges: dict) -> CooccurrenceGraph:
    """Build a graph from {(code_a, code_b): weight} directly, numbering
    the products in code order as every graph does."""
    index = {code: i for i, code in enumerate(sorted({c for pair in edges for c in pair}))}
    indexed = {}
    for (ca, cb), w in edges.items():
        a, b = index[ca], index[cb]
        key = (a, b) if a < b else (b, a)
        indexed[key] = indexed.get(key, 0) + w
    keys = sorted(indexed)
    a = np.array([k[0] for k in keys], dtype=np.int64)
    b = np.array([k[1] for k in keys], dtype=np.int64)
    w = np.array([indexed[k] for k in keys], dtype=np.int64)
    degrees = np.zeros(len(index), dtype=np.int64)
    np.add.at(degrees, a, w)
    np.add.at(degrees, b, w)
    return CooccurrenceGraph(list(index), a, b, w, degrees)


def dense_transition(M) -> np.ndarray:
    """A :class:`TransitionMatrix` as a dense (n_q, n_q) float64 array."""
    n = len(M.nodes)
    dense = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    dense[rows, M.indices] = M.data
    return dense


def edge_weights(graph: CooccurrenceGraph) -> dict:
    """The graph's edges as {(a, b): weight} with a < b."""
    return dict(zip(zip(graph.a.tolist(), graph.b.tolist()), graph.w.tolist()))


def edge_weight(graph: CooccurrenceGraph, a: int, b: int) -> int:
    """Edge weight between two products, orientation-independent."""
    if a == b:
        return 0
    return edge_weights(graph).get((min(a, b), max(a, b)), 0)


def random_graph(rng: np.random.Generator, max_nodes: int = 50, max_edges: int = 200) -> CooccurrenceGraph:
    """A random connected-ish weighted graph with every node on an edge."""
    n = int(rng.integers(2, max_nodes + 1))
    codes = [f"n{i}" for i in range(n)]
    edges = {}
    # A spanning chain keeps every node non-isolated.
    for i in range(n - 1):
        edges[(codes[i], codes[i + 1])] = int(rng.integers(1, 6))
    extra = int(rng.integers(0, max_edges - (n - 1) + 1))
    for _ in range(extra):
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        key = (codes[min(a, b)], codes[max(a, b)])
        edges[key] = edges.get(key, 0) + int(rng.integers(1, 6))
    return graph_from_edges(edges)


@pytest.fixture
def demo_graph() -> CooccurrenceGraph:
    return graph_from_text(DEMO_TEXT)
