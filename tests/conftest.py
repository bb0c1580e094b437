"""Shared fixtures: the demo corpus with hand-enumerated expectations,
plus random-graph helpers used by oracle and invariant tests."""

import io
from array import array

import numpy as np
import pytest

from basketspace import (
    Baskets,
    CooccurrenceGraph,
    EmbeddingMatrix,
    InvalidParameterError,
    MalformedInputError,
    Vocabulary,
    expand_hyperedges,
    parse_baskets,
)

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


def graph_from_text(text: str) -> CooccurrenceGraph:
    baskets, vocab = parse_baskets(io.StringIO(text))
    return expand_hyperedges(baskets, vocab)


def reference_parse_baskets(lines, max_basket_products: int = 5000):
    """Oracle: :func:`basketspace.parse_baskets` as one Python loop per line."""
    index: dict = {}
    offsets = array("q", [0])
    items = array("q")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
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
    return baskets, Vocabulary(index)


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


def basket_rows(baskets) -> list:
    """The rows of a :class:`basketspace.Baskets` as lists of indices."""
    offsets, items = baskets
    return [items[s:e].tolist() for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


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


def first_recommendation_hit_rate(queries_with_truth, recommender) -> float:
    """Oracle: fraction of (query, truth set) pairs whose rank-1
    recommendation from ``recommender(query)`` is in the truth set."""
    if not queries_with_truth:
        raise InvalidParameterError("need at least one query")
    hits = 0
    for query, truth in queries_with_truth:
        recs = recommender(query)
        if recs.neighbors and recs.neighbors[0][0] in truth:
            hits += 1
    return hits / len(queries_with_truth)


def graph_from_edges(edges: dict) -> CooccurrenceGraph:
    """Build a graph from {(code_a, code_b): weight} directly."""
    vocab = Vocabulary()
    indexed = {}
    for (ca, cb), w in edges.items():
        a, b = vocab.intern(ca), vocab.intern(cb)
        key = (a, b) if a < b else (b, a)
        indexed[key] = indexed.get(key, 0) + w
    keys = sorted(indexed)
    a = np.array([k[0] for k in keys], dtype=np.int64)
    b = np.array([k[1] for k in keys], dtype=np.int64)
    w = np.array([indexed[k] for k in keys], dtype=np.int64)
    degrees = np.zeros(len(vocab), dtype=np.int64)
    np.add.at(degrees, a, w)
    np.add.at(degrees, b, w)
    return CooccurrenceGraph(vocab, a, b, w, degrees)


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
