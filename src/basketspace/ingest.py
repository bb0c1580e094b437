"""Basket ingestion: vocabulary interning and co-occurrence graph construction.

A basket file is plain UTF-8 text with one transaction per line: product
codes separated by whitespace. Blank lines and lines starting with ``#``
are skipped. Product order inside a line carries no meaning.

Baskets are hyperedges over products; they are expanded into a weighted
pairwise co-occurrence graph by clique expansion: within each basket,
after de-duplicating repeated codes, every unordered pair of distinct
products gains one unit of edge weight. Quantities are not used and
self-loops never occur.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from os.path import commonprefix
from typing import Iterable, TextIO

import numpy as np

from .errors import MalformedInputError, UnknownProductError

# Baskets beyond this many distinct products are rejected: clique expansion
# grows quadratically and a line that size is almost certainly not a basket.
DEFAULT_MAX_BASKET_PRODUCTS = 5000


def nearest_codes(code: str, known: Iterable[str], limit: int = 5) -> list[str]:
    """Known codes ranked by longest shared prefix with ``code``, then by
    code; the suggestions an :class:`UnknownProductError` carries."""
    return sorted(known, key=lambda c: (-len(commonprefix([code, c])), c))[:limit]


class Vocabulary:
    """Bijection between external product codes and dense internal indices.

    Indices are assigned in first-appearance order, starting at 0.
    """

    def __init__(self, codes: Iterable[str] = ()):
        self._codes: list[str] = []
        self._index: dict[str, int] = {}
        for code in codes:
            self.intern(code)

    def intern(self, code: str) -> int:
        """Return the index of ``code``, assigning a new one if unseen."""
        if not code:
            raise MalformedInputError("empty product code")
        idx = self._index.get(code)
        if idx is None:
            idx = len(self._codes)
            self._codes.append(code)
            self._index[code] = idx
        return idx

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise UnknownProductError(code, nearest_codes(code, self._codes)) from None

    def code(self, index: int) -> str:
        return self._codes[index]

    @property
    def codes(self) -> list[str]:
        return list(self._codes)

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return iter(self._codes)


# A basket is stored canonically as a sorted tuple of internal indices,
# duplicates preserved; two baskets are equal iff they hold the same multiset.
Basket = tuple


def parse_baskets(
    stream: TextIO,
    max_basket_products: int = DEFAULT_MAX_BASKET_PRODUCTS,
) -> tuple[list[Basket], Vocabulary]:
    """Parse a basket stream into baskets and a vocabulary.

    Args:
        stream: text stream of basket lines.
        max_basket_products: reject lines with more distinct products than
            this bound.

    Returns:
        (baskets, vocabulary): baskets in file order, each a sorted tuple of
        internal indices; vocabulary in first-appearance order.

    Raises:
        MalformedInputError: on lines exceeding the product bound.
        OSError: if the stream cannot be read.
    """
    vocab = Vocabulary()
    baskets: list[Basket] = []
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(set(tokens)) > max_basket_products:
            raise MalformedInputError(
                f"line {lineno}: basket has {len(set(tokens))} distinct products, "
                f"exceeding the limit of {max_basket_products}"
            )
        baskets.append(tuple(sorted(vocab.intern(tok) for tok in tokens)))
    return baskets, vocab


@dataclass
class CooccurrenceGraph:
    """Weighted undirected co-occurrence graph over a product vocabulary.

    Attributes:
        vocabulary: the product vocabulary; indices address ``degrees``.
        a, b: int64 endpoint indices of each edge, ``a < b``, sorted by
            ``(a, b)``.
        w: int64 positive co-occurrence count of each edge, aligned with
            ``a`` and ``b``.
        degrees: weighted degree per product, deg(v) = sum of incident edge
            weights; zero for isolated products.
    """

    vocabulary: Vocabulary
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    degrees: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.w)

    @property
    def total_weight(self) -> int:
        return int(self.w.sum())


def expand_hyperedges(baskets: Iterable[Basket], vocabulary: Vocabulary) -> CooccurrenceGraph:
    """Clique-expand baskets into a weighted co-occurrence graph.

    Each basket contributes +1 weight to every unordered pair of distinct
    products it contains (after de-duplication). Singleton baskets
    contribute nothing.
    """
    n = len(vocabulary)
    by_length: dict[int, list] = defaultdict(list)
    for basket in baskets:
        by_length[len(basket)].append(basket)
    # Sorted rows without an adjacent-equal pair are already de-duplicated;
    # only rows that repeat a code go through a set.
    by_size: dict[int, list] = defaultdict(list)
    for length, group in by_length.items():
        if length < 2:
            continue
        items = np.sort(np.array(group, dtype=np.int64), axis=1)
        repeats = (items[:, 1:] == items[:, :-1]).any(axis=1)
        by_size[length].append(items[~repeats])
        for row in items[repeats].tolist():
            distinct = sorted(set(row))
            if len(distinct) > 1:
                by_size[len(distinct)].append(np.array([distinct], dtype=np.int64))
    # One array per basket size; pair (a, b) with a < b gets the key a*n + b.
    keys = [np.zeros(0, dtype=np.int64)]
    for size, blocks in by_size.items():
        items = np.concatenate(blocks)
        i, j = np.triu_indices(size, 1)
        keys.append((items[:, i] * n + items[:, j]).ravel())
    pairs, w = np.unique(np.concatenate(keys), return_counts=True)
    a, b = np.divmod(pairs, n)
    degrees = np.bincount(a, weights=w, minlength=n) + np.bincount(b, weights=w, minlength=n)
    return CooccurrenceGraph(vocabulary, a, b, w, degrees.astype(np.int64))


def isolated_products(graph: CooccurrenceGraph) -> list[int]:
    """Indices of degree-0 products, in vocabulary order.

    These have no co-occurrence evidence and are excluded from embedding.
    """
    return [int(i) for i in np.flatnonzero(graph.degrees == 0)]
