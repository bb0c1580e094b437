"""Basket ingestion: basket parsing and co-occurrence graph construction.

A basket file is plain UTF-8 text with one transaction per line: product
codes separated by whitespace, in no meaningful order. A line whose first
non-blank character is ``#`` is a comment, and no code starts with ``#``.

Baskets are hyperedges over products, parsed into ragged index arrays
with repeated codes dropped; they are expanded into a weighted pairwise
co-occurrence graph by clique expansion: within each basket, every
unordered pair of distinct products gains one unit of edge weight. Quantities are not used and
self-loops never occur. The graph numbers products in code order.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidParameterError, MalformedInputError, at_least

# Baskets beyond this many distinct products are rejected: clique expansion
# grows quadratically and a line that size is almost certainly not a basket.
DEFAULT_MAX_BASKET_PRODUCTS = 5000

# Lines that parse_baskets splits and numbers together. A batch's tokens and
# arrays stay alive until it is done and the code index keeps some of its
# strings, so the size was chosen by peak memory rather than speed.
_BATCH_LINES = 256


def _content_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """(line number from ``start``, stripped line) of each non-blank, non-comment line."""
    stripped = enumerate(map(str.strip, lines), start)
    return ((lineno, line) for lineno, line in stripped if line[:1] not in ("", "#"))


class Baskets(NamedTuple):
    """Baskets as ragged rows of product indices: row ``r`` is
    ``items[offsets[r]:offsets[r + 1]]``, int64 both.

    Rows that :func:`parse_baskets` returns hold each line's distinct
    codes in first-appearance order.
    """

    offsets: np.ndarray
    items: np.ndarray


def parse_baskets(
    lines: Iterable[str],
    max_basket_products: int = DEFAULT_MAX_BASKET_PRODUCTS,
) -> tuple[Baskets, list[str]]:
    """Parse basket lines into baskets and their product codes, skipping
    blank and comment lines as :func:`_content_lines` does.

    Args:
        lines: text lines, such as an open file or a list of strings.
        max_basket_products: reject lines with more distinct products than
            this bound.

    Returns:
        (baskets, codes): one row per basket line, in file order; the
        distinct codes in first-appearance order, so code ``codes[i]`` has
        index ``i``.

    Raises:
        InvalidParameterError: if ``max_basket_products`` is below 1,
            before any line is read.
        MalformedInputError: on a code starting with ``#`` or a line over the product bound.
        OSError: if the stream cannot be read.
    """
    at_least("max basket size", max_basket_products, 1)
    # A missing code gets the next index, so indices follow first appearance.
    index = defaultdict(count().__next__)
    offsets = array("q", [0])
    items = array("q")
    lines = iter(lines)
    lineno = 0  # lines read before the current batch
    while batch := list(islice(lines, _BATCH_LINES)):
        parts = list(map(str.split, batch))
        hashed, code = len(parts), None  # the first line with a "#" code, and the code
        if "#" in "".join(batch):
            # A line is a comment when its first token starts with "#".
            parts = [[] if p and p[0][0] == "#" else p for p in parts]
            if " #" in " " + " ".join(chain.from_iterable(parts)):
                hashed, code = next((r, t) for r, p in enumerate(parts) for t in p if t[0] == "#")
        counts = np.fromiter(map(len, parts), np.int64, len(parts))
        for r in np.flatnonzero(counts[:hashed] > max_basket_products).tolist():
            if (size := len(set(parts[r]))) > max_basket_products:
                raise MalformedInputError(
                    f"line {lineno + r + 1}: basket has {size} distinct "
                    f"products, exceeding the limit of {max_basket_products}"
                )
        if code:
            raise MalformedInputError(
                f"line {lineno + hashed + 1}: product code {code!r} starts with "
                "'#', which marks a comment line"
            )
        ids = np.fromiter(map(index.__getitem__, chain.from_iterable(parts)), np.int64)
        sizes = counts[counts > 0]
        row = np.repeat(np.arange(len(sizes)), sizes)
        keys = row * len(index) + ids
        if not np.diff(np.sort(keys)).all():
            # Keep the first occurrence of a code repeated within its line.
            _, first = np.unique(keys, return_index=True)
            first.sort()
            ids = ids[first]
            sizes = np.bincount(row[first], minlength=len(sizes))
        offsets.frombytes((len(items) + np.cumsum(sizes)).tobytes())
        items.frombytes(ids.tobytes())
        lineno += len(batch)
    baskets = Baskets(np.frombuffer(offsets, np.int64), np.frombuffer(items, np.int64))
    return baskets, list(index)


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Weighted undirected co-occurrence graph over products numbered in
    code order, whatever order the baskets came in. Frozen, and ``codes``
    is stored as a tuple, so a built graph keeps its code order.

    Attributes:
        codes: tuple of the product codes, strictly increasing; indices
            address ``codes`` and ``degrees``.
        a, b: int64 endpoint indices of each edge, ``a < b``, sorted by
            ``(a, b)``.
        w: int64 positive co-occurrence count of each edge, aligned with
            ``a`` and ``b``.
        degrees: weighted degree per product, deg(v) = sum of incident edge
            weights; zero for isolated products.

    Raises:
        InvalidParameterError: if ``codes`` do not strictly increase.
    """

    codes: tuple
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    degrees: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        for prev, code in zip(self.codes, self.codes[1:]):
            if prev >= code:
                raise InvalidParameterError(
                    f"graph codes must strictly increase, but {code!r} follows {prev!r}"
                )

    @property
    def edge_count(self) -> int:
        return len(self.w)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D integer array, as ``np.unique(x)``
    gives them, without the ``numpy.ma`` import (about 17 ms) that
    ``np.unique`` makes on its first call and that no command needs."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def expand_hyperedges(baskets: Baskets, codes: list) -> CooccurrenceGraph:
    """Clique-expand baskets into a weighted co-occurrence graph.

    Index i of ``baskets`` stands for ``codes[i]``. The graph numbers the
    products in code order: its codes are ``sorted(codes)``. Each basket
    contributes +1 weight to every unordered pair of its products.
    Singleton baskets contribute nothing.

    Raises:
        InvalidParameterError: if ``codes`` or a row repeats a code;
            :func:`parse_baskets` never returns either.
    """
    n = len(codes)
    order = sorted(range(n), key=codes.__getitem__)
    codes = tuple(map(codes.__getitem__, order))
    offsets, items = baskets
    items = np.argsort(order)[items]  # each index's position in code order
    sizes = np.diff(offsets)
    # One block of rows per basket size; pair (a, b) with a < b gets the key
    # a*n + b.
    keys = [np.zeros(0, dtype=np.int64)]
    for size in _distinct(sizes[sizes > 1]).tolist():
        starts = offsets[:-1][sizes == size]
        rows = items[starts[:, None] + np.arange(size)]
        rows.sort(axis=1)
        if (rows[:, 1:] == rows[:, :-1]).any():
            raise InvalidParameterError("a basket row repeats a product index")
        i, j = np.triu_indices(size, 1)
        keys.append((rows[:, i] * n + rows[:, j]).ravel())
    pairs, w = np.unique(np.concatenate(keys), return_counts=True)
    a, b = np.divmod(pairs, n)
    degrees = np.bincount(a, weights=w, minlength=n) + np.bincount(b, weights=w, minlength=n)
    return CooccurrenceGraph(codes, a, b, w, degrees.astype(np.int64))

