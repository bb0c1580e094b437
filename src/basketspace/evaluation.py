"""Synthetic-market benchmark: planted ground truth plus survey-style metrics.

The generator plants a market of themes (e.g. pasta night), each split
into disjoint substitute groups (e.g. spaghetti brands). Every shopping
trip samples one theme, then includes each of its groups independently
with probability p, contributing exactly one member per included group.
Members of one group therefore never share a basket (substitutes), while
members of different groups in one theme co-occur frequently
(complements).

Each trip also carries a latent style index: with probability
``affinity`` an included group contributes its style-matched member
rather than a uniformly random one. Style affinity correlates the
specific members bought together, which is what makes direct co-purchase
structure informative; at affinity 0 member choice is uniform and only
group-level structure remains.

Metrics mirror a survey-style evaluation: Hits@k, answer-count-weighted
accuracy over categories and first-recommendation hit rates, with planted
truth standing in for expert answers.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence, TextIO

import numpy as np

from .embedding import COMPLEMENT_ITERATIONS, _allocate, train
from .errors import (
    DataInconsistencyError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
    at_least,
)
from .ingest import CooccurrenceGraph, _content_lines, _distinct
from .neighbors import (
    random_recommender,
    recommend_complements,
    recommend_substitutes,
)

DEFAULT_THEMES = 20
DEFAULT_GROUPS_PER_THEME = 4
DEFAULT_GROUP_SIZE = 8
DEFAULT_BASKETS = 50_000
DEFAULT_PICK_PROB = 0.5
DEFAULT_AFFINITY = 0.53


@dataclass
class SyntheticMarket:
    """A generated basket corpus with planted substitute/complement truth.

    Product ``p`` is member ``p % group_size`` of group
    ``p // group_size % groups_per_theme`` of theme
    ``p // (groups_per_theme * group_size)``; its code is ``t<t>g<g>m<m>``.

    Attributes:
        themes: number of themes.
        groups_per_theme: substitute groups per theme.
        group_size: products per group.
        product_codes: the code of every product id.
        picks: int64 (baskets, groups_per_theme) product ids, -1 where the
            basket skipped the group.
    """

    themes: int
    groups_per_theme: int
    group_size: int
    product_codes: list
    picks: np.ndarray

    def membership(self) -> dict:
        """code -> (theme index, group index)."""
        groups = np.arange(len(self.product_codes)) // self.group_size
        theme, group = np.divmod(groups, self.groups_per_theme)
        return dict(zip(self.product_codes, zip(theme.tolist(), group.tolist())))

    def write_baskets(self, stream: TextIO) -> None:
        """One line per basket: its codes in group order."""
        codes = self.product_codes
        for row in self.picks.tolist():
            stream.write(" ".join([codes[p] for p in row if p >= 0]) + "\n")

    def write_truth(self, stream: TextIO) -> None:
        """One line per product: ``<code> <theme_index> <group_index>``."""
        for code, (t, g) in self.membership().items():
            stream.write(f"{code} {t} {g}\n")


def generate_synthetic_market(
    themes: int = DEFAULT_THEMES,
    groups_per_theme: int = DEFAULT_GROUPS_PER_THEME,
    group_size: int = DEFAULT_GROUP_SIZE,
    baskets: int = DEFAULT_BASKETS,
    pick_prob: float = DEFAULT_PICK_PROB,
    affinity: float = DEFAULT_AFFINITY,
    seed: int = 0,
) -> SyntheticMarket:
    """Generate a planted market.

    Empty draws (no group included) are rejected and redrawn so exactly
    ``baskets`` baskets are produced.

    Raises:
        InvalidParameterError: on parameters outside their documented range.
    """
    at_least("themes", themes, 1)
    at_least("groups per theme", groups_per_theme, 2)
    at_least("group size", group_size, 2)
    at_least("basket count", baskets, 1)
    if not 0.0 < pick_prob <= 1.0:
        raise InvalidParameterError(f"pick probability must be in (0, 1], got {pick_prob}")
    if not 0.0 <= affinity <= 1.0:
        raise InvalidParameterError(f"affinity must be in [0, 1], got {affinity}")
    at_least("seed", seed, 0)

    G = groups_per_theme
    # Sizes whose arrays cannot be allocated are rejected before anything
    # is built: 64 bytes a product is about what a code costs in the list.
    products = themes * G * group_size
    _allocate((products, 8), np.float64, InvalidParameterError, "a market of {} products")
    what = "a market of {} baskets x {} groups"
    picks = _allocate((baskets, G), np.int64, InvalidParameterError, what)
    product_codes = [
        f"t{t}g{g}m{m}"
        for t in range(themes)
        for g in range(groups_per_theme)
        for m in range(group_size)
    ]
    rng = np.random.default_rng(seed)
    p_nonempty = 1.0 - (1.0 - pick_prob) ** G
    remaining = baskets
    while remaining > 0:
        batch = int(remaining / p_nonempty * 1.2) + 16
        th = rng.integers(0, themes, batch)
        style = rng.integers(0, group_size, batch)
        included = rng.random((batch, G)) < pick_prob
        styled = rng.random((batch, G)) < affinity
        members = rng.integers(0, group_size, (batch, G))
        members = np.where(styled, style[:, None], members)
        nonempty = included.any(axis=1)
        cum = np.cumsum(nonempty)
        cut = int(np.searchsorted(cum, remaining)) + 1 if cum[-1] >= remaining else batch
        ids = (th[:cut, None] * G + np.arange(G)) * group_size + members[:cut]
        rows = np.where(included[:cut], ids, -1)[nonempty[:cut]]
        picks[baskets - remaining :][: len(rows)] = rows
        remaining -= len(rows)
    return SyntheticMarket(
        themes,
        groups_per_theme,
        group_size,
        product_codes,
        picks,
    )


def read_truth(stream: TextIO) -> dict:
    """Read a ground-truth file: lines ``<code> <theme> <group>``.

    Returns code -> (theme index, group index). Blank and ``#`` lines are
    skipped.

    Raises:
        MalformedInputError: on a line that is not three fields, a
            non-integer label, or a code listed twice.
    """
    membership: dict = {}
    first_line: dict = {}
    for lineno, stripped in _content_lines(stream):
        parts = stripped.split()
        if len(parts) != 3:
            raise MalformedInputError(
                f"line {lineno}: expected '<code> <theme> <group>', got {stripped!r}"
            )
        code, t, g = parts
        if code in first_line:
            raise MalformedInputError(
                f"line {lineno}: duplicate code {code!r}, first listed on line "
                f"{first_line[code]}"
            )
        first_line[code] = lineno
        try:
            membership[code] = (int(t), int(g))
        except ValueError:
            raise MalformedInputError(
                f"line {lineno}: theme and group must be integers"
            ) from None
    return membership


def random_hit_expectation(n_products: int, truth_size: int, k: int) -> float:
    """Expected Hits@k of a uniform recommender: 1 - C(N-1-t, k) / C(N-1, k)."""
    pool = n_products - 1
    if k > pool:
        raise InvalidParameterError(f"k={k} exceeds the {pool} available products")
    misses = pool - truth_size
    if misses < k:
        return 1.0
    return 1.0 - math.comb(misses, k) / math.comb(pool, k)


def weighted_accuracy(per_category: Sequence) -> float:
    """Answer-count-weighted mean accuracy: sum(acc_i * m_i) / sum(m_i)."""
    if not per_category:
        raise InvalidParameterError("need at least one category")
    total = 0.0
    answers = 0
    for acc, m in per_category:
        if m <= 0:
            raise InvalidParameterError(f"answer counts must be positive, got {m}")
        if not 0.0 <= acc <= 1.0:
            raise InvalidParameterError(f"accuracy must be in [0, 1], got {acc}")
        total += acc * m
        answers += m
    return total / answers


@dataclass
class BenchmarkConfig:
    """Settings for :func:`benchmark_baskets`, which ``eval`` calls.
    Defaults run in seconds. The complement space always trains with
    ``COMPLEMENT_ITERATIONS``, and every embedded product is a query."""

    dimension: int = 128
    substitute_iterations: int = 6
    chunks: int = 1
    seed: int = 0
    k: int = 2
    threads: int = 1


@dataclass
class EvalReport:
    """Benchmark results; see README for the JSON key reference."""

    config: dict
    market: dict
    n_embedded: int
    n_queries: int
    substitutes: dict
    complements: dict
    random_baseline: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def validate(self) -> None:
        """Check report invariants; raises InternalConsistencyError on violation."""
        for section in (self.substitutes, self.complements):
            rates = [section["hits_at_k"], section["first_hit_rate"],
                     section["weighted_accuracy"]]
            rates += [c["accuracy"] for c in section["per_category"]]
            if any(not 0.0 <= r <= 1.0 for r in rates):
                raise InternalConsistencyError("rate outside [0, 1]")
            if section["answers_total"] != sum(
                c["answers"] for c in section["per_category"]
            ):
                raise InternalConsistencyError("answer counts do not add up")

    def text_table(self) -> str:
        """Aligned text rendering of the headline numbers."""
        lines = []
        w = 34

        def row(label: str, sub, comp) -> None:
            lines.append(f"{label:<{w}} {sub:>12} {comp:>12}")

        def fmt(x: float) -> str:
            return f"{x:.4f}"

        k = self.config["k"]
        subs, comps, rand = self.substitutes, self.complements, self.random_baseline
        row("metric", "substitutes", "complements")
        lines.append("-" * (w + 26))
        for label, sub, comp in [
            (f"hits@{k}", subs["hits_at_k"], comps["hits_at_k"]),
            ("first-recommendation hit rate", subs["first_hit_rate"], comps["first_hit_rate"]),
            ("weighted accuracy", subs["weighted_accuracy"], comps["weighted_accuracy"]),
            (f"random hits@{k}", rand["substitute_hits_at_k"], rand["complement_hits_at_k"]),
            ("random expectation", rand["substitute_expectation"], rand["complement_expectation"]),
        ]:
            row(label, fmt(sub), fmt(comp))
        lines.append("")
        row("per-category accuracy", "substitutes", "complements")
        lines.append("-" * (w + 26))
        comp_by_cat = {c["category"]: c for c in self.complements["per_category"]}
        for cat in self.substitutes["per_category"]:
            comp = comp_by_cat[cat["category"]]
            row(
                f"{cat['category']} (n={cat['answers']})",
                fmt(cat["accuracy"]),
                fmt(comp["accuracy"]),
            )
        return "\n".join(lines) + "\n"


def _listed(codes: list) -> str:
    """The first ten codes, comma-separated, with a count of the rest."""
    more = f" (+{len(codes) - 10} more)" if len(codes) > 10 else ""
    return ", ".join(codes[:10]) + more


def _hits(rows: np.ndarray, group: np.ndarray, theme: np.ndarray):
    """Per ranked entry: whether it is a substitute of its query (same
    group) and whether it is a complement (same theme, other group). Row i
    of ``rows`` ranks embedded product i's neighbours; padding (-1) is neither."""
    real = rows >= 0
    same_group = (group[rows] == group[:, None]) & real
    same_theme = (theme[rows] == theme[:, None]) & real
    return same_group, same_theme & ~same_group


def _scores(hit: np.ndarray, theme: np.ndarray, labels: list) -> dict:
    """Hits@k, first-hit rate and per-theme accuracy from a (queries x k)
    hit matrix; ``theme`` holds each query's index into ``labels``."""
    nq, found = len(hit), hit.any(axis=1)
    present, inverse = np.unique(theme, return_inverse=True)
    answers = np.bincount(inverse)
    per_theme = [
        {"category": f"theme-{labels[t]}", "accuracy": acc, "answers": m}
        for t, acc, m in zip(
            present.tolist(), (np.bincount(inverse, found) / answers).tolist(), answers.tolist()
        )
    ]
    return {
        "hits_at_k": int(found.sum()) / nq,
        "first_hit_rate": int(hit[:, 0].sum()) / nq,
        "weighted_accuracy": weighted_accuracy([(c["accuracy"], c["answers"]) for c in per_theme]),
        "answers_total": nq,
        "per_category": per_theme,
    }


def benchmark_baskets(
    graph: CooccurrenceGraph,
    membership: dict,
    config: BenchmarkConfig,
) -> EvalReport:
    """Benchmark a basket graph against a code -> (theme, group) truth map.

    Raises:
        DataInconsistencyError: if a product of the graph is missing from
            ``membership``.
        InvalidParameterError: if ``config.k`` is below 1 or not below the
            number of non-isolated products, or if a non-isolated product
            has no substitute truth
            (no other product in its group) or no complement truth (no other
            group in its theme).
    """
    missing = [c for c in graph.codes if c not in membership]  # in code order
    if missing:
        raise DataInconsistencyError(
            f"basket products missing from the truth file: {_listed(missing)}"
        )
    # The products train embeds: the non-isolated ones. An edgeless graph
    # is left to train's EmptyGraphError.
    present = [graph.codes[v] for v in np.flatnonzero(graph.degrees > 0).tolist()]
    at_least("k", config.k, 1)
    if 0 < len(present) <= config.k:
        raise InvalidParameterError(
            f"k={config.k} exceeds the {len(present) - 1} available products"
        )
    membership = {code: (t, g) for code, (t, g) in membership.items()}
    # How many truth codes every group and every theme holds.
    in_group = Counter(membership.values())
    in_theme = Counter(t for t, _ in membership.values())
    lone = [c for c in present if in_group[membership[c]] == 1]
    alone = [c for c in present if in_theme[membership[c][0]] == in_group[membership[c]]]
    for relation, lacking, why in (
        ("substitute", lone, "no other product in its group"),
        ("complement", alone, "no other group in its theme"),
    ):
        if lacking:
            raise InvalidParameterError(f"no {relation} truth for {_listed(lacking)}: {why}")
    sub_space, comp_space = train(
        graph,
        d=config.dimension,
        iterations=(config.substitute_iterations, COMPLEMENT_ITERATIONS),
        chunks=config.chunks,
        seed=config.seed,
        threads=config.threads,
    )
    # Every embedded product is a query, in the row order train returns
    # (code order), which both spaces share.
    embedded = sub_space.codes
    labels = [membership[code] for code in embedded]
    # Each embedded row gets a group id and a theme id, both in label order.
    n = len(embedded)
    group_ids = {tg: i for i, tg in enumerate(sorted(in_group))}
    themes = sorted(in_theme)
    theme_ids = {t: i for i, t in enumerate(themes)}
    group = np.array([group_ids[tg] for tg in labels], dtype=np.int64)
    theme = np.array([theme_ids[t] for t, _ in labels], dtype=np.int64)

    k = config.k
    sub_rows, _ = recommend_substitutes(sub_space, embedded, k)
    comp_rows, _ = recommend_complements(comp_space, embedded, k)
    rand_rows = random_recommender(embedded, embedded, k, config.seed)
    sub, _ = _hits(sub_rows, group, theme)
    # The complement space probed against substitute truth as well.
    sub_in_comp, comp = _hits(comp_rows, group, theme)
    rand_sub, rand_comp = _hits(rand_rows, group, theme)

    # The random recommender's expected hits per query, from the sizes of
    # its embedded truth: the rest of its group, and the other groups of
    # its theme. Summed in query order, one addition at a time.
    group_size = np.bincount(group)[group]
    sizes = np.stack([group_size - 1, np.bincount(theme)[theme] - group_size])
    expect = {t: random_hit_expectation(n, t, k) for t in _distinct(sizes.ravel()).tolist()}
    chance = np.array([[expect[t] for t in row] for row in sizes.tolist()])
    (exp_sub, exp_comp) = np.cumsum(chance, axis=1)[:, -1].tolist()
    (var_sub, var_comp) = np.cumsum(chance * (1.0 - chance), axis=1)[:, -1].tolist()

    report = EvalReport(
        config=asdict(config),
        market={"products_in_truth": len(membership)},
        n_embedded=n,
        n_queries=n,
        substitutes={
            **_scores(sub, theme, themes),
            "hits_at_k_in_complement_space": int(sub_in_comp.any(axis=1).sum()) / n,
        },
        complements=_scores(comp, theme, themes),
        random_baseline={
            "substitute_hits_at_k": int(rand_sub.any(axis=1).sum()) / n,
            "substitute_expectation": exp_sub / n,
            "substitute_sigma": math.sqrt(var_sub) / n,
            "substitute_first_hit_rate": int(rand_sub[:, 0].sum()) / n,
            "complement_hits_at_k": int(rand_comp.any(axis=1).sum()) / n,
            "complement_expectation": exp_comp / n,
            "complement_sigma": math.sqrt(var_comp) / n,
            "complement_first_hit_rate": int(rand_comp[:, 0].sum()) / n,
        },
    )
    report.validate()
    return report
