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
accuracy over categories, exact-vs-reversed pair order agreement, and
first-recommendation hit rates, with planted truth standing in for
expert answers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence, TextIO

import numpy as np

from .embedding import train
from .errors import (
    DataInconsistencyError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
)
from .ingest import Baskets, CooccurrenceGraph, expand_hyperedges
from .neighbors import (
    NeighborList,
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
        basket_count: number of generated baskets.
        pick_prob: per-group inclusion probability p.
        affinity: probability that an included group contributes the
            trip's style-matched member instead of a uniform one.
        seed: generator seed.
        product_codes: the code of every product id.
        picks: int64 (baskets, groups_per_theme) product ids, -1 where the
            basket skipped the group.
        theme_draws: theme draw counts, including draws rejected for
            producing an empty basket (kept for unbiased rate estimates).
    """

    themes: int
    groups_per_theme: int
    group_size: int
    basket_count: int
    pick_prob: float
    affinity: float
    seed: int
    product_codes: list
    picks: np.ndarray
    theme_draws: np.ndarray

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
    ``baskets`` baskets are produced; ``theme_draws`` still counts the
    rejected draws so per-draw rates stay unbiased.

    Raises:
        InvalidParameterError: on parameters outside their documented range.
    """
    if themes < 1:
        raise InvalidParameterError(f"themes must be >= 1, got {themes}")
    if groups_per_theme < 2:
        raise InvalidParameterError(
            f"groups per theme must be >= 2, got {groups_per_theme}"
        )
    if group_size < 2:
        raise InvalidParameterError(f"group size must be >= 2, got {group_size}")
    if baskets < 1:
        raise InvalidParameterError(f"basket count must be >= 1, got {baskets}")
    if not 0.0 < pick_prob <= 1.0:
        raise InvalidParameterError(f"pick probability must be in (0, 1], got {pick_prob}")
    if not 0.0 <= affinity <= 1.0:
        raise InvalidParameterError(f"affinity must be in [0, 1], got {affinity}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")

    product_codes = [
        f"t{t}g{g}m{m}"
        for t in range(themes)
        for g in range(groups_per_theme)
        for m in range(group_size)
    ]
    rng = np.random.default_rng(seed)
    G = groups_per_theme
    p_nonempty = 1.0 - (1.0 - pick_prob) ** G
    chunks: list = []
    theme_draws = np.zeros(themes, dtype=np.int64)
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
        theme_draws += np.bincount(th[:cut], minlength=themes)
        ids = (th[:cut, None] * G + np.arange(G)) * group_size + members[:cut]
        chunks.append(np.where(included[:cut], ids, -1)[nonempty[:cut]])
        remaining -= len(chunks[-1])
    return SyntheticMarket(
        themes,
        groups_per_theme,
        group_size,
        baskets,
        pick_prob,
        affinity,
        seed,
        product_codes,
        np.concatenate(chunks),
        theme_draws,
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
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
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


def hits_at_k(recommendations: NeighborList, truth: set, k: int) -> int:
    """1 if any of the top-k recommended products is in ``truth``, else 0."""
    if not truth:
        raise InvalidParameterError("truth set must not be empty")
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return int(any(code in truth for code in recommendations.codes()[:k]))


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


def pair_order_agreement(algorithm_pair: Sequence, expert_pair: Sequence) -> str:
    """Compare two ordered pairs: ``correct``, ``reversed``, or ``mismatch``."""
    a = tuple(algorithm_pair)
    e = tuple(expert_pair)
    if len(a) != 2 or len(e) != 2:
        raise InvalidParameterError("pairs must contain exactly two products")
    if a[0] == a[1] or e[0] == e[1]:
        raise InvalidParameterError("pairs must contain two distinct products")
    if a == e:
        return "correct"
    if a == (e[1], e[0]):
        return "reversed"
    return "mismatch"


@dataclass
class BenchmarkConfig:
    """Knobs for :func:`run_benchmark`. Defaults run in seconds."""

    dimension: int = 128
    substitute_iterations: int = 6
    complement_iterations: int = 1
    chunks: int = 1
    seed: int = 0
    k: int = 2
    threads: int = 1
    query_sample: int | None = None


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
    order_agreement: dict

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
        for kind in ("substitute", "complement"):
            oa = self.order_agreement[kind]
            if oa["correct"] + oa["reversed"] > oa["evaluated"]:
                raise InternalConsistencyError("order agreement counts exceed pairs")

    def text_table(self) -> str:
        """Aligned text rendering of the headline numbers."""
        lines = []
        w = 34

        def row(label: str, sub, comp) -> None:
            lines.append(f"{label:<{w}} {sub:>12} {comp:>12}")

        def fmt(x: float) -> str:
            return f"{x:.4f}"

        row("metric", "substitutes", "complements")
        lines.append("-" * (w + 26))
        row(
            f"hits@{self.config['k']}",
            fmt(self.substitutes["hits_at_k"]),
            fmt(self.complements["hits_at_k"]),
        )
        row(
            "first-recommendation hit rate",
            fmt(self.substitutes["first_hit_rate"]),
            fmt(self.complements["first_hit_rate"]),
        )
        row(
            "weighted accuracy",
            fmt(self.substitutes["weighted_accuracy"]),
            fmt(self.complements["weighted_accuracy"]),
        )
        row(
            f"random hits@{self.config['k']}",
            fmt(self.random_baseline["substitute_hits_at_k"]),
            fmt(self.random_baseline["complement_hits_at_k"]),
        )
        row(
            "random expectation",
            fmt(self.random_baseline["substitute_expectation"]),
            fmt(self.random_baseline["complement_expectation"]),
        )
        sub_oa = self.order_agreement["substitute"]
        comp_oa = self.order_agreement["complement"]
        row("pairs in exact order", sub_oa["correct"], comp_oa["correct"])
        row("pairs in reversed order", sub_oa["reversed"], comp_oa["reversed"])
        row("pairs evaluated", sub_oa["evaluated"], comp_oa["evaluated"])
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


def run_benchmark(market: SyntheticMarket, config: BenchmarkConfig) -> EvalReport:
    """Train both spaces on the market and score them against planted truth.

    Deterministic for a fixed market and config, byte-for-byte, and equal
    to :func:`benchmark_baskets` on the parsed output of
    :meth:`SyntheticMarket.write_baskets`.
    """
    market_info = {
        "themes": market.themes,
        "groups_per_theme": market.groups_per_theme,
        "group_size": market.group_size,
        "baskets": market.basket_count,
        "pick_prob": market.pick_prob,
        "affinity": market.affinity,
        "seed": market.seed,
    }
    # The rows and the first-appearance code list that parsing the
    # market's basket file would give; a row never repeats a product.
    picked = market.picks >= 0
    flat = market.picks[picked]
    _, first = np.unique(flat, return_index=True)
    ids = flat[np.sort(first)]
    index = np.empty(len(market.product_codes), dtype=np.int64)
    index[ids] = np.arange(len(ids))
    offsets = np.concatenate([[0], np.cumsum(picked.sum(axis=1))])
    codes = [market.product_codes[p] for p in ids.tolist()]
    graph = expand_hyperedges(Baskets(offsets, index[flat]), codes)
    return benchmark_baskets(graph, market.membership(), config, market_info=market_info)


def _listed(codes: list) -> str:
    """The first ten codes, comma-separated, with a count of the rest."""
    more = f" (+{len(codes) - 10} more)" if len(codes) > 10 else ""
    return ", ".join(codes[:10]) + more


def benchmark_baskets(
    graph: CooccurrenceGraph,
    membership: dict,
    config: BenchmarkConfig,
    market_info: dict | None = None,
) -> EvalReport:
    """Benchmark a basket graph against a code -> (theme, group) truth map.

    Raises:
        DataInconsistencyError: if a product of the graph is missing from
            ``membership``.
        InvalidParameterError: if a non-isolated product has no substitute
            truth (no other product in its group) or no complement truth
            (no other group in its theme).
    """
    missing = sorted(c for c in graph.codes if c not in membership)
    if missing:
        raise DataInconsistencyError(
            f"basket products missing from the truth file: {_listed(missing)}"
        )
    by_group: dict = {}
    by_theme: dict = {}
    for code, (t, g) in membership.items():
        by_group.setdefault((t, g), set()).add(code)
        by_theme.setdefault(t, set()).add(code)
    codes = graph.codes
    no_substitute, no_complement = [], []
    for v in np.flatnonzero(graph.degrees > 0).tolist():
        t, g = membership[codes[v]]
        if len(by_group[(t, g)]) == 1:
            no_substitute.append(codes[v])
        if len(by_theme[t]) == len(by_group[(t, g)]):
            no_complement.append(codes[v])
    for lacking, relation, why in (
        (no_substitute, "substitute", "no other product in its group"),
        (no_complement, "complement", "no other group in its theme"),
    ):
        if lacking:
            raise InvalidParameterError(f"no {relation} truth for {_listed(lacking)}: {why}")
    sub_space, comp_space = train(
        graph,
        d=config.dimension,
        iterations=(config.substitute_iterations, config.complement_iterations),
        chunks=config.chunks,
        seed=config.seed,
        threads=config.threads,
    )
    embedded = sub_space.codes
    n = len(embedded)

    queries = list(embedded)
    if config.query_sample is not None and config.query_sample < len(queries):
        picker = np.random.default_rng(config.seed)
        idx = picker.choice(len(queries), size=config.query_sample, replace=False)
        queries = [queries[int(i)] for i in idx]

    k = config.k
    counts = dict.fromkeys(
        ("sub_hits", "comp_hits", "sub_hits_comp_space", "rand_sub_hits", "rand_comp_hits",
         "sub_first", "comp_first", "rand_sub_first", "rand_comp_first"),
        0,
    )
    exp_sub = var_sub = exp_comp = var_comp = 0.0
    # theme -> [substitute hits, complement hits, answers]
    categories: dict = {}
    order = {
        "substitute": {"correct": 0, "reversed": 0, "mismatch": 0, "evaluated": 0},
        "complement": {"correct": 0, "reversed": 0, "mismatch": 0, "evaluated": 0},
    }

    def first_hit(recs: NeighborList, truth: set) -> int:
        return int(bool(recs.neighbors) and recs.neighbors[0][0] in truth)

    def order_count(kind: str, recs: NeighborList, expert: tuple) -> None:
        if len(recs.neighbors) < 2 or len(expert) < 2:
            return
        verdict = pair_order_agreement(tuple(recs.codes()[:2]), expert)
        order[kind][verdict] += 1
        order[kind]["evaluated"] += 1

    sub_lists = recommend_substitutes(sub_space, queries, k)
    comp_lists = recommend_complements(comp_space, queries, k)
    rand_lists = random_recommender(embedded, queries, k, config.seed)
    # Per queried group: its first three members in code order, its
    # complement truth with that truth's first two codes, and the random
    # recommender's expected hits for a member and for the complement. A
    # query is an embedded member of its own group, so its substitute truth
    # holds one embedded product fewer than the group.
    embedded_set = set(embedded)
    group_truth = {}
    for key in dict.fromkeys(membership[q] for q in queries):
        members = by_group[key]
        comp_truth = by_theme[key[0]] - members
        group_truth[key] = (
            sorted(members)[:3],
            comp_truth,
            tuple(sorted(comp_truth)[:2]),
            random_hit_expectation(n, len(members & embedded_set) - 1, k),
            random_hit_expectation(n, len(comp_truth & embedded_set), k),
        )

    for q, sub_recs, comp_recs, rand_recs in zip(
        queries, sub_lists, comp_lists, rand_lists
    ):
        t, g = membership[q]
        first_members, comp_truth, comp_expert, sub_e, comp_e = group_truth[(t, g)]
        sub_truth = by_group[(t, g)] - {q}

        s = hits_at_k(sub_recs, sub_truth, k)
        c = hits_at_k(comp_recs, comp_truth, k)
        counts["sub_hits"] += s
        counts["comp_hits"] += c
        # The complement space probed against substitute truth: the ranking
        # is the same top-k list, only the truth set differs.
        counts["sub_hits_comp_space"] += hits_at_k(comp_recs, sub_truth, k)
        counts["rand_sub_hits"] += hits_at_k(rand_recs, sub_truth, k)
        counts["rand_comp_hits"] += hits_at_k(rand_recs, comp_truth, k)
        counts["sub_first"] += first_hit(sub_recs, sub_truth)
        counts["comp_first"] += first_hit(comp_recs, comp_truth)
        counts["rand_sub_first"] += first_hit(rand_recs, sub_truth)
        counts["rand_comp_first"] += first_hit(rand_recs, comp_truth)
        exp_sub += sub_e
        var_sub += sub_e * (1.0 - sub_e)
        exp_comp += comp_e
        var_comp += comp_e * (1.0 - comp_e)
        sub_expert = tuple([code for code in first_members if code != q][:2])
        order_count("substitute", sub_recs, sub_expert)
        order_count("complement", comp_recs, comp_expert)
        category = categories.setdefault(t, [0, 0, 0])
        category[0] += s
        category[1] += c
        category[2] += 1

    nq = len(queries)

    def per_category(column: int) -> list:
        return [
            {"category": f"theme-{t}", "accuracy": acc[column] / acc[2], "answers": acc[2]}
            for t, acc in sorted(categories.items())
        ]

    sub_categories = per_category(0)
    comp_categories = per_category(1)
    report = EvalReport(
        config=asdict(config),
        market=market_info or {"products_in_truth": len(membership)},
        n_embedded=n,
        n_queries=nq,
        substitutes={
            "hits_at_k": counts["sub_hits"] / nq,
            "first_hit_rate": counts["sub_first"] / nq,
            "weighted_accuracy": weighted_accuracy(
                [(c["accuracy"], c["answers"]) for c in sub_categories]
            ),
            "answers_total": nq,
            "per_category": sub_categories,
            "hits_at_k_in_complement_space": counts["sub_hits_comp_space"] / nq,
        },
        complements={
            "hits_at_k": counts["comp_hits"] / nq,
            "first_hit_rate": counts["comp_first"] / nq,
            "weighted_accuracy": weighted_accuracy(
                [(c["accuracy"], c["answers"]) for c in comp_categories]
            ),
            "answers_total": nq,
            "per_category": comp_categories,
        },
        random_baseline={
            "substitute_hits_at_k": counts["rand_sub_hits"] / nq,
            "substitute_expectation": exp_sub / nq,
            "substitute_sigma": math.sqrt(var_sub) / nq,
            "substitute_first_hit_rate": counts["rand_sub_first"] / nq,
            "complement_hits_at_k": counts["rand_comp_hits"] / nq,
            "complement_expectation": exp_comp / nq,
            "complement_sigma": math.sqrt(var_comp) / nq,
            "complement_first_hit_rate": counts["rand_comp_first"] / nq,
        },
        order_agreement=order,
    )
    report.validate()
    return report
