"""Synthetic market generation, scoring metrics, and the benchmark report."""

import hashlib
import io
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from basketspace import (
    BenchmarkConfig,
    ConfigurationMismatchWarning,
    DataInconsistencyError,
    InvalidParameterError,
    benchmark_baskets,
    generate_synthetic_market,
    pair_order_agreement,
    random_hit_expectation,
    random_recommender,
    read_truth,
    recommend_complements,
    recommend_substitutes,
    run_benchmark,
    train,
    weighted_accuracy,
)
from basketspace.ingest import expand_hyperedges, parse_baskets
from conftest import first_recommendation_hit_rate, graph_from_text, hits_at_k, ranked


def small_market(**overrides):
    params = dict(
        themes=4, groups_per_theme=4, group_size=8, baskets=4000, seed=0
    )
    params.update(overrides)
    return generate_synthetic_market(**params)


def written(market, writer: str) -> str:
    out = io.StringIO()
    getattr(market, writer)(out)
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def theme_group_member(m, ids):
    """Theme, group and member index of product ids, by the documented
    id arithmetic."""
    S, G = m.group_size, m.groups_per_theme
    return ids // (G * S), ids // S % G, ids % S


def pick_rows(m):
    """The market's baskets as lists of product ids, skipped groups dropped."""
    return [[p for p in row if p >= 0] for row in m.picks.tolist()]


class TestGenerator:
    def test_exact_basket_count_and_catalog(self):
        m = small_market()
        assert m.picks.shape == (4000, 4)
        assert m.picks.dtype == np.int64
        assert len(m.product_codes) == 4 * 4 * 8
        assert len(set(m.product_codes)) == len(m.product_codes)
        assert m.picks.min() >= -1 and m.picks.max() < len(m.product_codes)

    def test_deterministic(self):
        a = small_market(seed=3)
        b = small_market(seed=3)
        assert np.array_equal(a.picks, b.picks)

    def test_seed_changes_baskets(self):
        assert not np.array_equal(small_market(seed=0).picks, small_market(seed=1).picks)

    def test_single_theme_per_basket(self):
        m = small_market(baskets=500)
        for row in pick_rows(m):
            themes, _, _ = theme_group_member(m, np.array(row))
            assert len(row) >= 1
            assert len(set(themes.tolist())) == 1

    def test_at_most_one_product_per_group(self):
        m = small_market(baskets=500)
        # Column g holds group g's pick, so a basket has one slot per group.
        for g, column in enumerate(m.picks.T):
            _, groups, _ = theme_group_member(m, column[column >= 0])
            assert (groups == g).all()
        for row in pick_rows(m):
            _, groups, _ = theme_group_member(m, np.array(row))
            assert len(set(groups.tolist())) == len(row)

    def test_full_pick_prob_includes_every_group(self):
        m = small_market(pick_prob=1.0, baskets=500)
        for row in pick_rows(m):
            assert len(row) == m.groups_per_theme

    def test_full_affinity_aligns_members(self):
        m = small_market(affinity=1.0, baskets=500)
        for row in pick_rows(m):
            _, _, members = theme_group_member(m, np.array(row))
            assert len(set(members.tolist())) == 1

    def test_rejection_rate_matches_empty_probability(self):
        # Empty draws, (1 - p)^G of them, are rejected, so a basket holds s
        # groups with probability Binomial(G, p) at s over 1 - (1 - p)^G.
        m = small_market(baskets=20_000)
        G, p = m.groups_per_theme, m.pick_prob
        sizes = np.bincount((m.picks >= 0).sum(axis=1), minlength=G + 1) / 20_000
        accepted = 1 - (1 - p) ** G
        expected = [math.comb(G, s) * p**s * (1 - p) ** (G - s) / accepted for s in range(1, G + 1)]
        assert sizes[0] == 0
        assert sizes[1:].tolist() == pytest.approx(expected, abs=0.01)

    def test_cross_group_rate_is_pick_prob_squared(self):
        # Per draw, two specific groups co-occur with probability p^2; both
        # make the draw non-empty, so per accepted basket the rate is p^2
        # over 1 - (1 - p)^G.
        m = small_market(themes=2, baskets=8000)
        G, p = m.groups_per_theme, m.pick_prob
        pair_count = 0
        for row in pick_rows(m):
            _, groups, _ = theme_group_member(m, np.array(row))
            present = len(set(groups.tolist()))
            pair_count += present * (present - 1) // 2
        denominator = 8000 * G * (G - 1) // 2
        assert pair_count / denominator == pytest.approx(p**2 / (1 - (1 - p) ** G), abs=0.01)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            small_market(themes=0)
        with pytest.raises(InvalidParameterError):
            small_market(groups_per_theme=1)
        with pytest.raises(InvalidParameterError):
            small_market(group_size=1)
        with pytest.raises(InvalidParameterError):
            small_market(baskets=0)
        with pytest.raises(InvalidParameterError):
            small_market(pick_prob=0.0)
        with pytest.raises(InvalidParameterError):
            small_market(pick_prob=1.5)
        with pytest.raises(InvalidParameterError):
            small_market(affinity=-0.1)
        with pytest.raises(InvalidParameterError):
            small_market(affinity=1.1)
        with pytest.raises(InvalidParameterError, match="seed"):
            small_market(seed=-1)

    def test_truth_sets(self):
        # Codes and truth labels follow the product-id arithmetic, and the
        # truth partitions the catalog into groups of group_size and themes
        # of groups_per_theme groups.
        m = small_market(baskets=10)
        membership = m.membership()
        themes, groups, members = theme_group_member(m, np.arange(len(m.product_codes)))
        for p, code in enumerate(m.product_codes):
            assert code == f"t{themes[p]}g{groups[p]}m{members[p]}"
            assert membership[code] == (themes[p], groups[p])
        assert list(membership) == m.product_codes
        code = "t1g2m3"
        subs = {c for c, tg in membership.items() if tg == (1, 2) and c != code}
        assert len(subs) == m.group_size - 1
        comps = {c for c, (t, g) in membership.items() if t == 1 and g != 2}
        assert len(comps) == (m.groups_per_theme - 1) * m.group_size

    def test_truth_file_roundtrip(self):
        m = small_market(baskets=10)
        out = io.StringIO()
        m.write_truth(out)
        back = read_truth(io.StringIO(out.getvalue()))
        assert back == m.membership()

    def test_basket_file_lines(self):
        m = small_market(baskets=50)
        lines = written(m, "write_baskets").splitlines()
        assert len(lines) == 50
        for line, row in zip(lines, pick_rows(m)):
            assert line.split() == [m.product_codes[p] for p in row]


# SHA-256 of the default market's files (seed 0) and of its d=32 report.
PINNED_BASKETS_SHA256 = "dda6a1a0858ade1f88eaff7ff8f90c40107f7351898080e9b8f8ccdde7f31ad7"
PINNED_TRUTH_SHA256 = "9c7f745f487b39df3826f5afa180df115423ae460bcaa86496a8157bedb8bd66"
PINNED_REPORT_SHA256 = "bcca6a9b5ede6ffa331f40789de24bb4e7c4ef4dbb374c629ac93be01337cb22"


class TestPinnedBytes:
    @pytest.fixture(scope="class")
    def default_market(self):
        return generate_synthetic_market()

    def test_basket_file_is_pinned(self, default_market):
        assert sha256(written(default_market, "write_baskets")) == PINNED_BASKETS_SHA256

    def test_truth_file_is_pinned(self, default_market):
        assert sha256(written(default_market, "write_truth")) == PINNED_TRUTH_SHA256

    def test_report_is_pinned(self, default_market):
        report = run_benchmark(default_market, BenchmarkConfig(dimension=32, seed=0))
        assert sha256(report.to_json()) == PINNED_REPORT_SHA256


class TestBenchmarkGraph:
    """The graph run_benchmark scores equals the one parsed from the
    market's own basket file."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"pick_prob": 1.0},
            {"affinity": 1.0},
            {"affinity": 0.0, "pick_prob": 0.2},
            {"themes": 1, "baskets": 300},
            {"themes": 3, "groups_per_theme": 2, "group_size": 2, "baskets": 40, "seed": 5},
        ],
    )
    def test_equals_parsed_basket_file(self, overrides, monkeypatch):
        from basketspace import evaluation

        m = small_market(**overrides)
        seen = []

        def capture(graph, membership, config, market_info=None):
            seen.append(graph)
            raise StopIteration

        monkeypatch.setattr(evaluation, "benchmark_baskets", capture)
        with pytest.raises(StopIteration):
            run_benchmark(m, BenchmarkConfig(dimension=4))
        (graph,) = seen
        lines = written(m, "write_baskets").splitlines()
        parsed = expand_hyperedges(*parse_baskets(lines))
        assert graph.codes == parsed.codes
        for name in ("a", "b", "w", "degrees"):
            got, want = getattr(graph, name), getattr(parsed, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name


class TestTruthReader:
    def test_skips_comments_and_blanks(self):
        text = "# truth\n\nt0g0m0 0 0\nt0g1m0 0 1\n"
        assert read_truth(io.StringIO(text)) == {"t0g0m0": (0, 0), "t0g1m0": (0, 1)}

    def test_rejects_wrong_width(self):
        from basketspace import MalformedInputError

        with pytest.raises(MalformedInputError):
            read_truth(io.StringIO("t0g0m0 0\n"))

    def test_rejects_non_integer_labels(self):
        from basketspace import MalformedInputError

        with pytest.raises(MalformedInputError):
            read_truth(io.StringIO("t0g0m0 zero 0\n"))

    def test_rejects_repeated_code(self):
        from basketspace import MalformedInputError

        with pytest.raises(MalformedInputError, match="line 3.*'a'.*line 1"):
            read_truth(io.StringIO("a 0 0\nb 0 1\na 1 1\n"))


class TestHitsAtK:
    def recs(self, codes):
        return list(codes)

    def test_hit_inside_window(self):
        assert hits_at_k(self.recs(["a", "b"]), {"b"}, 2) == 1

    def test_hit_outside_window(self):
        assert hits_at_k(self.recs(["a", "b", "c"]), {"c"}, 2) == 0

    def test_miss(self):
        assert hits_at_k(self.recs(["a", "b"]), {"z"}, 2) == 0

    def test_short_recommendation_list(self):
        assert hits_at_k(self.recs(["a"]), {"a"}, 5) == 1

    def test_monotone_in_k(self):
        recs = self.recs(["a", "b", "c", "d"])
        values = [hits_at_k(recs, {"d"}, k) for k in range(1, 6)]
        assert values == sorted(values)

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidParameterError):
            hits_at_k(self.recs(["a"]), set(), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            hits_at_k(self.recs(["a"]), {"a"}, 0)


class TestRandomHitExpectation:
    def test_hundred_products_four_truth(self):
        expected = 1.0 - math.comb(95, 2) / math.comb(99, 2)
        assert random_hit_expectation(100, 4, 2) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0795712, abs=1e-7)

    def test_k_one_reduces_to_ratio(self):
        assert random_hit_expectation(100, 4, 1) == pytest.approx(4 / 99, abs=1e-15)

    def test_saturated_truth(self):
        assert random_hit_expectation(3, 2, 2) == 1.0

    def test_k_above_pool_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_hit_expectation(3, 1, 3)

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        n, t, k, trials = 100, 4, 2, 20_000
        truth = set(range(t))
        hits = sum(
            1 if truth & set(rng.choice(99, size=k, replace=False)) else 0
            for _ in range(trials)
        )
        assert hits / trials == pytest.approx(random_hit_expectation(n, t, k), abs=0.01)


class TestWeightedAccuracy:
    def test_single_category(self):
        assert weighted_accuracy([(0.8, 10)]) == pytest.approx(0.8, abs=1e-15)

    def test_equal_weights_average(self):
        assert weighted_accuracy([(0.5, 2), (1.0, 2)]) == pytest.approx(0.75, abs=1e-15)

    def test_weighting_pulls_toward_large_category(self):
        assert weighted_accuracy([(0.9, 9), (0.0, 1)]) == pytest.approx(0.81, abs=1e-15)

    def test_count_scaling_invariance(self):
        cats = [(0.2, 3), (0.7, 5), (0.9, 2)]
        scaled = [(a, m * 17) for a, m in cats]
        assert weighted_accuracy(cats) == pytest.approx(weighted_accuracy(scaled), abs=1e-15)

    def test_survey_sized_example(self):
        # Three categories with 500/400/480 answers; the exact weighted
        # mean is (0.60*500 + 0.76*400 + 0.77*480) / 1380.
        value = weighted_accuracy([(0.60, 500), (0.76, 400), (0.77, 480)])
        assert value == pytest.approx(973.6 / 1380, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            weighted_accuracy([])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            weighted_accuracy([(0.5, 0)])

    def test_out_of_range_accuracy_rejected(self):
        with pytest.raises(InvalidParameterError):
            weighted_accuracy([(1.2, 5)])


class TestPairOrderAgreement:
    def test_exact_order(self):
        assert pair_order_agreement(("a", "b"), ("a", "b")) == "correct"

    def test_reversed_order(self):
        assert pair_order_agreement(("b", "a"), ("a", "b")) == "reversed"

    def test_mismatch(self):
        assert pair_order_agreement(("a", "c"), ("a", "b")) == "mismatch"

    def test_swap_symmetry(self):
        pairs = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "d")]
        for alg in pairs:
            for expert in pairs:
                verdict = pair_order_agreement(alg, expert)
                flipped = pair_order_agreement((alg[1], alg[0]), expert)
                if verdict == "correct":
                    assert flipped == "reversed"
                elif verdict == "reversed":
                    assert flipped == "correct"
                else:
                    assert flipped == "mismatch"

    def test_duplicate_entries_rejected(self):
        with pytest.raises(InvalidParameterError):
            pair_order_agreement(("a", "a"), ("a", "b"))
        with pytest.raises(InvalidParameterError):
            pair_order_agreement(("a", "b"), ("c", "c"))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            pair_order_agreement(("a",), ("a", "b"))


class TestFirstRecommendationHitRate:
    def test_counts_rank_one_only(self):
        def recommender(query):
            return ["hit", "also-true"]

        rate = first_recommendation_hit_rate(
            [("q1", {"hit"}), ("q2", {"also-true"})], recommender
        )
        assert rate == 0.5

    def test_empty_recommendations_count_as_miss(self):
        rate = first_recommendation_hit_rate(
            [("q1", {"a"})], lambda q: []
        )
        assert rate == 0.0

    def test_no_queries_rejected(self):
        with pytest.raises(InvalidParameterError):
            first_recommendation_hit_rate([], lambda q: [])


def reference_scores(graph, membership, config) -> dict:
    """Oracle: the scored sections of :func:`benchmark_baskets`' report,
    one query at a time through the per-item metric definitions."""
    sub_space, comp_space = train(
        graph, d=config.dimension, chunks=config.chunks, seed=config.seed,
        iterations=(config.substitute_iterations, config.complement_iterations),
    )
    embedded = sub_space.codes
    n, k = len(embedded), config.k
    queries = list(embedded)
    if config.query_sample is not None and config.query_sample < n:
        picks = np.random.default_rng(config.seed).choice(n, config.query_sample, replace=False)
        queries = [embedded[int(i)] for i in picks]
    lists = zip(
        ranked(embedded, recommend_substitutes(sub_space, queries, k)[0]),
        ranked(embedded, recommend_complements(comp_space, queries, k)[0]),
        ranked(embedded, random_recommender(embedded, queries, k, config.seed)),
    )
    tally: Counter = Counter()
    exp_sub = var_sub = exp_comp = var_comp = 0.0
    themes: dict = {}
    order = {kind: dict.fromkeys(["correct", "reversed", "mismatch", "evaluated"], 0)
             for kind in ("substitute", "complement")}
    for q, (sub, comp, rand) in zip(queries, lists):
        t, g = membership[q]
        sub_truth = {c for c, tg in membership.items() if tg == (t, g) and c != q}
        comp_truth = {c for c, tg in membership.items() if tg[0] == t and tg[1] != g}
        for key, recs, truth in (("sub", sub, sub_truth), ("comp", comp, comp_truth),
                                 ("sub_in_comp", comp, sub_truth), ("rand_sub", rand, sub_truth),
                                 ("rand_comp", rand, comp_truth)):
            tally[key] += hits_at_k(recs, truth, k)
            tally[key + "_first"] += hits_at_k(recs, truth, 1)
        e_sub = random_hit_expectation(n, len(sub_truth & set(embedded)), k)
        e_comp = random_hit_expectation(n, len(comp_truth & set(embedded)), k)
        exp_sub += e_sub
        var_sub += e_sub * (1.0 - e_sub)
        exp_comp += e_comp
        var_comp += e_comp * (1.0 - e_comp)
        for kind, recs, expert in (("substitute", sub, sorted(sub_truth)[:2]),
                                   ("complement", comp, sorted(comp_truth)[:2])):
            if len(recs) >= 2 and len(expert) == 2:
                order[kind][pair_order_agreement(recs[:2], expert)] += 1
                order[kind]["evaluated"] += 1
        counts = themes.setdefault(t, [0, 0, 0])
        counts[0] += hits_at_k(sub, sub_truth, k)
        counts[1] += hits_at_k(comp, comp_truth, k)
        counts[2] += 1
    nq = len(queries)
    per_theme = [
        [{"category": f"theme-{t}", "accuracy": c[i] / c[2], "answers": c[2]}
         for t, c in sorted(themes.items())]
        for i in (0, 1)
    ]
    section = [
        {
            "hits_at_k": tally[key] / nq,
            "first_hit_rate": tally[key + "_first"] / nq,
            "weighted_accuracy": weighted_accuracy([(c["accuracy"], c["answers"]) for c in cats]),
            "answers_total": nq,
            "per_category": cats,
        }
        for key, cats in (("sub", per_theme[0]), ("comp", per_theme[1]))
    ]
    section[0]["hits_at_k_in_complement_space"] = tally["sub_in_comp"] / nq
    return {
        "substitutes": section[0],
        "complements": section[1],
        "random_baseline": {
            "substitute_hits_at_k": tally["rand_sub"] / nq,
            "substitute_expectation": exp_sub / nq,
            "substitute_sigma": math.sqrt(var_sub) / nq,
            "substitute_first_hit_rate": tally["rand_sub_first"] / nq,
            "complement_hits_at_k": tally["rand_comp"] / nq,
            "complement_expectation": exp_comp / nq,
            "complement_sigma": math.sqrt(var_comp) / nq,
            "complement_first_hit_rate": tally["rand_comp_first"] / nq,
        },
        "order_agreement": order,
    }


@pytest.fixture(scope="module")
def market():
    return small_market(baskets=8000)


@pytest.fixture(scope="module")
def report(market):
    return run_benchmark(market, BenchmarkConfig(dimension=64, seed=0))


class TestBenchmark:
    def test_embeds_whole_catalog(self, market, report):
        assert report.n_embedded == len(market.product_codes)
        assert report.n_queries == report.n_embedded

    def test_validates_and_serializes(self, report):
        report.validate()
        payload = report.to_json()
        assert '"substitutes"' in payload
        assert '"hits_at_k_in_complement_space"' in payload

    def test_answer_counts_add_up(self, report):
        for section in (report.substitutes, report.complements):
            assert section["answers_total"] == sum(
                c["answers"] for c in section["per_category"]
            )
            assert section["answers_total"] == report.n_queries

    def test_weighted_accuracy_consistent_with_categories(self, report):
        for section in (report.substitutes, report.complements):
            recomputed = weighted_accuracy(
                [(c["accuracy"], c["answers"]) for c in section["per_category"]]
            )
            assert section["weighted_accuracy"] == pytest.approx(recomputed, abs=1e-12)

    def test_both_relations_beat_random(self, report):
        rb = report.random_baseline
        assert report.substitutes["hits_at_k"] > rb["substitute_hits_at_k"]
        assert report.complements["hits_at_k"] > rb["complement_hits_at_k"]

    def test_order_agreement_counts_bounded(self, report):
        for kind in ("substitute", "complement"):
            oa = report.order_agreement[kind]
            assert oa["correct"] + oa["reversed"] + oa["mismatch"] == oa["evaluated"]
            assert oa["evaluated"] <= report.n_queries

    def test_deterministic(self, market, report):
        again = run_benchmark(market, BenchmarkConfig(dimension=64, seed=0))
        assert again.to_json() == report.to_json()

    def test_one_training_pass_and_one_init(self, market, monkeypatch):
        from basketspace import embedding, evaluation

        calls = []
        rows = []
        real_train = evaluation.train
        real_init = embedding.init_embedding

        def counting_train(graph, **kwargs):
            calls.append(kwargs["iterations"])
            return real_train(graph, **kwargs)

        def counting_init(codes, d, seed):
            rows.append(len(codes))
            return real_init(codes, d, seed)

        monkeypatch.setattr(evaluation, "train", counting_train)
        monkeypatch.setattr(embedding, "init_embedding", counting_init)
        report = run_benchmark(market, BenchmarkConfig(dimension=16, chunks=3))
        assert calls == [(6, 1)]
        assert rows == [report.n_embedded]

    def test_report_equals_separate_trainings(self, market, monkeypatch):
        # The one-pass report against one train call per relation.
        from basketspace import evaluation

        config = BenchmarkConfig(dimension=16, chunks=3, seed=2, substitute_iterations=7)
        one_pass = run_benchmark(market, config)
        monkeypatch.setattr(
            evaluation,
            "train",
            lambda graph, iterations, **kw: [train(graph, iterations=c, **kw) for c in iterations],
        )
        assert run_benchmark(market, config).to_json() == one_pass.to_json()

    def test_scores_the_rows_train_returns(self, market, report, monkeypatch):
        # The same spaces with their rows in another order score the same;
        # only the random baseline, which picks by position, may change.
        from basketspace import evaluation

        real_train = evaluation.train

        def permuted_train(graph, **kwargs):
            spaces = real_train(graph, **kwargs)
            order = np.random.default_rng(1).permutation(len(spaces[0].codes))
            for space in spaces:
                space.codes = [space.codes[i] for i in order.tolist()]
                space.vectors = space.vectors[order]
            return spaces

        monkeypatch.setattr(evaluation, "train", permuted_train)
        permuted = run_benchmark(market, BenchmarkConfig(dimension=64, seed=0))
        for section in ("substitutes", "complements", "order_agreement"):
            assert getattr(permuted, section) == getattr(report, section), section

    def test_report_key_order(self, report):
        import json

        payload = json.loads(report.to_json())
        assert list(payload) == [
            "config", "market", "n_embedded", "n_queries", "substitutes",
            "complements", "random_baseline", "order_agreement",
        ]
        assert list(payload["config"]) == [
            "dimension", "substitute_iterations", "complement_iterations",
            "chunks", "seed", "k", "threads", "query_sample",
        ]
        assert payload["config"]["query_sample"] is None

    def test_market_echoed_in_report(self, market, report):
        assert report.market["themes"] == market.themes
        assert report.market["seed"] == market.seed

    def test_text_table_renders_headline_rows(self, report):
        table = report.text_table()
        assert "hits@2" in table
        assert "weighted accuracy" in table
        assert "pairs in exact order" in table
        assert "theme-0 (n=" in table

    def test_query_sample(self, market):
        report = run_benchmark(
            market, BenchmarkConfig(dimension=32, seed=0, query_sample=10)
        )
        assert report.n_queries == 10

    def test_each_space_answers_through_its_recommender(self, market, monkeypatch):
        from basketspace import evaluation

        asked = []
        for name in ("recommend_substitutes", "recommend_complements"):
            def recording(space, queries, k, _name=name, _real=getattr(evaluation, name)):
                asked.append((_name, space.iterations, len(queries), k))
                return _real(space, queries, k)

            monkeypatch.setattr(evaluation, name, recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigurationMismatchWarning)
            run_benchmark(market, BenchmarkConfig(dimension=8, substitute_iterations=4, k=3))
        n = len(market.product_codes)
        assert asked == [("recommend_substitutes", 4, n, 3), ("recommend_complements", 1, n, 3)]

    def test_padding_is_never_a_hit(self):
        from basketspace.evaluation import _hits

        # Row -1 would index product 3, which shares the query's group.
        group, theme = np.array([0, 0, 1, 0]), np.array([0, 0, 0, 0])
        sub, comp = _hits(np.array([[1, 2, -1]]), group, theme, np.array([0]))
        assert sub.tolist() == [[True, False, False]]
        assert comp.tolist() == [[False, True, False]]

    @pytest.mark.parametrize("sample", [0, -1])
    def test_query_sample_below_one_rejected(self, market, sample):
        with pytest.raises(InvalidParameterError, match=f"sample must be >= 1, got {sample}"):
            run_benchmark(market, BenchmarkConfig(dimension=4, query_sample=sample))

    @pytest.mark.parametrize(
        "config",
        [
            BenchmarkConfig(dimension=16),
            BenchmarkConfig(dimension=16, k=1, seed=5),
            BenchmarkConfig(dimension=8, substitute_iterations=2, chunks=3, seed=3, k=9,
                            query_sample=40),
        ],
        ids=["defaults", "k1", "k9-sampled"],
    )
    def test_array_scoring_matches_per_item_definitions(self, market, config):
        membership = market.membership()
        # Truth-only codes: the first member of group (0, 0) in code order
        # and a whole group of theme 1, neither of them in any basket.
        membership.update({"t0g0a": (0, 0), "t1g9a": (1, 9), "t1g9b": (1, 9)})
        graph = expand_hyperedges(*parse_baskets(written(market, "write_baskets").splitlines()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigurationMismatchWarning)
            report = benchmark_baskets(graph, membership, config)
            expected = reference_scores(graph, membership, config)
        assert expected["order_agreement"]["substitute"]["evaluated"] > 0 or config.k == 1
        for section, values in expected.items():
            assert getattr(report, section) == values, section

    def test_missing_truth_code_rejected(self):
        with pytest.raises(DataInconsistencyError) as exc:
            benchmark_baskets(
                graph_from_text("a b\n"), {"a": (0, 0)}, BenchmarkConfig(dimension=4)
            )
        assert "b" in str(exc.value)

    def test_substitute_space_first_hit_rate_dwarfs_random(self):
        # A planted market where the rank-1 substitute suggestion lands in
        # the truth group at least ten times as often as chance.
        m = generate_synthetic_market(seed=0)
        graph = expand_hyperedges(*parse_baskets(written(m, "write_baskets").splitlines()))
        space = train(graph, d=128, iterations=6, seed=0)
        membership = m.membership()
        rng = np.random.default_rng(0)
        picks = rng.choice(len(space.codes), size=200, replace=False)
        queries = []
        for i in picks:
            code = space.codes[int(i)]
            group = membership[code]
            truth = {c for c, tg in membership.items() if tg == group and c != code}
            assert len(truth) == m.group_size - 1
            queries.append((code, truth))
        rate = first_recommendation_hit_rate(
            queries, lambda q: ranked(space.codes, recommend_substitutes(space, [q], 2)[0])[0]
        )
        pool = len(space.codes) - 1
        random_rate = (m.group_size - 1) / pool
        assert rate >= 0.8
        assert rate >= 10 * random_rate
        measured_random = first_recommendation_hit_rate(
            queries,
            lambda q: ranked(space.codes, random_recommender(space.codes, [q], 2, seed=0))[0],
        )
        assert measured_random < 0.1
