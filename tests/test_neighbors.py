"""Cosine similarity, exact kNN, relation-specific recommenders, the random
baseline, and the neighbor output format."""

import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketspace import (
    ConfigurationMismatchWarning,
    EmbeddingMatrix,
    InvalidParameterError,
    UnknownProductError,
    random_recommender,
    recommend_complements,
    recommend_substitutes,
    top_k_batch,
    write_neighbors,
)
from basketspace import neighbors
from basketspace.neighbors import _ARGMAX_MAX_K, BLOCK_ENTRIES
from conftest import cosine_similarity, ranked, vector_of


def top_pairs(emb, queries, k, candidates=None) -> list:
    """``[(code, sim), ...]`` per query, as :func:`top_k_batch` ranks them."""
    return ranked(emb.codes, *top_k_batch(emb, queries, k, candidates))


def top_codes(emb, queries, k, candidates=None) -> list:
    """``[code, ...]`` per query, as :func:`top_k_batch` ranks them."""
    return ranked(emb.codes, top_k_batch(emb, queries, k, candidates)[0])


def embedding_from(rows: dict, iterations=None) -> EmbeddingMatrix:
    codes = list(rows)
    return EmbeddingMatrix(codes, np.array([rows[c] for c in codes], dtype=np.float64), iterations=iterations)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -0.4, 1.2])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_forty_five_degrees(self):
        sim = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert sim == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_opposite_is_minus_one(self):
        v = np.array([2.0, -1.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.normal(size=(2, 6))
            assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        u, v = rng.normal(size=(2, 6))
        assert cosine_similarity(3.5 * u, v) == pytest.approx(
            cosine_similarity(u, v), abs=1e-12
        )

    def test_always_clamped(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u, v = rng.normal(size=(2, 4))
            assert -1.0 <= cosine_similarity(u, v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestTopK:
    def test_hand_ranked_triangle(self):
        emb = embedding_from(
            {
                "q": [1.0, 0.0],
                "near": [1.0, 1.0],
                "far": [0.0, 1.0],
            }
        )
        result = top_pairs(emb, ["q"], 2)[0]
        assert [c for c, _ in result] == ["near", "far"]
        assert result[0][1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert result[1][1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            d = int(rng.integers(2, 10))
            codes = [f"c{i}" for i in range(n)]
            vectors = rng.normal(size=(n, d))
            emb = EmbeddingMatrix(codes, vectors)
            k = int(rng.integers(1, n + 2))
            query = codes[int(rng.integers(0, n))]
            result = top_pairs(emb, [query], k)[0]
            got = [c for c, _ in result]
            sims = [
                (cosine_similarity(vector_of(emb, query), vector_of(emb, c)), c)
                for c in codes
                if c != query
            ]
            expected = [
                c
                for _, c in sorted(
                    sims, key=lambda t: (-t[0], codes.index(t[1]))
                )[: min(k, n - 1)]
            ]
            assert got == expected
            # Ranked output is non-increasing and never echoes the query.
            values = [s for _, s in result]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert query not in got
            assert len(set(got)) == len(got)

    def test_tie_breaks_by_row_index(self):
        emb = embedding_from(
            {
                "q": [1.0, 0.0],
                "twin-b": [2.0, 0.0],
                "twin-a": [3.0, 0.0],
            }
        )
        # Both twins have similarity 1; the earlier row wins rank 1.
        assert top_codes(emb, ["q"], 2)[0] == ["twin-b", "twin-a"]

    def test_cut_inside_a_tie_group_keeps_lowest_rows(self):
        emb = embedding_from(
            {
                "q": [1.0, 0.0],
                "best": [1.0, 0.0],
                "tie_a": [4.0, 4.0],
                "tie_b": [1.0, 1.0],
                "tie_c": [2.0, 2.0],
                "worst": [0.0, 1.0],
            }
        )
        # Power-of-two scales keep the three cosines exactly equal.
        assert top_codes(emb, ["q"], 3)[0] == ["best", "tie_a", "tie_b"]

    def test_k_larger_than_pool_truncates(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [0.0, 1.0]})
        rows, sims = top_k_batch(emb, ["q"], 10)
        assert top_codes(emb, ["q"], 10) == [["a"]]
        # The width is that of the longest list.
        assert rows.shape == sims.shape == (1, 1)

    def test_k_below_one_rejected(self):
        emb = embedding_from({"q": [1.0], "a": [1.0]})
        with pytest.raises(InvalidParameterError):
            top_k_batch(emb, ["q"], 0)

    def test_unknown_query_suggests_near_codes(self):
        codes = ["cherry", "bandana", "banana", "ban", "b", "band", "apple"]
        emb = embedding_from({code: [1.0, float(i)] for i, code in enumerate(codes)})
        with pytest.raises(UnknownProductError) as exc:
            top_k_batch(emb, ["bana"], 1)
        message = str(exc.value)
        assert "bana" in message
        assert "banana" in message
        assert exc.value.exit_code == 3
        # The five longest shared prefixes, ties by code.
        assert exc.value.suggestions == ["banana", "ban", "band", "bandana", "b"]

    def test_candidate_restriction(self):
        emb = embedding_from(
            {"q": [1.0, 0.0], "a": [1.0, 0.1], "b": [1.0, 0.2], "c": [0.0, 1.0]}
        )
        result = top_codes(emb, ["q"], 3, candidates=["b", "c"])[0]
        assert set(result) <= {"b", "c"}
        assert result[0] == "b"

    def test_candidates_ignore_unknown_and_query(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]})
        assert top_codes(emb, ["q"], 5, candidates=["q", "a", "ghost"]) == [["a"]]

    def test_empty_candidate_pool(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]})
        rows, sims = top_k_batch(emb, ["q"], 5, candidates=["q"])
        assert top_codes(emb, ["q"], 5, candidates=["q"]) == [[]]
        assert rows.shape == sims.shape == (1, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        emb = EmbeddingMatrix([f"c{i}" for i in range(20)], rng.normal(size=(20, 6)))
        assert top_pairs(emb, ["c3"], 5) == top_pairs(emb, ["c3"], 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_positive_scaling_preserves_ranking(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        codes = [f"c{i}" for i in range(n)]
        vectors = rng.normal(size=(n, 4))
        scales = rng.uniform(0.1, 10.0, size=n)
        a = top_codes(EmbeddingMatrix(codes, vectors), ["c0"], 4)
        b = top_codes(EmbeddingMatrix(codes, vectors * scales[:, None]), ["c0"], 4)
        assert a == b


def brute_force_codes(emb: EmbeddingMatrix, query: str, k: int, candidates=None) -> list:
    """Rank every other row (of the candidates, if given) by (-cosine, row
    index) the slow, obvious way."""
    qrow = emb.codes.index(query)
    scored = [
        (-cosine_similarity(emb.vectors[qrow], emb.vectors[j]), j)
        for j in range(len(emb.codes))
        if j != qrow and (candidates is None or emb.codes[j] in candidates)
    ]
    return [emb.codes[j] for _, j in sorted(scored)[:k]]


def block_rows(n: int) -> int:
    return max(2, BLOCK_ENTRIES // n)


class TestTopKBatch:
    def test_block_partition_spans_several_blocks(self):
        # The sizes the tests below rely on: n=600 splits into 218-row blocks.
        assert block_rows(600) == 218
        assert -(-600 // block_rows(600)) == 3

    def test_results_follow_query_order(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingMatrix([f"c{i}" for i in range(12)], rng.normal(size=(12, 4)))
        batch = top_pairs(emb, ["c7", "c0", "c7"], 3)
        assert len(batch) == 3
        assert batch[0] == batch[2] == top_pairs(emb, ["c7"], 3)[0]
        assert batch[1] == top_pairs(emb, ["c0"], 3)[0]

    def test_empty_batch(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]})
        rows, sims = top_k_batch(emb, [], 2)
        assert rows.shape == sims.shape == (0, 0)

    def test_string_of_queries_rejected(self):
        # A bare string is not read as one query per character.
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]})
        with pytest.raises(InvalidParameterError, match="sequence of product codes"):
            top_k_batch(emb, "qa", 1)
        assert top_codes(emb, ["q", "a"], 1) == [["a"], ["q"]]

    @pytest.mark.parametrize("with_candidates", [False, True])
    def test_single_query_equals_its_line_in_the_full_batch(self, with_candidates):
        # Similarities must match bit for bit: a one-row product (GEMV) and a
        # block product (GEMM) differ in the last bits for most entries.
        rng = np.random.default_rng(21)
        n, d = 600, 128
        codes = [f"c{i}" for i in range(n)]
        vectors = rng.normal(size=(n, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        emb = EmbeddingMatrix(codes, vectors)
        pool = codes[::3] if with_candidates else None
        full = top_pairs(emb, codes, 5, pool)
        step = block_rows(n)
        picks = {0, 1, step - 1, step, step + 1, 2 * step, n - 2, n - 1}
        picks |= {int(i) for i in rng.choice(n, 10, replace=False)}
        for i in sorted(picks):
            fresh = EmbeddingMatrix(codes, vectors.copy())
            assert top_pairs(fresh, [codes[i]], 5, pool)[0] == full[i]

    def test_kth_value_inside_a_tie_group_follows_row_index(self):
        # Small-integer rows give exact dot products, so duplicated rows tie
        # exactly; ties straddle the k-th place in every query's ranking.
        rng = np.random.default_rng(8)
        n = 700
        patterns = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 2]],
            dtype=np.float64,
        )
        vectors = patterns[rng.integers(0, len(patterns), n)]
        codes = [f"c{i}" for i in range(n)]
        emb = EmbeddingMatrix(codes, vectors)
        queries = [codes[i] for i in (0, 5, 217, 218, 350, 699)]
        for k in (1, 3, 40, 150):
            for query, result in zip(queries, top_pairs(emb, queries, k)):
                assert [c for c, _ in result] == brute_force_codes(emb, query, k)
                rows = [int(c[1:]) for c, _ in result]
                sims = [s for _, s in result]
                for (r1, s1), (r2, s2) in zip(zip(rows, sims), zip(rows[1:], sims[1:])):
                    assert s1 > s2 or (s1 == s2 and r1 < r2)

    @pytest.mark.parametrize("n", [365, 600, 1000])
    def test_matches_brute_force_across_blocks(self, n):
        rng = np.random.default_rng(n)
        codes = [f"c{i}" for i in range(n)]
        emb = EmbeddingMatrix(codes, rng.normal(size=(n, 6)))
        step = block_rows(n)
        assert n > step  # at least two blocks
        rows = sorted({0, step - 1, step, n - 1} | {int(i) for i in rng.choice(n, 4)})
        queries = [codes[i] for i in rows]
        for k in (1, 2, 17, n // 2, n - 1, n, n + 5):
            for query, got in zip(queries, top_codes(emb, queries, k)):
                assert got == brute_force_codes(emb, query, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(5, 3))
        vectors[1, 2] = bad
        emb = EmbeddingMatrix([f"c{i}" for i in range(5)], vectors)
        with pytest.raises(InvalidParameterError):
            top_k_batch(emb, ["c0"], 2)

    def test_unknown_query_in_batch_rejected(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]})
        with pytest.raises(UnknownProductError):
            top_k_batch(emb, ["q", "ghost"], 1)

    def test_zero_query_rejected(self):
        emb = embedding_from({"q": [0.0, 0.0], "a": [1.0, 0.1]})
        with pytest.raises(InvalidParameterError):
            top_k_batch(emb, ["q"], 1)

    def test_zero_candidate_rejected_only_when_ranked(self):
        emb = embedding_from({"q": [1.0, 0.0], "z": [0.0, 0.0], "a": [1.0, 0.1]})
        with pytest.raises(InvalidParameterError):
            top_k_batch(emb, ["q"], 1)
        assert top_codes(emb, ["q"], 1, candidates=["a"]) == [["a"]]

    def test_row_scaled_in_place_after_a_query(self):
        # The space keeps no norms between calls: a row edited after a first
        # query ranks as it does in a fresh space of the same arrays.
        codes = [f"c{i}" for i in range(8)]
        emb = EmbeddingMatrix(codes, np.random.default_rng(4).normal(size=(8, 3)))
        top_k_batch(emb, codes, 3)
        emb.vectors[2] *= 10.0
        rows, sims = top_k_batch(emb, codes, 3)
        fresh_rows, fresh_sims = top_k_batch(EmbeddingMatrix(codes, emb.vectors.copy()), codes, 3)
        assert np.array_equal(rows, fresh_rows)
        assert np.array_equal(sims, fresh_sims)


TINY = 5e-324  # the smallest subnormal double


@st.composite
def kernel_cases(draw):
    """A space, a block height, a candidate pool and a query list.

    Rows are small integers, so equal cosines tie exactly, or
    ``[m * TINY, 0, c]``. Against a row whose last entry is 0, such a row's
    dot product is a subnormal that the norms divide down to -0.0 or +0.0.
    Every dot product is exact or has at most two nonzero terms, so BLAS
    and the oracle round it alike, whatever order they sum in. Zero-norm
    rows (``c == 0``, or all zeros) are never queried or candidates, so
    their NaN rows are scanned but never read.
    """
    small = st.integers(-2, 2).map(float)
    tiny_row = st.tuples(st.sampled_from([-2, -1, 1, 2]).map(TINY.__mul__), st.just(0.0), small)
    vectors = np.array(draw(st.lists(st.one_of(st.tuples(small, small, small), tiny_row),
                                     min_size=3, max_size=20)))
    n = len(vectors)
    live = [i for i in range(n) if np.linalg.norm(vectors[i]) > 0.0]
    if not live:
        vectors[0, 0] = 1.0
        live = [0]
    codes = [f"c{i}" for i in range(n)]
    if len(live) == n and draw(st.booleans()):
        pool = None
    else:
        pool = [codes[i] for i in sorted(draw(st.sets(st.sampled_from(live))))]
    queries = [codes[i] for i in draw(st.lists(st.sampled_from(live), min_size=1, max_size=2 * n))]
    step = draw(st.integers(2, n))
    return EmbeddingMatrix(codes, vectors), step, pool, queries


class TestArgmaxPasses:
    """The argmax passes (k <= _ARGMAX_MAX_K) and the per-row partition
    (larger k) both rank like the brute-force oracle."""

    @pytest.mark.parametrize("k", [1, 2, _ARGMAX_MAX_K, _ARGMAX_MAX_K + 1])
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    def test_matches_brute_force(self, k, case):
        emb, step, pool, queries = case
        n = len(emb.codes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "BLOCK_ENTRIES", step * n)
            batch = top_pairs(emb, queries, k, pool)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            assert [c for c, _ in result] == brute_force_codes(emb, query, k, pool)
            q = vector_of(emb, query)
            assert [s for _, s in result] == [
                cosine_similarity(q, vector_of(emb, c)) for c, _ in result
            ]

    def test_signed_zero_similarities_tie_by_row_index(self):
        # c1 scores -0.0 against the query and c2 +0.0; they tie.
        emb = EmbeddingMatrix(
            ["q", "c1", "c2", "c3"],
            np.array([[1.0, 1.0, 0.0], [-TINY, 0.0, 2.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
        )
        for k in (2, _ARGMAX_MAX_K + 1):
            result = top_pairs(emb, ["q"], k)[0]
            assert [c for c, _ in result[:2]] == ["c1", "c2"]
            assert [str(s) for _, s in result[:2]] == ["-0.0", "0.0"]


class TestRecommenders:
    def test_substitutes_return_the_kernel_arrays(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=6)
        rows, sims = recommend_substitutes(emb, ["q"], 1)
        assert rows.dtype == np.int64 and rows.tolist() == [[1]]
        assert sims.tolist() == top_k_batch(emb, ["q"], 1)[1].tolist()

    def test_substitutes_warn_on_shallow_space(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=1)
        with pytest.warns(ConfigurationMismatchWarning):
            recommend_substitutes(emb, ["q"], 1)

    def test_substitutes_quiet_on_deep_space(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recommend_substitutes(emb, ["q"], 1)

    def test_complements_warn_on_deep_space(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=6)
        with pytest.warns(ConfigurationMismatchWarning):
            recommend_complements(emb, ["q"], 1)

    def test_complements_quiet_on_single_iteration_space(self):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, sims = recommend_complements(emb, ["q"], 1)
        assert rows.tolist() == [[1]]
        assert sims.tolist() == top_k_batch(emb, ["q"], 1)[1].tolist()

    def test_batch_returns_lists_and_warns_once(self):
        emb = embedding_from(
            {"q": [1.0, 0.0], "a": [1.0, 0.1], "b": [0.0, 1.0]}, iterations=1
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            subs = recommend_substitutes(emb, ["q", "a", "b"], 1)
        assert [w.category for w in caught] == [ConfigurationMismatchWarning]
        assert ranked(emb.codes, *subs) == [top_pairs(emb, [c], 1)[0] for c in ("q", "a", "b")]
        comps = recommend_complements(emb, ("b", "q"), 2)
        assert ranked(emb.codes, *comps) == top_pairs(emb, ["b", "q"], 2)

    @pytest.mark.parametrize("recommend", [recommend_substitutes, recommend_complements])
    def test_string_of_queries_rejected(self, recommend):
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=None)
        with pytest.raises(InvalidParameterError, match="sequence of product codes"):
            recommend(emb, "qa", 1)

    def test_unknown_provenance_is_quiet(self):
        # Spaces read back from files record no iteration count and must
        # not warn.
        emb = embedding_from({"q": [1.0, 0.0], "a": [1.0, 0.1]}, iterations=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recommend_substitutes(emb, ["q"], 1)
            recommend_complements(emb, ["q"], 1)


def list_based_random(vocabulary, query, k, seed):
    """The original baseline: build the list of other products, then pick."""
    others = [c for c in vocabulary if c != query]
    digest = hashlib.blake2b(
        f"{seed}\x1erandom\x1e{query}".encode("utf-8"), digest_size=16
    ).digest()
    gen = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))
    picks = gen.choice(len(others), size=k, replace=False)
    return [others[int(i)] for i in picks]


class TestRandomRecommender:
    def test_two_products_forced_pick(self):
        rows = random_recommender(["a", "b"], ["a"], 1, seed=0)
        assert rows.dtype == np.int64 and rows.tolist() == [[1]]

    def test_deterministic_per_seed_and_query(self):
        vocab = [f"c{i}" for i in range(30)]
        a = random_recommender(vocab, ["c5"], 3, seed=42)
        b = random_recommender(vocab, ["c5"], 3, seed=42)
        assert np.array_equal(a, b)

    def test_seeds_vary_the_draws(self):
        vocab = [f"c{i}" for i in range(30)]
        draws = {tuple(random_recommender(vocab, ["c5"], 3, seed=s)[0]) for s in range(10)}
        assert len(draws) > 1

    def test_never_returns_query_and_never_repeats(self):
        vocab = [f"c{i}" for i in range(10)]
        for seed in range(20):
            [result] = ranked(vocab, random_recommender(vocab, ["c0"], 5, seed=seed))
            assert "c0" not in result
            assert len(set(result)) == 5

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_recommender(["a", "b"], ["a"], 2, seed=0)

    def test_absent_query_samples_from_all_products(self):
        assert sorted(ranked(["a", "b"], random_recommender(["a", "b"], ["z"], 2, seed=0))[0]) == [
            "a", "b"
        ]
        with pytest.raises(InvalidParameterError):
            random_recommender(["a", "b"], ["z"], 3, seed=0)

    def test_picks_match_list_based_version(self):
        vocab = [f"c{i}" for i in range(40)]
        for seed in (0, 1, 7, 123, 2**31):
            for query in ("c0", "c1", "c17", "c38", "c39", "absent"):
                for k in (1, 2, 5, 39):
                    [got] = ranked(vocab, random_recommender(vocab, [query], k, seed))
                    assert got == list_based_random(vocab, query, k, seed)

    def test_batch_equals_single_calls_and_list_based_version(self):
        vocab = [f"c{i}" for i in range(60)] + ["café", "商品", "🛒"]
        queries = vocab[::-1] + ["absent", "c3", "c3", "商品"]
        for seed in (0, 9, 2**33):
            for k in (1, 2, 7, 59):
                batch = random_recommender(vocab, queries, k, seed)
                assert batch.shape == (len(queries), k) and batch.dtype == np.int64
                for query, got in zip(queries, batch):
                    single = random_recommender(vocab, [query], k, seed)[0]
                    assert np.array_equal(got, single)
                    assert ranked(vocab, got[None])[0] == list_based_random(vocab, query, k, seed)

    def test_string_of_queries_rejected(self):
        # Read as characters, "abc" would silently ask for "a", "b" and "c".
        with pytest.raises(InvalidParameterError, match="sequence of product codes"):
            random_recommender(["a", "b", "c", "d"], "abc", 1, seed=0)

    def test_batch_of_no_queries_is_empty(self):
        assert random_recommender(["a", "b"], [], 1, seed=0).shape == (0, 1)

    def test_batch_rejects_k_beyond_any_pool(self):
        with pytest.raises(InvalidParameterError):
            random_recommender(["a", "b", "c"], ["z", "a"], 3, seed=0)

    def test_uniform_over_hundred_products(self):
        # 1e5 draws over a 100-product pool; the fixed seed enumeration
        # makes the outcome deterministic, checked with a chi-square
        # statistic within 3 sigma of its df=99 expectation.
        vocab = [f"c{i}" for i in range(101)]
        counts = {c: 0 for c in vocab if c != "c0"}
        draws = 100_000
        for seed in range(draws):
            counts[vocab[random_recommender(vocab, ["c0"], 1, seed=seed)[0, 0]]] += 1
        expected = draws / 100
        chi_square = sum((n - expected) ** 2 / expected for n in counts.values())
        df = 99
        assert abs(chi_square - df) <= 3 * np.sqrt(2 * df)


class TestWriteNeighbors:
    def test_tsv_format(self):
        rows = np.array([[0, 1], [2, -1]])
        sims = np.array([[0.5, 0.25], [1.0, np.nan]])
        out = io.StringIO()
        write_neighbors(["a", "b", "c"], ["q1", "q2"], rows, sims, out)
        lines = out.getvalue().splitlines()
        assert lines == ["q1\t1\ta\t0.5", "q1\t2\tb\t0.25", "q2\t1\tc\t1"]

    @pytest.mark.parametrize("k", [3, _ARGMAX_MAX_K + 1])
    def test_short_pool_is_padded_and_padding_not_written(self, k):
        emb = embedding_from(
            {"q": [1.0, 0.0], "a": [1.0, 0.1], "b": [0.0, 1.0], "c": [1.0, 1.0]}
        )
        # q ranks both candidates, b only a: a query never ranks itself.
        rows, sims = top_k_batch(emb, ["q", "b"], k, candidates=["a", "b"])
        assert rows.tolist() == [[1, 2], [1, -1]]
        assert np.isnan(sims).tolist() == [[False, False], [False, True]]
        out = io.StringIO()
        write_neighbors(emb.codes, ["q", "b"], rows, sims, out)
        assert [line.split("\t")[:3] for line in out.getvalue().splitlines()] == [
            ["q", "1", "a"], ["q", "2", "b"], ["b", "1", "a"]
        ]
