"""Chunk partitioning, transition matrices, iteration, merging, training,
the dense reference path, and the embedding file format."""

import dataclasses
import hashlib
import io
import tracemalloc
import re
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketspace import (
    EmbeddingMatrix,
    EmptyGraphError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
    build_transition,
    dense_reference_train,
    init_embedding,
    iterate,
    partition_chunks,
    read_embedding,
    train,
    write_embedding,
)
from basketspace import embedding
from conftest import (
    edge_weights,
    graph_from_edges,
    graph_from_text,
    normalize_rows,
    random_graph,
    reference_read_embedding,
)


def unit_rows(vectors: np.ndarray, atol: float = 1e-9) -> bool:
    return bool(np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=atol))


def chunk_map(graph, chunk_ids) -> dict:
    """{(code, code) sorted: chunk id} from the aligned edge arrays."""
    codes = graph.vocabulary.codes
    return {
        tuple(sorted((codes[a], codes[b]))): q
        for (a, b), q in zip(edge_weights(graph), chunk_ids.tolist())
    }


class TestPartition:
    def test_single_chunk_takes_everything(self, demo_graph):
        chunk_ids = partition_chunks(demo_graph, 1)
        assert set(chunk_ids.tolist()) == {0}
        assert len(chunk_ids) == demo_graph.edge_count == len(edge_weights(demo_graph))

    def test_chunk_ids_in_range(self, demo_graph):
        for q in (2, 3, 7):
            chunk_ids = partition_chunks(demo_graph, q)
            assert len(chunk_ids) == demo_graph.edge_count
            assert all(0 <= c < q for c in chunk_ids.tolist())

    def test_zero_chunks_rejected(self, demo_graph):
        with pytest.raises(InvalidParameterError):
            partition_chunks(demo_graph, 0)

    def test_assignment_is_deterministic(self, demo_graph):
        a1 = partition_chunks(demo_graph, 4)
        a2 = partition_chunks(demo_graph, 4)
        assert np.array_equal(a1, a2)

    def test_assignment_keyed_by_codes_not_insertion_order(self):
        # The same labeled graph parsed in two different line orders must
        # put each code pair in the same chunk.
        g1 = graph_from_text("a b\nc d\ne f\n")
        g2 = graph_from_text("e f\nc d\na b\n")
        by_codes_1 = chunk_map(g1, partition_chunks(g1, 4))
        by_codes_2 = chunk_map(g2, partition_chunks(g2, 4))
        assert by_codes_1 == by_codes_2

    def test_ids_equal_crc32_of_sorted_code_pair(self):
        # Codes whose string order differs from their first-appearance
        # order, including non-ASCII ones.
        rng = np.random.default_rng(17)
        pool = ["zeta", "alpha", "b", "B", "café", "cafe", "é", "a1", "a10", "a2", "ß", "x"]
        lines = [" ".join(rng.choice(pool, int(rng.integers(2, 6)))) for _ in range(40)]
        g = graph_from_text("\n".join(lines) + "\n")
        for q in (1, 2, 3, 7, 64):
            expected = {}
            for ca, cb in chunk_map(g, partition_chunks(g, 1)):
                key = ca.encode("utf-8") + b"\x1e" + cb.encode("utf-8")
                expected[(ca, cb)] = zlib.crc32(key) % q
            assert chunk_map(g, partition_chunks(g, q)) == expected


class TestTransition:
    def test_single_edge(self):
        g = graph_from_text("a b\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        assert M.matrix.shape == (2, 2)
        dense = M.matrix.toarray()
        assert np.array_equal(dense, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_demo_row_is_degree_normalized(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        vocab = demo_graph.vocabulary
        local = {int(v): i for i, v in enumerate(M.nodes)}
        p4 = local[vocab.index_of("p4")]
        row = M.matrix.toarray()[p4]
        # p4 co-occurs once each with p1, p2, p3: three equal steps.
        expected = np.zeros(len(M.nodes))
        for other in ("p1", "p2", "p3"):
            expected[local[vocab.index_of(other)]] = 1.0 / 3.0
        assert np.allclose(row, expected, atol=1e-15)

    def test_weighted_edges(self):
        g = graph_from_text("a b\na b\na b\na c\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        vocab = g.vocabulary
        local = {int(v): i for i, v in enumerate(M.nodes)}
        row_a = M.matrix.toarray()[local[vocab.index_of("a")]]
        assert row_a[local[vocab.index_of("b")]] == pytest.approx(0.75, abs=1e-15)
        assert row_a[local[vocab.index_of("c")]] == pytest.approx(0.25, abs=1e-15)

    def test_rows_are_stochastic_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            M = build_transition(g, partition_chunks(g, 1), 0)
            sums = np.asarray(M.matrix.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-12)
            assert (M.matrix.data > 0).all()
            assert (M.matrix.data <= 1).all()

    def test_chunk_local_degrees(self):
        # Force an edge split and confirm each chunk normalizes by its own
        # local degree, not the global one.
        g = graph_from_text("a b\nb c\n")
        q_ab = None
        for q in range(2, 40):
            chunk_ids = partition_chunks(g, q)
            if len(set(chunk_ids.tolist())) == 2:
                q_ab = chunk_map(g, chunk_ids)[("a", "b")]
                break
        assert q_ab is not None
        M = build_transition(g, chunk_ids, q_ab)
        # In its own chunk the a-b edge is the only one, so both rows are 1.
        assert M.matrix.shape == (2, 2)
        assert np.allclose(np.asarray(M.matrix.sum(axis=1)).ravel(), 1.0)
        assert M.matrix.toarray().max() == 1.0

    def test_empty_chunk_rejected(self):
        g = graph_from_text("a b\n")
        chunk_ids = partition_chunks(g, 5)
        used = set(chunk_ids.tolist())
        empty = next(q for q in range(5) if q not in used)
        with pytest.raises(InvalidParameterError):
            build_transition(g, chunk_ids, empty)

    def test_chunk_index_out_of_range(self, demo_graph):
        chunk_ids = partition_chunks(demo_graph, 2)
        with pytest.raises(InvalidParameterError):
            build_transition(demo_graph, chunk_ids, 2)


class TestInit:
    def test_deterministic(self):
        a = init_embedding(["x", "y"], 16, seed=3)
        b = init_embedding(["x", "y"], 16, seed=3)
        assert np.array_equal(a.vectors, b.vectors)

    def test_seed_changes_rows(self):
        a = init_embedding(["x"], 16, seed=0)
        b = init_embedding(["x"], 16, seed=1)
        assert not np.allclose(a.vectors, b.vectors)

    def test_rows_keyed_by_code_not_position(self):
        a = init_embedding(["x", "y", "z"], 8, seed=0)
        b = init_embedding(["z", "x", "y"], 8, seed=0)
        for code in ("x", "y", "z"):
            assert np.array_equal(a.vector(code), b.vector(code))

    def test_rows_are_unit_norm(self):
        emb = init_embedding([f"c{i}" for i in range(50)], 32, seed=5)
        assert unit_rows(emb.vectors)

    def test_raw_samples_stay_in_open_interval(self):
        # Regenerate the pre-normalization rows through the public path at
        # d=1: a single coordinate is its own sign, so normalized values
        # carry no range information; instead check a wide d where the
        # normalized max entry must stay strictly below 1.
        emb = init_embedding([f"c{i}" for i in range(1000)], 1024, seed=0)
        assert np.isfinite(emb.vectors).all()
        assert np.abs(emb.vectors).max() < 1.0

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            init_embedding(["x"], 0, seed=0)

    def test_iteration_counter_starts_at_zero(self):
        emb = init_embedding(["x"], 4, seed=0)
        assert emb.iterations == 0
        assert emb.seed == 0

    def test_rows_match_a_fresh_generator_per_code(self):
        # Bit for bit against the earlier per-row path, inlined here: a new
        # Philox keyed by blake2b(seed, code) for every row.
        def fresh_row(seed, code, d):
            digest = hashlib.blake2b(
                f"{seed}\x1e{code}".encode("utf-8"), digest_size=16
            ).digest()
            gen = np.random.Generator(
                np.random.Philox(key=int.from_bytes(digest, "little"))
            )
            row = gen.uniform(-1.0, 1.0, d)
            bad = np.abs(row) >= 1.0
            while bad.any():
                row[bad] = gen.uniform(-1.0, 1.0, int(bad.sum()))
                bad = np.abs(row) >= 1.0
            while np.linalg.norm(row) <= embedding.ZERO_ROW_NORM:
                row = gen.uniform(-1.0, 1.0, d)
            return row

        codes = [f"p{i}" for i in range(1920)]
        codes += [f"café{i}" for i in range(40)] + [f"商品{i}" for i in range(40)]
        codes += ["\u00e9", "e\u0301", "🛒", "x" * 300, "a b", "\x1e"]
        for d in (1, 2, 3, 128, 1024):
            for seed in (0, 5, 2**40):
                got = init_embedding(codes, d, seed).vectors
                expected = np.array([fresh_row(seed, c, d) for c in codes])
                expected /= np.linalg.norm(expected, axis=1, keepdims=True)
                assert np.array_equal(got, expected), (d, seed)

    def test_rows_that_draw_an_endpoint_or_a_zero_row_are_redrawn(self, monkeypatch):
        # A generator whose first draw after each reseed puts the excluded
        # endpoint -1.0 into a row that starts below -0.5 and returns a zero
        # row where the row starts above 0.5; later draws are untouched.
        # The rows must equal a per-row loop that checks each draw as it
        # comes, under the same generator.
        real = np.random.Generator
        rigged = {"endpoint": 0, "zero": 0}

        class Rigged:
            def __init__(self, bit_generator):
                self.bit_generator = bit_generator
                self._gen = real(bit_generator)

            def uniform(self, low, high, size):
                fresh = not any(self.bit_generator.state["state"]["counter"])
                row = self._gen.uniform(low, high, size)
                if fresh and row[0] < -0.5:
                    row[0] = -1.0
                    rigged["endpoint"] += 1
                elif fresh and row[0] > 0.5:
                    row[:] = 0.0
                    rigged["zero"] += 1
                return row

        def per_row_loop(codes, d, seed):
            gen = Rigged(np.random.Philox(0))
            rows = []
            for code in codes:
                embedding.reseed_philox(gen, f"{seed}\x1e{code}")
                row = gen.uniform(-1.0, 1.0, d)
                bad = np.abs(row) >= 1.0
                while bad.any():
                    row[bad] = gen.uniform(-1.0, 1.0, int(bad.sum()))
                    bad = np.abs(row) >= 1.0
                while np.linalg.norm(row) <= embedding.ZERO_ROW_NORM:
                    row = gen.uniform(-1.0, 1.0, d)
                rows.append(row)
            rows = np.array(rows)
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        codes = [f"c{i}" for i in range(200)]
        for d in (1, 3, 16):
            expected = per_row_loop(codes, d, seed=4)
            rigged.update(endpoint=0, zero=0)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "Generator", Rigged)
                got = init_embedding(codes, d, seed=4).vectors
            assert rigged["endpoint"] > 20 and rigged["zero"] > 20
            assert np.array_equal(got, expected), d
            assert np.abs(got).max() < 1.0 or d == 1

    def test_concurrent_calls_give_the_same_rows(self):
        from concurrent.futures import ThreadPoolExecutor

        codes = [f"c{i}" for i in range(400)]
        expected = init_embedding(codes, 64, seed=3).vectors
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(lambda _: init_embedding(codes, 64, seed=3), range(6), timeout=60)
            )
        assert len(runs) == 6
        for run in runs:
            assert np.array_equal(run.vectors, expected)


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            normalize_rows(np.array([[0.0, 0.0]]))


class TestIterate:
    def test_two_node_swap(self):
        g = graph_from_text("x y\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        codes = [g.vocabulary.code(int(v)) for v in M.nodes]
        T0 = init_embedding(codes, 8, seed=0)
        T1 = iterate(T0, M)
        # With a single edge, each node takes the other's (unit) row.
        assert np.allclose(T1.vectors[0], T0.vectors[1], atol=1e-12)
        assert np.allclose(T1.vectors[1], T0.vectors[0], atol=1e-12)
        assert T1.iterations == 1

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, max_nodes=20, max_edges=60)
            M = build_transition(g, partition_chunks(g, 1), 0)
            codes = [g.vocabulary.code(int(v)) for v in M.nodes]
            T = init_embedding(codes, 8, seed=1)
            stepped = iterate(T, M)
            raw = M.matrix.toarray() @ T.vectors
            expected = raw / np.linalg.norm(raw, axis=1)[:, None]
            assert np.allclose(stepped.vectors, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        bad = init_embedding(["a", "b"], 8, seed=0)
        with pytest.raises(InternalConsistencyError):
            iterate(bad, M)

    def test_cancelled_row_keeps_previous_value(self):
        # Path a-b-c: row b averages rows a and c. Giving a and c exactly
        # opposite vectors cancels row b, which must then keep its previous
        # value and be counted.
        g = graph_from_text("a b\nb c\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        codes = [g.vocabulary.code(int(v)) for v in M.nodes]
        rng = np.random.default_rng(0)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        by_code = {"a": u, "b": w, "c": -u}
        T = EmbeddingMatrix(codes, np.array([by_code[c] for c in codes]), iterations=0, seed=0)
        out = iterate(T, M)
        assert out.zero_rows_replaced == 1
        assert np.array_equal(out.vector("b"), w)
        assert unit_rows(out.vectors, atol=1e-12)

    def test_threads_do_not_change_result(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = random_graph(rng, max_nodes=40, max_edges=150)
            M = build_transition(g, partition_chunks(g, 1), 0)
            codes = [g.vocabulary.code(int(v)) for v in M.nodes]
            T = init_embedding(codes, 16, seed=2)
            a = iterate(T, M, threads=1)
            b = iterate(T, M, threads=8)
            assert np.array_equal(a.vectors, b.vectors)


def chunk_weights(graph, chunk_count: int) -> np.ndarray:
    """Merge weights w(q, v) = deg_q(v) / deg(v) as a (|vocabulary|, Q)
    array, counted edge by edge."""
    chunk_ids = partition_chunks(graph, chunk_count)
    W = np.zeros((len(graph.vocabulary), chunk_count))
    for a, b, w, q in zip(graph.a.tolist(), graph.b.tolist(), graph.w.tolist(), chunk_ids.tolist()):
        W[a, q] += w
        W[b, q] += w
    covered = graph.degrees > 0
    W[covered] /= graph.degrees[covered, None]
    return W


class TestChunkWeights:
    def test_single_chunk_weights_are_one(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        assert np.array_equal(M.degrees, demo_graph.degrees[M.nodes])
        W = chunk_weights(demo_graph, 1)
        assert np.allclose(W[:, 0], 1.0, atol=1e-15)

    def test_rows_sum_to_one_for_covered_nodes(self):
        rng = np.random.default_rng(41)
        for q in (1, 2, 3, 5):
            g = random_graph(rng)
            W = chunk_weights(g, q)
            covered = g.degrees > 0
            assert np.allclose(W[covered].sum(axis=1), 1.0, atol=1e-12)
            assert (W >= 0).all() and (W <= 1).all()
            # train scales chunk rows by each transition matrix's degrees.
            chunk_ids = partition_chunks(g, q)
            for chunk in np.unique(chunk_ids).tolist():
                M = build_transition(g, chunk_ids, chunk)
                assert np.array_equal(M.degrees / g.degrees[M.nodes], W[M.nodes, chunk])

    def test_isolated_rows_are_zero(self):
        g = graph_from_text("a b\nlonely\n")
        W = chunk_weights(g, 2)
        row = W[g.vocabulary.index_of("lonely")]
        assert np.array_equal(row, np.zeros(2))


def split_chunk_count(graph) -> int:
    """The smallest Q > 1 that gives every edge its own chunk."""
    return next(
        q for q in range(2, 200)
        if len(set(partition_chunks(graph, q).tolist())) == graph.edge_count
    )


def hand_chunks(monkeypatch, rows: dict) -> None:
    """Make every chunk in ``train`` end on the hand-made rows
    ``rows[tuple of its codes]`` in place of its iterations."""

    def fake_iterate(T, M, threads=1):
        return EmbeddingMatrix(T.codes, rows[tuple(T.codes)], T.iterations, T.seed)

    monkeypatch.setattr(embedding, "iterate", fake_iterate)


class TestMerge:
    def test_single_chunk_merge_is_identity_up_to_renormalize(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        codes = [demo_graph.vocabulary.code(int(v)) for v in M.nodes]
        T = init_embedding(codes, 8, seed=0)
        for _ in range(3):
            T = iterate(T, M)
        merged = train(demo_graph, d=8, iterations=3, chunks=1, seed=0)
        for code in codes:
            assert np.allclose(merged.vector(code), T.vector(code), atol=1e-12)

    def test_chunks_are_summed_in_ascending_order(self):
        # Bit for bit against an inline merge that adds each node's scaled
        # chunk rows in ascending chunk order.
        rng = np.random.default_rng(83)
        for _ in range(5):
            g = random_graph(rng, max_nodes=30, max_edges=300)
            chunk_ids = partition_chunks(g, 5)
            W = chunk_weights(g, 5)
            sums = {}
            for q in sorted(set(chunk_ids.tolist())):
                M = build_transition(g, chunk_ids, q)
                T = init_embedding([g.vocabulary.code(v) for v in M.nodes.tolist()], 32, seed=4)
                for _ in range(3):
                    T = iterate(T, M)
                for v, row in zip(M.nodes.tolist(), T.vectors):
                    sums[v] = sums.get(v, 0.0) + W[v, q] * row
            expected = np.array([sums[v] for v in sorted(sums)])
            expected /= np.linalg.norm(expected, axis=1)[:, None]
            emb = train(g, d=32, iterations=3, chunks=5, seed=4)
            assert emb.codes == [g.vocabulary.code(v) for v in sorted(sums)]
            assert np.array_equal(emb.vectors, expected)

    def test_two_chunk_hand_merge(self, monkeypatch):
        # Two hand-made chunk embeddings over a shared node, merged by
        # train with hand-computed weights 0.25 / 0.75.
        g = graph_from_text("a b\nc a\nc a\nc a\n")
        vocab = g.vocabulary
        ia = vocab.index_of("a")
        q = split_chunk_count(g)
        chunk_ids = partition_chunks(g, q)
        by_pair = chunk_map(g, chunk_ids)
        W = chunk_weights(g, q)
        assert W[ia, by_pair[("a", "b")]] == pytest.approx(0.25)
        assert W[ia, by_pair[("a", "c")]] == pytest.approx(0.75)
        hand_chunks(monkeypatch, {
            ("a", "b"): normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0]])),
            ("a", "c"): normalize_rows(np.array([[0.0, 1.0], [1.0, 1.0]])),
        })
        merged = train(g, d=2, iterations=1, chunks=q, seed=0)
        expected_a = 0.25 * np.array([1.0, 0.0]) + 0.75 * np.array([0.0, 1.0])
        expected_a /= np.linalg.norm(expected_a)
        assert np.allclose(merged.vector("a"), expected_a, atol=1e-15)
        assert unit_rows(merged.vectors, atol=1e-12)

    def test_zero_total_weight_rejected(self, monkeypatch):
        # A node whose chunk weights are all zero merges to a zero row.
        g = graph_from_text("a b\n")
        build = embedding.build_transition
        monkeypatch.setattr(
            embedding,
            "build_transition",
            lambda graph, chunk_ids, q: dataclasses.replace(
                build(graph, chunk_ids, q), degrees=np.zeros(2)
            ),
        )
        with pytest.raises(InternalConsistencyError, match="cancelled to zero"):
            train(g, d=4, iterations=1, seed=0)

    def test_cancelled_merged_row_rejected(self, monkeypatch):
        # a's two edges carry equal weight in separate chunks; opposite
        # chunk rows for a cancel in the merge.
        g = graph_from_text("a b\na c\n")
        q = split_chunk_count(g)
        hand_chunks(monkeypatch, {
            ("a", "b"): np.array([[1.0, 0.0], [0.0, 1.0]]),
            ("a", "c"): np.array([[-1.0, 0.0], [0.0, 1.0]]),
        })
        with pytest.raises(InternalConsistencyError, match="cancelled"):
            train(g, d=2, iterations=1, chunks=q, seed=0)

    def test_non_finite_merged_row_rejected(self, monkeypatch):
        g = graph_from_text("a b\n")
        hand_chunks(monkeypatch, {("a", "b"): np.array([[np.nan, 0.0], [0.0, 1.0]])})
        with pytest.raises(InternalConsistencyError, match="NaN"):
            train(g, d=2, iterations=1, seed=0)


class TestTrain:
    def test_demo_graph_rows_are_unit(self, demo_graph):
        emb = train(demo_graph, d=8, iterations=6, chunks=1, seed=0)
        assert len(emb) == 6
        assert unit_rows(emb.vectors)
        assert emb.iterations == 6
        assert emb.seed == 0

    def test_deterministic_across_runs(self, demo_graph):
        a = train(demo_graph, d=16, iterations=4, chunks=2, seed=9)
        b = train(demo_graph, d=16, iterations=4, chunks=2, seed=9)
        assert a.codes == b.codes
        assert np.array_equal(a.vectors, b.vectors)

    def test_deterministic_across_thread_counts(self):
        rng = np.random.default_rng(51)
        g = random_graph(rng, max_nodes=50, max_edges=200)
        a = train(g, d=32, iterations=6, chunks=2, seed=4, threads=1)
        b = train(g, d=32, iterations=6, chunks=2, seed=4, threads=8)
        assert np.array_equal(a.vectors, b.vectors)

    def test_iteration_counts_differ(self, demo_graph):
        short = train(demo_graph, d=8, iterations=1, seed=0)
        long = train(demo_graph, d=8, iterations=6, seed=0)
        assert not np.allclose(short.vectors, long.vectors)

    def test_isolated_products_excluded(self):
        g = graph_from_text("a b\nlonely\n")
        emb = train(g, d=4, iterations=2, seed=0)
        assert set(emb.codes) == {"a", "b"}

    def test_insertion_order_does_not_change_rows(self):
        # The same labeled graph read in a different line order must give
        # bitwise-identical rows per code.
        text1 = "a b\nb c\nc d\na d\na c\n"
        text2 = "a c\nc d\na b\na d\nb c\n"
        e1 = train(graph_from_text(text1), d=16, iterations=6, chunks=3, seed=7)
        e2 = train(graph_from_text(text2), d=16, iterations=6, chunks=3, seed=7)
        assert set(e1.codes) == set(e2.codes)
        for code in e1.codes:
            assert np.array_equal(e1.vector(code), e2.vector(code))

    def test_automorphic_label_swap(self):
        # x and y play symmetric roles; swapping their labels relabels the
        # graph onto itself, so per-code rows must be unchanged.
        e1 = train(graph_from_text("x z\ny z\n"), d=16, iterations=6, seed=3)
        e2 = train(graph_from_text("y z\nx z\n"), d=16, iterations=6, seed=3)
        for code in ("x", "y", "z"):
            assert np.array_equal(e1.vector(code), e2.vector(code))

    def test_edgeless_graph_rejected(self):
        g = graph_from_text("solo\nother\n")
        with pytest.raises(EmptyGraphError):
            train(g, d=4, iterations=1)

    def test_bad_parameters_rejected(self, demo_graph):
        with pytest.raises(InvalidParameterError):
            train(demo_graph, d=0, iterations=1)
        with pytest.raises(InvalidParameterError):
            train(demo_graph, d=4, iterations=0)
        with pytest.raises(InvalidParameterError):
            train(demo_graph, d=4, iterations=1, chunks=0)

    def test_more_chunks_than_edges_still_covers_all_nodes(self, demo_graph):
        emb = train(demo_graph, d=8, iterations=2, chunks=64, seed=0)
        assert set(emb.codes) == set(demo_graph.vocabulary.codes)
        assert unit_rows(emb.vectors)

    def test_memory_does_not_grow_with_chunk_count(self, demo_graph):
        # Six products in a million chunks: nothing may be sized products x Q.
        tracemalloc.start()
        try:
            train(demo_graph, d=4, iterations=1, chunks=10**6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def train_or_message(graph, **kwargs):
    """``train``'s result, or the message of the consistency error it raises."""
    try:
        return train(graph, **kwargs)
    except InternalConsistencyError as exc:
        return str(exc)


class TestCheckpoints:
    @pytest.mark.parametrize("counts", [(6, 1), (1, 6), (2, 2), (3,)])
    @pytest.mark.parametrize("chunks", [1, 3, 7])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_pass_equals_separate_calls(self, counts, chunks, threads):
        # d=1 rows are +-1, so path midpoints cancel and zero rows get
        # replaced; at Q > 1 a merged row can cancel too, and then the pass
        # must raise what the first failing separate call raises.
        rng = np.random.default_rng([*counts, chunks])
        replaced = 0
        for trial in range(10):
            g = random_graph(rng, max_nodes=40, max_edges=60)
            d = 1 if trial < 7 else 16
            kwargs = dict(d=d, chunks=chunks, seed=trial, threads=threads)
            separate = [train_or_message(g, iterations=c, **kwargs) for c in counts]
            errors = [s for s in separate if isinstance(s, str)]
            together = train_or_message(g, iterations=counts, **kwargs)
            if errors:
                assert together == errors[0]
                continue
            assert isinstance(together, list) and len(together) == len(counts)
            for count, one, alone in zip(counts, together, separate):
                assert one.codes == alone.codes
                assert np.array_equal(one.vectors, alone.vectors)
                assert one.iterations == alone.iterations == count
                assert one.seed == alone.seed
                assert one.zero_rows_replaced == alone.zero_rows_replaced
                replaced += one.zero_rows_replaced
        assert replaced > 0

    def test_single_count_returns_one_space(self, demo_graph):
        one = train(demo_graph, d=8, iterations=3, seed=1)
        listed = train(demo_graph, d=8, iterations=[3], seed=1)
        assert isinstance(one, EmbeddingMatrix)
        assert isinstance(listed, list) and len(listed) == 1
        assert np.array_equal(one.vectors, listed[0].vectors)

    @pytest.mark.parametrize("counts", [(), [], (0,), (6, 0), (-1, 2), (1, -6)])
    def test_bad_counts_rejected(self, demo_graph, counts):
        with pytest.raises(InvalidParameterError, match="iteration count"):
            train(demo_graph, d=4, iterations=counts)


class TestThreadBound:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the thread pools train starts."""
        started = []
        real = embedding.ThreadPoolExecutor

        def recording(max_workers):
            started.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(embedding, "ThreadPoolExecutor", recording)
        return started

    def chain(self):
        return graph_from_edges({(f"v{i}", f"v{i + 1}"): i % 3 + 1 for i in range(12)})

    def test_threads_clamped_to_cpu_count(self, monkeypatch, pools):
        g = self.chain()
        serial = train(g, d=8, iterations=2, chunks=2, seed=1, threads=1)
        assert pools == []
        monkeypatch.setattr(embedding.os, "cpu_count", lambda: 2)
        clamped = train(g, d=8, iterations=2, chunks=2, seed=1, threads=3)
        assert pools and set(pools) == {2}
        assert np.array_equal(serial.vectors, clamped.vectors)

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_runs_serially(self, monkeypatch, pools, cpus):
        g = self.chain()
        serial = train(g, d=8, iterations=2, seed=1, threads=1)
        monkeypatch.setattr(embedding.os, "cpu_count", lambda: cpus)
        clamped = train(g, d=8, iterations=2, seed=1, threads=3)
        assert pools == []
        assert np.array_equal(serial.vectors, clamped.vectors)

    def test_threads_below_one_rejected(self, demo_graph):
        with pytest.raises(InvalidParameterError, match="thread count"):
            train(demo_graph, d=4, iterations=1, threads=0)


class TestDenseReference:
    def test_agrees_with_train_on_demo(self, demo_graph):
        fast = train(demo_graph, d=8, iterations=6, chunks=1, seed=0)
        slow = dense_reference_train(demo_graph, d=8, iterations=6, seed=0)
        assert fast.codes == slow.codes
        assert np.abs(fast.vectors - slow.vectors).max() <= 1e-9

    def test_agrees_with_train_on_random_graphs(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = random_graph(rng)
            for d, iters in ((4, 1), (16, 6)):
                fast = train(g, d=d, iterations=iters, chunks=1, seed=8)
                slow = dense_reference_train(g, d=d, iterations=iters, seed=8)
                assert fast.codes == slow.codes
                assert np.abs(fast.vectors - slow.vectors).max() <= 1e-9

    def test_two_node_period_two(self):
        # A single edge alternates the two rows, so an even iteration count
        # returns to the start.
        g = graph_from_text("x y\n")
        emb = dense_reference_train(g, d=8, iterations=2, seed=0)
        start = init_embedding(emb.codes, 8, seed=0)
        assert np.allclose(emb.vectors, start.vectors, atol=1e-9)

    def test_node_limit_guard(self):
        edges = {(f"v{i}", f"v{i + 1}"): 1 for i in range(10_000)}
        g = graph_from_edges(edges)
        with pytest.raises(InvalidParameterError):
            dense_reference_train(g, d=2, iterations=1, seed=0)


# Row values: plain decimals, tokens the C parser refuses but np.asarray
# takes (1_000, the Arabic-Indic digit one), non-finite ones and a word.
PLAIN_VALUES = ("0.5", "-1", "2.5e-3", "+.5", "-0", "1e-320", "0.1234567891")
TRICKY_VALUES = PLAIN_VALUES + ("1_000", "\u0661")
BAD_VALUES = ("nan", "-inf", "1e400", "x")
# Whitespace that str.split() and np.loadtxt both separate on.
SEPARATORS = (" ", "  ", "\t", " \t ", "\x1c", "\xa0", "\u3000")


def row_code(i: int) -> str:
    """The code of row ``i``; every third starts with '#' and is no comment."""
    return ("#" if i % 3 == 1 else "") + f"r{i}"


@st.composite
def embedding_row(draw, d, i):
    """Line ``i`` among an embedding file's rows: mostly a clean row, else a
    row with tokens only np.asarray parses, a bad value, the code of an
    earlier row, one value short, one extra (the usecols trap), a blank
    line or a comment."""
    kinds = ("clean",) * 12 + ("tricky",) * 3 + ("bad", "dup") * 2
    kind = draw(st.sampled_from(kinds + ("short", "long", "blank", "comment")))
    if kind == "blank":
        return draw(st.sampled_from(("\n", "  \n", "\t\n")))
    if kind == "comment":
        return "# note\n"
    width = {"short": d - 1, "long": d + 1}.get(kind, d)
    pool = TRICKY_VALUES if kind == "tricky" else PLAIN_VALUES
    code = row_code(draw(st.integers(0, i - 1)) if kind == "dup" and i else i)
    tokens = [code] + draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))
    if kind == "bad":
        tokens[draw(st.integers(1, width))] = draw(st.sampled_from(BAD_VALUES))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    lead = draw(st.sampled_from(("", " ", "\t")))
    return lead + "".join(t + sep for t, sep in zip(tokens, seps)) + "\n"


@st.composite
def embedding_files(draw):
    """(text, batch rows, d): a header declaring 0, 1, B-1, B, B+1 or 2B+1
    rows for batches of B rows, followed by one row fewer than declared,
    as many, or up to two beyond."""
    d = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    n = draw(st.sampled_from(sorted({0, 1, batch - 1, batch, batch + 1, 2 * batch + 1})))
    count = max(0, n + draw(st.sampled_from((-1, 0, 0, 0, 0, 1, 2))))
    rows = [draw(embedding_row(d, i)) for i in range(count)]
    return f"{n} {d}\n" + "".join(rows), batch, d


def read_outcome(read, text):
    """What a reader returns for ``text``, or the error it raises."""
    try:
        emb = read(io.StringIO(text))
    except MalformedInputError as exc:
        return type(exc), str(exc)
    return emb.codes, emb.vectors.dtype, emb.vectors.shape, emb.vectors.tobytes()


class TestEmbeddingFile:
    def test_header_and_digits(self, demo_graph):
        emb = train(demo_graph, d=8, iterations=6, seed=0)
        out = io.StringIO()
        write_embedding(emb, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "6 8"
        for line in lines[1:]:
            parts = line.split()
            assert len(parts) == 9
            for token in parts[1:]:
                mantissa = re.sub(r"[-+.]|e[-+]?\d+$", "", token)
                assert len(mantissa.lstrip("0")) <= 9

    def test_writer_matches_format_join(self):
        # Edge values plus random ones over many magnitudes, against the
        # per-value format(x, ".9g") join.
        rng = np.random.default_rng(9)
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e22, -1e22, 2.0**53,
                -(2.0**53), 1 / 3, -2 / 3, 0.1, 123456789.0, 1234567890.0,
                1e-5, 1e16, 0.999999999, 9.9999999995, float(np.nextafter(1.0, 2.0)),
                float(np.finfo(np.float64).max), float(np.finfo(np.float64).tiny)]
        spread = rng.standard_normal(379) * 10.0 ** rng.integers(-300, 300, 379)
        vectors = np.concatenate([edge, spread, rng.uniform(-1, 1, 400)]).reshape(-1, 8)
        codes = [f"r{i}" for i in range(len(vectors))]
        out = io.StringIO()
        write_embedding(EmbeddingMatrix(codes, vectors), out)
        expected = f"{len(codes)} 8\n" + "".join(
            code + " " + " ".join(format(x, ".9g") for x in row) + "\n"
            for code, row in zip(codes, vectors)
        )
        assert out.getvalue() == expected

    def test_roundtrip_close_and_rank_preserving(self, demo_graph):
        emb = train(demo_graph, d=8, iterations=6, seed=0)
        out = io.StringIO()
        write_embedding(emb, out)
        back = read_embedding(io.StringIO(out.getvalue()))
        assert back.codes == emb.codes
        assert np.abs(back.vectors - emb.vectors).max() < 1e-8
        assert back.iterations is None
        assert back.seed is None

    def test_read_rejects_bad_header(self):
        with pytest.raises(MalformedInputError):
            read_embedding(io.StringIO("not a header\n"))

    def test_read_rejects_row_count_mismatch(self):
        with pytest.raises(MalformedInputError):
            read_embedding(io.StringIO("2 2\na 0.1 0.2\n"))

    def test_read_rejects_wrong_width(self):
        with pytest.raises(MalformedInputError):
            read_embedding(io.StringIO("1 3\na 0.1 0.2\n"))

    def test_read_rejects_duplicate_code(self):
        with pytest.raises(MalformedInputError):
            read_embedding(io.StringIO("2 1\na 0.1\na 0.2\n"))
        with pytest.raises(
            MalformedInputError, match="^line 4: duplicate code 'a', first listed on line 2$"
        ):
            read_embedding(io.StringIO("3 1\na 0.1\nb 0.2\na 0.3\n"))

    def test_read_rejects_non_numeric(self):
        with pytest.raises(MalformedInputError):
            read_embedding(io.StringIO("1 1\na zero\n"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_read_rejects_non_finite(self, token):
        with pytest.raises(MalformedInputError, match="line 3"):
            read_embedding(io.StringIO(f"2 2\na 0.1 0.2\nb {token} 0.2\n"))

    def test_read_rejects_rows_beyond_declared_count(self):
        with pytest.raises(MalformedInputError, match="line 3"):
            read_embedding(io.StringIO("1 2\na 0.1 0.2\nb 0.3 0.4\n"))

    @settings(max_examples=300, deadline=None)
    @given(embedding_files())
    def test_batches_read_like_the_per_line_reference(self, drawn):
        text, batch, d = drawn
        expected = read_outcome(reference_read_embedding, text)
        for values in (batch * d, embedding._READ_VALUES):
            with mock.patch.object(embedding, "_READ_VALUES", values):
                assert read_outcome(read_embedding, text) == expected, values

    @pytest.mark.parametrize(
        "text, message",
        [
            # np.loadtxt(usecols=...) would drop the extra value.
            ("1 2\na 0.1 0.2 0.3\n", "^line 2: expected a code and 2 values, got 4 tokens$"),
            # np.loadtxt skips the blank line, leaving two rows of two.
            ("3 2\na 0.1 0.2\n\nb 0.3 0.4\n", "^line 3: expected a code and 2 values, got 0 tokens$"),
            ("2 1\na x\na 0.1\n", "^line 2: non-numeric value$"),
            ("2 1\na 1e400\na 0.1\n", "^line 2: NaN or infinite value$"),
            ("3 1\na 0.1\nb nan\na 0.1\n", "^line 3: NaN or infinite value$"),
            ("3 1\na 0.1\na nan\nb 0.1\n", "^line 3: duplicate code 'a', first listed on line 2$"),
            ("2 1\na 0.1\n", "^expected 2 embedding rows, found 1$"),
            ("3 1\na 0.1\nb 0.2\na 0.3\n", "^line 4: duplicate code 'a', first listed on line 2$"),
        ],
    )
    @pytest.mark.parametrize("values", [1, embedding._READ_VALUES])
    def test_read_reports_the_first_error_in_file_order(self, monkeypatch, values, text, message):
        # One value per batch puts every row in a batch of its own.
        monkeypatch.setattr(embedding, "_READ_VALUES", values)
        with pytest.raises(MalformedInputError, match=message):
            read_embedding(io.StringIO(text))

    def test_read_accepts_tokens_the_c_parser_refuses(self):
        back = read_embedding(io.StringIO("2 2\na 1_000 \u0661\nb +.5 -0\n"))
        assert back.codes == ["a", "b"]
        assert back.vectors.tolist() == [[1000.0, 1.0], [0.5, -0.0]]

    def test_round_trip_at_d_1024_is_bit_identical_to_asarray(self):
        # Batches at d=1024 hold 8 rows: this file has two full ones and a
        # short last one. Row scales reach the subnormal range.
        d = 1024
        n = 2 * max(1, embedding._READ_VALUES // d) + 3
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((n, d)) * np.logspace(-310, 300, n)[:, None]
        out = io.StringIO()
        write_embedding(EmbeddingMatrix([f"p{i}" for i in range(n)], vectors), out)
        back = read_embedding(io.StringIO(out.getvalue()))
        rows = out.getvalue().splitlines()[1:]
        expected = np.array([np.asarray(row.split()[1:], dtype=np.float64) for row in rows])
        assert back.codes == [row.split()[0] for row in rows]
        assert back.vectors.tobytes() == expected.tobytes()

    def test_read_skips_trailing_blank_and_comment_lines(self):
        back = read_embedding(io.StringIO("1 2\na 0.1 0.2\n\n# end\n"))
        assert back.codes == ["a"]
