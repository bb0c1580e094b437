"""Chunk partitioning, transition matrices, iteration, merging, training,
the dense reference path, and the embedding file format."""

import concurrent.futures
import dataclasses
import hashlib
import io
import struct
import time
import tracemalloc
import re
import warnings
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
    expand_hyperedges,
    generate_synthetic_market,
    parse_baskets,
    read_embedding,
    top_k_batch,
    train,
    write_embedding,
)
from basketspace import embedding
from basketspace.embedding import build_transition, init_embedding, iterate, partition_chunks
from conftest import (
    dense_reference_train,
    dense_transition,
    edge_weights,
    graph_from_edges,
    graph_from_text,
    normalize_rows,
    random_graph,
    reference_read_embedding,
    reference_write_embedding,
    vector_of,
)


def unit_rows(vectors: np.ndarray, atol: float = 1e-9) -> bool:
    return bool(np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=atol))


def chunk_map(graph, chunk_ids) -> dict:
    """{(code, code) sorted: chunk id} from the aligned edge arrays."""
    codes = graph.codes
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

    def test_counts_beyond_crc32_range_leave_the_crc(self, demo_graph):
        # A crc32 is below 2**32, so every larger count gives the crc itself.
        crcs = partition_chunks(demo_graph, 2**32)
        assert np.array_equal(crcs, partition_chunks(demo_graph, 2**40))
        assert np.array_equal(crcs, partition_chunks(demo_graph, 10**20))
        assert crcs.max() >= 2**31

    def test_assignment_is_deterministic(self, demo_graph):
        a1 = partition_chunks(demo_graph, 4)
        a2 = partition_chunks(demo_graph, 4)
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize(
        "change",
        [
            lambda g, e: g.codes.reverse(),
            lambda g, e: setattr(g, "codes", list(reversed(g.codes))),
            lambda g, e: e.codes.append("c"),
        ],
        ids=["graph-codes-reversed", "graph-codes-replaced", "space-code-appended"],
    )
    def test_built_records_keep_their_codes(self, change):
        # partition_chunks hashes each edge's codes as (codes[a], codes[b])
        # with a < b, and train returns rows in graph order, so both need
        # the codes to stay sorted: with them reversed the chunks read
        # [3 0 1]. Graphs and spaces are frozen with tuple codes instead.
        g = expand_hyperedges(*parse_baskets(["a b", "b c", "c d"]))
        e = train(g, d=2, iterations=1, chunks=2)
        with pytest.raises(AttributeError):
            change(g, e)
        assert partition_chunks(g, 4).tolist() == [2, 1, 1]
        assert g.codes == train(g, d=2, iterations=1, chunks=2).codes == ("a", "b", "c", "d")
        assert e.codes == g.codes

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

    def test_ids_equal_crc32_of_the_joined_pair_at_every_length_to_400_bytes(self):
        # The pair's crc is built from each code's own crc and a shift over
        # the higher code's length, so it is pinned to zlib on the joined
        # bytes for codes of every UTF-8 length from 1 to 400 bytes.
        rng = np.random.default_rng(29)
        pool = ["a", "Z", "7", "_", "é", "ß", "€", "中", "\U0001f600"]
        codes = []
        for size in range(1, 401):
            code = ""
            while len(code.encode("utf-8")) < size:
                fits = [c for c in pool if len((code + c).encode("utf-8")) <= size]
                code += fits[int(rng.integers(len(fits)))]
            codes.append(code)
        assert sorted(len(code.encode("utf-8")) for code in codes) == list(range(1, 401))
        pairs = rng.choice(len(codes), size=(1500, 2))
        g = graph_from_edges({(codes[x], codes[y]): 1 for x, y in pairs.tolist() if x != y})
        for q in (2, 3, 7, 2**32 + 1):
            expected = {
                (lo, hi): zlib.crc32(lo.encode("utf-8") + b"\x1e" + hi.encode("utf-8")) % q
                for lo, hi in chunk_map(g, partition_chunks(g, 1))
            }
            assert chunk_map(g, partition_chunks(g, q)) == expected

    def test_a_million_byte_code_partitions_in_well_under_a_second(self):
        # Hashing each pair's joined bytes would read the long code once
        # per edge, 2 GB here.
        big = "\u00e9" + "x" * 999_998
        assert len(big.encode("utf-8")) == 1_000_000
        g = graph_from_edges({(f"p{i}", big): 1 for i in range(2000)})
        started = time.perf_counter()
        chunk_ids = partition_chunks(g, 7)
        assert time.perf_counter() - started < 0.5
        for (lo, _), q in list(chunk_map(g, chunk_ids).items())[:20]:
            assert q == zlib.crc32(lo.encode("utf-8") + b"\x1e" + big.encode("utf-8")) % 7


class TestTransition:
    def test_single_edge(self):
        g = graph_from_text("a b\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        dense = dense_transition(M)
        assert dense.shape == (2, 2)
        assert np.array_equal(dense, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_demo_row_is_degree_normalized(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        codes = demo_graph.codes
        local = {int(v): i for i, v in enumerate(M.nodes)}
        p4 = local[codes.index("p4")]
        row = dense_transition(M)[p4]
        # p4 co-occurs once each with p1, p2, p3: three equal steps.
        expected = np.zeros(len(M.nodes))
        for other in ("p1", "p2", "p3"):
            expected[local[codes.index(other)]] = 1.0 / 3.0
        assert np.allclose(row, expected, atol=1e-15)

    def test_weighted_edges(self):
        g = graph_from_text("a b\na b\na b\na c\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        local = {int(v): i for i, v in enumerate(M.nodes)}
        row_a = dense_transition(M)[local[g.codes.index("a")]]
        assert row_a[local[g.codes.index("b")]] == pytest.approx(0.75, abs=1e-15)
        assert row_a[local[g.codes.index("c")]] == pytest.approx(0.25, abs=1e-15)

    def test_rows_are_stochastic_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            M = build_transition(g, partition_chunks(g, 1), 0)
            sums = dense_transition(M).sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-12)
            assert (M.data > 0).all()
            assert (M.data <= 1).all()

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
        dense = dense_transition(M)
        assert dense.shape == (2, 2)
        assert np.allclose(dense.sum(axis=1), 1.0)
        assert dense.max() == 1.0

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

    @pytest.mark.parametrize("chunk_count", [1, 3])
    def test_memory_is_a_few_words_per_chunk_edge(self, chunk_count):
        # The result holds 4 words per edge. A node map from the sorted
        # distinct endpoints and a stable sort by row peaked at 13.4 to 14.3
        # words; the presence mask and one sort of the entry keys at 9.5
        # to 10.6.
        g = wide_graph()
        chunk_ids = partition_chunks(g, chunk_count)
        for q in range(chunk_count):
            _, peak = traced_peak(lambda: build_transition(g, chunk_ids, q))
            assert peak <= 12 * 8 * np.count_nonzero(chunk_ids == q)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the thread pools the multiply starts."""
    started = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return started


def scipy_transition(graph, chunk_ids, q):
    """Chunk q's transition matrix as ``scipy.sparse`` builds it from its
    (row, column) pairs, with the same nodes and degrees."""
    import scipy.sparse as sp

    M = build_transition(graph, chunk_ids, q)
    mask = chunk_ids == q
    ia = np.searchsorted(M.nodes, graph.a[mask])
    ib = np.searchsorted(M.nodes, graph.b[mask])
    w, deg, n = graph.w[mask], M.degrees, len(M.nodes)
    csr = sp.csr_matrix(
        (
            np.concatenate([w / deg[ia], w / deg[ib]]),
            (np.concatenate([ia, ib]), np.concatenate([ib, ia])),
        ),
        shape=(n, n),
    )
    return M, csr


def transitions_with_scipy(seed: int):
    """(M, scipy CSR) for every chunk of random graphs at Q in {1, 3, 7}."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        g = random_graph(rng, max_nodes=60, max_edges=400)
        for q in (1, 3, 7):
            chunk_ids = partition_chunks(g, q)
            for chunk in np.unique(chunk_ids).tolist():
                yield scipy_transition(g, chunk_ids, chunk)


class TestCsrKernel:
    def test_layout_equals_scipy_csr(self):
        checked = 0
        for M, csr in transitions_with_scipy(3):
            assert M.indptr.dtype == M.indices.dtype == np.int64
            assert M.data.dtype == np.float64
            assert np.array_equal(M.indptr, csr.indptr)
            assert np.array_equal(M.indices, csr.indices)
            assert np.array_equal(M.data, csr.data)
            checked += 1
        assert checked > 36

    def test_matmul_equals_scipy_bit_for_bit(self, monkeypatch, pools):
        monkeypatch.setattr(embedding.os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(4)
        for M, csr in transitions_with_scipy(5):
            x = rng.standard_normal((len(M.nodes), 7))
            expected = csr @ x
            for threads in (1, 2):
                assert np.array_equal(embedding._matmul_rows(M, x, threads), expected)
        assert pools and set(pools) == {2}

    def test_fallback_import_gives_identical_rows(self, monkeypatch):
        from scipy.sparse import _sparsetools

        g = random_graph(np.random.default_rng(8), max_nodes=40)
        M = build_transition(g, partition_chunks(g, 1), 0)
        x = init_embedding([g.codes[int(v)] for v in M.nodes], 16, seed=2)
        loads = []
        load = embedding._load_sparsetools

        def counted():
            loads.append(1)
            return load()

        def failing():
            raise OSError("cannot load the extension")

        # The cache is left cleared, so the next multiply loads by path again.
        try:
            embedding._kernel.cache_clear()
            monkeypatch.setattr(embedding, "_load_sparsetools", counted)
            direct = embedding._matmul_rows(M, x, 1)
            assert np.array_equal(embedding._matmul_rows(M, x, 1), direct)
            assert loads == [1]
            assert embedding._kernel.cache_info()[:2] == (1, 1)  # (hits, misses)

            embedding._kernel.cache_clear()
            monkeypatch.setattr(embedding, "_load_sparsetools", failing)
            fallback = embedding._matmul_rows(M, x, 1)
            assert embedding._kernel() is _sparsetools.csr_matvecs
            assert np.array_equal(fallback, direct)
        finally:
            embedding._kernel.cache_clear()


class TestInit:
    def test_deterministic(self):
        a = init_embedding(["x", "y"], 16, seed=3)
        b = init_embedding(["x", "y"], 16, seed=3)
        assert np.array_equal(a, b)

    def test_seed_changes_rows(self):
        a = init_embedding(["x"], 16, seed=0)
        b = init_embedding(["x"], 16, seed=1)
        assert not np.allclose(a, b)

    def test_rows_keyed_by_code_not_position(self):
        a = init_embedding(["x", "y", "z"], 8, seed=0)
        b = init_embedding(["z", "x", "y"], 8, seed=0)
        assert np.array_equal(a[[2, 0, 1]], b)

    def test_rows_are_unit_norm(self):
        assert unit_rows(init_embedding([f"c{i}" for i in range(50)], 32, seed=5))

    def test_raw_samples_stay_in_open_interval(self):
        # Regenerate the pre-normalization rows through the public path at
        # d=1: a single coordinate is its own sign, so normalized values
        # carry no range information; instead check a wide d where the
        # normalized max entry must stay strictly below 1.
        rows = init_embedding([f"c{i}" for i in range(1000)], 1024, seed=0)
        assert np.isfinite(rows).all()
        assert np.abs(rows).max() < 1.0

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            init_embedding(["x"], 0, seed=0)

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
                got = init_embedding(codes, d, seed)
                expected = np.array([fresh_row(seed, c, d) for c in codes])
                expected /= np.linalg.norm(expected, axis=1, keepdims=True)
                assert np.array_equal(got, expected), (d, seed)

    def test_rows_equal_reseeded_uniform_draws(self):
        # Each row is drawn into place by random() and mapped to 2u - 1
        # afterwards; that must equal uniform(-1, 1) from the same stream.
        codes = [f"p{i}" for i in range(2900)] + [f"商品{i}" for i in range(50)]
        codes += [f"café{i}" for i in range(50)]
        gen = np.random.Generator(np.random.Philox(0))
        for d in (1, 7, 128):
            rows = []
            for code in codes:
                embedding.reseed_philox(gen, f"11\x1e{code}")
                rows.append(gen.uniform(-1.0, 1.0, d))
            expected = np.array(rows)
            expected /= np.linalg.norm(expected, axis=1, keepdims=True)
            assert np.array_equal(init_embedding(codes, d, 11), expected), d

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

            def random(self, out):
                # init_embedding's first draw, rigged alike: it maps u to 2u - 1.
                fresh = not any(self.bit_generator.state["state"]["counter"])
                self._gen.random(out=out)
                if fresh and 2.0 * out[0] - 1.0 < -0.5:
                    out[0] = 0.0
                    rigged["endpoint"] += 1
                elif fresh and 2.0 * out[0] - 1.0 > 0.5:
                    out[:] = 0.5
                    rigged["zero"] += 1
                return out

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
                got = init_embedding(codes, d, seed=4)
            assert rigged["endpoint"] > 20 and rigged["zero"] > 20
            assert np.array_equal(got, expected), d
            assert np.abs(got).max() < 1.0 or d == 1

    def test_concurrent_calls_give_the_same_rows(self):
        from concurrent.futures import ThreadPoolExecutor

        codes = [f"c{i}" for i in range(400)]
        expected = init_embedding(codes, 64, seed=3)
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(lambda _: init_embedding(codes, 64, seed=3), range(6), timeout=60)
            )
        assert len(runs) == 6
        for run in runs:
            assert np.array_equal(run, expected)


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            normalize_rows(np.array([[0.0, 0.0]]))


class TestRowNorms:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 3, 128, 129, 1024]),
        st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_norm_bit_for_bit(self, d, rows, seed):
        # n is 0, 1, or blocks * block + extra rows around the block size.
        blocks, extra = rows
        n = blocks * max(1, embedding._BLOCK_VALUES // d) + extra if blocks else extra
        rng = np.random.default_rng(seed)
        # Squares of 1e-300 and 1e-160 underflow, those of 1e150 and 1e200
        # overflow; np.linalg.norm does not rescale, so neither may the helper.
        scales = rng.choice([1e-300, 1e-160, 1.0, 1e150, 1e200], size=(n, 1))
        x = rng.standard_normal((n, d)) * scales
        x[rng.random((n, d)) < 0.2] = 0.0
        x[rng.random((n, d)) < 0.2] = -0.0
        x[rng.random(n) < 0.1] = -0.0
        with np.errstate(over="ignore", under="ignore"):
            assert np.array_equal(embedding._row_norms(x), np.linalg.norm(x, axis=1))


def wide_graph(n: int = 2000, seed: int = 0):
    """``n`` products on a chain plus random baskets of two to five."""
    rng = np.random.default_rng(seed)
    lines = [f"p{i} p{i + 1}" for i in range(n - 1)]
    for _ in range(2 * n):
        size = int(rng.integers(2, 6))
        lines.append(" ".join(f"p{j}" for j in rng.choice(n, size=size, replace=False)))
    return graph_from_text("\n".join(lines) + "\n")


def traced_peak(call):
    """``call()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestIterate:
    def test_two_node_swap(self):
        g = graph_from_text("x y\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        codes = [g.codes[int(v)] for v in M.nodes]
        T0 = init_embedding(codes, 8, seed=0)
        T1, replaced = iterate(T0, M)
        # With a single edge, each node takes the other's (unit) row.
        assert np.allclose(T1[0], T0[1], atol=1e-12)
        assert np.allclose(T1[1], T0[0], atol=1e-12)
        assert replaced == 0

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, max_nodes=20, max_edges=60)
            M = build_transition(g, partition_chunks(g, 1), 0)
            codes = [g.codes[int(v)] for v in M.nodes]
            T = init_embedding(codes, 8, seed=1)
            stepped, _ = iterate(T, M)
            raw = dense_transition(M) @ T
            expected = raw / np.linalg.norm(raw, axis=1)[:, None]
            assert np.allclose(stepped, expected, atol=1e-12)

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
        codes = [g.codes[int(v)] for v in M.nodes]
        rng = np.random.default_rng(0)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        by_code = {"a": u, "b": w, "c": -u}
        out, replaced = iterate(np.array([by_code[c] for c in codes]), M)
        assert replaced == 1
        assert np.array_equal(out[codes.index("b")], w)
        assert unit_rows(out, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 16])
    def test_no_step_yields_negative_zero(self, d):
        # train's one-chunk space is its last step's rows, which equals a sum
        # 0.0 + 1.0 * T only if T holds no -0.0. Rows of +-1 / sqrt(d) cancel
        # exactly: whole rows at d=1, which steps replace, and entries at d=16.
        rng = np.random.default_rng(d)
        replaced = zeros = 0
        for _ in range(20):
            g = random_graph(rng, max_nodes=40, max_edges=60)
            M = build_transition(g, partition_chunks(g, 1), 0)
            T = normalize_rows(rng.choice([-1.0, 1.0], (len(M.nodes), d)))
            for _ in range(6):
                T, cancelled = iterate(T, M)
                assert not (np.signbit(T) & (T == 0)).any()
                replaced += cancelled
                zeros += int(np.count_nonzero(T == 0))
        assert (replaced if d == 1 else zeros) > 0

    def test_out_gives_the_same_rows_bit_for_bit(self, monkeypatch, pools):
        # A random graph at one and two threads, and the path a-b-c whose
        # middle row cancels and keeps its previous value.
        monkeypatch.setattr(embedding.os, "cpu_count", lambda: 2)
        g = random_graph(np.random.default_rng(7), max_nodes=40, max_edges=150)
        M = build_transition(g, partition_chunks(g, 1), 0)
        cases = [(init_embedding([g.codes[int(v)] for v in M.nodes], 16, seed=5), M)]
        path = graph_from_text("a b\nb c\n")
        u = normalize_rows(np.array([[1.0, 2.0, -2.0]]))[0]
        by_code = {"a": u, "b": normalize_rows(np.ones((1, 3)))[0], "c": -u}
        P = build_transition(path, partition_chunks(path, 1), 0)
        cases.append((np.array([by_code[path.codes[v]] for v in P.nodes.tolist()]), P))
        for T, M in cases:
            for threads in (1, 2):
                expected, replaced = iterate(T, M, threads)
                buf = np.full_like(T, np.nan)
                out, count = iterate(T, M, threads, out=buf)
                assert out is buf and count == replaced
                assert np.array_equal(out, expected)
        assert replaced == 1 and set(pools) == {2}

    def test_out_that_is_not_a_separate_array_of_the_rows_shape_rejected(self):
        g = graph_from_text("a b\nb c\n")
        M = build_transition(g, partition_chunks(g, 1), 0)
        pair = np.zeros((2, 3, 4))
        T = pair[0]
        T[:] = init_embedding([g.codes[v] for v in M.nodes.tolist()], 4, seed=0)
        before = T.copy()
        for out in (T, pair.reshape(-1)[2:14].reshape(3, 4), pair[1, :2], pair[1].T.copy().T):
            with pytest.raises(InternalConsistencyError, match="separate"):
                iterate(T, M, out=out)
        assert np.array_equal(T, before)
        assert np.array_equal(iterate(T, M, out=pair[1])[0], iterate(T, M)[0])

    def test_memory_holds_no_second_rows_by_d_array(self):
        g = wide_graph()
        M = build_transition(g, partition_chunks(g, 1), 0)
        T = init_embedding([g.codes[int(v)] for v in M.nodes], 128, seed=0)
        (out, _), peak = traced_peak(lambda: iterate(T, M))
        # Row norms taken whole held a squared copy of the result: 2.02
        # times it. Blocks of 256 rows peaked at 1.14 times.
        assert peak <= 1.25 * out.nbytes

    def test_threads_do_not_change_result(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = random_graph(rng, max_nodes=40, max_edges=150)
            M = build_transition(g, partition_chunks(g, 1), 0)
            codes = [g.codes[int(v)] for v in M.nodes]
            T = init_embedding(codes, 16, seed=2)
            a, _ = iterate(T, M, threads=1)
            b, _ = iterate(T, M, threads=8)
            assert np.array_equal(a, b)


def chunk_weights(graph, chunk_count: int) -> np.ndarray:
    """Merge weights w(q, v) = deg_q(v) / deg(v) as a (products, Q)
    array, counted edge by edge."""
    chunk_ids = partition_chunks(graph, chunk_count)
    W = np.zeros((len(graph.codes), chunk_count))
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
        assert np.array_equal(W[:, 0], np.ones(len(W)))

    def test_one_chunk_weights_are_one_at_identity_positions(self):
        # train's one-chunk space is its last step's rows, which equals a sum
        # 0.0 + w * T scattered through pos only if w is exactly 1.0 and pos
        # the identity.
        rng = np.random.default_rng(47)
        for _ in range(20):
            g = random_graph(rng)
            M = build_transition(g, partition_chunks(g, 1), 0)
            nodes = np.flatnonzero(g.degrees > 0)
            assert np.array_equal(M.degrees / g.degrees[M.nodes], np.ones(len(nodes)))
            assert np.array_equal(np.searchsorted(nodes, M.nodes), np.arange(len(nodes)))

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
        row = W[g.codes.index("lonely")]
        assert np.array_equal(row, np.zeros(2))


def split_chunk_count(graph) -> int:
    """The smallest Q > 1 that gives every edge its own chunk."""
    return next(
        q for q in range(2, 200)
        if len(set(partition_chunks(graph, q).tolist())) == graph.edge_count
    )


def hand_chunks(monkeypatch, graph, rows: dict) -> None:
    """Make every chunk of ``graph`` in ``train`` end on the hand-made rows
    ``rows[tuple of its codes]`` in place of its iterations."""

    def fake_iterate(vectors, M, threads=1, out=None):
        return rows[tuple(graph.codes[v] for v in M.nodes.tolist())], 0

    monkeypatch.setattr(embedding, "iterate", fake_iterate)


class TestMerge:
    def test_single_chunk_merge_is_identity_up_to_renormalize(self, demo_graph):
        M = build_transition(demo_graph, partition_chunks(demo_graph, 1), 0)
        codes = [demo_graph.codes[int(v)] for v in M.nodes]
        T = init_embedding(codes, 8, seed=0)
        for _ in range(3):
            T, _ = iterate(T, M)
        merged = train(demo_graph, d=8, iterations=3, chunks=1, seed=0)
        for i, code in enumerate(codes):
            assert np.allclose(vector_of(merged, code), T[i], atol=1e-12)

    def test_chunks_are_summed_in_ascending_order(self):
        # Bit for bit against an inline merge that adds each node's scaled
        # chunk rows in ascending chunk order.
        rng = np.random.default_rng(83)
        mixed = 0
        for _ in range(5):
            g = random_graph(rng, max_nodes=30, max_edges=300)
            chunk_ids = partition_chunks(g, 5)
            W = chunk_weights(g, 5)
            sums, whole = {}, set()
            for q in sorted(set(chunk_ids.tolist())):
                M = build_transition(g, chunk_ids, q)
                whole.add(len(M.nodes) == np.count_nonzero(g.degrees))
                T = init_embedding([g.codes[v] for v in M.nodes.tolist()], 32, seed=4)
                for _ in range(3):
                    T, _ = iterate(T, M)
                for v, row in zip(M.nodes.tolist(), T):
                    sums[v] = sums.get(v, 0.0) + W[v, q] * row
            expected = np.array([sums[v] for v in sorted(sums)])
            expected /= np.linalg.norm(expected, axis=1)[:, None]
            emb = train(g, d=32, iterations=3, chunks=5, seed=4)
            assert emb.codes == tuple(g.codes[v] for v in sorted(sums))
            assert np.array_equal(emb.vectors, expected)
            # Both kinds of chunk, over every product and over some, occur.
            mixed += whole == {True, False}
        assert mixed > 0

    def test_two_chunk_hand_merge(self, monkeypatch):
        # Two hand-made chunk embeddings over a shared node, merged by
        # train with hand-computed weights 0.25 / 0.75.
        g = graph_from_text("a b\nc a\nc a\nc a\n")
        ia = g.codes.index("a")
        q = split_chunk_count(g)
        chunk_ids = partition_chunks(g, q)
        by_pair = chunk_map(g, chunk_ids)
        W = chunk_weights(g, q)
        assert W[ia, by_pair[("a", "b")]] == pytest.approx(0.25)
        assert W[ia, by_pair[("a", "c")]] == pytest.approx(0.75)
        hand_chunks(monkeypatch, g, {
            ("a", "b"): normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0]])),
            ("a", "c"): normalize_rows(np.array([[0.0, 1.0], [1.0, 1.0]])),
        })
        merged = train(g, d=2, iterations=1, chunks=q, seed=0)
        expected_a = 0.25 * np.array([1.0, 0.0]) + 0.75 * np.array([0.0, 1.0])
        expected_a /= np.linalg.norm(expected_a)
        assert np.allclose(vector_of(merged, "a"), expected_a, atol=1e-15)
        assert unit_rows(merged.vectors, atol=1e-12)

    def test_zero_total_weight_rejected(self, monkeypatch):
        # A node whose chunk weights are all zero merges to a zero row. One
        # chunk takes no weights, so the graph is split into two.
        g = graph_from_text("a b\na c\n")
        q = split_chunk_count(g)
        build = embedding.build_transition
        monkeypatch.setattr(
            embedding,
            "build_transition",
            lambda graph, chunk_ids, q: dataclasses.replace(
                build(graph, chunk_ids, q), degrees=np.zeros(2)
            ),
        )
        with pytest.raises(InternalConsistencyError, match="cancelled to zero"):
            train(g, d=4, iterations=1, chunks=q, seed=0)

    def test_cancelled_merged_row_rejected(self, monkeypatch):
        # a's two edges carry equal weight in separate chunks; opposite
        # chunk rows for a cancel in the merge.
        g = graph_from_text("a b\na c\n")
        q = split_chunk_count(g)
        hand_chunks(monkeypatch, g, {
            ("a", "b"): np.array([[1.0, 0.0], [0.0, 1.0]]),
            ("a", "c"): np.array([[-1.0, 0.0], [0.0, 1.0]]),
        })
        with pytest.raises(InternalConsistencyError, match="cancelled"):
            train(g, d=2, iterations=1, chunks=q, seed=0)

    def test_non_finite_merged_row_rejected(self, monkeypatch):
        g = graph_from_text("a b\n")
        hand_chunks(monkeypatch, g, {("a", "b"): np.array([[np.nan, 0.0], [0.0, 1.0]])})
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

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_shuffled_lines_give_identical_rows(self, chunks):
        # Indices follow code order whatever the line order, so each row
        # sums its neighbours in the same order: same rows, bit for bit.
        out = io.StringIO()
        generate_synthetic_market(themes=4, baskets=4000, seed=3).write_baskets(out)
        lines = out.getvalue().splitlines(keepends=True)
        shuffled = [lines[i] for i in np.random.default_rng(5).permutation(len(lines))]
        a, b = (
            train(expand_hyperedges(*parse_baskets(text)), d=16, chunks=chunks, seed=1)
            for text in (lines, shuffled)
        )
        assert a.codes == b.codes == tuple(sorted(a.codes))
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
            assert np.array_equal(vector_of(e1, code), vector_of(e2, code))

    def test_automorphic_label_swap(self):
        # x and y play symmetric roles; swapping their labels relabels the
        # graph onto itself, so per-code rows must be unchanged.
        e1 = train(graph_from_text("x z\ny z\n"), d=16, iterations=6, seed=3)
        e2 = train(graph_from_text("y z\nx z\n"), d=16, iterations=6, seed=3)
        for code in ("x", "y", "z"):
            assert np.array_equal(vector_of(e1, code), vector_of(e2, code))

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
        assert set(emb.codes) == set(demo_graph.codes)
        assert unit_rows(emb.vectors)

    def test_memory_is_a_few_rows_by_d_arrays(self):
        g = wide_graph()
        emb, peak = traced_peak(lambda: train(g, d=128, iterations=6, chunks=3, seed=0))
        # The first rows, the sum, and one chunk's current and next rows
        # stay alive. Whole-array norms and a whole-chunk merge peaked at
        # 5.26 times n*d*8; row blocks at 4.50.
        assert peak <= 5 * len(emb) * 128 * 8

    @pytest.mark.parametrize("counts, arrays", [(6, 2.5), ((6, 1), 3.5)])
    def test_one_chunk_holds_no_sums(self, counts, arrays):
        # One chunk keeps its first rows, one step array and a copy per
        # smaller count; first rows, sums and a step pair peaked at 4.16 and
        # 5.16 times n*d*8.
        rng = np.random.default_rng(0)
        edges = {(f"p{i}", f"p{i + 1}"): 1 for i in range(1999)}
        for a, b in rng.integers(0, 2000, (4000, 2)).tolist():
            if a != b:
                key = (f"p{min(a, b)}", f"p{max(a, b)}")
                edges[key] = edges.get(key, 0) + 1
        g = graph_from_edges(edges)
        _, peak = traced_peak(lambda: train(g, d=256, iterations=counts, chunks=1, seed=0))
        assert peak < arrays * 2000 * 256 * 8

    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("counts, arrays", [(6, 1.5), ((6, 1), 2.5)])
    def test_spaces_are_checked_without_step_buffers(self, monkeypatch, counts, arrays, chunks):
        # Memory traced at each row-norm call after the last step, that is in
        # the spaces' checks: one (products x d) array per space. A step
        # array left alive read about one array more.
        g = wide_graph()
        real_iterate, real_norms = embedding.iterate, embedding._row_norms
        current = []

        def stepped(*args, **kwargs):
            result = real_iterate(*args, **kwargs)
            current.clear()
            return result

        def norms(x):
            current.append(tracemalloc.get_traced_memory()[0])
            return real_norms(x)

        monkeypatch.setattr(embedding, "iterate", stepped)
        monkeypatch.setattr(embedding, "_row_norms", norms)
        traced_peak(lambda: train(g, d=256, iterations=counts, chunks=chunks, seed=0))
        assert len(current) == np.size(counts)
        assert max(current) < arrays * np.count_nonzero(g.degrees) * 256 * 8

    def test_memory_does_not_grow_with_chunk_count(self, demo_graph):
        # Six products in a million chunks: nothing may be sized products x Q.
        tracemalloc.start()
        try:
            train(demo_graph, d=4, iterations=1, chunks=10**6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_step_pair_that_does_not_fit_is_named(self, monkeypatch):
        # The sums fit and only the (2, products, d) step pair does not. One
        # chunk has no pair, so the graph is split into two.
        g = graph_from_text("a b\na c\n")
        q = split_chunk_count(g)
        real = np.empty

        def empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 3:
                raise MemoryError
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(embedding.np, "empty", empty)
        with pytest.raises(InvalidParameterError) as info:
            train(g, d=4, iterations=1, chunks=q, seed=0)
        assert str(info.value) == "step pair 2 x 3 x 4 does not fit in memory"


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

    @pytest.mark.parametrize("counts", [(6, 1), (1, 6), (2, 2)])
    def test_one_chunk_spaces_share_no_memory(self, demo_graph, counts):
        # At one chunk the spaces are the step rows themselves, so equal
        # counts must still get arrays of their own.
        spaces = train(demo_graph, d=8, iterations=counts, chunks=1, seed=0)
        assert not np.shares_memory(spaces[0].vectors, spaces[1].vectors)
        assert unit_rows(spaces[0].vectors) and unit_rows(spaces[1].vectors)

    def test_zero_rows_replaced_counts_every_step(self):
        # d=1 rows are +-1, so rows cancel at several steps; a space counts
        # the replaced rows of every step up to its own iteration count.
        rng = np.random.default_rng(61)
        later = 0
        for seed in range(5):
            g = random_graph(rng, max_nodes=40, max_edges=60)
            M = build_transition(g, partition_chunks(g, 1), 0)
            T = init_embedding([g.codes[v] for v in M.nodes.tolist()], 1, seed=seed)
            expected = []
            for step in range(4):
                T, replaced = iterate(T, M)
                expected.append(replaced)
                later += replaced if step else 0
            spaces = train(g, d=1, iterations=(4, 2), seed=seed)
            assert [s.zero_rows_replaced for s in spaces] == [sum(expected), sum(expected[:2])]
        assert later > 0

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
        assert np.allclose(emb.vectors, start, atol=1e-9)

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


def row_code(i: int, hashed: bool = False) -> str:
    """The code of row ``i``; a hashed one starts with '#', which the
    readers refuse."""
    return ("#" if hashed else "") + f"r{i}"


@st.composite
def embedding_row(draw, d, i):
    """Line ``i`` among an embedding file's rows: mostly a clean row, else a
    row with tokens only np.asarray parses, a bad value, the code of an
    earlier row, one value short, one extra (the usecols trap), a code
    that starts with '#', a blank line or a comment."""
    kinds = ("clean",) * 12 + ("tricky",) * 3 + ("bad", "dup") * 2
    kind = draw(st.sampled_from(kinds + ("short", "long", "hash", "blank", "comment")))
    if kind == "blank":
        return draw(st.sampled_from(("\n", "  \n", "\t\n")))
    if kind == "comment":
        return "# note\n"
    width = {"short": d - 1, "long": d + 1}.get(kind, d)
    pool = TRICKY_VALUES if kind == "tricky" else PLAIN_VALUES
    code = row_code(draw(st.integers(0, i - 1)) if kind == "dup" and i else i, kind == "hash")
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


class TestEmbeddingMatrix:
    @pytest.mark.parametrize(
        "codes, shape",
        [(["a", "b", "c"], (2, 4)), (["a"], (2, 4)), (["a", "b"], (2,)), (["a", "b"], (2, 4, 1))],
        ids=["more-codes", "more-rows", "1-D", "3-D"],
    )
    def test_one_row_per_code(self, codes, shape):
        # Unchecked, the writer wrote a file its reader refuses or dropped
        # a row, and top-k raised a bare numpy error.
        vectors = np.ones(shape)
        message = "need one 2-D row per code"
        with pytest.raises(InvalidParameterError, match=message):
            EmbeddingMatrix(codes, vectors)
        out = io.StringIO()
        with pytest.raises(InvalidParameterError, match=message):
            write_embedding(EmbeddingMatrix(codes, vectors), out)
        assert out.getvalue() == ""
        with pytest.raises(InvalidParameterError, match=message):
            top_k_batch(EmbeddingMatrix(codes, vectors), ["a"], 1)

    @pytest.mark.parametrize(
        "change",
        [
            lambda e: e.codes.append("c"),
            lambda e: e.codes.pop(),
            lambda e: setattr(e, "codes", ["a", "b", "c"]),
            lambda e: setattr(e, "vectors", np.ones(2)),
            lambda e: setattr(e, "vectors", np.ones((3, 2))),
        ],
        ids=["code-appended", "code-removed", "codes-replaced", "1-D-vectors", "extra-row"],
    )
    def test_space_changed_after_construction_is_refused(self, change):
        # The writer and top-k trust the check made when the space was
        # built, so the edit itself must fail and leave the space as built.
        e = EmbeddingMatrix(["a", "b"], np.eye(2))
        with pytest.raises(AttributeError):
            change(e)
        assert e.codes == ("a", "b") and e.vectors.shape == (2, 2)
        out = io.StringIO()
        write_embedding(e, out)
        assert out.getvalue().splitlines()[0] == "2 2"
        assert top_k_batch(e, ["b"], 1)[0].tolist() == [[0]]

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 2, 1)])
    def test_vectors_reshaped_in_place_are_refused(self, shape):
        # Freezing the record does not stop this, and a read-only array
        # accepts a new shape too; unchecked, the writer raised a bare
        # ValueError, and top-k and the dimension an IndexError.
        e = EmbeddingMatrix(["a", "b"], np.eye(2))
        e.vectors.shape = shape
        out = io.StringIO()
        with pytest.raises(InvalidParameterError, match="need one 2-D row per code"):
            write_embedding(e, out)
        assert out.getvalue() == ""
        with pytest.raises(InvalidParameterError, match="need one 2-D row per code"):
            top_k_batch(e, ["a"], 1)
        with pytest.raises(InvalidParameterError, match="need one 2-D row per code"):
            e.dimension

    @pytest.mark.parametrize(
        "change", [{"codes": ["a", "b", "c"]}, {"vectors": np.ones(2)}, {"vectors": np.ones((3, 2))}]
    )
    def test_replaced_space_is_checked_again(self, change):
        # dataclasses.replace builds a new space, which runs the same check.
        e = EmbeddingMatrix(["a", "b"], np.eye(2))
        with pytest.raises(InvalidParameterError, match="need one 2-D row per code"):
            dataclasses.replace(e, **change)
        moved = dataclasses.replace(e, codes=["c", "d"])
        assert moved.codes == ("c", "d") and moved.vectors is e.vectors


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

    @pytest.mark.parametrize(
        "header, message",
        [
            ("a b", "^embedding header must be two integers, got 'a b'$"),
            ("-1 3", "^invalid embedding shape -1 x 3$"),
            ("2 0", "^invalid embedding shape 2 x 0$"),
        ],
    )
    def test_read_rejects_header_that_is_no_shape(self, header, message):
        with pytest.raises(MalformedInputError, match=message):
            read_embedding(io.StringIO(header + "\n"))

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
        assert back.codes == ("a", "b")
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
        assert back.codes == tuple(row.split()[0] for row in rows)
        assert back.vectors.tobytes() == expected.tobytes()

    def test_read_skips_trailing_blank_and_comment_lines(self):
        back = read_embedding(io.StringIO("1 2\na 0.1 0.2\n\n# end\n"))
        assert back.codes == ("a",)


def written(write, vectors, codes=None) -> list:
    """The lines ``write`` gives for ``vectors`` under codes r0, r1, ...;
    a list, so that a mismatch is reported by its first differing line."""
    codes = [f"r{i}" for i in range(len(vectors))] if codes is None else codes
    out = io.StringIO()
    write(EmbeddingMatrix(codes, vectors), out)
    return out.getvalue().split("\n")


def ulp_neighbours(values, reach: int = 4) -> np.ndarray:
    """``values`` and the floats up to ``reach`` ulps either side of each."""
    out, down, up = [values], values, values
    for _ in range(reach):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


# Floats whose exponent puts them at or next to 1e-4 <= |x| < 1, as bits.
FAST_BAND = st.integers(struct.unpack("<q", struct.pack("<d", 9e-5))[0], 0x3FF0000000000000)


class TestWriter:
    """write_embedding against the per-row '%.9g' oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5),
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), FAST_BAND, FAST_BAND.map(lambda b: b | 2**63)),
            max_size=40,
        ),
    )
    def test_raw_bit_patterns(self, d, bits):
        bits = bits[: len(bits) // d * d]
        vectors = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, d)
        assert written(write_embedding, vectors) == written(reference_write_embedding, vectors)

    def test_near_ties_and_their_neighbours(self):
        # (m + 0.5) / 10**p is a tie at the ninth significant digit; its
        # nearest float lies on either side of it, and so do the floats a
        # few ulps away.
        rng = np.random.default_rng(20)
        ties = [(rng.integers(10**8, 10**9, 2000) + 0.5) / 10.0**p for p in range(9, 13)]
        values = ulp_neighbours(np.concatenate(ties))
        vectors = np.concatenate([values, -values]).reshape(-1, 8)
        assert written(write_embedding, vectors) == written(reference_write_embedding, vectors)

    def test_powers_of_ten_carries_and_specials(self):
        powers = ulp_neighbours(np.array([1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]), reach=8)
        # Each rounds up to ten times its leading power at 9 digits.
        carries = np.array([0.9999999995, 0.0999999999995, 0.00999999999995, 0.000999999999995])
        specials = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1e22])
        values = np.concatenate([powers, ulp_neighbours(carries, reach=2), specials])
        vectors = np.concatenate([values, -values]).reshape(-1, 1)
        assert written(write_embedding, vectors) == written(reference_write_embedding, vectors)

    @pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 1024])
    @pytest.mark.parametrize("rows", ["none", "one", "block-1", "block", "block+1"])
    def test_block_edges(self, d, rows):
        block = embedding._BLOCK_VALUES // d
        n = {"none": 0, "one": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[rows]
        rng = np.random.default_rng(d)
        vectors = normalize_rows(rng.standard_normal((n, d))) if n else np.empty((0, d))
        edges = vectors.flat[::11]
        vectors.flat[::11] = np.resize([0.0, -0.0, 1e-5, 1.5, 0.9999999995], edges.size)
        # Codes that are not ASCII or start with '#' are written as they are.
        codes = [("#", "", "商品", "café🛒")[i % 4] + str(i) for i in range(n)]
        got = written(write_embedding, vectors, codes)
        assert got == written(reference_write_embedding, vectors, codes)
        assert len(got) == n + 2 and got[-1] == ""

    def test_rows_without_values_rejected(self):
        with pytest.raises(InvalidParameterError, match="^dimension must be >= 1, got 0$"):
            write_embedding(EmbeddingMatrix(["a"], np.empty((1, 0))), io.StringIO())

    def test_no_runtime_warning_on_zeros_subnormals_and_infinities(self):
        vectors = np.array([[0.0, -0.0, 5e-324, -1e-310], [np.inf, -np.inf, np.nan, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = written(write_embedding, vectors)
        assert got == written(reference_write_embedding, vectors)
