"""Basket parsing, code numbering, and clique expansion."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketspace import (
    Baskets,
    CooccurrenceGraph,
    InvalidParameterError,
    MalformedInputError,
    expand_hyperedges,
    parse_baskets,
)
from basketspace import ingest
from conftest import (
    DEMO_DEGREES,
    DEMO_EDGES,
    DEMO_TEXT,
    basket_rows,
    edge_weight,
    edge_weights,
    graph_from_text,
    reference_parse_baskets,
)

# Whitespace that str.split() separates on, beyond the ASCII kinds.
SEPARATORS = (" ", "  ", "\t", "\x1c", "\xa0", "\u3000")
# Few codes, so lines repeat them. A line whose first token starts with "#"
# is a comment; a later token that starts with "#" is refused, so later
# tokens draw one rarely and most files still parse.
TOKENS = ("a", "b", "c", "dd", "é", "#", "#a", "a#")
LATER_TOKENS = TOKENS[:5] * 10 + TOKENS


def basket_lines():
    """Lines of a basket file: blank, comment and basket lines, lines that
    a code starting with '#' spoils, with and without a line ending."""

    def words(pool, most):
        return st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(SEPARATORS)), max_size=most)

    return st.lists(
        st.builds(
            lambda lead, first, later, end: lead + "".join(w + sep for w, sep in first + later) + end,
            st.sampled_from(("",) + SEPARATORS),
            words(TOKENS, 1),
            words(LATER_TOKENS, 6),
            st.sampled_from(("", "\n", "\r\n")),
        ),
        max_size=12,
    )


def parse_outcome(parse, lines, limit):
    """What a parser returns for ``lines``, or the message it raises."""
    try:
        (offsets, items), codes = parse(iter(lines), limit)
    except MalformedInputError as exc:
        return str(exc)
    distinct = len(set(codes)) == len(codes)
    arrays = offsets.dtype, items.dtype, offsets.tolist(), items.tolist()
    return arrays, type(codes), codes, distinct


def parse(text: str, **kwargs):
    return parse_baskets(io.StringIO(text), **kwargs)


class TestParsing:
    def test_demo_corpus(self):
        baskets, codes = parse(DEMO_TEXT)
        assert basket_rows(baskets) == [[0, 1, 2], [3, 2], [4, 5, 1]]
        assert len(codes) == 6
        # First-appearance order.
        assert codes == ["p1", "p3", "p4", "p2", "p5", "p6"]

    def test_ragged_int64_arrays(self):
        baskets, _ = parse("a b c\n# skipped\nd\nb e\n")
        assert isinstance(baskets, Baskets)
        assert baskets.offsets.dtype == baskets.items.dtype == np.int64
        assert len(baskets.offsets) == 3 + 1
        assert baskets.offsets.tolist() == [0, 3, 4, 6]
        assert baskets.items.tolist() == [0, 1, 2, 3, 1, 4]

    def test_list_of_strings_parses_like_a_stream(self):
        text = "# header\nx y x\n\nz  y\ncafé x\n"
        from_stream, stream_codes = parse(text)
        from_list, list_codes = parse_baskets(text.splitlines(keepends=True))
        bare, bare_codes = parse_baskets(text.splitlines())
        for baskets, codes in ((from_list, list_codes), (bare, bare_codes)):
            assert np.array_equal(baskets.offsets, from_stream.offsets)
            assert np.array_equal(baskets.items, from_stream.items)
            assert codes == stream_codes

    def test_token_order_within_basket_is_irrelevant(self):
        b1, v1 = parse("a b c\n")
        b2, v2 = parse("c a b\n")
        assert basket_rows(b1) == basket_rows(b2)
        assert sorted(v1) == sorted(v2)

    def test_comments_and_blank_lines_skipped(self):
        baskets, codes = parse("# header\n\na b\n   \n# tail\nc d\n")
        assert len(basket_rows(baskets)) == 2
        assert len(codes) == 4
        # A comment's codes get no index.
        assert parse("b a\n# c\na d\n")[1] == ["b", "a", "d"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b\n# c #d\nx #y #z\n", "line 3: product code '#y' starts with '#'"),
            ("  #a b\n\ta\u3000#\n", "line 2: product code '#' starts with '#'"),
            # The first error in file order wins, within a batch as well.
            ("a b c d\nx #y\n", "line 1: basket has 4 distinct products"),
            ("x #y\na b c d\n", "line 1: product code '#y' starts with '#'"),
        ],
    )
    def test_code_starting_with_hash_is_refused(self, text, message):
        with pytest.raises(MalformedInputError) as exc:
            parse(text, max_basket_products=3)
        assert str(exc.value).startswith(message)

    def test_rows_hold_distinct_codes_in_first_appearance_order(self):
        baskets, codes = parse("a a b\nc b c a b\n")
        assert basket_rows(baskets) == [[0, 1], [2, 1, 0]]
        assert codes == ["a", "b", "c"]

    def test_singleton_basket_accepted(self):
        baskets, codes = parse("solo\n")
        assert basket_rows(baskets) == [[0]]
        assert len(codes) == 1

    def test_oversize_basket_names_line(self):
        with pytest.raises(MalformedInputError) as exc:
            parse("a b\nc d e f\n", max_basket_products=3)
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("parser", [parse_baskets, reference_parse_baskets])
    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_refused_before_any_line_is_read(self, parser, limit):
        def lines():
            raise AssertionError("a line was read")
            yield

        with pytest.raises(InvalidParameterError) as exc:
            parser(lines(), limit)
        assert str(exc.value) == f"max basket size must be >= 1, got {limit}"

    def test_oversize_counts_distinct_products(self):
        # Repeats of one product do not count against the cap.
        baskets, _ = parse("a a a a b c\n", max_basket_products=3)
        assert basket_rows(baskets) == [[0, 1, 2]]

    def test_unicode_codes(self):
        baskets, codes = parse("café thé\n")
        assert "café" in codes

    @settings(max_examples=200, deadline=None)
    @given(basket_lines(), st.integers(1, 8))
    def test_batches_parse_like_the_per_line_reference(self, lines, limit):
        # Batches of one and three lines put every line boundary on a batch
        # boundary somewhere.
        expected = parse_outcome(reference_parse_baskets, lines, limit)
        for batch in (1, 3, ingest._BATCH_LINES):
            with mock.patch.object(ingest, "_BATCH_LINES", batch):
                assert parse_outcome(parse_baskets, lines, limit) == expected, batch

    @pytest.mark.parametrize("batch", [3, ingest._BATCH_LINES])
    def test_oversize_line_in_a_later_batch_names_its_line(self, monkeypatch, batch):
        monkeypatch.setattr(ingest, "_BATCH_LINES", batch)
        lines = ["a b\n", "\n", "# c d e\n"] * batch + ["a b a c\n", "x y z\n"]
        with pytest.raises(MalformedInputError) as exc:
            parse_baskets(lines, max_basket_products=2)
        assert str(exc.value) == (
            f"line {3 * batch + 1}: basket has 3 distinct products, exceeding the limit of 2"
        )

    @pytest.mark.parametrize("lines", [[], iter(()), ["\n", "# only\n", " \u3000 "]])
    def test_no_baskets(self, lines):
        baskets, codes = parse_baskets(lines)
        assert baskets.offsets.dtype == baskets.items.dtype == np.int64
        assert baskets.offsets.tolist() == [0]
        assert baskets.items.tolist() == []
        assert len(codes) == 0

    def test_memory_is_bounded_by_a_batch_not_the_input(self):
        self.check_memory_bound(repeat_every=0)

    def test_memory_is_bounded_when_lines_repeat_codes(self):
        # Every 10th line repeats a code, so those batches de-duplicate.
        self.check_memory_bound(repeat_every=10)

    @staticmethod
    def check_memory_bound(repeat_every):
        def lines():
            for i in range(50_000):
                codes = [f"product{(i * 7 + j * 13) % 2000:04d}" for j in range(1 + i % 5)]
                if repeat_every and i % repeat_every == 0:
                    codes.append(codes[0])
                yield " ".join(codes) + "\n"

        tracemalloc.start()
        try:
            baskets, codes = parse_baskets(lines())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(baskets.offsets) == 50_001
        assert len(baskets.items) == 150_000
        assert len(codes) == 2000
        # The result holds about 1.6 MB. Splitting all 50,000 lines at once
        # peaks near 25 MB; batches of 256 lines peaked at 2.0 MB.
        assert peak < 5 * 2**20


class TestExpansion:
    def test_demo_corpus_edges_and_degrees(self, demo_graph):
        g = demo_graph
        assert g.edge_count == len(DEMO_EDGES)
        for (ca, cb), w in DEMO_EDGES.items():
            a, b = g.codes.index(ca), g.codes.index(cb)
            assert edge_weight(g, a, b) == w
            assert edge_weight(g, b, a) == w
        for code, deg in DEMO_DEGREES.items():
            assert g.degrees[g.codes.index(code)] == deg

    def test_duplicates_within_basket_collapse(self):
        g = graph_from_text("a a b\n")
        a, b = g.codes.index("a"), g.codes.index("b")
        assert edge_weight(g, a, b) == 1
        assert int(g.w.sum()) == 1

    def test_no_self_loops(self):
        g = graph_from_text("a a\n")
        assert g.edge_count == 0

    def test_repeated_baskets_accumulate(self):
        g = graph_from_text("a b\na b\na b\n")
        a, b = g.codes.index("a"), g.codes.index("b")
        assert edge_weight(g, a, b) == 3

    def test_basket_of_k_products_adds_k_choose_2(self):
        for k in range(2, 8):
            text = " ".join(f"q{i}" for i in range(k)) + "\n"
            g = graph_from_text(text)
            assert int(g.w.sum()) == k * (k - 1) // 2

    @staticmethod
    def assert_same_graph(g, reference):
        assert g.codes == reference.codes
        for name in ("a", "b", "w", "degrees"):
            assert np.array_equal(getattr(g, name), getattr(reference, name)), name

    def test_line_permutation_invariance(self):
        # Products are numbered in code order, so every array is the same.
        lines = ["a b c", "b d", "e a d", "c c f", "zeta é a10 a2 B"]
        rng = np.random.default_rng(7)
        reference = graph_from_text("\n".join(lines) + "\n")
        for _ in range(5):
            shuffled = [lines[i] for i in rng.permutation(len(lines))]
            shuffled = [" ".join(rng.permutation(line.split())) for line in shuffled]
            self.assert_same_graph(graph_from_text("\n".join(shuffled) + "\n"), reference)

    def test_codes_shuffled_within_lines_change_nothing(self):
        lines = ["a b c", "b d", "e a d", "c c f", "zeta é a10 a2 B"]
        rng = np.random.default_rng(3)
        reference = graph_from_text("\n".join(lines) + "\n")
        for _ in range(5):
            shuffled = [" ".join(rng.permutation(line.split())) for line in lines]
            self.assert_same_graph(graph_from_text("\n".join(shuffled) + "\n"), reference)

    def test_graph_numbers_products_in_code_order(self):
        # The parser numbers codes as they first appear; the graph renumbers
        # them in code order and keeps each edge between the same codes.
        baskets, codes = parse("zeta a10\nB é a2\na10 zeta B\n")
        assert codes == ["zeta", "a10", "B", "é", "a2"]
        g = expand_hyperedges(baskets, codes)
        assert g.codes == tuple(sorted(codes)) == ("B", "a10", "a2", "zeta", "é")
        pairs = {(g.codes[a], g.codes[b]): w for (a, b), w in edge_weights(g).items()}
        assert pairs == {
            ("a10", "zeta"): 2, ("B", "a10"): 1, ("B", "zeta"): 1,
            ("B", "é"): 1, ("B", "a2"): 1, ("a2", "é"): 1,
        }
        assert g.degrees.tolist() == [4, 3, 2, 3, 2]

    @pytest.mark.parametrize("codes", [["b", "a"], ["a", "b", "b"], ["a", "c", "b"]])
    def test_graph_refuses_codes_out_of_code_order(self, codes):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="codes must strictly increase"):
            CooccurrenceGraph(codes, empty, empty, empty, np.zeros(len(codes), dtype=np.int64))

    def test_repeated_code_in_the_code_list_rejected(self):
        with pytest.raises(InvalidParameterError, match="'a' follows 'a'"):
            expand_hyperedges(Baskets(np.array([0, 2]), np.array([0, 1])), ["a", "a"])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 12), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    def test_handshake_identity(self, raw_baskets):
        text = "\n".join(" ".join(f"h{i}" for i in basket) for basket in raw_baskets) + "\n"
        g = graph_from_text(text)
        assert int(g.degrees.sum()) == 2 * int(g.w.sum())

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 12), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    def test_total_weight_matches_pair_count(self, raw_baskets):
        text = "\n".join(" ".join(f"h{i}" for i in basket) for basket in raw_baskets) + "\n"
        g = graph_from_text(text)
        expected = sum(
            len(set(basket)) * (len(set(basket)) - 1) // 2 for basket in raw_baskets
        )
        assert int(g.w.sum()) == expected

    @staticmethod
    def assert_matches_brute_force(lines, g):
        """``g`` equals a dict loop over the codes of ``lines``."""
        expected = {}
        degrees = {}
        for line in lines:
            if not line.strip() or line.startswith("#"):
                continue
            distinct = sorted(set(line.split()))
            for i, x in enumerate(distinct):
                for y in distinct[i + 1:]:
                    expected[(x, y)] = expected.get((x, y), 0) + 1
                    degrees[x] = degrees.get(x, 0) + 1
                    degrees[y] = degrees.get(y, 0) + 1
        codes = g.codes
        got = {
            tuple(sorted((codes[a], codes[b]))): w
            for (a, b), w in edge_weights(g).items()
        }
        assert got == expected
        assert g.edge_count == len(expected)
        assert int(g.w.sum()) == sum(expected.values())
        assert g.degrees.tolist() == [degrees.get(c, 0) for c in codes]
        assert (g.a < g.b).all()
        assert (np.diff(g.a * len(codes) + g.b) > 0).all()

    def test_edge_arrays_match_brute_force_expansion(self):
        # Random basket files with repeats, singletons, comments and blank
        # lines, expanded by a dict loop over codes written here.
        rng = np.random.default_rng(5)
        for _ in range(40):
            lines = []
            for _ in range(int(rng.integers(1, 40))):
                kind = rng.random()
                if kind < 0.1:
                    lines.append("# c1 c2 c3")
                elif kind < 0.2:
                    lines.append("   ")
                else:
                    picks = rng.integers(0, 15, int(rng.integers(1, 9)))
                    lines.append(" ".join(f"c{int(x)}" for x in picks))
            self.assert_matches_brute_force(lines, graph_from_text("\n".join(lines) + "\n"))

    def test_repeated_codes_in_every_size_group(self):
        # Every line length from 1 to 9 holds rows of distinct codes and
        # rows that repeat a code (down to one distinct code), shuffled, so
        # each size group mixes lines the parser keeps whole and lines it
        # shortens.
        rng = np.random.default_rng(11)
        for _ in range(20):
            lines = []
            for length in range(1, 10):
                for _ in range(int(rng.integers(1, 6))):
                    distinct = rng.choice(20, size=length, replace=False)
                    lines.append(" ".join(f"c{int(x)}" for x in distinct))
                for _ in range(int(rng.integers(1, 6)) if length > 1 else 0):
                    pool = rng.choice(20, size=int(rng.integers(1, length)), replace=False)
                    picks = np.concatenate([pool, rng.choice(pool, length - len(pool))])
                    lines.append(" ".join(f"c{int(x)}" for x in rng.permutation(picks)))
            lines = [lines[i] for i in rng.permutation(len(lines))]
            baskets, codes = parse("\n".join(lines) + "\n")
            g = expand_hyperedges(baskets, codes)
            self.assert_matches_brute_force(lines, g)
            # Hand-built rows in another order expand to the same arrays.
            rows = [rng.permutation(row) for row in basket_rows(baskets)]
            offsets = np.cumsum([0] + [len(row) for row in rows])
            h = expand_hyperedges(Baskets(offsets, np.concatenate(rows)), codes)
            for name in ("a", "b", "w", "degrees"):
                assert np.array_equal(getattr(g, name), getattr(h, name))

    def test_row_with_repeated_index_rejected(self):
        _, codes = parse("a b c\n")
        rows = Baskets(np.array([0, 2, 5]), np.array([0, 1, 2, 0, 2]))
        with pytest.raises(InvalidParameterError):
            expand_hyperedges(rows, codes)

    def test_edge_keys_are_ordered_pairs(self, demo_graph):
        g = demo_graph
        for a, b in edge_weights(g):
            assert a < b
        assert g.a.dtype == g.b.dtype == g.w.dtype == np.int64
        assert len(g.a) == len(g.b) == len(g.w) == g.edge_count
        # Sorted by (a, b), each pair once.
        keys = g.a * len(g.codes) + g.b
        assert (np.diff(keys) > 0).all()


class TestIsolation:
    """Degree-0 products have no co-occurrence evidence and are excluded
    from embedding."""

    def test_demo_corpus_has_none(self, demo_graph):
        assert not (demo_graph.degrees == 0).any()

    def test_singletons_are_isolated(self):
        g = graph_from_text("a b\nlonely\n")
        codes = [g.codes[i] for i in np.flatnonzero(g.degrees == 0)]
        assert codes == ["lonely"]

    def test_self_only_basket_is_isolated(self):
        g = graph_from_text("x x x\na b\n")
        codes = [g.codes[i] for i in np.flatnonzero(g.degrees == 0)]
        assert codes == ["x"]
