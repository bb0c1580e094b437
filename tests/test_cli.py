"""Command-line interface: subcommands, file outputs, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from basketspace import (
    BenchmarkConfig,
    benchmark_baskets,
    expand_hyperedges,
    generate_synthetic_market,
    parse_baskets,
    read_truth,
    train,
)
from basketspace.cli import main
from basketspace.neighbors import _ARGMAX_MAX_K
from conftest import DEMO_TEXT

# SHA-256 of `embed --dim 16 --iterations 6 --seed 2 --chunks Q` on the
# planted market of test_output_bytes_are_pinned, as written by the
# dict-of-tuples implementation that the array-native graph replaced.
PINNED_EMBED_SHA256 = {
    1: "c50ea1b398235a1758ec813581cb52af148821fd39e23ef5bb5e90ebea066acc",
    3: "89d2552ea85e71f861eef60a6231509e41ffd82569557aad1c16d77d51513b87",
}

# SHA-256 of `neighbors --all --k K [--candidates]` and of the `eval` JSON
# report on the 400-product market of TestPinnedOutputs, as written by the
# kernel that partitioned every queried row. k=2 takes the argmax passes,
# k=9 the per-row partition.
PINNED_NEIGHBORS_SHA256 = {
    (2, False): "6463f44c1cac87f549814a7e9849f415e6beedf422ee3bc02657c8f9036cdd00",
    (2, True): "bb414b59d2e96a4bde9e8a5d6cd517241207923a3aca574ae2bf9b4a7a20d3ea",
    (9, False): "2d03d6d0419aaecec25ac760de32ce84e949de4323d737c41f788c3b214f5e0c",
    (9, True): "98abbab5ad770257a52cabd67e467944a8ef2731ef4cf432c6621b31aa22f1d5",
}
PINNED_EVAL_SHA256 = "00c08acdd9757dbe74d1f5da3983abab15faf2bdd978fff319af0685497c93eb"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "baskets.txt"
    path.write_text(DEMO_TEXT, encoding="utf-8")
    return path


def run_embed(tmp_path, demo_file, name="emb.txt", extra=()):
    out = tmp_path / name
    code = main(
        ["embed", "--input", str(demo_file), "--output", str(out), "--dim", "8"]
        + list(extra)
    )
    assert code == 0
    return out


class TestEmbed:
    def test_writes_header_and_progress(self, tmp_path, demo_file, capsys):
        out = run_embed(tmp_path, demo_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "6 8"
        assert len(lines) == 7
        err = capsys.readouterr().err
        assert "embedded 6 products at dimension 8" in err
        assert "isolated products excluded: 0" in err
        assert "zero rows replaced: 0" in err

    def test_zero_rows_replaced_reported(self, tmp_path, capsys):
        # Twenty paths x-m-y at d=1: rows are +-1, so m's first step
        # cancels whenever x and y drew opposite signs.
        path = tmp_path / "paths.txt"
        path.write_text(
            "".join(f"x{i} m{i}\nm{i} y{i}\n" for i in range(20)), encoding="utf-8"
        )
        code = main(
            ["embed", "--input", str(path), "--output", str(tmp_path / "o.txt"),
             "--dim", "1", "--iterations", "1"]
        )
        assert code == 0
        with open(path, encoding="utf-8") as fh:
            graph = expand_hyperedges(*parse_baskets(fh))
        replaced = train(graph, d=1, iterations=1).zero_rows_replaced
        assert replaced > 0
        assert f"zero rows replaced: {replaced}\n" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path, demo_file):
        a = run_embed(tmp_path, demo_file, "a.txt")
        b = run_embed(tmp_path, demo_file, "b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, demo_file):
        a = run_embed(tmp_path, demo_file, "t1.txt", ["--threads", "1"])
        b = run_embed(tmp_path, demo_file, "t8.txt", ["--threads", "8"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_output_bytes_are_pinned(self, tmp_path, chunks):
        market = generate_synthetic_market(
            themes=4, groups_per_theme=3, group_size=5, baskets=1500, seed=11
        )
        baskets = tmp_path / "pin.txt"
        with open(baskets, "w", encoding="utf-8") as fh:
            market.write_baskets(fh)
        out = tmp_path / "pin.emb"
        code = main(
            ["embed", "--input", str(baskets), "--output", str(out), "--dim", "16",
             "--iterations", "6", "--chunks", str(chunks), "--seed", "2"]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_EMBED_SHA256[chunks]

    @pytest.mark.parametrize("command", ["embed", "eval"])
    def test_threads_below_one_exit_2(self, tmp_path, demo_file, capsys, command):
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(f"p{i} 0 {i % 2}\n" for i in range(1, 7)), encoding="utf-8")
        extra = {"embed": ["--output", str(tmp_path / "o.txt")], "eval": ["--truth", str(truth)]}
        code = main(
            [command, "--input", str(demo_file), "--dim", "4", "--threads", "0"]
            + extra[command]
        )
        assert code == 2
        assert "thread count must be >= 1" in capsys.readouterr().err

    def test_threads_above_cpu_count_are_clamped(self, tmp_path, demo_file, monkeypatch):
        a = run_embed(tmp_path, demo_file, "t1.txt", ["--threads", "1"])
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        b = run_embed(tmp_path, demo_file, "t3.txt", ["--threads", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["embed", "--input", str(tmp_path / "absent.txt"), "--output", str(tmp_path / "o.txt")]
        )
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_edgeless_corpus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "singletons.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        code = main(["embed", "--input", str(path), "--output", str(tmp_path / "o.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_dimension_exits_2(self, tmp_path, demo_file):
        code = main(
            ["embed", "--input", str(demo_file), "--output", str(tmp_path / "o.txt"), "--dim", "0"]
        )
        assert code == 2

    def test_isolated_products_reported(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        path.write_text("a b\nlonely\n", encoding="utf-8")
        code = main(["embed", "--input", str(path), "--output", str(tmp_path / "o.txt")])
        assert code == 0
        assert "isolated products excluded: 1" in capsys.readouterr().err


class TestNeighbors:
    @pytest.fixture
    def embedding_file(self, tmp_path, demo_file):
        return run_embed(tmp_path, demo_file)

    def test_all_queries_to_stdout(self, embedding_file, capsys):
        code = main(["neighbors", "--input", str(embedding_file), "--all", "--k", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        for line in lines:
            query, rank, neighbor, sim = line.split("\t")
            assert rank in {"1", "2"}
            assert query != neighbor
            assert -1.0 <= float(sim) <= 1.0

    def test_single_query(self, embedding_file, capsys):
        code = main(["neighbors", "--input", str(embedding_file), "--query", "p1", "--k", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("p1\t") for line in lines)
        ranks = [int(line.split("\t")[1]) for line in lines]
        assert ranks == [1, 2]
        sims = [float(line.split("\t")[3]) for line in lines]
        assert sims == sorted(sims, reverse=True)

    def test_output_file(self, embedding_file, tmp_path, capsys):
        out = tmp_path / "nn.tsv"
        code = main(
            ["neighbors", "--input", str(embedding_file), "--all", "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 12
        assert "neighbor lines" in capsys.readouterr().err

    def test_candidate_restriction(self, embedding_file, tmp_path, capsys):
        pool = tmp_path / "pool.txt"
        pool.write_text("# allowed\np3 p4\n", encoding="utf-8")
        code = main(
            [
                "neighbors",
                "--input",
                str(embedding_file),
                "--query",
                "p1",
                "--k",
                "5",
                "--candidates",
                str(pool),
            ]
        )
        assert code == 0
        neighbors = {line.split("\t")[2] for line in capsys.readouterr().out.splitlines()}
        assert neighbors <= {"p3", "p4"}

    def test_code_starting_with_hash_round_trips(self, tmp_path, capsys):
        # Only whole lines that start with '#' are comments; '#b' inside a
        # basket line is a product code, and its embedding row starts with '#'.
        baskets = tmp_path / "b.txt"
        baskets.write_text("a #b\nc #b\na c\n# a comment\n", encoding="utf-8")
        space = tmp_path / "b.emb"
        assert main(["embed", "--input", str(baskets), "--output", str(space), "--dim", "4"]) == 0
        rows = space.read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(row.split()[0] for row in rows) == ["#b", "a", "c"]
        capsys.readouterr()
        assert main(["neighbors", "--input", str(space), "--query", "#b", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [["#b", "1"], ["#b", "2"]]
        assert {line.split("\t")[2] for line in lines} == {"a", "c"}

    def test_candidate_comment_line_naming_an_embedded_code_warns(self, tmp_path, capsys):
        # The line '#b c' stays a comment, so the pool is empty and stdout
        # is unchanged, but '#b' is a product of the space: say so once.
        baskets = tmp_path / "b.txt"
        baskets.write_text("a #b\nc #b\na c\nd a\n", encoding="utf-8")
        space = tmp_path / "b.emb"
        assert main(["embed", "--input", str(baskets), "--output", str(space), "--dim", "4"]) == 0
        pool = tmp_path / "pool.txt"
        pool.write_text("# not a code\n#b c\n", encoding="utf-8")
        capsys.readouterr()
        args = ["neighbors", "--input", str(space), "--query", "a", "--k", "3"]
        assert main(args + ["--candidates", str(pool)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"warning: {pool}: line 2 skipped as a comment, "
            "but its first token '#b' is an embedded product code\n"
        )
        pool.write_text("c #b\n", encoding="utf-8")
        assert main(args + ["--candidates", str(pool)]) == 0
        captured = capsys.readouterr()
        assert sorted(line.split("\t")[2] for line in captured.out.splitlines()) == ["#b", "c"]
        assert captured.err == ""

    def test_unknown_query_exits_3(self, embedding_file, capsys):
        code = main(["neighbors", "--input", str(embedding_file), "--query", "p9"])
        assert code == 3
        err = capsys.readouterr().err
        assert "p9" in err
        assert "nearest known codes" in err

    def test_query_and_all_are_exclusive(self, embedding_file):
        with pytest.raises(SystemExit):
            main(["neighbors", "--input", str(embedding_file), "--query", "p1", "--all"])

    def test_requires_query_or_all(self, embedding_file):
        with pytest.raises(SystemExit):
            main(["neighbors", "--input", str(embedding_file)])


def write_rows(path, codes, vectors):
    """An embedding file at full double precision, so last-bit differences
    between similarity paths can reach the printed digits."""
    lines = [f"{len(codes)} {vectors.shape[1]}"]
    lines += [c + " " + " ".join(repr(float(x)) for x in row) for c, row in zip(codes, vectors)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestNeighborsKernel:
    """One blocked kernel serves --query and --all; the file is large enough
    (n=600) for three row blocks."""

    @pytest.fixture
    def wide_embedding(self, tmp_path):
        rng = np.random.default_rng(600)
        codes = [f"p{i:03d}" for i in range(600)]
        return codes, write_rows(tmp_path / "wide.emb", codes, rng.normal(size=(600, 64)))

    @pytest.mark.parametrize("with_candidates", [False, True])
    def test_query_lines_equal_all_lines(self, wide_embedding, tmp_path, capsys, with_candidates):
        codes, path = wide_embedding
        extra = []
        if with_candidates:
            pool = tmp_path / "pool.txt"
            pool.write_text(" ".join(codes[1::4]) + "\n", encoding="utf-8")
            extra = ["--candidates", str(pool)]
        base = ["neighbors", "--input", str(path), "--k", "4", *extra]
        assert main([*base, "--all"]) == 0
        by_query = {}
        for line in capsys.readouterr().out.splitlines(keepends=True):
            by_query.setdefault(line.split("\t", 1)[0], []).append(line)
        assert len(by_query) == 600
        for i in (0, 1, 217, 218, 219, 435, 436, 598, 599):
            assert main([*base, "--query", codes[i]]) == 0
            assert capsys.readouterr().out == "".join(by_query[codes[i]])

    def test_nan_row_and_extra_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.emb"
        path.write_text("3 2\np1 nan 0\np2 1 0\np3 0 1\nextra 5 5\n", encoding="utf-8")
        assert main(["neighbors", "--input", str(path), "--query", "p2", "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN or infinite" in captured.err

    def test_inf_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.emb"
        path.write_text("3 2\np1 1 0\np2 inf 0\np3 0 1\n", encoding="utf-8")
        assert main(["neighbors", "--input", str(path), "--all"]) == 2
        assert capsys.readouterr().out == ""

    def test_extra_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.emb"
        path.write_text("2 2\np1 1 0\np2 0 1\nextra 5 5\n", encoding="utf-8")
        assert main(["neighbors", "--input", str(path), "--all"]) == 2
        assert "beyond" in capsys.readouterr().err


class TestPinnedOutputs:
    """Output bytes of `neighbors --all` and `eval` on a fixed planted
    market: 400 products, so the kernel runs two row blocks."""

    @pytest.fixture(scope="class")
    def market(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        baskets = root / "m.txt"
        assert main(
            ["synth", "--output", str(baskets), "--themes", "8", "--groups", "5",
             "--group-size", "10", "--baskets", "4000", "--seed", "5"]
        ) == 0
        space = root / "m.emb"
        assert main(
            ["embed", "--input", str(baskets), "--output", str(space), "--dim", "16",
             "--seed", "1"]
        ) == 0
        codes = [line.split()[0] for line in space.read_text(encoding="utf-8").splitlines()[1:]]
        pool = root / "pool.txt"
        pool.write_text(" ".join(codes[::3]) + "\n", encoding="utf-8")
        return baskets, space, pool

    @pytest.mark.parametrize("k, with_candidates", sorted(PINNED_NEIGHBORS_SHA256))
    def test_neighbors_bytes_are_pinned(self, market, tmp_path, k, with_candidates):
        assert 2 <= _ARGMAX_MAX_K < 9
        _, space, pool = market
        out = tmp_path / "nn.tsv"
        extra = ["--candidates", str(pool)] if with_candidates else []
        code = main(
            ["neighbors", "--input", str(space), "--all", "--k", str(k),
             "--output", str(out), *extra]
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_NEIGHBORS_SHA256[k, with_candidates]

    def test_eval_report_bytes_are_pinned(self, market, tmp_path):
        baskets, _, _ = market
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--input", str(baskets), "--output", str(out), "--dim", "16",
             "--seed", "1"]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_EVAL_SHA256


class TestSynth:
    def test_writes_baskets_and_default_truth(self, tmp_path, capsys):
        out = tmp_path / "market.txt"
        code = main(
            [
                "synth", "--output", str(out), "--themes", "3", "--groups", "4",
                "--group-size", "4", "--baskets", "500", "--seed", "1",
            ]
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 500
        truth = tmp_path / "market.txt.truth"
        lines = truth.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 * 4 * 4
        assert all(len(line.split()) == 3 for line in lines)
        err = capsys.readouterr().err
        assert "wrote 500 baskets over 48 products" in err

    def test_explicit_truth_path(self, tmp_path):
        out = tmp_path / "m.txt"
        truth = tmp_path / "labels.txt"
        code = main(
            [
                "synth", "--output", str(out), "--truth", str(truth), "--themes", "2",
                "--groups", "2", "--group-size", "2", "--baskets", "50",
            ]
        )
        assert code == 0
        assert truth.exists()
        assert not (tmp_path / "m.txt.truth").exists()

    def test_deterministic_per_seed(self, tmp_path):
        args = [
            "--themes", "2", "--groups", "3", "--group-size", "3",
            "--baskets", "200", "--seed", "7",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["synth", "--output", str(a)] + args) == 0
        assert main(["synth", "--output", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.truth").read_bytes() == (tmp_path / "b.txt.truth").read_bytes()

    def test_pair_market_has_two_item_baskets(self, tmp_path):
        out = tmp_path / "pairs.txt"
        code = main(
            [
                "synth", "--output", str(out), "--themes", "2", "--groups", "2",
                "--group-size", "2", "--baskets", "100", "--pick-prob", "1.0",
            ]
        )
        assert code == 0
        for line in out.read_text(encoding="utf-8").splitlines():
            assert len(line.split()) == 2

    def test_default_scale(self, tmp_path, capsys):
        out = tmp_path / "default.txt"
        code = main(["synth", "--output", str(out)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 50_000
        truth_lines = (tmp_path / "default.txt.truth").read_text(encoding="utf-8").splitlines()
        assert len(truth_lines) == 20 * 4 * 8

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        code = main(
            ["synth", "--output", str(tmp_path / "m.txt"), "--pick-prob", "0.0"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def market_files(self, tmp_path):
        out = tmp_path / "market.txt"
        code = main(
            [
                "synth", "--output", str(out), "--themes", "3", "--groups", "4",
                "--group-size", "6", "--baskets", "3000", "--seed", "0",
            ]
        )
        assert code == 0
        return out

    def test_json_to_stdout(self, market_files, capsys):
        code = main(
            ["eval", "--input", str(market_files), "--dim", "32", "--seed", "0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["n_embedded"] == 3 * 4 * 6
        assert report["n_queries"] == report["n_embedded"]
        assert report["substitutes"]["hits_at_k"] > report["random_baseline"]["substitute_hits_at_k"]
        assert "benchmark finished" in captured.err

    def test_report_files(self, market_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "eval", "--input", str(market_files), "--output", str(out),
                "--dim", "32", "--seed", "0",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["config"]["dimension"] == 32
        table = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "weighted accuracy" in table

    def test_missing_truth_product_exits_4(self, market_files, capsys):
        truth_path = market_files.parent / "market.txt.truth"
        lines = truth_path.read_text(encoding="utf-8").splitlines()
        truth_path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        code = main(["eval", "--input", str(market_files), "--dim", "16"])
        assert code == 4
        err = capsys.readouterr().err
        assert "missing from the truth file" in err
        assert lines[0].split()[0] in err

    def test_report_equals_library_run_on_code_baskets(self, market_files, tmp_path):
        # The CLI parses the basket file; here the library parses the same
        # baskets given as lists of codes. The reports must agree.
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--input", str(market_files), "--output", str(out), "--dim", "16",
             "--chunks", "2", "--seed", "3"]
        )
        assert code == 0
        baskets = [line.split() for line in market_files.read_text(encoding="utf-8").splitlines()]
        with open(market_files.parent / "market.txt.truth", encoding="utf-8") as fh:
            membership = read_truth(fh)
        graph = expand_hyperedges(*parse_baskets(" ".join(b) for b in baskets))
        report = benchmark_baskets(
            graph, membership, BenchmarkConfig(dimension=16, chunks=2, seed=3)
        )
        assert out.read_text(encoding="utf-8") == report.to_json() + "\n"

    def test_repeated_truth_code_exits_2(self, tmp_path, capsys):
        baskets = tmp_path / "b.txt"
        baskets.write_text("a b\n", encoding="utf-8")
        truth = tmp_path / "t.txt"
        truth.write_text("a 0 0\nb 0 1\n# moved\na 1 1\n", encoding="utf-8")
        code = main(["eval", "--input", str(baskets), "--truth", str(truth), "--dim", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "line 1" in err and "'a'" in err

    @pytest.mark.parametrize(
        "truth, relation, named",
        [
            ("a 0 0\nb 0 0\nc 0 1\nd 0 2\n", "substitute", "c, d"),
            ("a 0 0\nb 0 0\nc 0 0\nd 0 0\n", "complement", "a, b, c, d"),
        ],
        ids=["substitute", "complement"],
    )
    def test_empty_truth_set_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, truth, relation, named
    ):
        from basketspace import evaluation

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(evaluation, "train", no_train)
        baskets = tmp_path / "b.txt"
        baskets.write_text("a b c\na c\nb d\nc d\n", encoding="utf-8")
        truth_path = tmp_path / "t.txt"
        truth_path.write_text(truth, encoding="utf-8")
        code = main(["eval", "--input", str(baskets), "--truth", str(truth_path), "--dim", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"no {relation} truth" in err
        assert named in err

    def test_explicit_truth_flag(self, market_files, tmp_path):
        moved = tmp_path / "labels.txt"
        moved.write_bytes((market_files.parent / "market.txt.truth").read_bytes())
        code = main(
            ["eval", "--input", str(market_files), "--truth", str(moved), "--dim", "16"]
        )
        assert code == 0


class TestInvalidUtf8:
    """An input file that is not UTF-8 exits 2 with its name, whichever
    reader meets it."""

    GOOD = {
        "baskets.txt": b"a b\nc d\na c\nb d\n",
        "truth.txt": b"a 0 0\nb 0 0\nc 0 1\nd 0 1\n",
        "space.emb": b"2 2\na 0.1 0.2\nb 0.3 0.4\n",
        "candidates.txt": b"a\nb\n",
    }
    BAD = {
        "baskets.txt": b"a b\n\xff c\n",
        "truth.txt": b"a 0 0\n\xff 0 0\n",
        "space.emb": b"2 2\na 0.1 0.2\n\xff 0.3 0.4\n",
        "candidates.txt": b"a\n\xff\n",
    }

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("embed", "baskets.txt"),
            ("eval", "baskets.txt"),
            ("eval", "truth.txt"),
            ("neighbors", "space.emb"),
            ("neighbors", "candidates.txt"),
        ],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, bad):
        for name, data in self.GOOD.items():
            (tmp_path / name).write_bytes(self.BAD[name] if name == bad else data)
        path = {name: str(tmp_path / name) for name in self.GOOD}
        argv = {
            "embed": ["embed", "--input", path["baskets.txt"], "--output", str(tmp_path / "o.emb")],
            "eval": ["eval", "--input", path["baskets.txt"], "--truth", path["truth.txt"], "--dim", "4"],
            "neighbors": [
                "neighbors", "--input", path["space.emb"], "--all",
                "--candidates", path["candidates.txt"],
            ],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path[bad]}: not UTF-8 text")
        assert "0xff" in err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "basketspace", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        for command in ("embed", "neighbors", "synth", "eval"):
            assert command in result.stdout

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
