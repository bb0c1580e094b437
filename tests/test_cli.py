"""Command-line interface: subcommands, file outputs, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import basketspace
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
# SHA-256 of the `.txt` table written next to that report, as rendered by
# one `row(...)` call per headline metric.
PINNED_EVAL_TABLE_SHA256 = "a6c8e3873643c165b7652a416b5704f24ee8c13e10cf618a491f38e363a6acf9"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "baskets.txt"
    path.write_text(DEMO_TEXT, encoding="utf-8")
    return path


def child_env() -> dict:
    """This environment with the package's source directory first on
    PYTHONPATH, so that a child interpreter imports the same package, and
    with no bytecode cache written into it."""
    src = os.path.dirname(os.path.dirname(basketspace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(argv, address_space_mb=None, timeout=120, then=""):
    """Run ``main(argv)`` in a child interpreter, with its address space
    capped at ``address_space_mb`` if given; the cap binds the child only.
    ``then`` is code the child runs after ``main`` returns, before it exits
    with main's exit code."""
    script = "import resource, sys\n"
    if address_space_mb is not None:
        limit = address_space_mb * 2**20
        script += f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    script += "from basketspace.cli import main\ncode = main(sys.argv[1:])\n"
    script += f"{then}sys.exit(code)\n"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


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

    def test_output_in_missing_directory_exits_2_before_parsing(
        self, tmp_path, demo_file, capsys, monkeypatch
    ):
        from basketspace import cli

        def no_parse(*args, **kwargs):
            raise AssertionError("the baskets must not be parsed")

        monkeypatch.setattr(cli, "parse_baskets", no_parse)
        out = tmp_path / "nodir" / "x.emb"
        assert main(["embed", "--input", str(demo_file), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert f"{str(out.parent)!r} is not a directory" in err
        assert not out.parent.exists()

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

    def test_code_starting_with_hash_is_refused(self, tmp_path, capsys):
        # A line whose first token starts with '#' is a comment, so no code
        # may start with '#': not in a basket line, not in an embedding row.
        baskets = tmp_path / "b.txt"
        baskets.write_text("a #b\nc #b\na c\n# a comment\n", encoding="utf-8")
        space = tmp_path / "b.emb"
        assert main(["embed", "--input", str(baskets), "--output", str(space), "--dim", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: product code '#b' starts with '#', which marks a comment line\n"
        )
        assert not space.exists()
        space.write_text("2 2\na 0.6 0.8\n#x 0.8 0.6\n", encoding="utf-8")
        assert main(["neighbors", "--input", str(space), "--all"]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: product code '#x' starts with '#', which marks a comment line\n"
        )

    def test_candidate_comment_line_is_skipped_silently(self, tmp_path, capsys):
        # '#b c' is a comment line, so the pool is empty, stdout is empty and
        # nothing is said about it.
        baskets = tmp_path / "b.txt"
        baskets.write_text("a b\nc b\na c\nd a\n", encoding="utf-8")
        space = tmp_path / "b.emb"
        assert main(["embed", "--input", str(baskets), "--output", str(space), "--dim", "4"]) == 0
        pool = tmp_path / "pool.txt"
        pool.write_text("# not a code\n#b c\n", encoding="utf-8")
        capsys.readouterr()
        args = ["neighbors", "--input", str(space), "--query", "a", "--k", "3"]
        assert main(args + ["--candidates", str(pool)]) == 0
        assert capsys.readouterr() == ("", "")
        pool.write_text("  # b\nc b\n", encoding="utf-8")
        assert main(args + ["--candidates", str(pool)]) == 0
        captured = capsys.readouterr()
        assert sorted(line.split("\t")[2] for line in captured.out.splitlines()) == ["b", "c"]
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

    @pytest.mark.parametrize("header", ["3000000 1024", "10000000000 10000000000"])
    def test_huge_header_without_rows_exits_2(self, tmp_path, capsys, header):
        # The declared shape either cannot be allocated, which the reader
        # reports with the shape, or is reserved lazily and the missing rows
        # are reported; neither is an internal error.
        path = tmp_path / "huge.emb"
        path.write_text(header + "\n", encoding="utf-8")
        code = main(["neighbors", "--input", str(path), "--all"])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err
        assert err.startswith("error: ")


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
        table = out.with_suffix(".txt").read_bytes()
        assert hashlib.sha256(table).hexdigest() == PINNED_EVAL_TABLE_SHA256


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

    def test_truth_path_equal_to_output_exits_2(self, tmp_path, capsys, monkeypatch):
        from basketspace import cli

        def no_market(*args, **kwargs):
            raise AssertionError("the market must not be generated")

        monkeypatch.setattr(cli, "generate_synthetic_market", no_market)
        out, truth = str(tmp_path / "m.txt"), f"{tmp_path}/./m.txt"
        assert main(["synth", "--output", out, "--truth", truth]) == 2
        err = capsys.readouterr().err
        assert out in err and truth in err
        assert not (tmp_path / "m.txt").exists()


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

    def test_shallow_substitute_space_warns(self, market_files):
        # The warning goes through the warnings module, so the check runs
        # in a child interpreter, where nothing records or filters it.
        result = run_child(["eval", "--input", str(market_files), "--dim", "8",
                            "--iterations", "2"])
        assert result.returncode == 0, result.stderr
        assert (
            "substitute queries expect an embedding trained with at least 6 iterations"
            in result.stderr
        )
        assert json.loads(result.stdout)["config"]["substitute_iterations"] == 2

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

    def test_code_starting_with_hash_exits_2_at_the_basket_line(self, tmp_path, capsys):
        # Before '#b' was refused, no truth file could list it: its line is
        # a comment, so eval exited 4 with '#b' missing from the truth.
        baskets = tmp_path / "b.txt"
        baskets.write_text("a #b\nc #b\na c\nd a\n", encoding="utf-8")
        truth = tmp_path / "t.txt"
        truth.write_text("a 0 0\n#b 0 0\nc 0 1\nd 0 1\n", encoding="utf-8")
        assert main(["eval", "--input", str(baskets), "--truth", str(truth), "--dim", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: product code '#b' starts with '#', which marks a comment line\n"
        )

    def test_txt_output_exits_2_before_parsing(self, tmp_path, capsys, monkeypatch):
        # The text table goes to the output path with a .txt suffix, which
        # here is the JSON report's own path.
        from basketspace import cli

        def no_parse(*args, **kwargs):
            raise AssertionError("the baskets must not be parsed")

        monkeypatch.setattr(cli, "parse_baskets", no_parse)
        baskets = tmp_path / "b.txt"
        baskets.write_text("a b\n", encoding="utf-8")
        out = tmp_path / "rep.txt"
        assert main(["eval", "--input", str(baskets), "--output", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not out.exists()

    def test_output_in_missing_directory_exits_2_before_parsing(
        self, market_files, tmp_path, capsys, monkeypatch
    ):
        from basketspace import cli

        def no_parse(*args, **kwargs):
            raise AssertionError("the baskets must not be parsed")

        monkeypatch.setattr(cli, "parse_baskets", no_parse)
        out = tmp_path / "nodir" / "r.json"
        assert main(["eval", "--input", str(market_files), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert f"{str(out.parent)!r} is not a directory" in err
        assert not out.parent.exists()

    def test_output_naming_a_directory_exits_2(self, market_files, monkeypatch):
        # "." has no name to put a .txt suffix on; the write fails instead.
        monkeypatch.chdir(market_files.parent)
        assert main(["eval", "--input", str(market_files), "--output", ".", "--dim", "8"]) == 2

    @pytest.mark.parametrize(
        "k, message",
        [("0", "k must be >= 1, got 0"), ("100000", "k=100000 exceeds the 71 available products")],
        ids=["below-one", "above-pool"],
    )
    def test_bad_k_exits_2_before_training(self, market_files, capsys, monkeypatch, k, message):
        from basketspace import evaluation

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(evaluation, "train", no_train)
        assert main(["eval", "--input", str(market_files), "--k", k]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_explicit_truth_flag(self, market_files, tmp_path):
        moved = tmp_path / "labels.txt"
        moved.write_bytes((market_files.parent / "market.txt.truth").read_bytes())
        code = main(
            ["eval", "--input", str(market_files), "--truth", str(moved), "--dim", "16"]
        )
        assert code == 0


class TestOutputPreflight:
    """Every command refuses an output it cannot write before it reads any
    input."""

    @pytest.mark.parametrize("command", ["embed", "neighbors", "synth", "eval"])
    @pytest.mark.parametrize("target", ["in-missing-directory", "existing-directory"])
    def test_unwritable_output_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, command, target
    ):
        # The input does not exist, and synth's generator fails.
        from basketspace import cli

        def no_market(*args, **kwargs):
            raise AssertionError("the market must not be generated")

        monkeypatch.setattr(cli, "generate_synthetic_market", no_market)
        if target == "in-missing-directory":
            out = tmp_path / "nodir" / "out.json"
        else:
            out = tmp_path / "out"
            out.mkdir()
        missing = ["--input", str(tmp_path / "no-such-input.txt")]
        argv = [command, "--output", str(out)] + {
            "embed": missing,
            "neighbors": missing + ["--all"],
            "synth": [],
            "eval": missing,
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}: ")
        assert err.endswith(" a directory\n")

    @pytest.mark.parametrize(
        "args, output, clobbered",
        [
            ("embed --input b.txt", "./b.txt", "b.txt"),
            ("neighbors --input e.txt --all", "./e.txt", "e.txt"),
            ("neighbors --input e.txt --all --candidates c.txt", "./c.txt", "c.txt"),
            ("eval --input b.txt --truth t.txt", "./b.txt", "b.txt"),
            ("eval --input b.txt --truth t.json", "./t.json", "t.json"),
            # The .txt table next to the report m.json would be m.txt.
            ("eval --input m.txt --truth t.txt", "m.json", "m.txt"),
        ],
    )
    def test_output_that_is_an_input_exits_2_leaving_it_unchanged(
        self, tmp_path, capsys, monkeypatch, args, output, clobbered
    ):
        from basketspace import cli

        def no_read(*args, **kwargs):
            raise AssertionError("no input may be read")

        monkeypatch.setattr(cli, "parse_baskets", no_read)
        monkeypatch.setattr(cli, "read_embedding", no_read)
        argv = args.split()
        for i, name in enumerate(argv):
            if "." in name:
                argv[i] = str(tmp_path / name)
                (tmp_path / name).write_text(DEMO_TEXT, encoding="utf-8")
        # "./" spells the input's path another way; the check resolves it.
        assert main(argv + ["--output", f"{tmp_path}/{output}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert err.endswith(f": it is the same file as the input {str(tmp_path / clobbered)!r}\n")
        assert (tmp_path / clobbered).read_text(encoding="utf-8") == DEMO_TEXT
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "args, linked",
        [
            ("embed --input b.txt", "b.txt"),
            ("eval --input b.txt --truth t.txt", "t.txt"),
            ("neighbors --input e.txt --all --candidates c.txt", "c.txt"),
        ],
    )
    def test_output_that_is_a_hard_link_to_an_input_exits_2(
        self, tmp_path, capsys, args, linked
    ):
        argv = args.split()
        for i, name in enumerate(argv):
            if "." in name:
                argv[i] = str(tmp_path / name)
                (tmp_path / name).write_text(DEMO_TEXT, encoding="utf-8")
        os.link(tmp_path / linked, tmp_path / "h.txt")
        assert main(argv + ["--output", str(tmp_path / "h.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {str(tmp_path / 'h.txt')!r}: "
            f"it is the same file as the input {str(tmp_path / linked)!r}\n"
        )
        assert (tmp_path / linked).read_text(encoding="utf-8") == DEMO_TEXT


class TestInputsOpenedFirst:
    """A command with two inputs opens both before it parses either, so a
    missing second input is refused before the first is read."""

    @pytest.mark.parametrize("command", ["eval", "neighbors"])
    def test_missing_second_input_exits_2_before_parsing(
        self, tmp_path, demo_file, capsys, monkeypatch, command
    ):
        from basketspace import cli

        def no_read(*args, **kwargs):
            raise AssertionError("no input may be parsed")

        monkeypatch.setattr(cli, "parse_baskets", no_read)
        monkeypatch.setattr(cli, "read_embedding", no_read)
        missing = tmp_path / "nofile.txt"
        argv = {
            "eval": ["eval", "--input", str(demo_file), "--truth", str(missing)],
            "neighbors": [
                "neighbors", "--input", str(demo_file), "--all", "--candidates", str(missing),
            ],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        )


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


class TestStartup:
    """Each command in a fresh interpreter: none imports scipy.sparse (the
    multiply loads only scipy's compiled CSR kernel), neighbors loads no
    scipy at all, a one-thread run starts no thread pool, and only a write
    builds the embedding writer's digit tables."""

    @pytest.fixture
    def files(self, tmp_path, demo_file):
        truth = tmp_path / "baskets.txt.truth"
        truth.write_text("p1 0 0\np2 0 0\np3 0 1\np4 0 1\np5 0 2\np6 0 2\n", encoding="utf-8")
        emb = tmp_path / "demo.emb"
        assert main(["embed", "--input", str(demo_file), "--output", str(emb), "--dim", "8"]) == 0
        return demo_file, emb

    @pytest.mark.parametrize("command", ["neighbors", "embed", "eval"])
    def test_modules_loaded_by_a_command(self, tmp_path, files, command):
        baskets, emb = files
        argv = {
            "neighbors": ["neighbors", "--all", "--input", str(emb), "--k", "2"],
            "embed": ["embed", "--input", str(baskets), "--output", str(tmp_path / "e.emb"),
                      "--dim", "8", "--threads", "1"],
            "eval": ["eval", "--input", str(baskets), "--output", str(tmp_path / "r.json"),
                     "--dim", "8", "--threads", "1"],
        }[command]
        names = ("scipy", "scipy.sparse", "concurrent.futures")
        result = run_child(argv, then=f"print(*(m for m in {names!r} if m in sys.modules))\n")
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert "scipy.sparse" not in loaded
        assert "concurrent.futures" not in loaded
        if command == "neighbors":
            assert "scipy" not in loaded


    def test_digit_tables_are_built_by_the_first_write(self, tmp_path, files):
        # The child imports basketspace.cli before main runs, so a neighbors
        # run without the tables also shows that start-up does not build them.
        baskets, emb = files
        check = "print(sys.modules['basketspace.embedding']._DIGIT_TABLES is None)\n"
        runs = [
            (["neighbors", "--all", "--input", str(emb), "--output", str(tmp_path / "n.tsv")], "True"),
            (["embed", "--input", str(baskets), "--output", str(tmp_path / "e.emb"), "--dim", "8"],
             "False"),
        ]
        for argv, unbuilt in runs:
            result = run_child(argv, then=check)
            assert result.returncode == 0, result.stderr
            assert result.stdout.split() == [unbuilt], argv[0]


class TestOutOfMemory:
    def test_exits_2_naming_the_command(self, tmp_path):
        # One line of 5,000 distinct codes is within the default
        # --max-basket-size, and its 12.5 million pairs need hundreds of MB.
        # The child caps only its own address space, at 300 MB.
        baskets = tmp_path / "wide.txt"
        baskets.write_text(" ".join(f"c{i}" for i in range(5000)) + "\n", encoding="utf-8")
        result = run_child(
            ["embed", "--input", str(baskets), "--output", str(tmp_path / "out.emb"),
             "--dim", "8"],
            address_space_mb=300,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: out of memory during embed: ")
        assert not (tmp_path / "out.emb").exists()


class TestOversizeValues:
    """Flag values too large for numpy, or a negative synth seed, end in a
    clean exit rather than exit 1."""

    @pytest.fixture
    def baskets(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("a b c\nb c\na d\n", encoding="utf-8")
        return path

    def test_embed_chunk_count_beyond_crc32_range(self, baskets, tmp_path):
        outs = []
        for chunks in ("4294967296", "100000000000000000000"):
            outs.append(tmp_path / f"emb_{chunks}.txt")
            argv = ["embed", "--input", str(baskets), "--output", str(outs[-1])]
            assert main(argv + ["--dim", "4", "--chunks", chunks]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_eval_chunk_count_beyond_crc32_range(self, baskets, tmp_path):
        truth = tmp_path / "t.txt"
        truth.write_text("a 0 0\nb 0 1\nc 0 0\nd 0 1\n", encoding="utf-8")
        outs = []
        for chunks in ("4294967296", "100000000000000000000"):
            outs.append(tmp_path / f"report_{chunks}.json")
            argv = ["eval", "--input", str(baskets), "--truth", str(truth)]
            assert main(argv + ["--dim", "4", "--chunks", chunks, "--output", str(outs[-1])]) == 0
        reports = [json.loads(out.read_text(encoding="utf-8")) for out in outs]
        # Only the recorded chunk count differs.
        assert reports[1]["config"]["chunks"] == 10**20
        reports[1]["config"]["chunks"] = 2**32
        assert reports[0] == reports[1]

    def test_embed_dimension_too_large_exits_2(self, baskets, tmp_path, capsys):
        code = main(
            ["embed", "--input", str(baskets), "--output", str(tmp_path / "o.txt"),
             "--dim", "100000000000000000000"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: embedding shape 4 x 100000000000000000000 does not fit in memory\n"
        )
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize(
        "flags, shape",
        [
            (["--baskets", "100000000000000000000"], "100000000000000000000 baskets x 4 groups"),
            (["--baskets", "10000000000"], "10000000000 baskets x 4 groups"),
            (["--group-size", "100000000000000000000", "--themes", "1", "--groups", "2",
              "--baskets", "5"], "200000000000000000000 products"),
            (["--group-size", "1000000000", "--themes", "1", "--groups", "2",
              "--baskets", "5"], "2000000000 products"),
        ],
    )
    def test_synth_sizes_beyond_memory_exit_2(self, tmp_path, flags, shape):
        # The first two sizes overflow numpy's shape limit, the others only
        # the 300 MB address space of the child; each is refused before
        # anything of its size is built, and no file is written.
        out = tmp_path / "m.txt"
        argv = ["synth", "--output", str(out), *flags]
        result = run_child(argv, address_space_mb=300, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: a market of {shape} does not fit in memory\n"
        assert not out.exists()

    def test_synth_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--output", str(tmp_path / "m.txt"), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "basketspace", "--help"],
            env=child_env(),
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
