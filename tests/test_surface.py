"""The package's public names, the functions the benchmark traces by name,
and where the comment rule is spelled."""

import ast
import importlib
import pathlib
import types

import pytest

import basketspace


def test_public_names_are_pinned():
    # The API the README documents; training stages stay in their module.
    assert sorted(basketspace.__all__) == [
        "Baskets",
        "BasketspaceError",
        "BenchmarkConfig",
        "COMPLEMENT_ITERATIONS",
        "ConfigurationMismatchWarning",
        "CooccurrenceGraph",
        "DEFAULT_DIMENSION",
        "DataInconsistencyError",
        "EmbeddingMatrix",
        "EmptyGraphError",
        "EvalReport",
        "InternalConsistencyError",
        "InvalidParameterError",
        "MalformedInputError",
        "SUBSTITUTE_ITERATIONS",
        "SyntheticMarket",
        "UnknownProductError",
        "benchmark_baskets",
        "expand_hyperedges",
        "generate_synthetic_market",
        "pair_order_agreement",
        "parse_baskets",
        "random_hit_expectation",
        "random_recommender",
        "read_embedding",
        "read_truth",
        "recommend_complements",
        "recommend_substitutes",
        "run_benchmark",
        "top_k_batch",
        "train",
        "weighted_accuracy",
        "write_embedding",
        "write_neighbors",
    ]
    for name in basketspace.__all__:
        assert hasattr(basketspace, name), name


# perfbench/layers.py times these functions by wrapping them, by name, in
# the modules that bind them. A renamed or deleted one is silently reported
# as a layer that takes 0 s, so the names are listed here literally rather
# than read from layers.py.
TRACED = [
    ("ingest", "parse_baskets"),
    ("ingest", "expand_hyperedges"),
    ("embedding", "partition_chunks"),
    ("embedding", "build_transition"),
    ("embedding", "init_embedding"),
    ("embedding", "iterate"),
    ("embedding", "train"),
    ("embedding", "write_embedding"),
    ("embedding", "read_embedding"),
    ("neighbors", "random_recommender"),
    ("neighbors", "write_neighbors"),
    ("evaluation", "benchmark_baskets"),
    ("cli", "main"),
]


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_stage_is_a_module_function(module, name):
    namespace = vars(importlib.import_module(f"basketspace.{module}"))
    assert isinstance(namespace.get(name), types.FunctionType)


def test_comment_rule_is_spelled_in_one_place():
    # Every "#" or " #" literal in the package: the line-at-a-time rule,
    # its batched form in parse_baskets, and the embedding reader's refusal
    # of codes that start with "#" (batched and per line). A reader with a
    # rule of its own would add a function here.
    found = set()
    for path in pathlib.Path(basketspace.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Constant) and inner.value in ("#", " #"):
                        found.add((path.stem, node.name))
    assert found == {
        ("ingest", "_content_lines"),
        ("ingest", "parse_baskets"),
        ("embedding", "read_embedding"),
        ("embedding", "_read_rows"),
    }
