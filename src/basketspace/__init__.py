"""Product embeddings from transaction baskets, with substitute and
complement mining and a synthetic-market evaluation harness.

Typical flow: parse baskets, expand them into a co-occurrence graph,
train two embedding spaces (six iterations for substitutes, one for
complements), then query cosine nearest neighbors.
"""

from .embedding import (
    COMPLEMENT_ITERATIONS,
    DEFAULT_DIMENSION,
    SUBSTITUTE_ITERATIONS,
    EmbeddingMatrix,
    read_embedding,
    train,
    write_embedding,
)
from .errors import (
    BasketspaceError,
    ConfigurationMismatchWarning,
    DataInconsistencyError,
    EmptyGraphError,
    InternalConsistencyError,
    InvalidParameterError,
    MalformedInputError,
    UnknownProductError,
)
from .evaluation import (
    BenchmarkConfig,
    EvalReport,
    SyntheticMarket,
    benchmark_baskets,
    generate_synthetic_market,
    random_hit_expectation,
    read_truth,
    weighted_accuracy,
)
from .ingest import (
    Baskets,
    CooccurrenceGraph,
    expand_hyperedges,
    parse_baskets,
)
from .neighbors import (
    random_recommender,
    recommend_complements,
    recommend_substitutes,
    top_k_batch,
    write_neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "Baskets",
    "BasketspaceError",
    "BenchmarkConfig",
    "ConfigurationMismatchWarning",
    "CooccurrenceGraph",
    "COMPLEMENT_ITERATIONS",
    "DataInconsistencyError",
    "DEFAULT_DIMENSION",
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
    "parse_baskets",
    "random_hit_expectation",
    "random_recommender",
    "read_embedding",
    "read_truth",
    "recommend_complements",
    "recommend_substitutes",
    "top_k_batch",
    "train",
    "weighted_accuracy",
    "write_embedding",
    "write_neighbors",
]
