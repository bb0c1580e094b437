"""The traced layers and the per-layer metrics their spans give.

Each key is a public basketspace function that the traced child wraps
(``main`` is ``basketspace.cli.main``). Each metric's kind says how it is
taken from that function's spans:

- ``s``: the summed self time, that is span length minus the time its child
  spans cover. ``train`` is the exception: its self time is only loop glue,
  so it reports whole spans.
- ``calls``: the number of spans.
- ``rows``: the summed length of the first argument.
- ``MB``: the summed bytes moved through the stream argument, in 2^20 bytes.
"""

LAYERS = {
    "parse_baskets": {"ingest.parse_s": "s"},
    "expand_hyperedges": {"ingest.expand_s": "s"},
    "partition_chunks": {"embedding.partition_s": "s"},
    "build_transition": {"embedding.transition_s": "s"},
    "init_embedding": {"embedding.init_s": "s", "embedding.init_rows": "rows"},
    "iterate": {"embedding.iterate_s": "s", "embedding.iterate_calls": "calls"},
    "compute_chunk_weights": {"embedding.weights_s": "s"},
    "merge_chunks": {"embedding.merge_s": "s"},
    "train": {"embedding.train_s": "s", "embedding.train_calls": "calls"},
    "write_embedding": {"embedding.write_s": "s", "embedding.write_mb": "MB"},
    "read_embedding": {"embedding.read_s": "s", "embedding.read_mb": "MB"},
    "top_k_neighbors": {"neighbors.topk_s": "s", "neighbors.topk_calls": "calls"},
    "random_recommender": {"neighbors.random_s": "s"},
    "write_neighbors": {"neighbors.write_s": "s"},
    "benchmark_baskets": {"evaluation.loop_self_s": "s"},
    "main": {"cli.self_s": "s"},
}
INCLUSIVE = {"train"}
UNITS = {"s": "s", "calls": "count", "rows": "count", "MB": "MB"}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from spans ``[layer, start, end, parent, count]``.

    A layer without spans, because the command does not reach it or the
    function no longer exists, reads 0.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for i, (layer, start, end, _, count) in enumerate(spans):
        seconds, calls, counted = totals.get(layer, (0.0, 0, 0))
        own = end - start - (0.0 if layer in INCLUSIVE else covered[i])
        totals[layer] = (seconds + own, calls + 1, counted + count)
    out = {}
    for layer, metrics in LAYERS.items():
        seconds, calls, counted = totals.get(layer, (0.0, 0, 0))
        values = {"s": seconds, "calls": calls, "rows": counted, "MB": counted / 2**20}
        out.update({name: values[kind] for name, kind in metrics.items()})
    return out
