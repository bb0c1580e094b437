"""The three benchmark workloads: their inputs, their command and their checks.

Each workload makes its inputs from the seed with ``market.planted_market``
(never with the program's own generator), names one ``basketspace`` command
that reads only those files, and checks each output it produces against
properties the benchmark works out on its own, not against a stored copy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from market import planted_market, random_hits_expectation

K = 2


def read_embedding_file(path):
    """Parse the ``<n> <d>`` header plus ``<code> <v1> .. <vd>`` text format."""
    with open(path, encoding="utf-8") as stream:
        n, d = (int(x) for x in stream.readline().split())
        lines = stream.read().splitlines()
    codes = [line.split(" ", 1)[0] for line in lines]
    vectors = np.array(
        [line.split(" ", 1)[1].split() for line in lines], dtype=np.float64
    ).reshape(len(lines), -1)
    return n, d, codes, vectors


def cosine_matrix(vectors):
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return unit @ unit.T


def top_k(sims, k):
    """Row-wise indices of the k largest off-diagonal entries, best first."""
    sims = sims.copy()
    np.fill_diagonal(sims, -np.inf)
    part = np.argpartition(-sims, k, axis=1)[:, :k]
    order = np.argsort(-np.take_along_axis(sims, part, axis=1), axis=1)
    return np.take_along_axis(part, order, axis=1)


class Workload:
    """A command over generated inputs plus the checks on its output."""

    name = ""
    output_name = "out"
    check_names: tuple[str, ...] = ()

    def prepare(self, workdir: Path, seed: int, run_cli) -> None:
        raise NotImplementedError

    def argv(self, output: Path) -> list[str]:
        raise NotImplementedError

    def check(self, output: Path) -> list[tuple[str, bool, str]]:
        """Verdicts (check name, passed, detail), the same names every time."""
        raise NotImplementedError


class EmbedSharded(Workload):
    """``embed`` at Q=4 on 100,000 baskets over 5,000 products."""

    name = "embed-sharded"
    output_name = "out.emb"
    check_names = ("rows", "unit_norm", "same_group_hits")
    SHAPE = dict(themes=125, groups=4, group_size=10, baskets=100_000)

    def prepare(self, workdir, seed, run_cli):
        market = planted_market(seed=seed, **self.SHAPE)
        self.baskets = workdir / "embed_baskets.txt"
        market.write_baskets(self.baskets)
        self.expected_codes = {market.code(p) for p in np.flatnonzero(market.connected())}
        self.group_of = {market.code(p): g for p, g in enumerate(market.group_of())}
        sub_sizes, _ = market.truth_sizes()
        self.random_rate, _ = random_hits_expectation(len(sub_sizes) - 1, sub_sizes, K)

    def argv(self, output):
        return ["embed", "--input", str(self.baskets), "--output", str(output),
                "--dim", "128", "--iterations", "6", "--chunks", "4", "--threads", "1"]

    def check(self, output):
        n, d, codes, vectors = read_embedding_file(output)
        rows_ok = (
            n == len(codes) == len(self.expected_codes)
            and set(codes) == self.expected_codes
            and vectors.shape == (n, d) and d == 128
        )
        norms = np.linalg.norm(vectors, axis=1)
        finite = bool(np.isfinite(vectors).all())
        worst = float(np.abs(norms - 1.0).max()) if finite else float("inf")
        groups = np.array([self.group_of[c] for c in codes])
        nearest = top_k(cosine_matrix(vectors), K)
        hit = float((groups[nearest] == groups[:, None]).any(axis=1).mean())
        # Today about 0.5 against a random rate of about 0.004.
        quality_ok = hit >= 0.25 and hit >= 20 * self.random_rate
        return [
            ("rows", rows_ok, f"{n} rows of d={d}, {len(self.expected_codes)} connected products"),
            ("unit_norm", finite and worst <= 1e-6, f"finite={finite}, max |norm-1|={worst:.3g}"),
            ("same_group_hits", quality_ok,
             f"top-{K} same-group hit rate {hit:.4f}, random {self.random_rate:.4f}"),
        ]


class NeighborsAll(Workload):
    """``neighbors --all`` on a 2,000-product, d=128 file trained in set-up."""

    name = "neighbors-all"
    output_name = "out.tsv"
    check_names = ("lines", "similarity", "order", "exact_top_k")
    SHAPE = dict(themes=50, groups=4, group_size=10, baskets=60_000)

    def prepare(self, workdir, seed, run_cli):
        market = planted_market(seed=seed, **self.SHAPE)
        baskets = workdir / "neighbors_baskets.txt"
        market.write_baskets(baskets)
        self.embedding = workdir / "neighbors.emb"
        run_cli(["embed", "--input", str(baskets), "--output", str(self.embedding),
                 "--dim", "128", "--iterations", "6", "--chunks", "1", "--threads", "1"])
        _, _, self.codes, vectors = read_embedding_file(self.embedding)
        self.index = {c: i for i, c in enumerate(self.codes)}
        self.sims = cosine_matrix(vectors)
        best = top_k(self.sims, K)
        self.kth_best = np.take_along_axis(self.sims, best, axis=1)

    def argv(self, output):
        return ["neighbors", "--input", str(self.embedding), "--all",
                "--k", str(K), "--output", str(output)]

    def check(self, output):
        # A malformed line or an unknown code raises, which fails every check.
        with open(output, encoding="utf-8") as stream:
            rows = [line.rstrip("\n").split("\t") for line in stream]
        lists = {}
        for query, rank, code, sim in rows:
            lists.setdefault(query, []).append((int(rank), self.index[code], float(sim)))
        n = len(self.codes)
        lines_ok = len(rows) == n * K and lists.keys() == self.index.keys()
        worst = 0.0
        order_ok = exact_ok = True
        for query, entries in lists.items():
            q = self.index[query]
            ranks, picks, reported = (list(column) for column in zip(*entries))
            lines_ok &= ranks == list(range(1, K + 1))
            true = self.sims[q, picks]
            worst = max(worst, float(np.abs(true - reported).max()))
            order_ok &= q not in picks and len(set(picks)) == len(picks) and all(
                a >= b for a, b in zip(reported, reported[1:])
            )
            exact_ok &= bool((true >= self.kth_best[q, : len(picks)] - 1e-9).all())
        return [
            ("lines", lines_ok, f"{len(rows)} lines for {n} products at k={K}"),
            ("similarity", worst <= 1e-8, f"max |reported - recomputed| {worst:.3g}"),
            ("order", order_ok, "non-increasing, distinct, query excluded"),
            ("exact_top_k", exact_ok, "every rank-r similarity >= true r-th best - 1e-9"),
        ]


class EvalMarket(Workload):
    """``eval`` at d=128 on 100,000 baskets over 1,280 products."""

    name = "eval-market"
    output_name = "report.json"
    check_names = ("counts", "planted_recovery", "random_baseline")
    SHAPE = dict(themes=40, groups=4, group_size=8, baskets=100_000)

    def prepare(self, workdir, seed, run_cli):
        market = planted_market(seed=seed, **self.SHAPE)
        self.baskets = workdir / "eval_baskets.txt"
        self.truth = workdir / "eval_truth.txt"
        market.write_baskets(self.baskets)
        market.write_truth(self.truth)
        sub_sizes, comp_sizes = market.truth_sizes()
        self.n = len(sub_sizes)
        self.sub_random = random_hits_expectation(self.n - 1, sub_sizes, K)
        self.comp_random = random_hits_expectation(self.n - 1, comp_sizes, K)

    def argv(self, output):
        return ["eval", "--input", str(self.baskets), "--truth", str(self.truth),
                "--output", str(output), "--dim", "128", "--threads", "1"]

    def check(self, output):
        report = json.loads(Path(output).read_text(encoding="utf-8"))
        sub = report["substitutes"]["hits_at_k"]
        comp = report["complements"]["hits_at_k"]
        rb = report["random_baseline"]
        z_sub = (rb["substitute_hits_at_k"] - self.sub_random[0]) / self.sub_random[1]
        z_comp = (rb["complement_hits_at_k"] - self.comp_random[0]) / self.comp_random[1]
        return [
            ("counts", report["n_embedded"] == report["n_queries"] == self.n,
             f"n_embedded {report['n_embedded']}, n_queries {report['n_queries']}, expected {self.n}"),
            ("planted_recovery", sub >= 0.8 and comp >= 0.6,
             f"substitute Hits@{K} {sub:.4f} (>= 0.8), complement {comp:.4f} (>= 0.6)"),
            ("random_baseline", abs(z_sub) <= 4 and abs(z_comp) <= 4,
             f"random Hits@{K} z-scores {z_sub:+.2f} / {z_comp:+.2f} (|z| <= 4)"),
        ]


WORKLOADS = {w.name: w for w in (EmbedSharded, NeighborsAll, EvalMarket)}
