"""Seeded planted-market generator, independent of the program under test.

It follows the recipe the basketspace README describes, written afresh here
so that a change to the program's own generator cannot change the inputs:
each trip picks one theme uniformly, includes each of the theme's groups
with probability ``PICK_PROB`` (trips that include no group are redrawn),
and each included group contributes one member. With probability
``AFFINITY`` that member is the trip's style-matched one (a style index
drawn once per trip), otherwise a uniform one.

Product ``(theme, group, member)`` has the id
``(theme * groups + group) * group_size + member`` and the code
``t<theme>g<group>m<member>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PICK_PROB = 0.5
AFFINITY = 0.53


@dataclass
class Market:
    themes: int
    groups: int
    group_size: int
    # (baskets, groups) product ids, -1 where the trip skipped the group.
    picks: np.ndarray

    @property
    def n_products(self) -> int:
        return self.themes * self.groups * self.group_size

    def code(self, pid: int) -> str:
        member = pid % self.group_size
        group = (pid // self.group_size) % self.groups
        theme = pid // (self.group_size * self.groups)
        return f"t{theme}g{group}m{member}"

    def codes(self) -> list[str]:
        return [self.code(p) for p in range(self.n_products)]

    def group_of(self) -> np.ndarray:
        """Global group index (theme * groups + group) of every product id."""
        return np.arange(self.n_products) // self.group_size

    def theme_of(self) -> np.ndarray:
        return np.arange(self.n_products) // (self.group_size * self.groups)

    def connected(self) -> np.ndarray:
        """Boolean mask of products that share a basket with another product.

        Members of one basket come from distinct groups, so they are
        distinct products; a basket with two or more picks links them all.
        """
        multi = self.picks[(self.picks >= 0).sum(axis=1) >= 2]
        mask = np.zeros(self.n_products, dtype=bool)
        mask[multi[multi >= 0]] = True
        return mask

    def truth_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """For each connected product, in id order: how many other connected
        products share its group (substitute truth) and how many connected
        products share its theme but not its group (complement truth)."""
        mask = self.connected()
        group, theme = self.group_of(), self.theme_of()
        per_group = np.bincount(group[mask], minlength=group[-1] + 1)
        per_theme = np.bincount(theme[mask], minlength=theme[-1] + 1)
        return (
            per_group[group[mask]] - 1,
            per_theme[theme[mask]] - per_group[group[mask]],
        )

    def write_baskets(self, path) -> None:
        codes = self.codes()
        with open(path, "w", encoding="utf-8") as out:
            for row in self.picks.tolist():
                out.write(" ".join(codes[p] for p in row if p >= 0) + "\n")

    def write_truth(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for p in range(self.n_products):
                theme = p // (self.group_size * self.groups)
                group = (p // self.group_size) % self.groups
                out.write(f"{self.code(p)} {theme} {group}\n")


def planted_market(
    themes: int, groups: int, group_size: int, baskets: int, seed: int
) -> Market:
    rng = np.random.default_rng(seed)
    chunks = []
    have = 0
    while have < baskets:
        # Overdraw so that one batch nearly always suffices after rejection.
        n = int((baskets - have) / (1.0 - (1.0 - PICK_PROB) ** groups) * 1.1) + 64
        theme = rng.integers(0, themes, n)
        style = rng.integers(0, group_size, n)
        include = rng.random((n, groups)) < PICK_PROB
        styled = rng.random((n, groups)) < AFFINITY
        member = np.where(styled, style[:, None], rng.integers(0, group_size, (n, groups)))
        pid = (theme[:, None] * groups + np.arange(groups)) * group_size + member
        picks = np.where(include, pid, -1)[include.any(axis=1)]
        chunks.append(picks[: baskets - have])
        have += len(chunks[-1])
    return Market(themes, groups, group_size, np.concatenate(chunks))


def random_hits_expectation(pool: int, truth_sizes, k: int) -> tuple[float, float]:
    """Mean and standard error of Hits@k for k uniform picks without
    replacement from ``pool`` candidates, one query per truth size."""
    total = math.comb(pool, k)
    probs = [1.0 - math.comb(pool - t, k) / total for t in truth_sizes]
    mean = sum(probs) / len(probs)
    sigma = math.sqrt(sum(p * (1.0 - p) for p in probs)) / len(probs)
    return mean, sigma
