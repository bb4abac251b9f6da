"""Seeded inputs for the workloads.

The library's ``make_*_like`` generators build a dense matrix first, which
at 10k users x 100k items is 8 GB; :func:`item_heavy` samples the sparse
corpus directly with vectorised NumPy.  The other plans cut their corpora
out of ``make_netflix_like``, so ingested users and held-out pairs come
from the same latent structure as the training rows.

Every corpus function ends by returning the generator's freed scratch memory to the
OS: the runtime forks its pool after the inputs exist, and the workers
would otherwise inherit whatever the allocator happened to keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.datasets import make_netflix_like
from repro.data.interactions import InteractionMatrix
from repro.data.splitting import train_test_split

from harness import release_free_memory


def item_heavy(
    seed: int,
    n_users: int = 10_000,
    n_items: int = 100_000,
    mean_degree: int = 60,
    n_groups: int = 64,
    group_share: float = 0.5,
) -> InteractionMatrix:
    """Sparse Gowalla-like corpus: many more items than users, ~60 per user.

    Degrees are geometric (at least 3).  Half of each user's picks come
    from a Zipf-like global popularity over a shuffled catalogue, half
    uniformly from the item block of the user's latent group, so the
    co-clusters the model fits have something to find.
    """
    rng = np.random.default_rng(seed)
    degrees = np.maximum(3, rng.geometric(1.0 / mean_degree, size=n_users))
    total = int(degrees.sum())
    rows = np.repeat(np.arange(n_users), degrees)
    popularity = 1.0 / np.arange(1, n_items + 1) ** 0.8
    cdf = np.cumsum(popularity[rng.permutation(n_items)])
    cdf /= cdf[-1]
    items = np.minimum(np.searchsorted(cdf, rng.random(total)), n_items - 1)
    group = rng.integers(0, n_groups, size=n_users)
    block = n_items // n_groups
    local = rng.random(total) < group_share
    items[local] = group[rows[local]] * block + rng.integers(0, block, size=int(local.sum()))
    csr = sp.csr_matrix(
        (np.ones(total), (rows, items)), shape=(n_users, n_items), dtype=np.float64
    )
    matrix = InteractionMatrix(csr)
    release_free_memory()
    return matrix


def _rows(csr: sp.csr_matrix, start: int, stop: int) -> List[List[int]]:
    return [
        csr.indices[csr.indptr[row] : csr.indptr[row + 1]].tolist()
        for row in range(start, stop)
    ]


def serving_corpus(seed: int, n_users: int = 4000, n_items: int = 1000) -> InteractionMatrix:
    matrix, _spec = make_netflix_like(n_users=n_users, n_items=n_items, random_state=seed)
    release_free_memory()
    return matrix


@dataclass
class OnlineCorpus:
    """A trained-on corpus plus rows that arrive later as new users."""

    matrix: InteractionMatrix
    new_user_rows: List[List[int]]


def online_corpus(
    seed: int, n_users: int = 4000, n_items: int = 1000, n_new: int = 64
) -> OnlineCorpus:
    full, _spec = make_netflix_like(
        n_users=n_users + n_new, n_items=n_items, random_state=seed
    )
    csr = full.csr()
    data = OnlineCorpus(
        matrix=InteractionMatrix(csr[:n_users]),
        new_user_rows=_rows(csr, n_users, n_users + n_new),
    )
    release_free_memory()
    return data


@dataclass
class Delta:
    """One ingest: pairs on existing users plus rows of brand-new users."""

    existing_pairs: List[Tuple[int, int]]
    new_user_rows: List[List[int]]

    def pairs(self, first_new_user: int) -> List[Tuple[int, int]]:
        pairs = list(self.existing_pairs)
        for offset, row in enumerate(self.new_user_rows):
            pairs.extend((first_new_user + offset, item) for item in row)
        return pairs

    @property
    def n_pairs(self) -> int:
        return len(self.existing_pairs) + sum(len(row) for row in self.new_user_rows)


@dataclass
class RefitPlan:
    train: InteractionMatrix
    test_items: Dict[int, np.ndarray]
    deltas: List[Delta]


def refit_plan(
    seed: int,
    n_users: int = 4000,
    n_items: int = 1500,
    n_cycles: int = 3,
    new_users_per_cycle: int = 20,
    withheld_share: float = 0.015,
) -> RefitPlan:
    """Cold-fit corpus, held-out test pairs and ``n_cycles`` ~2% deltas.

    Each delta re-delivers a slice of withheld training pairs of existing
    users and the full rows of new users.  Test pairs are never ingested,
    so recall on them measures generalisation after every refit.
    """
    rng = np.random.default_rng(seed)
    n_new = n_cycles * new_users_per_cycle
    full, _spec = make_netflix_like(
        n_users=n_users + n_new, n_items=n_items, random_state=seed
    )
    csr = full.csr()
    split = train_test_split(
        InteractionMatrix(csr[:n_users]), test_fraction=0.2, random_state=seed
    )
    pairs = split.train.pairs()
    n_withheld = int(withheld_share * len(pairs)) * n_cycles
    chosen = pairs[rng.choice(len(pairs), size=n_withheld, replace=False)]
    withheld = [(int(user), int(item)) for user, item in chosen]
    new_rows = _rows(csr, n_users, n_users + n_new)
    per_cycle = n_withheld // n_cycles
    deltas = [
        Delta(
            existing_pairs=withheld[c * per_cycle : (c + 1) * per_cycle],
            new_user_rows=new_rows[c * new_users_per_cycle : (c + 1) * new_users_per_cycle],
        )
        for c in range(n_cycles)
    ]
    plan = RefitPlan(
        train=split.train.without_pairs(withheld),
        test_items=split.test_items,
        deltas=deltas,
    )
    release_free_memory()
    return plan


def cold_rows(
    rng: np.random.Generator, matrix: InteractionMatrix, n_rows: int, n_picks: int = 8
) -> List[List[int]]:
    """Cold-start baskets: ``n_picks`` items of randomly chosen known users."""
    csr = matrix.csr()
    rows = []
    while len(rows) < n_rows:
        user = int(rng.integers(0, matrix.n_users))
        items = csr.indices[csr.indptr[user] : csr.indptr[user + 1]]
        if len(items) >= n_picks:
            rows.append(sorted(int(i) for i in rng.choice(items, size=n_picks, replace=False)))
    return rows
