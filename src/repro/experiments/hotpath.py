"""Serving hot-path experiment: zero-allocation engine versus the legacy loop.

The serving rewrite claims three things on a large catalogue: (1) steady
state performs **zero** score-block allocations (pooled buffers, flat
results), (2) the float64 path stays exactly the reference ranking, and
(3) the float32 path buys bandwidth without losing ranking quality.  This
experiment pins all three against a faithful replica of the pre-rewrite
engine — fresh ``(chunk, n_items)`` allocation per chunk, the four-scratch-
array mask kernel, per-user Python list outputs — on a synthetic catalogue
big enough (100k items in full mode) that memory bandwidth, not Python,
is the contested resource.

No model fit is involved: serving only reads factor matrices, so the corpus
is a sparse random interaction matrix plus random non-negative factors, and
every engine under test scores identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.serving import TopNEngine, TopNResult
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.tables import format_table


class _LegacyTopNEngine:
    """The pre-rewrite serving hot loop, kept verbatim as the baseline.

    Per chunk: a fresh ``users @ item_factors.T`` allocation, a full negated
    copy, the position-arithmetic mask kernel (``arange(total)`` plus two
    ``repeat``\\ s — four full-size scratch arrays per chunk), argpartition
    selection, and one small Python array object appended per user.  This is
    what :class:`~repro.serving.engine.TopNEngine` shipped before the
    buffer-pool rewrite; the benchmark measures the rewrite against it on
    the same bytes.
    """

    def __init__(self, factors: FactorModel, train_matrix: InteractionMatrix, chunk_size: int):
        self.factors = factors
        self.train_matrix = train_matrix
        self.chunk_size = int(chunk_size)

    @staticmethod
    def _mask_seen(neg_scores: np.ndarray, rows: np.ndarray, csr: sp.csr_matrix) -> None:
        counts = np.diff(csr.indptr)[rows]
        total = int(counts.sum())
        if total == 0:
            return
        starts = csr.indptr[rows]
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        positions = np.repeat(starts, counts) + offsets
        chunk_rows = np.repeat(np.arange(rows.shape[0]), counts)
        neg_scores[chunk_rows, csr.indices[positions]] = np.inf

    def recommend_batch(
        self, users, n_items: int = 10, exclude_seen: bool = True
    ) -> List[np.ndarray]:
        user_array = np.asarray(list(users), dtype=np.int64)
        n = min(n_items, self.train_matrix.n_items)
        csr = self.train_matrix.csr() if exclude_seen else None
        rankings: List[np.ndarray] = []
        for start in range(0, user_array.size, self.chunk_size):
            chunk = user_array[start : start + self.chunk_size]
            scores = self.factors.user_factors[chunk] @ self.factors.item_factors.T
            np.negative(scores, out=scores)
            np.exp(scores, out=scores)
            scores -= 1.0
            neg_scores = scores
            if csr is not None:
                self._mask_seen(neg_scores, chunk, csr)
            top = np.argpartition(neg_scores, n - 1, axis=1)[:, :n]
            top_scores = np.take_along_axis(neg_scores, top, axis=1)
            order = np.argsort(top_scores, axis=1, kind="stable")
            ranked = np.take_along_axis(top, order, axis=1)
            ranked_scores = np.take_along_axis(top_scores, order, axis=1)
            finite = np.isfinite(ranked_scores)
            for i in range(ranked.shape[0]):
                rankings.append(ranked[i, finite[i]])
        return rankings


@dataclass
class ServingHotPathResult:
    """Measurements of the hot-path comparison on one synthetic catalogue.

    Attributes
    ----------
    n_users, n_items, n_coclusters, top_n:
        Corpus shape and list length served.
    legacy_seconds, flat64_seconds, flat32_seconds:
        Median wall-clock seconds to serve all users through the legacy
        engine, the rewritten float64 engine, and the float32 engine.
    float64_exact:
        Whether the rewritten float64 rankings equal the legacy rankings
        *and* the full-sort reference ranking on the checked subsample — the
        rewrite must be a pure optimisation on the default path.
    float32_overlap:
        Mean fraction of each user's float64 top-N recovered by the
        float32 path (1.0 = identical lists).
    pool_allocations_after_warmup:
        Score-block allocations the pooled engines performed during the
        timed passes (must be 0 — the zero-allocation claim).
    pool_reuses:
        Pool buffer reuses over the timed passes (must be positive).
    effective_chunk:
        The autotuned rows-per-chunk the float64 engine actually used.
    """

    n_users: int
    n_items: int
    n_coclusters: int
    top_n: int
    legacy_seconds: float
    flat64_seconds: float
    flat32_seconds: float
    float64_exact: bool
    float32_overlap: float
    pool_allocations_after_warmup: int
    pool_reuses: int
    effective_chunk: int
    per_run_legacy_seconds: List[float] = field(default_factory=list)
    per_run_flat64_seconds: List[float] = field(default_factory=list)
    per_run_flat32_seconds: List[float] = field(default_factory=list)

    def _users_per_second(self, seconds: float) -> float:
        return self.n_users / seconds if seconds > 0 else float("inf")

    def legacy_users_per_second(self) -> float:
        return self._users_per_second(self.legacy_seconds)

    def flat64_users_per_second(self) -> float:
        return self._users_per_second(self.flat64_seconds)

    def flat32_users_per_second(self) -> float:
        return self._users_per_second(self.flat32_seconds)

    def speedup64(self) -> float:
        """Float64 rewritten engine over the legacy engine (same precision)."""
        if self.flat64_seconds <= 0:
            return float("inf")
        return self.legacy_seconds / self.flat64_seconds

    def speedup(self) -> float:
        """Headline: float32 serving over the legacy float64 engine."""
        if self.flat32_seconds <= 0:
            return float("inf")
        return self.legacy_seconds / self.flat32_seconds

    def to_text(self) -> str:
        rows = [
            [
                "legacy (alloc per chunk)",
                f"{self.legacy_seconds:.3f}",
                f"{self.legacy_users_per_second():,.0f}",
                "1.0x",
            ],
            [
                "flat float64 (pooled)",
                f"{self.flat64_seconds:.3f}",
                f"{self.flat64_users_per_second():,.0f}",
                f"{self.speedup64():.2f}x",
            ],
            [
                "flat float32 (pooled)",
                f"{self.flat32_seconds:.3f}",
                f"{self.flat32_users_per_second():,.0f}",
                f"{self.speedup():.2f}x",
            ],
        ]
        header = (
            f"Serving hot path — {self.n_users:,} users x {self.n_items:,} items, "
            f"K={self.n_coclusters}, top-{self.top_n}, "
            f"effective chunk {self.effective_chunk}"
        )
        table = format_table(["engine", "seconds", "users/s", "speedup"], rows)
        verdict = (
            f"float64 exact: {self.float64_exact}, "
            f"float32 top-N overlap: {self.float32_overlap:.4f}, "
            f"score-block allocations after warm-up: "
            f"{self.pool_allocations_after_warmup} "
            f"(reuses: {self.pool_reuses})"
        )
        return "\n".join([header, table, verdict])


def _make_sparse_corpus(
    n_users: int,
    n_items: int,
    positives_per_user: int,
    rng: np.random.Generator,
) -> InteractionMatrix:
    """A sparse random corpus: ``positives_per_user`` distinct items per user.

    Built directly in CSR form — a dense mask at 100k items would cost more
    memory than the benchmark itself.
    """
    counts = rng.integers(1, 2 * positives_per_user + 1, size=n_users)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    for user in range(n_users):
        start, stop = indptr[user], indptr[user + 1]
        indices[start:stop] = rng.choice(n_items, size=stop - start, replace=False)
        indices[start:stop].sort()
    data = np.ones(indptr[-1], dtype=np.float64)
    csr = sp.csr_matrix((data, indices, indptr), shape=(n_users, n_items))
    return InteractionMatrix.from_validated_csr(csr)


def _reference_ranking(
    factors: FactorModel, train_csr: sp.csr_matrix, user: int, n_items: int
) -> np.ndarray:
    """An independent per-user reference for the serving tie contract.

    Full affinities, ``-inf`` over the seen items, then a full stable sort
    — higher affinity first, then lower item index — and the finite
    filter.  No partial selection is involved, so it checks the engine's
    two-stage selection and boundary-tie handling rather than sharing them.
    """
    affinities = factors.item_factors @ factors.user_factors[user]
    row = train_csr.indices[train_csr.indptr[user] : train_csr.indptr[user + 1]]
    affinities[row] = -np.inf
    ranked = np.argsort(-affinities, kind="stable")[:n_items]
    return ranked[np.isfinite(affinities[ranked])]


def _topn_overlap(reference, candidate) -> float:
    overlaps = []
    for ref_row, cand_row in zip(reference, candidate):
        if len(ref_row) == 0:
            continue
        ref = set(np.asarray(ref_row).tolist())
        overlaps.append(len(ref & set(np.asarray(cand_row).tolist())) / len(ref))
    return float(np.mean(overlaps)) if overlaps else 1.0


def run_serving_hotpath(
    n_users: int = 2_048,
    n_items: int = 100_000,
    n_coclusters: int = 32,
    top_n: int = 10,
    n_repeats: int = 2,
    positives_per_user: int = 20,
    legacy_chunk_size: int = 256,
    buffer_budget_mb: Optional[float] = None,
    n_reference_checks: int = 32,
    random_state: RandomStateLike = 0,
) -> ServingHotPathResult:
    """Time the rewritten serving engines against the legacy hot loop.

    All engines score the same random non-negative factors over the same
    sparse corpus.  The legacy engine runs at ``legacy_chunk_size`` rows per
    chunk (its per-chunk allocation is ``chunk × n_items`` float64 — 256
    rows is already 200 MB at 100k items); the rewritten engines autotune
    their chunk against the buffer budget.  Median of ``n_repeats`` timed
    passes after one warm-up pass per engine.
    """
    rng = ensure_rng(random_state)
    matrix = _make_sparse_corpus(n_users, n_items, positives_per_user, rng)
    factors = FactorModel(
        rng.random((n_users, n_coclusters)) * 0.5,
        rng.random((n_items, n_coclusters)) * 0.5,
    )
    users = list(range(n_users))

    legacy = _LegacyTopNEngine(factors, matrix, chunk_size=legacy_chunk_size)
    flat64 = TopNEngine.from_factors(
        factors, matrix, buffer_budget_mb=buffer_budget_mb
    )
    flat32 = TopNEngine.from_factors(
        factors, matrix, dtype="float32", buffer_budget_mb=buffer_budget_mb
    )

    # Warm-up: BLAS thread spin-up, CSR materialisation, pool population.
    legacy_rankings = legacy.recommend_batch(users, n_items=top_n)
    flat64.topn(users, n_items=top_n)
    flat32.topn(users, n_items=top_n)
    allocations_at_warmup = (
        flat64.pool.stats().allocations + flat32.pool.stats().allocations
    )
    reuses_at_warmup = flat64.pool.stats().reuses + flat32.pool.stats().reuses

    legacy_times: List[float] = []
    for _ in range(n_repeats):
        start = time.perf_counter()
        legacy_rankings = legacy.recommend_batch(users, n_items=top_n)
        legacy_times.append(time.perf_counter() - start)

    flat64_times: List[float] = []
    flat64_result = TopNResult.empty()
    for _ in range(n_repeats):
        start = time.perf_counter()
        flat64_result = flat64.topn(users, n_items=top_n)
        flat64_times.append(time.perf_counter() - start)

    flat32_times: List[float] = []
    flat32_result = TopNResult.empty()
    for _ in range(n_repeats):
        start = time.perf_counter()
        flat32_result = flat32.topn(users, n_items=top_n)
        flat32_times.append(time.perf_counter() - start)

    # Correctness: the float64 rewrite must be exact — against the legacy
    # engine on every user (random continuous factors leave no ties for
    # its introselect to settle differently), and against the full-sort
    # tie-contract reference on a subsample.
    float64_exact = flat64_result == legacy_rankings
    train_csr = matrix.csr()
    check_users = rng.choice(n_users, size=min(n_reference_checks, n_users), replace=False)
    for user in check_users:
        reference = _reference_ranking(factors, train_csr, int(user), top_n)
        if not np.array_equal(flat64_result[int(user)], reference):
            float64_exact = False
            break

    float32_overlap = _topn_overlap(flat64_result, flat32_result)

    pool_allocations = (
        flat64.pool.stats().allocations
        + flat32.pool.stats().allocations
        - allocations_at_warmup
    )
    pool_reuses = (
        flat64.pool.stats().reuses + flat32.pool.stats().reuses - reuses_at_warmup
    )

    return ServingHotPathResult(
        n_users=n_users,
        n_items=n_items,
        n_coclusters=n_coclusters,
        top_n=top_n,
        legacy_seconds=float(np.median(legacy_times)),
        flat64_seconds=float(np.median(flat64_times)),
        flat32_seconds=float(np.median(flat32_times)),
        float64_exact=bool(float64_exact),
        float32_overlap=float32_overlap,
        pool_allocations_after_warmup=int(pool_allocations),
        pool_reuses=int(pool_reuses),
        effective_chunk=flat64.effective_chunk_size(),
        per_run_legacy_seconds=legacy_times,
        per_run_flat64_seconds=flat64_times,
        per_run_flat32_seconds=flat32_times,
    )
