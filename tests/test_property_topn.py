"""Property-based tests for the serving tie contract (hypothesis).

Every ranking path — :meth:`TopNEngine.topn`, :meth:`TopNEngine.rank_scored`
and :meth:`Recommender.recommend` — must order items by higher value first,
then lower item index, and drop excluded items instead of padding with them.
Each path is checked element by element against an independent reference:
a full stable sort of the row.

Factor entries are small multiples of 1/4, so every affinity is exact in
float32 and float64 whatever the BLAS accumulation order: ties are frequent
and well defined, and scores can be compared bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.base import Recommender
from repro.core.factors import FactorModel
from repro.core.ocular import OCuLaR
from repro.data.interactions import InteractionMatrix
from repro.serving import TopNEngine
from repro.serving.engine import _TWO_STAGE_MIN_RATIO, SELECT_BLOCK

N_USERS = 6
K = 3


def _reference(values: np.ndarray, seen, n: int) -> np.ndarray:
    """Full stable sort: higher value first, then lower index; seen dropped."""
    values = np.array(values, dtype=np.float64)
    values[list(seen)] = -np.inf
    ranked = np.argsort(-values, kind="stable")[:n]
    return ranked[np.isfinite(values[ranked])]


def _transform(affinities: np.ndarray) -> np.ndarray:
    """The probability transform as the engine applied it to whole blocks."""
    return np.negative(np.subtract(np.exp(np.negative(affinities)), 1.0))


@st.composite
def corpora(draw):
    """Tie-heavy factors, a seen mask, a list length and a serving dtype.

    The catalogue width is drawn around the two-stage threshold, so both
    the two-stage selection and its one-stage fallback run, with and
    without a short last block.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    threshold = _TWO_STAGE_MIN_RATIO * n * SELECT_BLOCK
    n_items = draw(
        st.one_of(
            st.integers(min_value=n, max_value=threshold - 1),
            st.integers(min_value=threshold, max_value=threshold + 2 * SELECT_BLOCK),
            st.sampled_from([threshold, threshold + SELECT_BLOCK]),
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = draw(st.integers(min_value=1, max_value=4))
    scale = draw(st.sampled_from([0.25, 4.0]))  # 4.0 saturates the scores
    users = rng.integers(0, levels, size=(N_USERS, K)) * scale
    items = rng.integers(0, levels, size=(n_items, K)) * scale
    users[rng.random(N_USERS) < 0.3] = 0.0  # all-zero user rows
    copies = rng.integers(0, n_items, size=n_items // 3)
    items[copies] = items[rng.integers(0, n_items)]  # duplicated item factors
    density = rng.random(N_USERS) * draw(st.sampled_from([0.05, 0.5]))
    seen = rng.random((N_USERS, n_items)) < density[:, None]
    seen[0, : max(0, n_items - n + 1)] = True  # fewer unseen items than n
    matrix = InteractionMatrix.from_validated_csr(
        sp.csr_matrix(seen.astype(np.float64))
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    chunk = draw(st.integers(min_value=1, max_value=N_USERS))
    return FactorModel(users, items), matrix, n, np.dtype(dtype), chunk


@given(corpora(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_engine_topn_follows_the_tie_contract(case, exclude_seen, pipeline):
    factors, matrix, n, dtype, chunk = case
    engine = TopNEngine.from_factors(factors, matrix, chunk_size=chunk, dtype=dtype)
    result = engine.topn(
        range(N_USERS), n_items=n, exclude_seen=exclude_seen, with_scores=True,
        pipeline=pipeline,
    )
    csr = matrix.csr()
    item_factors = factors.item_factors.astype(dtype)
    for user in range(N_USERS):
        affinities = item_factors @ factors.user_factors[user].astype(dtype)
        seen = csr.indices[csr.indptr[user] : csr.indptr[user + 1]] if exclude_seen else []
        expected = _reference(affinities, seen, n)
        np.testing.assert_array_equal(result[user], expected)
        # Scores: bit-identical to transforming the whole block, then gathering.
        scores = result.scores[user, : len(expected)]
        assert scores.dtype == dtype
        assert scores.tobytes() == _transform(affinities)[expected].tobytes()


@given(corpora(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rank_scored_follows_the_tie_contract(case, writable):
    factors, matrix, n, dtype, _chunk = case
    engine = TopNEngine.from_factors(factors, matrix)
    block = (factors.user_factors @ factors.item_factors.T).astype(dtype)
    seen = matrix.csr()
    ranked, scores = engine.rank_scored(
        block.copy(), n_items=n, seen=seen, return_scores=True, writable=writable
    )
    for row in range(N_USERS):
        expected = _reference(block[row], seen.indices[seen.indptr[row] : seen.indptr[row + 1]], n)
        np.testing.assert_array_equal(ranked[row], expected)
        assert scores[row].tobytes() == block[row, expected].tobytes()


class _TableModel(Recommender):
    """A generic (non-factor) recommender scoring from a fixed table."""

    def __init__(self, table: np.ndarray, matrix: InteractionMatrix) -> None:
        self._table = table
        self._set_train_matrix(matrix)

    def fit(self, matrix):  # pragma: no cover - never refitted
        return self

    def score_user(self, user: int) -> np.ndarray:
        return self._table[user].copy()


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_generic_path_and_recommend_follow_the_tie_contract(case):
    factors, matrix, n, _dtype, chunk = case
    table = factors.user_factors @ factors.item_factors.T
    model = _TableModel(table, matrix)
    engine = TopNEngine.from_model(model, chunk_size=chunk)
    assert engine.factors is None
    result = engine.topn(range(N_USERS), n_items=n)
    for user in range(N_USERS):
        expected = _reference(table[user], matrix.items_of_user(user), n)
        np.testing.assert_array_equal(result[user], expected)
        np.testing.assert_array_equal(model.recommend(user, n_items=n), expected)


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_factor_model_recommend_ranks_by_affinity(case):
    factors, matrix, n, _dtype, _chunk = case
    model = OCuLaR(n_coclusters=K)
    model.factors_ = factors
    model._set_train_matrix(matrix)
    engine = TopNEngine.from_model(model)
    result = engine.topn(range(N_USERS), n_items=n)
    for user in range(N_USERS):
        affinities = factors.item_factors @ factors.user_factors[user]
        expected = _reference(affinities, matrix.items_of_user(user), n)
        np.testing.assert_array_equal(model.recommend(user, n_items=n), expected)
        np.testing.assert_array_equal(result[user], expected)
