"""Semantic matching between prior and query graphs.

Pairwise multi-label likelihoods, context propagation over graph
neighborhoods (distance-consistency weighted, best prior neighbor per query
neighbor), and extraction of the top-ranked candidate pairs per query node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph

logger = logging.getLogger(__name__)

# elements of score_all_pairs' (rows, cols, deg_p, deg_q) tensor per chunk of prior rows
_CHUNK_ELEMS = 10_000_000


@dataclass
class SimilarityTable:
    """Dense likelihood and similarity over all (prior, query) node pairs.

    Row order follows prior_ids, column order query_ids. The full table is
    materialized because candidate extraction ranks every column anyway.
    """

    prior_ids: list[int]
    query_ids: list[int]
    likelihood: np.ndarray
    similarity: np.ndarray


def _likelihood_matrix(prior_graph: SemanticGraph, query_graph: SemanticGraph) -> np.ndarray:
    """Pairwise label likelihoods via a shared-vocabulary dot product.

    Entry (i, j) sums, over the labels prior i and query j share, prior i's
    frequency times query j's confidence; it lies in [0, 1] because the
    confidences sum to one.
    """
    vocab: dict[str, int] = {}
    for node in prior_graph.nodes:
        for label in node.frequencies.per_label_counts:
            vocab.setdefault(label, len(vocab))
    n_p, n_q = len(prior_graph), len(query_graph)
    n_l = len(vocab)
    if n_l == 0 or n_q == 0 or n_p == 0:
        return np.zeros((n_p, n_q))
    freq = np.zeros((n_p, n_l))
    for i, node in enumerate(prior_graph.nodes):
        total = node.frequencies.total_detections
        for label, count in node.frequencies.per_label_counts.items():
            freq[i, vocab[label]] = count / total
    conf = np.zeros((n_q, n_l))
    for j, node in enumerate(query_graph.nodes):
        for label, score in node.confidences.entries:
            col = vocab.get(label)
            if col is not None:
                conf[j, col] = score
    return freq @ conf.T


def _padded_neighbors(graph: SemanticGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor indices padded to max degree, with validity mask and distances."""
    index = {node.id: i for i, node in enumerate(graph.nodes)}
    lists = [[index[n] for n in graph.neighbors(node.id)] for node in graph.nodes]
    width = max((len(l) for l in lists), default=0)
    n = len(graph)
    nbr = np.zeros((n, max(width, 1)), dtype=int)
    mask = np.zeros((n, max(width, 1)), dtype=bool)
    for i, l in enumerate(lists):
        nbr[i, : len(l)] = l
        mask[i, : len(l)] = True
    pos = graph.positions()
    dist = np.linalg.norm(pos[nbr] - pos[:, None, :], axis=2)
    return nbr, mask, dist


def score_all_pairs(
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    use_calp: bool = True,
) -> SimilarityTable:
    """Score every (prior, query) pair: likelihood plus neighbor-context term.

    The context term of a root pair is the mean, over the query root's
    neighbors m, of the best w * likelihood(n, m) over the prior root's
    neighbors n, with the distance-consistency weight
    w = 1 / (1 + |d_prior(root, n) - d_query(root, m)|). A root without
    neighbors on either side gets no context term.

    use_calp=False skips context propagation: the similarity is a copy of
    the likelihood, which is the ablation baseline. Work is chunked over
    prior rows to bound the intermediate (rows, cols, deg_p, deg_q) tensor.
    """
    like = _likelihood_matrix(prior_graph, query_graph)
    prior_ids = prior_graph.ids()
    query_ids = query_graph.ids()
    if not use_calp or len(prior_graph) == 0 or len(query_graph) == 0:
        return SimilarityTable(prior_ids, query_ids, like, like.copy())

    nbr_p, mask_p, dist_p = _padded_neighbors(prior_graph)
    nbr_q, mask_q, dist_q = _padded_neighbors(query_graph)
    n_p, kp = nbr_p.shape
    n_q, kq = nbr_q.shape
    sim = np.empty_like(like)
    q_counts = mask_q.sum(axis=1)  # selections per query root, shared across priors
    p_has = mask_p.any(axis=1)

    rows_per_chunk = max(1, _CHUNK_ELEMS // max(1, n_q * kp * kq))
    for start in range(0, n_p, rows_per_chunk):
        stop = min(n_p, start + rows_per_chunk)
        dp = dist_p[start:stop]  # (r, kp)
        w = 1.0 / (1.0 + np.abs(dp[:, None, :, None] - dist_q[None, :, None, :]))
        lnm = like[nbr_p[start:stop]][:, :, nbr_q]  # (r, kp, n_q, kq)
        lnm = np.transpose(lnm, (0, 2, 1, 3))
        prod = np.where(mask_p[start:stop, None, :, None], w * lnm, -np.inf)
        best = prod.max(axis=2)  # (r, n_q, kq), max over prior neighbors
        best[:, ~mask_q] = 0.0
        best[~p_has[start:stop], :, :] = 0.0
        totals = best.sum(axis=2)
        with np.errstate(invalid="ignore"):
            term = np.where(q_counts[None, :] > 0, totals / np.maximum(q_counts[None, :], 1), 0.0)
        term[~p_has[start:stop], :] = 0.0
        sim[start:stop] = like[start:stop] + term
    return SimilarityTable(prior_ids, query_ids, like, sim)


@dataclass
class CandidateSet:
    """Top-ranked (prior, query) pairs, grouped per query node."""

    pairs: list[tuple[int, int]]
    tau: int

    def __post_init__(self):
        self._per_query: dict[int, list[int]] = {}
        for prior_id, query_id in self.pairs:
            self._per_query.setdefault(query_id, []).append(prior_id)
        if any(len(v) > self.tau for v in self._per_query.values()):
            raise ValueError("more than tau candidates for a query node")

    def candidates_for(self, query_id: int) -> list[int]:
        return list(self._per_query.get(query_id, []))

    def query_ids(self) -> list[int]:
        return sorted(self._per_query)

    def __len__(self) -> int:
        return len(self.pairs)


def extract_candidates(table: SimilarityTable, tau: int) -> CandidateSet:
    """Keep the tau best-scored priors per query node.

    Rank ties at the cutoff are broken by the lower prior id, and exactly tau
    pairs are kept per query node (fewer only when the prior graph is
    smaller). Zero-score pairs stay eligible.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    prior_arr = np.asarray(table.prior_ids)
    pairs: list[tuple[int, int]] = []
    for j, query_id in enumerate(table.query_ids):
        col = table.similarity[:, j]
        order = np.lexsort((prior_arr, -col))
        for i in order[: min(tau, col.size)]:
            pairs.append((int(prior_arr[i]), query_id))
    return CandidateSet(pairs, tau)
