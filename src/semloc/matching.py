"""Semantic matching between prior and query graphs.

Pairwise multi-label likelihoods, context propagation over graph
neighborhoods (distance-consistency weighted, best prior neighbor per query
neighbor), and extraction of the top-ranked candidate pairs per query node.
Context propagation runs over the graphs' directed edge lists
(`SemanticGraph.edge_root` and friends): each prior root's best is taken
over its own edges, and only the per-query-root sum pads its slots to the
largest query degree.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph

logger = logging.getLogger(__name__)

# elements of score_all_pairs' (query edges, prior edges) block per chunk of prior
# roots. The block is built and reduced in several passes, so it pays to keep it
# in cache: 250k float64 is 2 MB, one core's share of L2 on a 2-core Xeon
# (2.0 GHz, 4 MB L2). There a wide-ambiguous call (about 400 query edges against
# 2,490 prior edges) took a median 14.8 ms with 10M-element blocks, 12.3 ms with
# 1M, and 10.1-10.8 ms anywhere from 100k to 500k.
_CHUNK_ELEMS = 250_000


@dataclass
class SimilarityTable:
    """Dense similarity over all (prior, query) node pairs.

    Rows and columns are the two graphs' nodes, so prior_ids and query_ids ascend.
    The full table is materialized because candidate extraction ranks every column anyway.
    Without context propagation the similarity is the likelihood itself.
    """

    prior_ids: list[int]
    query_ids: list[int]
    similarity: np.ndarray


def _likelihood_matrix(prior_graph: SemanticGraph, query_graph: SemanticGraph) -> np.ndarray:
    """Pairwise label likelihoods via a shared-vocabulary dot product, (prior nodes, query nodes).

    Entry (i, j) sums, over the labels prior i and query j share, prior i's
    frequency times query j's confidence; it lies in [0, 1] because the
    confidences sum to one. The prior side is the graph's cached
    `label_table`; only the query side is built here, and the result is a
    new array.
    """
    vocab, freq = prior_graph.label_table
    conf = np.zeros((len(query_graph), len(vocab)))
    for j, node in enumerate(query_graph.nodes):
        for label, score in node.confidences:
            col = vocab.get(label)
            if col is not None:
                conf[j, col] = score
    return freq @ conf.T


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

    Works on the graphs' directed edge lists: w * likelihood is formed for
    every (prior edge, query edge) pair, maxed over each prior root's run of
    edges, and summed per query root over its edge slots, padded with zeros
    to the largest query degree so the sum is taken in a fixed order. Prior
    roots are chunked so that no chunk's (prior edges, query edges) block
    exceeds _CHUNK_ELEMS, with at least one root per chunk.

    use_calp=False skips context propagation: the similarity is the
    likelihood, which is the ablation baseline. So is the similarity of a
    query graph without edges.
    """
    # the likelihood, to which each prior root's context term is added in place
    sim = _likelihood_matrix(prior_graph, query_graph)
    table = SimilarityTable(prior_graph.ids, query_graph.ids, sim)
    pg, qg = prior_graph, query_graph
    if not use_calp or qg.edge_root.size == 0:
        return table

    ends = np.cumsum(pg.degree)  # one past each prior root's last edge
    firsts = ends - pg.degree
    like_qn = sim.T[qg.edge_nbr]  # (query edges, prior nodes): likelihood[n, m] for m
    q_counts = np.maximum(qg.degree, 1)
    budget = max(1, _CHUNK_ELEMS // qg.edge_root.size)  # prior edges per chunk
    start = 0
    while start < len(pg):
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + budget, "right")))
        rows = start + np.flatnonzero(pg.degree[start:stop])
        start = stop
        if rows.size == 0:
            continue
        first, last = firsts[rows[0]], ends[rows[-1]]
        # (query edges, prior edges) of w * like[n, m], built in place
        prod = pg.edge_length[None, first:last] - qg.edge_length[:, None]
        np.abs(prod, out=prod)
        prod += 1.0
        np.divide(1.0, prod, out=prod)
        prod *= like_qn[:, pg.edge_nbr[first:last]]
        best = np.maximum.reduceat(prod, firsts[rows] - first, axis=1)  # max per prior root
        slots = np.zeros((rows.size, len(qg), qg.max_degree))
        slots[:, qg.edge_root, qg.edge_slot] = best.T
        sim[rows] += slots.sum(axis=2) / q_counts
    return table


@dataclass
class CandidateSet:
    """Top-ranked (prior, query) pairs as node indices into the two graphs.

    Pairs are grouped by query node in graph order, best first within each.
    """

    prior: np.ndarray
    query: np.ndarray

    def __len__(self) -> int:
        return len(self.prior)


def extract_candidates(table: SimilarityTable, tau: int) -> CandidateSet:
    """Keep the tau best-scored priors per query node.

    One stable sort of the whole table ranks every column by similarity, ties
    to the lower prior index (so id), and exactly tau pairs are kept per query
    node (fewer only when the prior graph is smaller). Zero-score pairs stay eligible.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rows = np.argsort(-table.similarity, axis=0, kind="stable")[:tau]  # (kept per node, query nodes)
    return CandidateSet(rows.T.ravel(), np.repeat(np.arange(rows.shape[1]), len(rows)))
