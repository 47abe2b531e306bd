"""Semantic matching between prior and query graphs.

Pairwise multi-label likelihoods, context propagation over graph
neighborhoods (distance-consistency weighted, best prior neighbor per query
neighbor), and extraction of the top-ranked candidate pairs per query node.
Context propagation runs over the graphs' directed edge lists
(`SemanticGraph.edge_root` and friends): every (query edge, prior edge)
product is max-reduced into one flat (prior roots, query edges) array, and
only the per-query-root sum pads its slots to the largest query degree. A
landmark and a detection that share no label have likelihood exactly zero,
so the frame's positive likelihoods link landmarks and detections into
components. A large component's products are formed as one dense
rectangle; in the others only the products of a positive likelihood are
formed, by joining it to the edges into its two nodes. The zeros between
components are never formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph

logger = logging.getLogger(__name__)

# products per slice of a dense block's prior edges in score_all_pairs. Each
# slice's products and their flat indices are built and then scattered by
# `np.maximum.at`, so it pays to keep them in cache; a slice is cut from the
# block's own prior edges and pads nothing. On a 2-core Xeon (2.0 GHz, 4 MB L2)
# wide-ambiguous calls, whose four blocks hold 17k-122k products, took within 5%
# of one time at 10k to 50k, 6% longer at 65k and 35% longer at 100k and more.
# The other two workloads form no dense block.
_CHUNK_ELEMS = 50_000

# (query edges, prior edges) products from which a likelihood component is formed
# as a dense block in score_all_pairs; the positive likelihoods of smaller
# components are joined to their edges, which forms only products that can be
# nonzero but costs several times as much a product. On the same host,
# wide-ambiguous frames have four components of 17k-122k products, nearly all
# nonzero, and joining them took 4.9x as long as the blocks. crit8-sampling and
# cli-early-exit components (one landmark per label; 10 and 27-30 a frame) hold
# 25-189 products, mostly zero, and as blocks crit8 calls took 2.8x and cli calls
# 5.2x as long as joined. Any cut from 190 to 16k gives these frames the same split.
_BLOCK_ELEMS = 4096


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


def _query_confidences(prior_graph: SemanticGraph, query_graph: SemanticGraph) -> np.ndarray:
    """The query nodes' confidences over the prior graph's label columns, (query nodes, labels).

    Labels the map never saw have no column and are dropped: they share no
    landmark's label, so they add nothing to any likelihood.
    """
    vocab, _ = prior_graph.label_table
    conf = np.zeros((len(query_graph), len(vocab)))
    for j, node in enumerate(query_graph.nodes):
        for label, score in node.confidences:
            col = vocab.get(label)
            if col is not None:
                conf[j, col] = score
    return conf


def _components(prior_graph: SemanticGraph, query_graph: SemanticGraph, like: np.ndarray):
    """The frame's likelihood components: dense blocks, and the pairs to join.

    The positive entries of the likelihood `like` (prior nodes, query nodes)
    link landmarks and detections into components, numbered by their lowest
    query node: starting from its own index, each round gives every
    landmark the least number among its detections and then every
    detection the least among its landmarks, until no number changes. A
    node with no positive entry is in no component.
    w * like[n, m] is exactly zero unless n and m are in one component, and
    an edge is in its neighbor's component. A component whose (query edges,
    prior edges) rectangle holds at least _BLOCK_ELEMS elements is a dense
    block, given as its query edges and its prior edges (index arrays in
    edge order), blocks by component number. The positive likelihoods of
    every other component are the pairs to join, as (prior nodes, query
    nodes) index arrays in row-major order.
    """
    linked = like > 0.0
    n_q = linked.shape[1]
    comp = np.arange(n_q)
    while True:
        node_comp = np.where(linked, comp, n_q).min(axis=1)
        new = np.where(linked, node_comp[:, None], n_q).min(axis=0)
        if np.array_equal(new, comp):
            break
        comp = new
    q_comp, p_comp = comp[query_graph.edge_nbr], node_comp[prior_graph.edge_nbr]
    size = np.bincount(q_comp, minlength=n_q + 1) * np.bincount(p_comp, minlength=n_q + 1)
    dense = size >= _BLOCK_ELEMS
    dense[n_q] = False  # number n_q: no component
    blocks = [(np.flatnonzero(q_comp == c), np.flatnonzero(p_comp == c)) for c in np.flatnonzero(dense)]
    return blocks, np.nonzero(linked & ~dense[comp])


def _weighted(p_len: np.ndarray, q_len: np.ndarray, like: np.ndarray) -> np.ndarray:
    """w * like with w = 1 / (1 + |p_len - q_len|), broadcast, one operation after another.

    Written into a new float64 array: numpy's fast `ufunc.at` loop needs the
    values to share `best`'s dtype object, and arrays unpickled in a spawned
    worker carry a float64 dtype that is equal to it but another object,
    which sends `np.maximum.at` down a path more than ten times as slow.
    """
    prod = np.empty(np.broadcast_shapes(p_len.shape, q_len.shape))
    np.subtract(p_len, q_len, out=prod)
    np.abs(prod, out=prod)
    prod += 1.0
    np.divide(1.0, prod, out=prod)
    prod *= like
    return prod


def score_all_pairs(
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    use_calp: bool = True,
) -> SimilarityTable:
    """Score every (prior, query) pair: likelihood plus neighbor-context term.

    The likelihood of a pair sums, over the labels prior i and query j
    share, prior i's frequency times query j's confidence; it lies in [0, 1]
    because the confidences sum to one. The prior side is the graph's cached
    `label_table`; only the query side is built per call.

    The context term of a root pair is the mean, over the query root's
    neighbors m, of the best w * likelihood(n, m) over the prior root's
    neighbors n, with the distance-consistency weight
    w = 1 / (1 + |d_prior(root, n) - d_query(root, m)|). A root without
    neighbors on either side gets no context term.

    Works on the graphs' directed edge lists: every (query edge, prior edge)
    product it forms is max-reduced with `np.maximum.at` into one flat
    (prior roots, query edges) array of bests, which starts at 0.0, the
    product of any pair it does not form. The frame's likelihood
    components (`_components`) decide which pairs are formed. A dense
    block's products are formed for its whole rectangle, in slices of its
    prior edges of at most _CHUNK_ELEMS products; every other positive
    likelihood(n, m) is joined to each pair of an edge into n and an edge
    into m (`SemanticGraph.edge_reverse`), and the rest is never formed.
    The bests are then summed per query root over its edge slots, padded
    with zeros to the largest query degree, in one fixed slot order. A max
    does not depend on the order of its operands, so the table has the same
    bits however the products are formed.

    use_calp=False skips context propagation: the similarity is the
    likelihood, which is the ablation baseline. So is the similarity when
    either graph has no edges.
    """
    pg, qg = prior_graph, query_graph
    # the likelihood, to which the context term is added in place
    sim = pg.label_table[1] @ _query_confidences(pg, qg).T
    table = SimilarityTable(pg.ids, qg.ids, sim)
    if not use_calp or qg.edge_root.size == 0 or pg.edge_root.size == 0:
        return table

    blocks, (n, m) = _components(pg, qg, sim)
    n_qe = qg.edge_root.size
    best = np.zeros(len(pg) * n_qe)  # (prior roots, query edges), flat: best w * like[n, m]
    for q_edges, p_edges in blocks:
        q_like, q_len = sim.T[qg.edge_nbr[q_edges]], qg.edge_length[q_edges, None]
        step = max(1, _CHUNK_ELEMS // q_edges.size)  # prior edges per slice
        for start in range(0, p_edges.size, step):
            e = p_edges[start : start + step]
            prod = _weighted(pg.edge_length[e], q_len, q_like[:, pg.edge_nbr[e]])
            np.maximum.at(best, (pg.edge_root[e] * n_qe + q_edges[:, None]).ravel(), prod.ravel())
    # each joined pair (n, m) times each (edge into n, edge into m): the a-th
    # and b-th of them, counted from n's and m's own runs of edges
    q_deg = qg.degree[m]
    count = pg.degree[n] * q_deg
    pair = np.repeat(np.arange(count.size), count)
    a, b = np.divmod(np.arange(pair.size) - (np.cumsum(count) - count)[pair], q_deg[pair])
    p_edge = pg.edge_reverse[(np.cumsum(pg.degree) - pg.degree)[n][pair] + a]
    q_edge = qg.edge_reverse[(np.cumsum(qg.degree) - qg.degree)[m][pair] + b]
    prod = _weighted(pg.edge_length[p_edge], qg.edge_length[q_edge], sim[n, m][pair])
    np.maximum.at(best, pg.edge_root[p_edge] * n_qe + q_edge, prod)
    slots = np.zeros((len(pg), len(qg), qg.max_degree))
    slots[:, qg.edge_root, qg.edge_slot] = best.reshape(len(pg), n_qe)
    sim += slots.sum(axis=2) / np.maximum(qg.degree, 1)
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

    Every column is ranked by similarity, ties to the lower prior index (so
    id), and exactly tau pairs are kept per query node (fewer only when the
    prior graph is smaller). Zero-score pairs stay eligible. No column is
    sorted whole: `np.partition` finds each column's tau-th best score, and
    only the scores at least as good are sorted, of which each column keeps
    its first tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n_p, n_q = table.similarity.shape
    k = min(tau, n_p)
    if k == 0:
        return CandidateSet(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    neg = np.negative(table.similarity.T, order="C")  # a row per query node, best lowest
    cut = np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    col, row = np.nonzero(neg <= cut)
    order = np.lexsort((neg[col, row], col))  # by column, then best first, ties to the lower index
    if col.size > n_q * k:  # ties at the cut: each column's first k
        order = order[(np.searchsorted(col, np.arange(n_q))[:, None] + np.arange(k)).ravel()]
    return CandidateSet(row[order], np.repeat(np.arange(n_q), k))
