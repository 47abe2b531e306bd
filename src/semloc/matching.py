"""Semantic matching between prior and query graphs.

Pairwise multi-label likelihoods, context propagation over graph
neighborhoods (distance-consistency weighted, best prior neighbor per query
neighbor), and extraction of the top-ranked candidate pairs per query node.
Context propagation runs over the graphs' directed edge lists
(`SemanticGraph.edge_root` and friends): each prior root's best is taken
over its own edges, and only the per-query-root sum pads its slots to the
largest query degree. A landmark and a detection that share no label have
likelihood exactly zero, so the (query edge, prior edge) products are formed
one label-group block at a time (the prior graph's `label_groups`, merged
per frame where a detection carries labels of two groups), and the zeros
between blocks are never formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph

logger = logging.getLogger(__name__)

# elements of score_all_pairs' padded (query edges, longest run, prior roots) gather
# per chunk of a block's prior roots. The products and their gather are built and
# reduced in several passes, so it pays to keep them in cache. On a 2-core Xeon
# (2.0 GHz, 4 MB L2) a wide-ambiguous call, whose label-group blocks pad to 37k-285k
# elements, took within 5% of one median anywhere from 40k to 100k and 22% longer
# at 150k; crit8-sampling and cli-early-exit frames (55k-69k padded, one block)
# took 4-5% longer when cut below 70k into two chunks.
_CHUNK_ELEMS = 100_000

# (query edges, prior edges) elements from which a frame's label group is a block
# of its own in score_all_pairs; smaller groups share one block. On the same host
# a block costs some 35 us of fixed numpy calls, the time of about 3,500 elements
# of a shared block (10 ns each). wide-ambiguous groups hold 17k-122k elements, so
# any cut from 1 to 16k gives the same blocks and a call takes half the time of
# one shared block. crit8-sampling and cli-early-exit groups (one landmark per
# label) hold under 256, so their frames are one block: with every group a block
# of its own, crit8 calls took 1.6x and cli calls 3.4x as long.
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


def _query_confidences(prior_graph: SemanticGraph, query_graph: SemanticGraph) -> tuple[np.ndarray, int]:
    """The query nodes' confidences over the prior graph's label columns, (query nodes, labels),
    and the number of positive ones beyond the first of each node.

    Labels the map never saw have no column and are dropped: they share no
    landmark's label, so they add nothing to any likelihood. Each positive
    label beyond a node's first can merge at most one more label group into
    the node's (`_label_blocks`).
    """
    vocab, _ = prior_graph.label_table
    conf = np.zeros((len(query_graph), len(vocab)))
    extra = 0
    for j, node in enumerate(query_graph.nodes):
        known = 0
        for label, score in node.confidences:
            col = vocab.get(label)
            if col is not None:
                conf[j, col] = score
                known += score > 0.0
        extra += max(known - 1, 0)
    return conf, extra


def _label_blocks(prior_graph: SemanticGraph, query_graph: SemanticGraph, conf: np.ndarray, extra: int):
    """Query edges in block order, each block's (start, stop) in that order, and its prior edges.

    An edge falls in the frame's label group of its neighbor: the prior
    graph's groups (`label_groups`), merged where one query node carries
    positive confidence in labels of two groups. w * likelihood(n, m) is
    exactly zero between groups. A group whose (query edges, prior edges)
    rectangle holds at least _BLOCK_ELEMS elements is a block of its own; the
    rest, edges without a group included, share the last block. Prior edges
    are index arrays in edge order, and a frame without a large group is one
    block of slices over every edge. No group is large, and the groups need
    not be formed, when even all query edges against 1 + extra of the widest
    prior groups fall short.
    """
    label_group, _, edge_group, group_edges = prior_graph.label_groups
    n_edges = query_graph.edge_root.size
    if n_edges * int(group_edges.max(initial=0)) * (1 + extra) < _BLOCK_ELEMS:
        return slice(None), [(0, n_edges)], [slice(None)]
    n_groups = group_edges.size
    rows, cols = np.nonzero(conf)
    groups = label_group[cols]
    node_group = np.full(len(query_graph), -1)
    node_group[rows] = groups
    q_group, p_group = node_group[query_graph.edge_nbr], edge_group
    bridges = np.flatnonzero((rows[1:] == rows[:-1]) & (groups[1:] != groups[:-1]))
    if bridges.size:
        # merged[g] is group g's group in this frame; index -1 (no group) stays -1
        merged = np.append(np.arange(n_groups), -1)
        for i in bridges.tolist():
            a, b = merged[groups[i]], merged[groups[i + 1]]
            merged[merged == max(a, b)] = min(a, b)
        q_group, p_group = merged[q_group], merged[p_group]
    q_count = np.bincount(q_group + 1, minlength=n_groups + 1)
    p_count = np.bincount(p_group + 1, minlength=n_groups + 1)
    large = np.flatnonzero(q_count[1:] * p_count[1:] >= _BLOCK_ELEMS)
    if large.size == 0:
        return slice(None), [(0, n_edges)], [slice(None)]
    block = np.full(n_groups + 1, large.size)  # the last entry takes group -1
    block[large] = np.arange(large.size)
    q_block, p_block = block[q_group], block[p_group]
    order = np.argsort(q_block, kind="stable")
    q_bounds = np.searchsorted(q_block[order], np.arange(large.size + 2)).tolist()
    spans, edges = [], []
    for b in range(large.size + 1):
        prior_edges = np.flatnonzero(p_block == b)
        if prior_edges.size and q_bounds[b] < q_bounds[b + 1]:
            spans.append((q_bounds[b], q_bounds[b + 1]))
            edges.append(prior_edges)
    return order, spans, edges


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

    Works on the graphs' directed edge lists, one label block at a time
    (`_label_blocks`): within a block, w * likelihood is formed for every
    (query edge, prior edge) pair, gathered into each prior root's run of
    edges padded with repeats of its last edge, and maxed over the run; a
    pair in no common block has likelihood exactly 0.0, which is the value
    its slot starts at. Prior roots are chunked so that no chunk's padded
    gather exceeds _CHUNK_ELEMS, with at least one root per chunk. The bests
    are then summed per query root over its edge slots, padded with zeros
    to the largest query degree, in one fixed slot order, so the table has
    the same bits however the edges fall into blocks and chunks. A frame
    without a large label group is one block.

    use_calp=False skips context propagation: the similarity is the
    likelihood, which is the ablation baseline. So is the similarity when
    either graph has no edges.
    """
    pg, qg = prior_graph, query_graph
    conf, extra = _query_confidences(pg, qg)
    # the likelihood, to which the context term is added in place
    sim = pg.label_table[1] @ conf.T
    table = SimilarityTable(pg.ids, qg.ids, sim)
    if not use_calp or qg.edge_root.size == 0 or pg.edge_root.size == 0:
        return table

    order, spans, prior_edges = _label_blocks(pg, qg, conf, extra)
    like_qn = sim.T[qg.edge_nbr[order]]  # (query edges, prior nodes): likelihood[n, m] for m
    q_len = qg.edge_length[order]
    best = np.zeros((len(pg), qg.edge_root.size))  # (prior roots, query edges): best w * like[n, m]
    for (q_start, q_stop), edges in zip(spans, prior_edges):
        roots = pg.edge_root[edges]
        runs = np.bincount(roots)
        runs = runs[runs > 0]  # the lengths of the prior roots' runs of edges
        tails = np.cumsum(runs)
        heads = tails - runs
        # (longest run, runs): each run's edges, its last repeated, which leaves its max as it is
        pad = heads + np.minimum(np.arange(runs.max())[:, None], runs - 1)
        p_len, p_nbr = pg.edge_length[edges], pg.edge_nbr[edges]
        q_like, q_dist = like_qn[q_start:q_stop], q_len[q_start:q_stop, None]
        step = max(1, _CHUNK_ELEMS // ((q_stop - q_start) * pad.shape[0]))  # prior roots per chunk
        for start in range(0, heads.size, step):
            stop = min(start + step, heads.size)
            first, last = heads[start], tails[stop - 1]
            # (query edges, prior edges) of w * like[n, m], built in place
            prod = p_len[None, first:last] - q_dist
            np.abs(prod, out=prod)
            prod += 1.0
            np.divide(1.0, prod, out=prod)
            prod *= q_like[:, p_nbr[first:last]]
            # max per prior root
            best[roots[heads[start:stop]], q_start:q_stop] = prod[:, pad[:, start:stop] - first].max(axis=1).T
    slots = np.zeros((len(pg), len(qg), qg.max_degree))
    slots[:, qg.edge_root[order], qg.edge_slot[order]] = best
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

    One stable sort of the whole table ranks every column by similarity, ties
    to the lower prior index (so id), and exactly tau pairs are kept per query
    node (fewer only when the prior graph is smaller). Zero-score pairs stay eligible.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rows = np.argsort(-table.similarity, axis=0, kind="stable")[:tau]  # (kept per node, query nodes)
    return CandidateSet(rows.T.ravel(), np.repeat(np.arange(rows.shape[1]), len(rows)))
