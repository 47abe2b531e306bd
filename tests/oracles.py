"""Scalar reference implementations that the vectorized production code is
checked against."""

from semloc.geometry import bbox_to_gaussian, normalized_wasserstein, project_quadric_to_bbox


def scalar_calculate_was(pose, candidates, prior_graph, query_graph, intrinsics, C):
    """Alignment score of a pose against the candidate set, one pair at a time.

    Projects each candidate prior to a clamped box, embeds boxes as
    Gaussians, and scores each pair with exp(-W2/C). Per query node the best
    visible prior is selected (ties to the lower prior id); the score is the
    mean over the selected pairs, which are ordered by query id. Returns 0
    and no pairs when nothing is visible.
    """
    projected = {}
    for prior_id, _ in candidates.pairs:
        if prior_id not in projected:
            box = project_quadric_to_bbox(prior_graph.node(prior_id).quadric(), pose, intrinsics)
            projected[prior_id] = None if box is None else bbox_to_gaussian(box)

    best: dict[int, tuple[int, float]] = {}
    for query_id in candidates.query_ids():
        q_gauss = bbox_to_gaussian(query_graph.node(query_id).bbox)
        for prior_id in candidates.candidates_for(query_id):
            p_gauss = projected[prior_id]
            if p_gauss is None:
                continue
            w = normalized_wasserstein(p_gauss, q_gauss, C)
            cur = best.get(query_id)
            if cur is None or w > cur[1] or (w == cur[1] and prior_id < cur[0]):
                best[query_id] = (prior_id, w)

    if not best:
        return 0.0, []
    score = sum(w for _, w in best.values()) / len(best)
    return score, [(best[q][0], q) for q in sorted(best)]
