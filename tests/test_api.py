"""The package's public surface, pinned: a name added to or dropped from
`semloc.__all__` shows up as a diff of this list."""

import semloc

PUBLIC = [
    "BoundingBox",
    "CameraIntrinsics",
    "CandidateSet",
    "DetectionRecord",
    "LabelFrequencyTable",
    "Landmark",
    "LocalizationResult",
    "LocalizationStatus",
    "MatcherConfig",
    "NoiseSpec",
    "Pose",
    "PriorObjectNode",
    "QueryDetectionNode",
    "Scene",
    "SceneSpec",
    "SemanticGraph",
    "SimilarityTable",
    "accumulate_label_frequencies",
    "build_knn_edges",
    "build_query_graph",
    "calculate_was",
    "estimate_pose",
    "evaluate_associations",
    "extract_candidates",
    "generate_scene",
    "generate_trajectory",
    "is_valid_sample",
    "look_at_pose",
    "mota",
    "normalize_confidences",
    "p3p_solve",
    "pixel_to_bearing",
    "prior_graph_from_nodes",
    "quadric_from_params",
    "render_frame",
    "render_sequence",
    "score_all_pairs",
    "shannon_entropy",
    "success_rate",
    "top_k_labels",
    "translation_error",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert semloc.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in semloc.__all__:
        assert getattr(semloc, name) is not None, name
