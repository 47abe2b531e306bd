"""Object-level global localization by multi-label semantic graph matching.

A prior map of landmarks (dual-quadric geometry plus accumulated label
frequencies) is matched against per-frame detection graphs; candidate
correspondences feed a sampling loop that solves P3P and keeps the pose with
the best projected-box alignment.
"""

from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Pose,
    p3p_solve,
    pixel_to_bearing,
    quadric_from_params,
)
from .graph import (
    DetectionRecord,
    LabelFrequencyTable,
    PriorObjectNode,
    QueryDetectionNode,
    SemanticGraph,
    accumulate_label_frequencies,
    build_knn_edges,
    build_query_graph,
    normalize_confidences,
    prior_graph_from_nodes,
    top_k_labels,
)
from .matching import (
    CandidateSet,
    SimilarityTable,
    extract_candidates,
    score_all_pairs,
)
from .pose import (
    LocalizationResult,
    LocalizationStatus,
    MatcherConfig,
    calculate_was,
    estimate_pose,
    is_valid_sample,
)
from .simulate import (
    Landmark,
    NoiseSpec,
    Scene,
    SceneSpec,
    generate_scene,
    generate_trajectory,
    look_at_pose,
    render_frame,
    render_sequence,
)
from .metrics import (
    evaluate_associations,
    mota,
    shannon_entropy,
    success_rate,
    translation_error,
)

__version__ = "0.1.0"

__all__ = [
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
