"""Acceptance gate for the full pipeline.

Ten criteria: exact oracles for the likelihood, neighbor selection, and
geometry kernels; seeded end-to-end targets on the synthetic simulator;
a soft latency budget; and byte-level determinism of the CLI. Each test
prints one `[acceptance] ...` verdict line on the real stdout so the
summary survives pytest's output capture, then asserts its thresholds.
Thresholds are pinned inline next to each check.
"""

import cProfile
import io
import math
import pstats
import time
from pathlib import Path

import numpy as np
import pytest

from semloc import (
    BoundingBox,
    CameraIntrinsics,
    MatcherConfig,
    NoiseSpec,
    LabelFrequencyTable,
    Pose,
    PriorObjectNode,
    QueryDetectionNode,
    SceneSpec,
    SemanticGraph,
    evaluate_associations,
    generate_scene,
    generate_trajectory,
    p3p_solve,
    prior_graph_from_nodes,
    quadric_from_params,
    render_sequence,
    score_all_pairs,
    shannon_entropy,
    success_rate,
    translation_error,
)
from semloc.cli import _accumulate_map, _localize_frame, _seed_children, main
from semloc.dataio import FrameRecord

import conftest
from conftest import graph, query_node, random_conf, random_table
from oracles import (
    GaussianBox,
    best_neighbor_set,
    multilabel_likelihood,
    neighbors_of,
    node_of,
    project_quadric_to_bbox,
    similarity_score,
    wasserstein2_squared,
)

INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)


def _report(criterion: str, ok: bool, detail: str = "", soft: bool = False):
    flag = "PASS" if ok else ("SOFT FAIL" if soft else "FAIL")
    line = f"[acceptance] {criterion}: {flag}"
    if detail:
        line += f" ({detail})"
    # normal print for -s runs; the conftest summary hook replays the line
    # after the run, where pytest's fd-level capture cannot swallow it
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# criterion 1: likelihood against a brute-force double loop


def test_criterion_1_likelihood_oracle():
    """10^5 random table/confidence pairs, independent double-loop oracle.

    After the timed window, the same cases go through the production path:
    stacked into blocks of prior and query nodes, score_all_pairs' likelihood
    diagonal must equal the oracle values.
    """
    rng = np.random.default_rng(1)
    vocab = [f"w{i:02d}" for i in range(12)]
    n = 100_000
    t0 = time.perf_counter()
    # bulk-draw everything up front; per-case numpy calls would dominate
    sizes_f = rng.integers(1, 7, n)
    sizes_c = rng.integers(1, 7, n)
    order_f = np.argsort(rng.random((n, 12)), axis=1)
    order_c = np.argsort(rng.random((n, 12)), axis=1)
    count_pool = rng.integers(1, 10, (n, 6))
    extras = rng.integers(0, 5, n)
    conf_pool = rng.random((n, 6)) + 1e-3

    def case(i):
        kf = int(sizes_f[i])
        kc = int(sizes_c[i])
        counts = {vocab[j]: int(c) for j, c in zip(order_f[i, :kf], count_pool[i, :kf])}
        total = sum(counts.values()) + int(extras[i])
        table = LabelFrequencyTable.from_counts(counts, total)
        c_labels = [vocab[j] for j in order_c[i, :kc]]
        w = conf_pool[i, :kc] / conf_pool[i, :kc].sum()
        conf = sorted(((l, float(v)) for l, v in zip(c_labels, w)), key=lambda e: (-e[1], e[0]))
        return counts, total, table, c_labels, w, conf

    worst = 0.0
    # only the oracle values are kept: holding 1e5 cases alive would slow the
    # timed loop down through garbage collection
    wants = np.empty(n)
    for i in range(n):
        counts, total, table, c_labels, w, conf = case(i)
        got = multilabel_likelihood(table, conf)
        want = 0.0
        for fl, fc in counts.items():
            for cl, cv in zip(c_labels, w):
                if fl == cl:
                    want += (fc / total) * float(cv)
        worst = max(worst, abs(got - want))
        wants[i] = want
    dt = time.perf_counter() - t0

    # production path: each block of cases as two edge-free graphs, case i of
    # a block at row i and column i of score_all_pairs' table, which without
    # edges holds the likelihood
    rotation = np.array([1.0, 0.0, 0.0, 0.0])
    scale = np.full(3, 0.1)
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    prod_worst = 0.0
    for start in range(0, n, 1000):
        priors, queries = [], []
        for i in range(start, min(n, start + 1000)):
            _, _, freq, _, _, conf = case(i)
            priors.append(PriorObjectNode(i, np.zeros(3), rotation, scale, freq))
            queries.append(QueryDetectionNode(i, box, np.array([0.0, 0.0, 1.0]), conf))
        table = score_all_pairs(SemanticGraph(priors, []), SemanticGraph(queries, []))
        err = np.abs(np.diag(table.similarity) - wants[start : start + len(priors)])
        prod_worst = max(prod_worst, float(err.max()))

    ok = worst < 1e-12 and dt < 5.0 and prod_worst < 1e-12
    _report(
        "criterion 1, likelihood oracle 1e5 cases",
        ok,
        f"max_err={worst:.2e} production_err={prod_worst:.2e} t={dt:.2f}s",
    )
    assert worst < 1e-12
    assert dt < 5.0
    assert prod_worst < 1e-12


# ---------------------------------------------------------------------------
# criterion 2: neighbor selection against exhaustive enumeration


def test_criterion_2_neighbor_selection_oracle():
    """10^3 random star graphs, every neighbor pair enumerated and compared.

    The context score is a sum of independent per-query-neighbor terms, so
    enumerating all (prior, query) neighbor pairs and taking the exact
    tie-broken argmax per query neighbor covers every joint assignment.
    After the timed window, score_all_pairs' similarity at each root pair
    must equal the enumerated score.
    """
    vocab = [f"w{i:02d}" for i in range(12)]

    def star_graphs(rng):
        for _ in range(1000):
            n_p = int(rng.integers(0, 21))
            n_q = int(rng.integers(0, 21))
            p_nodes = [
                PriorObjectNode(
                    id=i,
                    position=rng.uniform(-3, 3, 3),
                    rotation=np.array([1.0, 0.0, 0.0, 0.0]),
                    scale=np.full(3, 0.1),
                    frequencies=random_table(rng, vocab),
                )
                for i in range(n_p + 1)
            ]
            q_nodes = [
                query_node(
                    100 + j, rng.uniform(-3, 3, 3) + [0.0, 0.0, 6.0], random_conf(rng, vocab)
                )
                for j in range(n_q + 1)
            ]
            yield (
                graph(p_nodes, {(0, i + 1) for i in range(n_p)}),
                graph(q_nodes, {(100, 101 + j) for j in range(n_q)}),
            )

    t0 = time.perf_counter()
    wants = []
    for g, (pg, qg) in enumerate(star_graphs(np.random.default_rng(77))):

        def like(n, m):
            return multilabel_likelihood(node_of(pg, n).frequencies, node_of(qg, m).confidences)

        sel = best_neighbor_set((0, 100), pg, qg, like)
        got_score = similarity_score(like(0, 100), sel)

        p_root = node_of(pg, 0).position
        q_root = node_of(qg, 100).position
        expected = []
        for m in neighbors_of(qg, 100):
            dq = float(np.linalg.norm(node_of(qg, m).position - q_root))
            best = None
            for n in neighbors_of(pg, 0):
                dp = float(np.linalg.norm(node_of(pg, n).position - p_root))
                prod = (1.0 / (1.0 + abs(dp - dq))) * like(n, m)
                key = (prod, -n)  # ties resolve to the lowest prior id
                if best is None or key > best[0]:
                    best = (key, n, prod)
            if best is not None:
                expected.append((best[1], m, best[2]))
        want_score = like(0, 100)
        if expected:
            want_score += sum(p for _, _, p in expected) / len(neighbors_of(qg, 100))

        got = [(s.prior_neighbor, s.query_neighbor, s.weighted_likelihood) for s in sel.selections]
        assert got == expected, f"graph {g}: selection mismatch"
        assert got_score == want_score, f"graph {g}: score mismatch"
        wants.append(want_score)
    dt = time.perf_counter() - t0
    # production path on the same graphs, regenerated rather than kept alive
    # through the timed loop; the root pair (0, 100) is row 0, column 0
    prod_worst = max(
        abs(float(score_all_pairs(pg, qg).similarity[0, 0]) - want)
        for (pg, qg), want in zip(star_graphs(np.random.default_rng(77)), wants)
    )
    ok = dt < 10.0 and prod_worst < 1e-12
    _report(
        "criterion 2, neighbor selection oracle 1e3 graphs",
        ok,
        f"exact, production_err={prod_worst:.2e} t={dt:.2f}s",
    )
    assert dt < 10.0
    assert prod_worst < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: geometry oracles


def _sphere_extent(p, r, f, c):
    # tangent lines from the origin to the circle (p0, p1, r); reducing the
    # sphere to its axial disk is exact because extremal image points of a
    # ball lie in the plane through its center and the optical axis
    a = p[1] ** 2 - r ** 2
    b = -2.0 * p[0] * p[1]
    cc = p[0] ** 2 - r ** 2
    disc = b * b - 4.0 * a * cc
    m1 = (-b - math.sqrt(disc)) / (2.0 * a)
    m2 = (-b + math.sqrt(disc)) / (2.0 * a)
    return min(m1, m2) * f + c, max(m1, m2) * f + c


def test_criterion_3a_sphere_projection_oracle():
    """10^4 random spheres against the analytic tangent-cone box."""
    rng = np.random.default_rng(11)
    worst = 0.0
    n = 0
    t0 = time.perf_counter()
    while n < 10_000:
        center = np.array(
            [rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2), rng.uniform(2.5, 9.0)]
        )
        r = rng.uniform(0.05, 0.6)
        if center[2] < r + 0.5:
            continue
        q = quadric_from_params(center, np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, r))
        box = project_quadric_to_bbox(q, Pose.identity(), INTR)
        assert box is not None
        x_lo, x_hi = _sphere_extent(center[[0, 2]], r, INTR.fx, INTR.cx)
        y_lo, y_hi = _sphere_extent(center[[1, 2]], r, INTR.fy, INTR.cy)
        err = max(
            abs(box.x_min - x_lo),
            abs(box.x_max - x_hi),
            abs(box.y_min - y_lo),
            abs(box.y_max - y_hi),
        )
        worst = max(worst, err)
        n += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-6
    _report("criterion 3a, sphere projection 1e4 spheres", ok, f"max_err={worst:.2e}px t={dt:.2f}s")
    assert worst < 1e-6


def test_criterion_3b_p3p_recovery_rate():
    """10^4 forward-projected non-degenerate triples; pose recovery >= 99.9%."""
    rng = np.random.default_rng(11)
    n_ok = 0
    n_total = 0
    t0 = time.perf_counter()
    while n_total < 10_000:
        pts = rng.uniform([-3, -3, 0], [3, 3, 2], (3, 3))
        v1, v2 = pts[1] - pts[0], pts[2] - pts[0]
        if np.linalg.norm(np.cross(v1, v2)) < 0.3:
            continue
        ang = rng.uniform(0.0, 2.0 * np.pi)
        cam_pos = np.array([3.5 * np.cos(ang), 3.5 * np.sin(ang), rng.uniform(1.0, 2.0)])
        fwd = pts.mean(axis=0) - cam_pos
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, [0.0, 0.0, -1.0])
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        r_wc = np.stack([right, down, fwd], axis=1)
        gt = Pose.from_rt(r_wc.T, -r_wc.T @ cam_pos)
        cam_pts = gt.transform(pts)
        if (cam_pts[:, 2] < 0.2).any():
            continue
        bearings = cam_pts / np.linalg.norm(cam_pts, axis=1, keepdims=True)
        n_total += 1
        sols = p3p_solve(pts, bearings)
        centers = [sols.pose(k).camera_center() for k in range(len(sols))]
        best = min((np.linalg.norm(c - cam_pos) for c in centers), default=np.inf)
        if best < 1e-6:
            n_ok += 1
    dt = time.perf_counter() - t0
    rate = 100.0 * n_ok / n_total
    ok = rate >= 99.9
    _report("criterion 3b, p3p recovery 1e4 triples", ok, f"rate={rate:.2f}% t={dt:.2f}s")
    assert rate >= 99.9


def test_criterion_3c_wasserstein_trace_formula():
    """Diagonal closed form against the general-Gaussian trace formula."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        sa = rng.uniform(0.5, 40.0, 2)
        sb = rng.uniform(0.5, 40.0, 2)
        a = GaussianBox(rng.uniform(-50, 50, 2), np.diag(sa**2))
        b = GaussianBox(rng.uniform(-50, 50, 2), np.diag(sb**2))
        got = wasserstein2_squared(a, b)
        cov_a = np.diag(sa**2)
        cov_b = np.diag(sb**2)
        sqrt_a = np.diag(sa)
        cross = np.diag(np.sqrt(np.diag(sqrt_a @ cov_b @ sqrt_a)))
        want = float(np.sum((a.mean - b.mean) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))
        worst = max(worst, abs(got - want))
    ok = worst < 1e-9
    _report("criterion 3c, wasserstein trace formula 1e4 pairs", ok, f"max_err={worst:.2e}")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# end-to-end scenario harness shared by criteria 4-7


def _run_batch(seed, spec_kw, noise, n_keyframes, n_frames, configs, radius=None, height=None):
    """One seed: scene -> keyframe map pass -> localize every query frame."""
    spec = SceneSpec(seed=seed, **spec_kw)
    scene = generate_scene(spec)
    _, s_kf_traj, s_kf_render, s_q_traj, s_q_render = _seed_children(seed, 5)
    kf_poses = generate_trajectory(
        "orbit", n_keyframes, spec.bounds, seed=s_kf_traj, radius=radius, height=height
    )
    q_poses = generate_trajectory(
        "orbit", n_frames, spec.bounds, seed=s_q_traj, radius=radius, height=height
    )
    kf_frames = render_sequence(scene, kf_poses, INTR, noise, seed=s_kf_render)
    q_frames = render_sequence(scene, q_poses, INTR, noise, seed=s_q_render)
    landmarks = [
        {"id": lm.id, "position": lm.position, "rotation": lm.rotation, "scale": lm.scale}
        for lm in scene.landmarks
    ]
    kf_records = [FrameRecord(i, 0.1 * i, dets) for i, (dets, _) in enumerate(kf_frames)]
    kf_assoc = {i: assoc for i, (_, assoc) in enumerate(kf_frames)}
    q_records = [FrameRecord(i, 1000.0 + 0.1 * i, dets) for i, (dets, _) in enumerate(q_frames)]
    gt_assoc = {i: assoc for i, (_, assoc) in enumerate(q_frames)}

    out = {}
    for name, config in configs.items():
        nodes, keyframes = _accumulate_map(landmarks, kf_records, kf_assoc, config.K)
        prior = prior_graph_from_nodes(nodes, keyframes, k_edge=config.k_edge)
        results = [_localize_frame(f, prior, INTR, config, None) for f in q_records]
        predicted = {r.frame_id: r.correspondences for r in results}
        counts = evaluate_associations(predicted, gt_associations=gt_assoc)
        errors = []
        for r in results:
            te = translation_error(r.pose, q_poses[r.frame_id]) if r.pose is not None else None
            errors.append((r.frame_id, te))
        tes = [e for _, e in errors if e is not None]
        out[name] = {
            "f1": counts.f1,
            "sr": success_rate(errors, 0.5, mode="succ"),
            "te": float(np.mean(tes)) if tes else None,
        }
    return out


# ---------------------------------------------------------------------------
# criterion 4: noise-free end-to-end


def test_criterion_4_noise_free_end_to_end():
    spec_kw = dict(
        n_landmarks=30,
        bounds=((-2.0, -2.0, 0.0), (2.0, 2.0, 1.5)),
        vocabulary=[f"obj{i:02d}" for i in range(30)],
        unique_labels=True,
        min_separation=0.3,
    )
    configs = {"base": MatcherConfig(K=5, tau=3, C=100.0, n_iter=800)}
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(10):
        per_seed.append(_run_batch(seed, spec_kw, NoiseSpec(), 60, 100, configs)["base"])
    dt = time.perf_counter() - t0
    bad = [
        s
        for s, m in enumerate(per_seed)
        if not (m["f1"] == 1.0 and m["sr"] == 100.0 and m["te"] < 1e-3)
    ]
    worst_te = max(m["te"] for m in per_seed)
    ok = not bad and dt < 60.0
    _report(
        "criterion 4, noise-free end-to-end 10 seeds",
        ok,
        f"f1=1.0 sr=100% worst_mean_te={worst_te:.2e}m t={dt:.1f}s bad_seeds={bad}",
    )
    assert bad == []
    assert dt < 60.0


# ---------------------------------------------------------------------------
# criteria 5-7: ambiguity stress scenario, shared 10-seed batch


_STRESS_VOCAB = [
    "chair", "table", "sofa", "lamp", "plant", "monitor",
    "shelf", "bed", "door", "sink", "fridge", "tv",
]
_STRESS_CLUSTERS = [
    ["chair", "sofa", "bed"],
    ["table", "shelf", "door"],
    ["lamp", "monitor", "tv"],
    ["plant", "sink", "fridge"],
]
_STRESS_SPEC = dict(
    n_landmarks=30,
    bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
    vocabulary=_STRESS_VOCAB,
    clusters=_STRESS_CLUSTERS,
    confusion_rate=0.3,
    min_separation=0.3,
)
_STRESS_NOISE = NoiseSpec(bbox_jitter=2.0, depth_sigma=0.05, dropout=0.1, temperature=0.5)


@pytest.fixture(scope="module")
def stress_means():
    """Mean F1 and SR_succ@0.5m over 10 seeds for the ablation configs."""
    configs = {
        "K5": MatcherConfig(K=5, tau=3, C=100.0),
        "K3": MatcherConfig(K=3, tau=3, C=100.0),
        "K1": MatcherConfig(K=1, tau=3, C=100.0),
        "no_calp": MatcherConfig(K=5, tau=3, C=100.0, use_calp=False),
    }
    rows = {name: [] for name in configs}
    for seed in range(10):
        out = _run_batch(
            seed, _STRESS_SPEC, _STRESS_NOISE, 60, 200, configs, radius=2.0, height=1.4
        )
        for name, m in out.items():
            rows[name].append(m)
    return {
        name: {
            "f1": float(np.mean([m["f1"] for m in ms])),
            "sr": float(np.mean([m["sr"] for m in ms])),
        }
        for name, ms in rows.items()
    }


def test_criterion_5_ambiguity_stress(stress_means):
    m = stress_means["K5"]
    ok = m["f1"] >= 0.90 and m["sr"] >= 80.0
    _report(
        "criterion 5, ambiguity stress K=5 tau=3 C=100",
        ok,
        f"mean_f1={m['f1']:.4f} (>=0.90) mean_sr={m['sr']:.2f}% (>=80%)",
    )
    assert m["f1"] >= 0.90
    assert m["sr"] >= 80.0


def test_criterion_6_k_ablation_monotonic(stress_means):
    sr5 = stress_means["K5"]["sr"]
    sr3 = stress_means["K3"]["sr"]
    sr1 = stress_means["K1"]["sr"]
    ok = sr5 >= sr3 >= sr1 + 10.0
    _report(
        "criterion 6, K ablation monotonicity",
        ok,
        f"sr(K5)={sr5:.2f}% >= sr(K3)={sr3:.2f}% >= sr(K1)+10pp={sr1 + 10.0:.2f}%",
    )
    assert sr5 >= sr3
    assert sr3 >= sr1 + 10.0


def test_criterion_7_context_beats_likelihood_only(stress_means):
    sr_full = stress_means["K5"]["sr"]
    sr_plain = stress_means["no_calp"]["sr"]
    ok = sr_full > sr_plain
    _report(
        "criterion 7, context propagation vs likelihood-only",
        ok,
        f"sr(full)={sr_full:.2f}% > sr(no context)={sr_plain:.2f}%",
    )
    assert sr_full > sr_plain


# ---------------------------------------------------------------------------
# criterion 8: latency budget (soft)


def test_criterion_8_latency_budget_soft():
    """Median single-frame localize, 10 detections vs 50 landmarks.

    Soft: a miss prints a profile instead of failing, since the budget
    depends on the host CPU. The hard assertions only guard that the
    scenario itself behaves (frames localize successfully).
    """
    vocab = [f"obj{i:02d}" for i in range(50)]
    spec = SceneSpec(
        n_landmarks=50,
        bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
        vocabulary=vocab,
        unique_labels=True,
        min_separation=0.25,
        seed=0,
    )
    scene = generate_scene(spec)
    s1, s2, s3, s4, s5 = _seed_children(0, 5)
    # two keyframe orbits at different heights so all 50 landmarks are seen
    kf_poses = generate_trajectory(
        "orbit", 40, spec.bounds, seed=s1, radius=2.0, height=1.0
    ) + generate_trajectory("orbit", 40, spec.bounds, seed=s2, radius=2.6, height=1.8)
    q_poses = generate_trajectory("orbit", 120, spec.bounds, seed=s4, radius=2.0, height=1.4)
    kf_frames = render_sequence(scene, kf_poses, INTR, NoiseSpec(), seed=s3)
    noise = NoiseSpec(bbox_jitter=1.0, depth_sigma=0.03, temperature=0.3)
    q_frames = render_sequence(scene, q_poses, INTR, noise, seed=s5)
    landmarks = [
        {"id": lm.id, "position": lm.position, "rotation": lm.rotation, "scale": lm.scale}
        for lm in scene.landmarks
    ]
    config = MatcherConfig()
    nodes, keyframes = _accumulate_map(
        landmarks,
        [FrameRecord(i, 0.1 * i, dets) for i, (dets, _) in enumerate(kf_frames)],
        {i: assoc for i, (_, assoc) in enumerate(kf_frames)},
        config.K,
    )
    prior = prior_graph_from_nodes(nodes, keyframes, k_edge=config.k_edge)
    assert len(prior.nodes) == 50

    frames = [
        FrameRecord(i, 0.1 * i, dets[:10]) for i, (dets, _) in enumerate(q_frames) if len(dets) >= 10
    ][:60]
    assert len(frames) == 60
    _localize_frame(frames[0], prior, INTR, config, None)  # warm-up
    latencies = []
    statuses = []
    for f in frames:
        t0 = time.perf_counter()
        r = _localize_frame(f, prior, INTR, config, None)
        latencies.append((time.perf_counter() - t0) * 1e3)
        statuses.append(r.status)
    median = float(np.median(latencies))
    ok = median <= 30.0
    _report(
        "criterion 8, latency 10 dets vs 50 landmarks [soft]",
        ok,
        f"median={median:.2f}ms p90={np.percentile(latencies, 90):.2f}ms budget=30ms",
        soft=True,
    )
    if not ok:
        profiler = cProfile.Profile()
        profiler.enable()
        for f in frames[:15]:
            _localize_frame(f, prior, INTR, config, None)
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(12)
        print(buf.getvalue(), flush=True)
        conftest.ACCEPTANCE_LINES.extend(buf.getvalue().splitlines())
    success = statuses.count("success")
    assert success >= 54  # >=90%: the scenario must localize, fast or not


# ---------------------------------------------------------------------------
# criterion 9: entropy contrast between confidence regimes


def test_criterion_9_entropy_contrast():
    vocab = ["mug", "cup", "bowl", "can", "jar", "pot",
             "book", "box", "bin", "bag", "case", "tray"]
    clusters = [vocab[:6], vocab[6:]]
    means = {}
    for temperature in (0.05, 5.0):
        values = []
        for seed in range(5):
            spec = SceneSpec(
                n_landmarks=20,
                bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
                vocabulary=vocab,
                clusters=clusters,
                confusion_rate=0.3,
                seed=seed,
            )
            scene = generate_scene(spec)
            s_traj, s_render = _seed_children(seed, 2)
            poses = generate_trajectory(
                "orbit", 30, spec.bounds, seed=s_traj, radius=2.0, height=1.4
            )
            for dets, _ in render_sequence(
                scene, poses, INTR, NoiseSpec(temperature=temperature), seed=s_render
            ):
                for det in dets:
                    values.append(shannon_entropy(score for _, score in det.labels))
        means[temperature] = float(np.mean(values))
    ok = means[0.05] < 0.2 and means[5.0] > 1.0
    _report(
        "criterion 9, entropy contrast",
        ok,
        f"low_temp={means[0.05]:.3f} nats (<0.2) high_temp={means[5.0]:.3f} nats (>1.0)",
    )
    assert means[0.05] < 0.2
    assert means[5.0] > 1.0


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns across the CLI


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_chain(root: Path):
    sim = root / "sim"
    run = root / "run"
    assert main([
        "simulate", "--output", str(sim),
        "--n-landmarks", "12", "--n-keyframes", "12", "--n-frames", "6",
        "--unique-labels", "--bbox-jitter", "0.5", "--temperature", "0.3",
        "--dropout", "0.1", "--seed", "5",
    ]) == 0
    assert main([
        "build-map",
        "--scene", str(sim / "scene.json"),
        "--keyframes", str(sim / "keyframes.jsonl"),
        "--associations", str(sim / "keyframe_associations.jsonl"),
        "--output", str(root / "map.json"),
    ]) == 0
    assert main([
        "localize",
        "--detections", str(sim / "query.jsonl"),
        "--intrinsics", str(sim / "intrinsics.json"),
        "--map", str(root / "map.json"),
        "--output", str(run),
        "--threads", "1", "--seed", "7",
    ]) == 0
    assert main([
        "evaluate",
        "--results", str(run),
        "--gt-trajectory", str(sim / "gt_trajectory.txt"),
        "--gt-associations", str(sim / "gt_associations.jsonl"),
    ]) == 0


def test_criterion_10_cli_rerun_byte_identical(tmp_path, capsys):
    _run_chain(tmp_path)
    first = _tree_bytes(tmp_path)
    _run_chain(tmp_path)  # same paths: every output is overwritten in place
    second = _tree_bytes(tmp_path)
    capsys.readouterr()
    same_names = set(first) == set(second)
    diffs = sorted(k for k in set(first) & set(second) if first[k] != second[k])
    ok = same_names and not diffs and len(first) >= 13
    _report(
        "criterion 10, CLI rerun determinism",
        ok,
        f"files={len(first)} mismatches={diffs}",
    )
    assert same_names
    assert diffs == []
    assert len(first) >= 13
