"""Acceptance gate: ten checks covering manifold invariants, gradient oracles,
closed-form anchors, the RINCE limit, compatibility-metric arithmetic,
desk-scale directional experiments, and retrieval oracle equivalence.

Each test prints exactly one summary line (PASS/FAIL plus the measured
numbers) so the gate can be read off the test output directly.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import elementary as el
from hbct import autodiff as ad
from hbct import losses
from hbct.encoder import ClipPolicy, TrainConfig, train_old
from hbct.evaluation import (EmbeddingSet, cmc_at_k, evaluate_metric,
                             mean_average_precision, p_com, retrieve)
from hbct.losses import (AlignmentConfig, base_loss, contrastive_loss,
                         entailment_loss, hexpm_origin, hinner, infonce_loss,
                         mean_distortion_loss, total_loss)
from hbct.manifold import (ManifoldConfig, expm_origin, geodesic_distance,
                           logm_origin, on_manifold_defect, uncertainty)
from hbct.scenarios import (ExperimentConfig, ScenarioSpec, SyntheticDatasetSpec,
                            _embedding_set, generate_dataset, generation_slice,
                            run_single, run_variants, sequential_matrix)

MCFG = ManifoldConfig(1.0, 3)


def _report(capsys, idx, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {idx:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. Manifold invariant suite

def test_criterion_01_manifold_invariants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    n_points = 0
    for K in (0.1, 0.5, 1.0, 1.5):
        mcfg = ManifoldConfig(K, 3)
        dirs = rng.normal(size=(2500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        zs = dirs * rng.uniform(0.0, 5.0, size=(2500, 1))
        pts = []
        for z in zs:
            p = expm_origin(z, mcfg)
            pts.append(p)
            worst = max(worst, on_manifold_defect(p, mcfg))
            back = logm_origin(p, mcfg)
            worst = max(worst, float(np.max(np.abs(back.space - z))), abs(back.time))
            worst = max(worst, geodesic_distance(p, p, mcfg))
        n_points += len(pts)
        # metric axioms on disjoint triples: symmetry, non-negativity, triangle
        for i in range(0, len(pts) - 2, 3):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            dab = geodesic_distance(a, b, mcfg)
            dac = geodesic_distance(a, c, mcfg)
            dcb = geodesic_distance(c, b, mcfg)
            worst = max(worst, abs(dab - geodesic_distance(b, a, mcfg)))
            worst = max(worst, -dab, dab - (dac + dcb))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(capsys, 1, "manifold invariants",
            ok, f"{n_points} points, worst defect {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Finite-difference gradient oracle for every loss

def _check_grad(build, x0, h=1e-6):
    """Max elementwise error between tape and central-difference gradients."""
    x0 = np.asarray(x0, dtype=np.float64)
    tape = ad.Tape()
    leaf = tape.var(x0)
    g_ad = ad.grad(build(leaf), [leaf])[0]
    err = 0.0
    for i in range(len(x0)):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = (build(xp) - build(xm)) / (2.0 * h)
        err = max(err, abs(g_ad[i] - fd) / max(1.0, abs(fd), abs(g_ad[i])))
    return err


def _sample_batch(rng, n=4, spread=1.0, offset=0.6):
    """Old/new tangent vectors kept apart so no pair sits on the acosh snap."""
    z_old = rng.normal(size=(n, 3)) * spread
    z_new = z_old + offset + 0.3 * rng.normal(size=(n, 3))
    return z_old, z_new


def _pairs_clear(z_new, z_old):
    """Every cross pair at least 1e-3 inside the acosh domain."""
    for zn in z_new:
        hn = hexpm_origin(list(zn), MCFG)
        for zo in z_old:
            ho = hexpm_origin(list(zo), MCFG)
            if -hinner(hn, ho) < 1.0 + 1e-3:
                return False
    return True


def _entail_clear(zn, zo, cfg):
    """Instance away from aperture saturation, acos clamps, and the hinge."""
    ho = hexpm_origin(list(zo), MCFG)
    hn = hexpm_origin(list(zn), MCFG)
    n = math.sqrt(sum(s * s for s in ho[1]))
    if n <= 1e-3:
        return False
    if 2.0 * cfg.epsilon_aperture / n >= 1.0 - 1e-3:
        return False
    c = hinner(ho, hn)
    sq = c * c - 1.0
    if sq <= 1e-3:
        return False
    arg = (hn[0] + ho[0] * c) / (n * math.sqrt(sq))
    if abs(arg) >= 1.0 - 1e-3:
        return False
    ext = math.acos(arg)
    aper = math.asin(2.0 * cfg.epsilon_aperture / n)
    return abs(ext - aper) > 1e-3


def _sample_until(rng, draw, accept, tries=500):
    for _ in range(tries):
        inst = draw(rng)
        if accept(inst):
            return inst
    raise RuntimeError("could not sample an instance clear of clamp boundaries")


def test_criterion_02_gradient_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    cfg = AlignmentConfig(tau=0.5, beta=0.5, epsilon_aperture=0.1)
    worst = {}

    # base MLR loss: gradient with respect to the point and the head rows
    errs = []
    for _ in range(100):
        z = _sample_until(rng, lambda r: r.normal(size=3),
                          lambda z: np.linalg.norm(z) > 1e-2)
        rows = _sample_until(rng, lambda r: r.normal(size=(4, 3)),
                             lambda m: np.linalg.norm(m, axis=1).min() > 1e-2)
        label = int(rng.integers(0, 4))
        x0 = list(z) + [v for row in rows for v in row]

        def build(xs):
            h = hexpm_origin(el.getitem(xs, np.s_[:3]), MCFG)
            return base_loss(h, label, el.reshape(el.getitem(xs, np.s_[3:]), (4, 3)), MCFG)

        errs.append(_check_grad(build, x0))
    worst["base"] = max(errs)

    # entailment loss: gradient with respect to the new point
    errs = []
    for _ in range(100):
        zo, zn = _sample_until(
            rng, lambda r: (r.normal(size=3), r.normal(size=3) * 1.5),
            lambda p: _entail_clear(p[1], p[0], cfg))
        ho = hexpm_origin(list(zo), MCFG)

        def build(xs):
            return entailment_loss(hexpm_origin(xs, MCFG), ho, cfg, MCFG)

        errs.append(_check_grad(build, list(zn)))
    worst["entail"] = max(errs)

    # contrastive variants: gradient with respect to the new batch
    def batch_builder(loss_call):
        errs = []
        for _ in range(100):
            z_old, z_new = _sample_until(rng, lambda r: _sample_batch(r),
                                         lambda p: _pairs_clear(p[1], p[0]))
            old_pts = [hexpm_origin(list(z), MCFG) for z in z_old]
            uncs = rng.uniform(0.1, 0.9, size=len(z_old))

            def build(xs):
                new_pts = hexpm_origin(el.reshape(xs, (len(old_pts), 3)), MCFG)
                return loss_call(new_pts, old_pts, uncs)

            errs.append(_check_grad(build, [v for z in z_new for v in z]))
        return max(errs)

    worst["rince_adaptive"] = batch_builder(
        lambda n, o, u: contrastive_loss(n, o, u, cfg, MCFG))
    fixed = replace(cfg, q_mode="fixed", q_fixed=0.5)
    worst["rince_fixed"] = batch_builder(
        lambda n, o, u: contrastive_loss(n, o, None, fixed, MCFG))
    worst["infonce"] = batch_builder(lambda n, o, u: infonce_loss(n, o, cfg, MCFG))
    worst["distortion"] = batch_builder(
        lambda n, o, u: mean_distortion_loss(n, o, cfg, MCFG))

    # total loss: base + entailment + contrastive on one batch
    errs = []
    tcfg = replace(cfg, lambda_align=0.3)
    for _ in range(100):
        def draw(r):
            z_old, z_new = _sample_batch(r)
            rows = r.normal(size=(4, 3))
            return z_old, z_new, rows

        def accept(inst):
            z_old, z_new, rows = inst
            if np.linalg.norm(rows, axis=1).min() <= 1e-2:
                return False
            if not _pairs_clear(z_new, z_old):
                return False
            return all(_entail_clear(zn, zo, tcfg)
                       for zn, zo in zip(z_new, z_old))

        z_old, z_new, rows = _sample_until(rng, draw, accept)
        old_pts = [hexpm_origin(list(z), MCFG) for z in z_old]
        uncs = rng.uniform(0.1, 0.9, size=len(z_old))
        labels = [int(v) for v in rng.integers(0, 4, size=len(z_old))]

        def build(xs):
            new_pts = hexpm_origin(el.reshape(xs, (len(old_pts), 3)), MCFG)
            return total_loss(new_pts, labels, old_pts, uncs, rows, tcfg, MCFG)

        errs.append(_check_grad(build, [v for z in z_new for v in z]))
    worst["total"] = max(errs)

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-4 and elapsed < 60.0
    _report(capsys, 2, "gradient oracle", ok,
            f"7 losses x 100 instances, worst rel err {peak:.2e}, {elapsed:.1f}s")
    assert peak <= 1e-4, worst
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. Closed-form anchors

def test_criterion_03_closed_form_anchors(capsys):
    rng = np.random.default_rng(3)
    z = rng.normal(size=3)
    z /= np.linalg.norm(z)
    unc_err = abs(uncertainty(expm_origin(z, MCFG), MCFG) - (1.0 - math.tanh(1.0)))
    h_o = (math.sqrt(1.0 + 0.16), [0.4, 0.0, 0.0])
    ap_err = abs(losses.aperture(h_o, AlignmentConfig(epsilon_aperture=0.1), MCFG)
                 - math.pi / 6.0)
    rad_err = 0.0
    for _ in range(20):
        z = rng.normal(size=3) * rng.uniform(0.1, 4.0)
        d = geodesic_distance(MCFG.origin, expm_origin(z, MCFG), MCFG)
        rad_err = max(rad_err, abs(d - np.linalg.norm(z)))
    ok = unc_err <= 1e-12 and ap_err <= 1e-12 and rad_err <= 1e-9
    _report(capsys, 3, "closed-form anchors", ok,
            f"uncertainty err {unc_err:.1e}, aperture err {ap_err:.1e}, "
            f"radial err {rad_err:.1e}")
    assert unc_err <= 1e-12
    assert ap_err <= 1e-12
    assert rad_err <= 1e-9


# ---------------------------------------------------------------------------
# 4. RINCE -> InfoNCE limit

def test_criterion_04_rince_limit(capsys):
    rng = np.random.default_rng(4)
    z_old = rng.normal(size=(32, 3))
    z_new = z_old + 0.3 * rng.normal(size=(32, 3))
    old = [hexpm_origin(list(z), MCFG) for z in z_old]
    new = [hexpm_origin(list(z), MCFG) for z in z_new]
    # beta = 1 removes the constant ln(beta) offset between the two losses
    base = AlignmentConfig(beta=1.0, tau=0.5, q_mode="fixed")
    ref = infonce_loss(new, old, base, MCFG)
    gaps = []
    for q in (0.5, 0.1, 0.01, 0.001):
        cfg = replace(base, q_fixed=q)
        gaps.append(abs(contrastive_loss(new, old, None, cfg, MCFG) - ref))
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] <= 1e-2
    _report(capsys, 4, "RINCE limit", ok,
            "gaps " + ", ".join(f"{g:.2e}" for g in gaps))
    assert monotone, gaps
    assert gaps[-1] <= 1e-2


# ---------------------------------------------------------------------------
# 5. Compatibility metric arithmetic against reference values

def test_criterion_05_metric_cross_check(capsys):
    val = p_com(0.572, 0.425, 0.722)
    ok = abs(val - 0.495) <= 0.01
    _report(capsys, 5, "P_com cross-check", ok, f"p_com = {val:.4f} vs 0.495")
    assert ok


# ---------------------------------------------------------------------------
# 6. Desk-scale extended-class experiment

CFG6 = ExperimentConfig(
    manifold=ManifoldConfig(1.0, 8),
    alignment=AlignmentConfig(lambda_align=0.25),
    clip=ClipPolicy(),
    train=TrainConfig(epochs=45, batch_size=16, learning_rate=0.05),
    dataset=SyntheticDatasetSpec(num_classes=20, samples_per_class=30,
                                 input_dim=16, cluster_spread=0.6,
                                 class_center_scale=3.5),
    scenario=ScenarioSpec(kind="ext_class", class_fraction=0.5,
                          old_arch=(16,), new_arch=(16,)),
    seeds=(0, 1, 2, 3, 4),
)


def test_criterion_06_ext_class_experiment(capsys):
    t0 = time.perf_counter()
    pcoms, pups, base_pcoms = [], [], []
    for seed in CFG6.seeds:
        res = run_single(CFG6, seed, metrics=("cmc@1",))
        rep = res.reports["cmc@1"]
        pcoms.append(rep.p_com)
        pups.append(rep.p_up)
        # the lambda = 0 baseline's own cross-retrieval against the old gallery
        cross_star = evaluate_metric(res.star.queries, res.old.gallery, "cmc@1")
        base_pcoms.append(p_com(cross_star, rep.old_self_value, rep.star_self_value))
    med_pcom = float(np.median(pcoms))
    med_base = float(np.median(base_pcoms))
    med_pup = float(np.median(pups))
    elapsed = time.perf_counter() - t0
    ok = med_pcom > med_base and med_pup >= -0.05 and elapsed < 300.0
    _report(capsys, 6, "ext-class experiment", ok,
            f"median p_com {med_pcom:.3f} vs baseline {med_base:.3f}, "
            f"median p_up {med_pup:.3f}, {elapsed:.0f}s")
    assert med_pcom > med_base, (pcoms, base_pcoms)
    assert med_pup >= -0.05, pups
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. Entailment ablation direction on the new-architecture scenario

CFG7 = ExperimentConfig(
    manifold=ManifoldConfig(1.0, 8),
    alignment=AlignmentConfig(lambda_align=0.3),
    clip=ClipPolicy(),
    train=TrainConfig(epochs=30, batch_size=16, learning_rate=0.05),
    dataset=SyntheticDatasetSpec(num_classes=20, samples_per_class=30,
                                 input_dim=16, cluster_spread=0.7,
                                 class_center_scale=3.5),
    scenario=ScenarioSpec(kind="new_arch", old_arch=(8,), new_arch=(24,)),
    seeds=(0, 1, 2, 3, 4),
)


def test_criterion_07_entailment_ablation(capsys):
    t0 = time.perf_counter()
    variants = {"full": CFG7.alignment,
                "noentail": replace(CFG7.alignment, lambda_entail=0.0)}
    full_pcoms, ablated_pcoms = [], []
    for seed in CFG7.seeds:
        out = run_variants(CFG7, seed, variants, metrics=("cmc@1",))
        full_pcoms.append(out["full"].reports["cmc@1"].p_com)
        ablated_pcoms.append(out["noentail"].reports["cmc@1"].p_com)
    med_full = float(np.median(full_pcoms))
    med_ablated = float(np.median(ablated_pcoms))
    elapsed = time.perf_counter() - t0
    ok = med_full >= med_ablated and elapsed < 300.0
    _report(capsys, 7, "entailment ablation", ok,
            f"median p_com full {med_full:.3f} vs no-entail {med_ablated:.3f}, "
            f"{elapsed:.0f}s")
    assert med_full >= med_ablated, (full_pcoms, ablated_pcoms)
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. Sequential-update compatibility matrix

CFG8 = ExperimentConfig(
    manifold=ManifoldConfig(1.0, 8),
    alignment=AlignmentConfig(lambda_align=0.3),
    clip=ClipPolicy(),
    train=TrainConfig(epochs=30, batch_size=16, learning_rate=0.05),
    dataset=SyntheticDatasetSpec(num_classes=12, samples_per_class=30,
                                 input_dim=16, cluster_spread=0.7,
                                 class_center_scale=3.5),
    scenario=ScenarioSpec(kind="sequential", n_steps=3,
                          old_arch=(16,), new_arch=(24,)),
    seeds=(0, 1, 2, 3, 4),
)


def test_criterion_08_sequential_matrix(capsys):
    t0 = time.perf_counter()
    sub = np.tril_indices(3, -1)
    hbct_means, base_means = [], []
    all_finite = True
    for seed in CFG8.seeds:
        m_hbct, m_base = sequential_matrix(CFG8, seed, metric="cmc@1")
        all_finite &= bool(np.all(np.isfinite(m_hbct)) and np.all(np.isfinite(m_base)))
        hbct_means.append(float(np.mean(m_hbct[sub])))
        base_means.append(float(np.mean(m_base[sub])))
    med_hbct = float(np.median(hbct_means))
    med_base = float(np.median(base_means))
    elapsed = time.perf_counter() - t0
    ok = all_finite and med_hbct > med_base and elapsed < 600.0
    _report(capsys, 8, "sequential matrix", ok,
            f"median sub-diagonal mean {med_hbct:.3f} vs baseline {med_base:.3f}, "
            f"all entries finite: {all_finite}, {elapsed:.0f}s")
    assert all_finite
    assert med_hbct > med_base, (hbct_means, base_means)
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 9. Uncertainty split between seen and unseen classes

def test_criterion_09_uncertainty_split(capsys):
    mcfg = ManifoldConfig(1.0, 8)
    policy = ClipPolicy()
    spec = SyntheticDatasetSpec(num_classes=20, samples_per_class=30,
                                input_dim=16, cluster_spread=0.6,
                                class_center_scale=3.5)
    gaps = []
    for seed in range(5):
        ds = generate_dataset(replace(spec, seed=seed))
        (old_X, old_y), _ = generation_slice(
            ds, ScenarioSpec(kind="ext_class", class_fraction=0.5), seed, 0)
        tcfg = TrainConfig(epochs=30, batch_size=16, learning_rate=0.05,
                           weight_decay=2e-2, seed=seed)
        model, _, _ = train_old(old_X, old_y, 20, mcfg, policy, tcfg, arch=(16,))
        _, unc = _embedding_set(model, ds.gallery_X, ds.gallery_y, policy, mcfg)
        seen = ds.gallery_y < 10
        gaps.append(float(np.median(unc[~seen]) - np.median(unc[seen])))
    n_pos = sum(g > 0 for g in gaps)
    ok = n_pos == 5
    _report(capsys, 9, "uncertainty split", ok,
            f"{n_pos}/5 seeds positive, gaps " + ", ".join(f"{g:.3f}" for g in gaps))
    assert n_pos == 5, gaps


# ---------------------------------------------------------------------------
# 10. Retrieval oracle equivalence

def _oracle_rank(q, gal):
    ds = []
    for i in range(len(gal)):
        g = gal.points[i]
        if gal.geometry == "lorentz":
            inner = float(np.dot(g[1:], q[1:])) - g[0] * q[0]
            d = math.acosh(max(-gal.curvature_K * inner, 1.0))
            d /= math.sqrt(gal.curvature_K)
        else:
            d = 1.0 - float(np.dot(g, q)) / max(
                np.linalg.norm(g) * np.linalg.norm(q), 1e-300)
        ds.append((d, i))
    return [i for _, i in sorted(ds)]


def _oracle_cmc_map(queries, gallery, k):
    hits = 0
    aps = []
    for qi in range(len(queries)):
        order = _oracle_rank(queries.points[qi], gallery)
        rel = [gallery.labels[i] == queries.labels[qi] for i in order]
        hits += any(rel[:k])
        n_rel = sum(rel)
        found = 0
        ap = 0.0
        for rank, r in enumerate(rel, start=1):
            if r:
                found += 1
                ap += found / rank
        aps.append(ap / n_rel)
    return hits / len(queries), float(np.mean(aps))


def _random_set(rng, n, geometry, dim=3):
    labels = rng.integers(0, 3, size=n)
    if geometry == "lorentz":
        mcfg = ManifoldConfig(1.0, dim)
        pts = [expm_origin(z, mcfg) for z in rng.normal(size=(n, dim))]
        return EmbeddingSet.from_lorentz([p.time for p in pts],
                                         [p.space for p in pts], labels)
    return EmbeddingSet(rng.normal(size=(n, dim)), labels, "euclidean")


def test_criterion_10_retrieval_oracle(capsys):
    rng = np.random.default_rng(10)
    mismatches = 0
    for i in range(1000):
        geometry = "lorentz" if i % 2 == 0 else "euclidean"
        gal = _random_set(rng, int(rng.integers(2, 40)), geometry)
        if geometry == "lorentz":
            q = expm_origin(rng.normal(size=3), ManifoldConfig(1.0, 3)).ambient
        else:
            q = rng.normal(size=3)
        if list(retrieve(q, gal)) != _oracle_rank(q, gal):
            mismatches += 1
    metric_err = 0.0
    for i in range(30):
        geometry = "lorentz" if i % 2 == 0 else "euclidean"
        queries = _random_set(rng, 12, geometry)
        gallery = _random_set(rng, 20, geometry)
        for k in (1, 3):
            oc, om = _oracle_cmc_map(queries, gallery, k)
            metric_err = max(metric_err, abs(cmc_at_k(queries, gallery, k) - oc))
            metric_err = max(metric_err,
                             abs(mean_average_precision(queries, gallery) - om))
    ok = mismatches == 0 and metric_err <= 1e-12
    _report(capsys, 10, "retrieval oracle", ok,
            f"{mismatches}/1000 ranking mismatches, "
            f"CMC/mAP max deviation {metric_err:.1e}")
    assert mismatches == 0
    assert metric_err <= 1e-12
