"""Synthetic data generation, scenario orchestration, artifact emission,
config round-trip, and the CLI exit-code contract."""

import math
import os
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hbct import config as cfgmod
from hbct.cli import main
from hbct.encoder import (ClipPolicy, EncoderModel, TrainConfig, load_checkpoint,
                          save_checkpoint, train_new, train_old)
from hbct.errors import DegenerateBaselineError, InvalidArgumentError
from hbct.evaluation import (EmbeddingSet, cmc_at_k, load_embedding_set,
                             save_embedding_set)
from hbct.losses import AlignmentConfig
from hbct.manifold import ManifoldConfig, hexpm_origin, uncertainty
from hbct.scenarios import (Dataset, ExperimentConfig, ScenarioSpec,
                            SyntheticDatasetSpec, _chain, generate_dataset,
                            generation_slice, load_dataset, run_matrix, run_scenario,
                            run_single, run_sweep, run_variants, save_dataset,
                            sequential_matrix, write_histogram_svg,
                            write_histogram_text, write_matrix_table)


def tiny_cfg(**overrides):
    cfg = ExperimentConfig(
        manifold=ManifoldConfig(1.0, 4),
        alignment=AlignmentConfig(lambda_align=0.3),
        clip=ClipPolicy(),
        train=TrainConfig(epochs=3, batch_size=8, learning_rate=0.05),
        dataset=SyntheticDatasetSpec(num_classes=6, samples_per_class=15,
                                     input_dim=6, cluster_spread=2.0,
                                     class_center_scale=2.0),
        scenario=ScenarioSpec(kind="ext_class", class_fraction=0.5),
        seeds=(0,),
    )
    return replace(cfg, **overrides)


class TestGenerateDataset:
    SPEC = SyntheticDatasetSpec(num_classes=4, samples_per_class=10, input_dim=5)

    def test_determinism(self):
        a = generate_dataset(self.SPEC)
        b = generate_dataset(self.SPEC)
        assert np.array_equal(a.train_X, b.train_X)
        assert np.array_equal(a.query_y, b.query_y)

    def test_split_sizes_and_disjointness(self):
        ds = generate_dataset(self.SPEC)
        n_hold = 10 // 5
        assert len(ds.query_X) == len(ds.gallery_X) == 4 * n_hold
        assert len(ds.train_X) == 4 * (10 - 2 * n_hold)
        rows = {x.tobytes() for x in ds.train_X}
        assert not rows & {x.tobytes() for x in ds.query_X}
        assert not rows & {x.tobytes() for x in ds.gallery_X}

    def test_labels_contiguous(self):
        ds = generate_dataset(self.SPEC)
        assert set(np.unique(ds.train_y)) == set(range(4))
        assert ds.num_classes == 4

    def test_tiny_spread_gives_perfect_retrieval(self):
        spec = replace(self.SPEC, cluster_spread=1e-6)
        ds = generate_dataset(spec)
        q = EmbeddingSet(ds.query_X, ds.query_y, "euclidean")
        g = EmbeddingSet(ds.gallery_X, ds.gallery_y, "euclidean")
        assert cmc_at_k(q, g, 1) == 1.0

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            generate_dataset(replace(self.SPEC, samples_per_class=2))

    def test_bad_spec_values(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticDatasetSpec(num_classes=0)
        with pytest.raises(InvalidArgumentError):
            SyntheticDatasetSpec(cluster_spread=0.0)
        with pytest.raises(InvalidArgumentError, match="split three ways"):
            SyntheticDatasetSpec(samples_per_class=2)

    @pytest.mark.parametrize("samples_per_class", [3, 7, 10])
    def test_equals_per_class_draws(self, samples_per_class):
        # the reference draws one class at a time; one (C, n, D) draw must give
        # the same bytes (n_hold is 1 for 3 and 7 samples, 2 for 10)
        spec = replace(self.SPEC, samples_per_class=samples_per_class, seed=5)
        rng = np.random.default_rng(spec.seed)
        centers = rng.normal(size=(spec.num_classes, spec.input_dim))
        centers *= spec.class_center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
        n_hold = max(1, spec.samples_per_class // 5)
        tX, tY, qX, qY, gX, gY = [], [], [], [], [], []
        for c in range(spec.num_classes):
            samples = centers[c] + spec.cluster_spread * rng.normal(
                size=(spec.samples_per_class, spec.input_dim))
            qX.append(samples[:n_hold])
            gX.append(samples[n_hold:2 * n_hold])
            tX.append(samples[2 * n_hold:])
            qY.append(np.full(n_hold, c))
            gY.append(np.full(n_hold, c))
            tY.append(np.full(spec.samples_per_class - 2 * n_hold, c))
        ds = generate_dataset(spec)
        for name, parts in (("train_X", tX), ("train_y", tY), ("query_X", qX),
                            ("query_y", qY), ("gallery_X", gX), ("gallery_y", gY)):
            want, got = np.concatenate(parts), getattr(ds, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_dataset(self.SPEC)
        path = tmp_path / "data.npz"
        save_dataset(path, ds)
        back = load_dataset(path)
        for attr in ("train_X", "train_y", "query_X", "query_y",
                     "gallery_X", "gallery_y"):
            assert np.array_equal(getattr(back, attr), getattr(ds, attr))


class TestScenarioSlices:
    DS = generate_dataset(SyntheticDatasetSpec(num_classes=6, samples_per_class=10,
                                               input_dim=4))

    def slices(self, seed=0, generations=(0, 1), **spec):
        """generation_slice of each generation, with old_arch (4,) and new_arch (8,)."""
        spec = ScenarioSpec(old_arch=(4,), new_arch=(8,), **spec)
        return [generation_slice(self.DS, spec, seed, g) for g in generations]

    def rows_of_classes(self, part, n_classes):
        """The train rows of the first n_classes classes, in their order in DS."""
        m = self.DS.train_y < n_classes
        return (np.array_equal(part[0], self.DS.train_X[m])
                and np.array_equal(part[1], self.DS.train_y[m]))

    def test_ext_class_restricts_old_labels(self):
        (old, old_arch), (new, new_arch) = self.slices(kind="ext_class", class_fraction=0.5)
        assert self.rows_of_classes(old, 3) and self.rows_of_classes(new, 6)
        assert (old_arch, new_arch) == ((4,), (4,))

    def test_ext_data_subsamples_train(self):
        (old, old_arch), (new, new_arch) = self.slices(kind="ext_data", old_fraction=0.3)
        n = len(self.DS.train_X)
        assert len(old[0]) == len(old[1]) == round(0.3 * n)
        # a row draw in train order, fixed by the seed
        rows = {x.tobytes(): i for i, x in enumerate(self.DS.train_X)}
        picked = [rows[x.tobytes()] for x in old[0]]
        assert picked == sorted(picked) and np.array_equal(old[1], self.DS.train_y[picked])
        (other, _), = self.slices(seed=1, generations=(0,), kind="ext_data", old_fraction=0.3)
        assert not np.array_equal(old[0], other[0])
        assert self.rows_of_classes(new, 6)
        assert (old_arch, new_arch) == ((4,), (4,))

    def test_new_arch_changes_architecture(self):
        (old, old_arch), (new, new_arch) = self.slices(kind="new_arch")
        assert (old_arch, new_arch) == ((4,), (8,))
        assert self.rows_of_classes(old, 6) and self.rows_of_classes(new, 6)

    def test_both_restricts_classes_and_changes_architecture(self):
        (old, old_arch), (new, new_arch) = self.slices(kind="both", class_fraction=0.5)
        assert self.rows_of_classes(old, 3) and self.rows_of_classes(new, 6)
        assert (old_arch, new_arch) == ((4,), (8,))

    @pytest.mark.parametrize("n_steps, classes, archs", [
        (2, (3, 6), ((4,), (8,))),
        (3, (2, 4, 6), ((4,), (4,), (8,))),
        (4, (2, 4, 6, 6), ((4,), (4,), (8,), (8,)))],
        ids=["n_steps=2", "n_steps=3", "n_steps=4"])
    def test_sequential_steps(self, n_steps, classes, archs):
        # cumulative groups of ceil(6 / n_steps) classes; new_arch from the midpoint on
        steps = self.slices(generations=range(n_steps), kind="sequential", n_steps=n_steps)
        assert tuple(arch for _, arch in steps) == archs
        for (part, _), n_classes in zip(steps, classes):
            assert self.rows_of_classes(part, n_classes)

    def test_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioSpec(kind="bogus")
        with pytest.raises(InvalidArgumentError):
            ScenarioSpec(old_fraction=0.0)
        # hbct matrix chains n_steps generations whatever the kind
        for kind in ("sequential", "ext_class", "new_arch"):
            for n_steps in (0, 1, -2):
                with pytest.raises(InvalidArgumentError, match="n_steps"):
                    ScenarioSpec(kind=kind, n_steps=n_steps)


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self):
        cfg = tiny_cfg(output_dir="exp", seeds=(3, 4))
        cfg = replace(cfg, scenario=ScenarioSpec(kind="new_arch", old_arch=(4,),
                                                 new_arch=(8, 8)))
        assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = cfgmod.parse("# comment\n\ntrain.epochs = 7  # trailing\n")
        assert cfg.train.epochs == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cfgmod.parse("train.warmup = 5\n")

    def test_repeated_key_rejected(self):
        # the first value must not be dropped in silence: both lines are named
        with pytest.raises(InvalidArgumentError, match="lines 2 and 4 both set train.epochs"):
            cfgmod.parse("seeds = 0\ntrain.epochs = 30\n\ntrain.epochs = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cfgmod.parse("train.epochs\n")

    def test_removed_schedule_key_rejected(self):
        # the learning rate is always cosine-annealed and the alignment distance is
        # always geodesic; the old switches are unknown keys
        with pytest.raises(InvalidArgumentError, match="cosine_annealing"):
            cfgmod.parse("train.cosine_annealing = true\n")
        with pytest.raises(InvalidArgumentError, match="alignment.distance_kind"):
            cfgmod.parse("alignment.distance_kind = geodesic\n")

    @pytest.mark.parametrize("key,largest", [
        ("dataset.num_classes", 2**32 // 3),  # at samples_per_class = 3: < 2**32 rows
        ("dataset.input_dim", 2**32 - 1), ("manifold.dim_d", 2**32 - 2),
        ("scenario.old_arch", 2**32 - 1), ("scenario.new_arch", 2**32 - 1)])
    def test_sizes_bounded_by_the_file_formats(self, key, largest):
        # checkpoint and store headers hold sizes as uint32
        text = "dataset.samples_per_class = 3\n{} = {}\n"
        cfgmod.parse(text.format(key, largest))
        with pytest.raises(InvalidArgumentError, match=key.replace(".", r"\.")):
            cfgmod.parse(text.format(key, largest + 1))

    def test_serialize_golden(self):
        # the key order is the field order: each section, then output_dir and
        # seeds; an empty arch is written as "= " with its trailing space
        assert cfgmod.serialize(ExperimentConfig()) == """\
manifold.curvature_K = 1.0
manifold.dim_d = 8
alignment.lambda_align = 0.3
alignment.lambda_entail = 1.0
alignment.tau = 0.5
alignment.beta = 0.01
alignment.epsilon_aperture = 0.1
alignment.q_mode = adaptive
alignment.q_fixed = 0.5
alignment.contrast_kind = rince
clip.zeta_old = 1.0
clip.zeta_step = 0.2
train.epochs = 200
train.batch_size = 64
train.learning_rate = 0.05
train.momentum = 0.9
train.weight_decay = 0.0005
train.seed = 0
dataset.num_classes = 20
dataset.samples_per_class = 60
dataset.input_dim = 16
dataset.cluster_spread = 1.0
dataset.class_center_scale = 3.0
dataset.seed = 0
scenario.kind = ext_class
scenario.old_fraction = 0.3
scenario.class_fraction = 0.5
scenario.old_arch = 
scenario.new_arch = 
scenario.n_steps = 3
output_dir = runs
seeds = 0,1,2,3,4
"""

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "exp.cfg"
        cfgmod.save(path, cfg)
        assert cfgmod.load(path) == cfg


class TestRunSingle:
    def test_reports_and_models(self):
        cfg = tiny_cfg()
        res = run_single(cfg, 0, metrics=("map",))
        rep = res.reports["map"]
        assert math.isfinite(rep.p_com) and math.isfinite(rep.p_up)
        assert res.old.model.generation_tag == 0
        assert res.star.model.generation_tag == 1
        assert res.new.model.generation_tag == 1
        assert len(res.old.gallery_unc) == len(res.new.gallery_unc) == len(res.old.gallery)

    def test_seed_stream_per_generation(self):
        # generation g trains on its generation_slice from train.seed + seed + 101 * g
        cfg = tiny_cfg(train=TrainConfig(epochs=2, batch_size=8, seed=5))
        res = run_single(cfg, 1, metrics=("map",))
        ds = generate_dataset(replace(cfg.dataset, seed=cfg.dataset.seed + 1))
        (old_X, old_y), old_arch = generation_slice(ds, cfg.scenario, 1, 0)
        (new_X, new_y), new_arch = generation_slice(ds, cfg.scenario, 1, 1)
        old, old_head, _ = train_old(old_X, old_y, ds.num_classes, cfg.manifold, cfg.clip,
                                     replace(cfg.train, seed=6), arch=old_arch)
        star, star_head, _ = train_new(new_X, new_y, ds.num_classes, old,
                                       AlignmentConfig(lambda_align=0.0), cfg.manifold,
                                       cfg.clip, replace(cfg.train, seed=5 + 1 + 101),
                                       arch=new_arch)
        for g, (b, b_head) in ((res.old, (old, old_head)), (res.star, (star, star_head))):
            assert all(np.array_equal(x, y) for x, y in zip(g.model.params(), b.params()))
            assert np.array_equal(g.head, b_head)

    def test_degenerate_baseline_raises(self):
        # trivially easy data saturates both anchors at 1.0, so P_com has a
        # zero denominator and the run must fail loudly rather than report it
        cfg = tiny_cfg(
            dataset=SyntheticDatasetSpec(num_classes=4, samples_per_class=10,
                                         input_dim=6, cluster_spread=1e-3,
                                         class_center_scale=3.0),
            scenario=ScenarioSpec(kind="ext_data", old_fraction=1.0),
        )
        with pytest.raises(DegenerateBaselineError):
            run_single(cfg, 0, metrics=("cmc@1",))


class TestRunScenarioArtifacts:
    def test_artifacts_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg = tiny_cfg()
        results = run_scenario(cfg, metrics=("map",))
        assert list(results) == [0]
        out = tmp_path / "runs" / "seed_0"
        for name in ("old.ckpt", "star.ckpt", "new.ckpt", "report.txt",
                     "report.kv", "old_gallery.emb", "new_gallery.emb",
                     "uncertainty_hist.txt", "uncertainty_hist.svg"):
            assert (out / name).exists(), name
        # kv file is machine readable and consistent with the result object
        kv = {}
        for line in (out / "report.kv").read_text().splitlines():
            key, val = line.split(" = ")
            kv[key] = float(val)
        assert kv["map.p_com"] == pytest.approx(results[0].reports["map"].p_com)
        # embedding stores round-trip with the right generation tags
        assert load_embedding_set(out / "old_gallery.emb").generation_tag == 0
        assert load_embedding_set(out / "new_gallery.emb").generation_tag == 1
        # each checkpoint reloads to its record; star and new are both generation 1,
        # so only their params tell them apart
        res = results[0]
        assert not np.array_equal(res.star.head, res.new.head)
        for name, g in (("old", res.old), ("star", res.star), ("new", res.new)):
            model, head, _, _ = load_checkpoint(out / f"{name}.ckpt")
            assert model.generation_tag == g.model.generation_tag
            assert len(model.params()) == len(g.model.params()), name
            assert all(np.array_equal(a, b)
                       for a, b in zip(model.params(), g.model.params())), name
            assert np.array_equal(head, g.head), name

    def test_sequential_kind_rejected(self):
        cfg = tiny_cfg(scenario=ScenarioSpec(kind="sequential", n_steps=2))
        with pytest.raises(InvalidArgumentError):
            run_scenario(cfg)

    def test_no_metrics_rejected_before_training(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        calls = []
        monkeypatch.setattr("hbct.scenarios.train_old",
                            lambda *a, **k: calls.append(1) or train_old(*a, **k))
        with pytest.raises(InvalidArgumentError):
            run_scenario(tiny_cfg(), metrics=())
        assert calls == [] and not (tmp_path / "runs").exists()


class TestSequential:
    def _cfg(self):
        return tiny_cfg(
            dataset=SyntheticDatasetSpec(num_classes=4, samples_per_class=10,
                                         input_dim=6, cluster_spread=0.8,
                                         class_center_scale=3.0),
            scenario=ScenarioSpec(kind="sequential", n_steps=2),
            train=TrainConfig(epochs=2, batch_size=8, learning_rate=0.05),
        )

    def test_matrix_shape_and_diagonal(self):
        for m in sequential_matrix(self._cfg(), 0, metric="map"):
            assert m.shape == (2, 2)
            assert m[0, 0] == 0.0 and m[1, 1] == 0.0
            assert np.all(np.isfinite(m))

    def test_run_matrix_writes_tables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        out_all = run_matrix(self._cfg(), metric="map")
        assert set(out_all) == {0}
        out = tmp_path / "runs" / "seed_0"
        assert (out / "matrix_hbct.txt").exists()
        assert (out / "matrix_baseline.txt").exists()

    def test_run_matrix_equals_both_chains(self, tmp_path, monkeypatch):
        # run_matrix trains only the aligned chain; its star models must
        # reproduce the separately trained unaligned chain bit for bit
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg = self._cfg()
        m_hbct, m_base = run_matrix(cfg, metric="map")[0]
        unaligned = replace(cfg, alignment=replace(cfg.alignment, lambda_align=0.0))
        assert m_base.tobytes() == sequential_matrix(unaligned, 0, "map")[0].tobytes()
        assert m_hbct.tobytes() != m_base.tobytes()

    def test_matrix_chains_any_kind(self, tmp_path, monkeypatch):
        # hbct matrix on an ext_class config trains the sequential chain: cumulative
        # class groups, with new_arch from the midpoint on
        import hbct.scenarios as sc
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        seen = []

        def recording(fn):
            def run(X, y, *a, arch=()):
                out = fn(X, y, *a, arch=arch)
                seen.append((sorted(set(y.tolist())), arch, len(out) if fn is train else 1))
                return out
            return run

        train = sc.train_stack
        monkeypatch.setattr(sc, "train_old", recording(sc.train_old))
        monkeypatch.setattr(sc, "train_stack", recording(train))
        cfg_path = str(tmp_path / "exp.cfg")
        cfgmod.save(cfg_path, tiny_cfg(
            train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.05),
            scenario=ScenarioSpec(kind="ext_class", class_fraction=0.5, old_arch=(4,),
                                  new_arch=(8,), n_steps=3)))
        assert main(["matrix", "--config", cfg_path, "--metric", "map"]) == 0
        # generation 0, then per step one stack of two models: the star and the HBCT model
        assert seen == [([0, 1], (4,), 1), ([0, 1, 2, 3], (4,), 2),
                        ([0, 1, 2, 3, 4, 5], (8,), 2)]


class TestGenerationCounts:
    """Per seed, each experiment trains the expected number of models, embeds
    the query and gallery splits of each trained model exactly once and makes
    the expected number of ranking passes."""

    CFG = tiny_cfg(scenario=ScenarioSpec(kind="sequential", n_steps=3),
                   train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.05))

    @pytest.fixture
    def counted(self, monkeypatch):
        import hbct.scenarios as sc
        trained, embedded = [], []

        def training(fn, stack):
            def run(*a, **k):
                out = fn(*a, **k)
                # train_old returns one (model, head, losses), train_stack a list of them
                trained.extend([m for m, _, _ in out] if stack else [out[0]])
                return out
            return run

        embed = sc.embed_batch

        def embedding(model, *a, **k):
            embedded.append(model)
            return embed(model, *a, **k)

        monkeypatch.setattr(sc, "train_old", training(sc.train_old, False))
        monkeypatch.setattr(sc, "train_stack", training(sc.train_stack, True))
        monkeypatch.setattr(sc, "embed_batch", embedding)

        def check(n_trained):
            assert len(trained) == n_trained
            assert len(embedded) == 2 * n_trained
            assert all(sum(e is m for e in embedded) == 2 for m in trained)
        return check

    @pytest.mark.parametrize("lam, n_trained", [(0.3, 5), (0.0, 3)])
    def test_run_matrix(self, counted, tmp_path, monkeypatch, lam, n_trained):
        # at lambda = 0 each HBCT step would train exactly its star again, so
        # the star chain serves as both and the two matrices are equal
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        (m_hbct, m_base), = run_matrix(
            replace(self.CFG, alignment=AlignmentConfig(lambda_align=lam)),
            metric="map").values()
        counted(n_trained)
        assert (m_hbct.tobytes() == m_base.tobytes()) == (lam == 0)

    @pytest.mark.parametrize("aligned, n_trained", [(False, 3), (True, 5)])
    def test_sequential_matrix(self, counted, aligned, n_trained):
        # one chain yields both matrices: its stars, plus an aligned model per
        # update unless lambda = 0 lets the stars stand in for them
        lam = 0.3 if aligned else 0.0
        sequential_matrix(replace(self.CFG, alignment=AlignmentConfig(lambda_align=lam)),
                          0, metric="map")
        counted(n_trained)

    def test_sequential_matrix_ranks_each_pair_once(self, monkeypatch):
        # 3 steps: each chain's 9 pairs once; generation 0's self pair, shared by
        # both chains, again because the memo holds only the last pair
        import hbct.evaluation as ev
        passes, rank = [], ev._rank_pair
        monkeypatch.setattr(ev, "_rank_pair", lambda q, g: passes.append(1) or rank(q, g))
        sequential_matrix(replace(self.CFG, alignment=AlignmentConfig(lambda_align=0.3)),
                          0, metric="map")
        assert len(passes) == 18

    @pytest.mark.parametrize("n_variants", [1, 3])
    def test_run_variants(self, counted, n_variants):
        cfg = replace(self.CFG, scenario=ScenarioSpec(kind="ext_class"))
        variants = {lam: AlignmentConfig(lambda_align=lam)
                    for lam in (0.1, 0.3, 1.0)[:n_variants]}
        run_variants(cfg, 0, variants, metrics=("map",))
        counted(2 + n_variants)

    @pytest.mark.parametrize("lambdas", [(0.0,), (0.0, 0.3), (0.3, 0.0, 1.0)])
    def test_run_variants_reuses_star_for_lambda_zero(self, counted, lambdas):
        # a lambda = 0 variant would train exactly the star model again
        cfg = replace(self.CFG, scenario=ScenarioSpec(kind="ext_class"))
        res = run_variants(cfg, 0, {lam: AlignmentConfig(lambda_align=lam)
                                    for lam in lambdas}, metrics=("map",))
        counted(2 + sum(lam > 0 for lam in lambdas))
        assert res[0.0].new is res[0.0].star


class TestSweep:
    def test_smoke(self):
        cfg = tiny_cfg()
        rows = run_sweep(cfg, (0.1, 0.5), metric="map")
        assert [lam for lam, *_ in rows] == [0.1, 0.5]
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_rows_equal_single_runs(self):
        # the shared old and star models must not change any table value
        cfg = tiny_cfg(seeds=(0, 1))
        rows = run_sweep(cfg, (0.0, 0.3), metric="map")
        for lam, self_value, cross, pcom in rows:
            sub = replace(cfg, alignment=replace(cfg.alignment, lambda_align=lam))
            reps = [run_single(sub, seed, metrics=("map",)).reports["map"]
                    for seed in cfg.seeds]
            assert self_value == float(np.median([r.self_value for r in reps]))
            assert cross == float(np.median([r.cross_value for r in reps]))
            assert pcom == float(np.median([r.p_com for r in reps]))


class TestEmission:
    def test_histogram_counts_sum(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.0, 1.0, size=57)
        path = tmp_path / "hist.txt"
        write_histogram_text(path, [("unc", vals)])
        counts = [int(line.split()[1]) for line in path.read_text().splitlines()
                  if line.startswith("[")]
        assert sum(counts) == 57

    def test_histograms_bin_every_value_below_k_one(self, tmp_path):
        # at K < 1 a large embedding's uncertainty is negative; both files bin every
        # value of both series over one range
        mcfg = ManifoldConfig(0.25, 4)
        rng = np.random.default_rng(3)
        series = [(name, uncertainty(hexpm_origin(rng.normal(size=(n, 4)) * scale, mcfg),
                                     mcfg))
                  for name, n, scale in (("old_gallery", 18, 0.3), ("new_gallery", 11, 3.0))]
        assert series[1][1].min() < 0
        write_histogram_text(tmp_path / "h.txt", series)
        write_histogram_svg(tmp_path / "h.svg", series)
        blocks = [b.splitlines() for b in (tmp_path / "h.txt").read_text().split("# ")[1:]]
        counts = [[int(line.split()[1]) for line in b[1:]] for b in blocks]
        assert [b[0] for b in blocks] == ["old_gallery (n=18)", "new_gallery (n=11)"]
        assert [sum(c) for c in counts] == [18, 11]
        # bar heights are 220 px per peak count, one decimal each
        svg = (tmp_path / "h.svg").read_text()
        peak = max(max(c) for c in counts)
        for color, n in (("#4477aa", 18), ("#ee6677", 11)):
            heights = [float(h) for h in re.findall(rf'height="([0-9.]+)" fill="{color}"', svg)]
            assert len(heights) == 20
            assert abs(sum(heights) * peak / 220 - n) < 0.1

    def test_matrix_table_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_table(path, np.array([[0.0, 0.5], [-0.25, 0.0]]))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert "0.5000" in lines[1] and "-0.2500" in lines[2]


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        path = tmp_path / "exp.cfg"
        cfgmod.save(path, tiny_cfg(**overrides))
        return str(path)

    def test_end_to_end_pipeline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg_path = self._write_cfg(tmp_path)
        data = str(tmp_path / "data.npz")
        old = str(tmp_path / "old.ckpt")
        new = str(tmp_path / "new.ckpt")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", old]) == 0
        assert main(["train-new", "--config", cfg_path, "--data", data,
                     "--old", old, "--out", new]) == 0
        assert main(["scenario", "--config", cfg_path]) == 0
        out = tmp_path / "runs" / "seed_0"
        assert main(["evaluate", "--queries", str(out / "new_gallery.emb"),
                     "--gallery", str(out / "old_gallery.emb"),
                     "--metric", "map"]) == 0
        assert "map = " in capsys.readouterr().out

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["ext_data", "ext_class", "new_arch", "both",
                                      "sequential"])
    def test_cli_pipeline_matches_library(self, tmp_path, kind, lam):
        # generate, train-old and train-new are seed 0 of the library: the old and
        # new models of run_single (the star at lambda = 0), or on a sequential
        # config the generations of its chain, one train-new per step
        cfg_path = self._write_cfg(
            tmp_path, alignment=AlignmentConfig(lambda_align=lam),
            scenario=ScenarioSpec(kind=kind, old_fraction=0.5, class_fraction=0.5,
                                  old_arch=(8,), new_arch=(12,), n_steps=3))
        cfg = cfgmod.load(cfg_path)
        if kind == "sequential":
            want = [(g.model, g.head) for g in _chain(cfg, 0)[0]]
        else:
            res = run_single(cfg, 0, metrics=("map",))
            want = [(res.old.model, res.old.head), (res.new.model, res.new.head)]
        data = str(tmp_path / "data.npz")
        ckpts = [str(tmp_path / f"g{g}.ckpt") for g in range(len(want))]
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", ckpts[0]]) == 0
        for old, new in zip(ckpts, ckpts[1:]):
            assert main(["train-new", "--config", cfg_path, "--data", data,
                         "--old", old, "--out", new]) == 0
        for path, (model, head) in zip(ckpts, want):
            loaded, loaded_head, _, _ = load_checkpoint(path)
            assert loaded.generation_tag == model.generation_tag
            assert len(loaded.params()) == len(model.params()), path
            assert all(np.array_equal(a, b)
                       for a, b in zip(loaded.params(), model.params())), path
            assert np.array_equal(loaded_head, head), path

    def test_generate_writes_exactly_at_out(self, tmp_path, capsys):
        # np.savez given a path would append ".npz" to one without that suffix
        cfg_path = self._write_cfg(tmp_path)
        data = str(tmp_path / "data.bin")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert f"wrote dataset to {data}" in capsys.readouterr().out
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", str(tmp_path / "old.ckpt")]) == 0
        assert not os.path.exists(data + ".npz")

    def test_train_old_without_old_rows_exits_2(self, tmp_path, capsys):
        # ext_class trains generation 0 on classes 0-2; this train split holds none
        cfg_path = self._write_cfg(tmp_path)
        ds = generate_dataset(tiny_cfg().dataset)
        late = ds.train_y >= 3
        data, out = str(tmp_path / "data.npz"), tmp_path / "old.ckpt"
        save_dataset(data, replace(ds, train_X=ds.train_X[late], train_y=ds.train_y[late]))
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert ("generation 0 of ext_class trains on classes below 3; the dataset has no "
                "such train rows") in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        data = str(tmp_path / "data.npz")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        absent, out = str(tmp_path / "absent"), str(tmp_path / "out")
        # a missing config or input file, and an output path in a missing directory
        for argv in (["scenario", "--config", absent + ".cfg"],
                     ["train-old", "--config", cfg_path, "--data", absent + ".npz",
                      "--out", out],
                     ["train-new", "--config", cfg_path, "--data", data,
                      "--old", absent + ".ckpt", "--out", out],
                     ["evaluate", "--queries", absent + ".emb", "--gallery", absent + ".emb"],
                     ["generate", "--config", cfg_path, "--out", absent + "/data.npz"]):
            assert main(argv) == 2, argv

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.warmup = 5\n")
        assert main(["scenario", "--config", str(path)]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, monkeypatch, capsys):
        # a config file is UTF-8 text; any other bytes are bad input, not a crash
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"train.epochs = 2\n# \xff\n")
        data = tmp_path / "data.npz"
        for argv in (["generate", "--out", str(data)], ["scenario"]):
            assert main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("bad config or input") and "Traceback" not in err
            assert str(path) in err
        assert not data.exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line", ["train.epochs = abc", "seeds = 0,x", "seeds = 0,0",
                                      "manifold.curvature_K = flat",
                                      "seeds = -1", "seeds = ",
                                      "dataset.seed = -3", "train.seed = -1",
                                      "scenario.old_arch = -1",
                                      "scenario.old_arch = 0",
                                      "alignment.lambda_align = nan",
                                      "train.learning_rate = nan",
                                      "train.momentum = nan",
                                      "manifold.curvature_K = inf",
                                      "dataset.class_center_scale = nan",
                                      "alignment.tau = inf",
                                      "alignment.epsilon_aperture = inf",
                                      "clip.zeta_old = nan", "clip.zeta_old = 0",
                                      "clip.zeta_step = inf"])
    def test_bad_value_exits_2(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        # refused when the config is read: generate trains nothing that could refuse it later
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "data.npz")]) == 2
        assert main(["scenario", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command,line,key", [
        ("generate", "dataset.num_classes = 10000000000000000000000", "dataset.num_classes"),
        ("generate", "dataset.num_classes = 5000000000", "dataset.num_classes"),
        ("train-old", "manifold.dim_d = 10000000000000000000000", "manifold.dim_d")])
    def test_size_the_formats_cannot_hold_exits_2(self, tmp_path, capsys, command, line,
                                                   key):
        # refused when the config is read, before numpy is asked for the arrays
        data = tmp_path / "data.npz"
        assert main(["generate", "--config", self._write_cfg(tmp_path),
                     "--out", str(data)]) == 0
        path, out = tmp_path / "big.cfg", tmp_path / "out"
        path.write_text(line + "\n")
        capsys.readouterr()
        argv = ["--config", str(path), "--out", str(out)]
        assert main([command, *argv] + (["--data", str(data)] if command != "generate"
                                        else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad config or input") and key in err
        assert "Traceback" not in err and not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # a size that fits every format but not the machine: numpy's MemoryError is
        # bad input, reported without a traceback, and nothing is written
        def generate(spec):
            raise MemoryError("Unable to allocate 5.96 GiB for an array")
        monkeypatch.setattr("hbct.cli.generate_dataset", generate)
        out = tmp_path / "data.npz"
        assert main(["generate", "--config", self._write_cfg(tmp_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad config or input: Unable to allocate")
        assert "Traceback" not in err and not out.exists()

    def test_bad_metric_and_lambdas_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        store = str(tmp_path / "set.emb")
        save_embedding_set(store, EmbeddingSet(np.eye(3), [0, 1, 0], "euclidean"))
        for metric in ("cmc@x", "cmc@-1", "cmc@"):
            assert main(["evaluate", "--queries", store, "--gallery", store,
                         "--metric", metric]) == 2
        cfg_path = self._write_cfg(tmp_path)
        assert main(["sweep", "--config", cfg_path, "--lambdas", "0.1,x"]) == 2

    def test_evaluate_one_file_twice_is_self_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        es = EmbeddingSet(rng.normal(size=(30, 4)), np.arange(30) % 5, "euclidean")
        store = tmp_path / "set.emb"
        save_embedding_set(store, es)
        os.symlink(store, tmp_path / "link.emb")
        expected = cmc_at_k(es, es, 1)
        assert expected < 1.0
        for gallery in (store, tmp_path / "link.emb"):
            assert main(["evaluate", "--queries", str(store), "--gallery", str(gallery)]) == 0
            assert capsys.readouterr().out == f"cmc@1 = {expected:.6f}\n"

    def test_evaluate_curvature_mismatch_exits_2(self, tmp_path):
        rng = np.random.default_rng(0)
        stores = []
        for K in (1.0, 2.0):
            store = str(tmp_path / f"k{K}.emb")
            spaces = rng.normal(size=(3, 2))
            times = np.sqrt(1.0 / K + (spaces ** 2).sum(axis=1))
            save_embedding_set(store, EmbeddingSet.from_lorentz(times, spaces, [0, 1, 0], K))
            stores.append(store)
        assert main(["evaluate", "--queries", stores[0], "--gallery", stores[0]]) == 0
        assert main(["evaluate", "--queries", stores[1], "--gallery", stores[0]]) == 2

    def test_evaluate_unrankable_inputs_exit_2(self, tmp_path):
        rng = np.random.default_rng(1)

        def store(name, count, width, K=1.0, rows=None, tag=0):
            # raw bytes, so that sets EmbeddingSet refuses can still be written
            path = tmp_path / name
            spaces = rng.normal(size=(count, max(width - 1, 0)))
            if rows is None:
                rows = np.column_stack([np.sqrt(1.0 + (spaces ** 2).sum(axis=1)), spaces])
            body = b"".join(struct.pack(f"<{width}di", *row[:width], i % 2)
                            for i, row in enumerate(rows))
            path.write_bytes(struct.pack("<4sIIIIdi", b"HBCT", 1, 1, count, width, K, tag)
                             + body)
            return str(path)

        good = store("d3.emb", 4, 4)
        assert main(["evaluate", "--queries", good, "--gallery", good]) == 0
        huge = str(tmp_path / "huge.emb")  # on-sheet rows whose inner products overflow
        save_embedding_set(huge, EmbeddingSet([[math.hypot(1, s), s, 0]
                                               for s in (1e154, -1e154, 0.1, -0.1)],
                                              [0, 1, 0, 1]))
        for queries, gallery in [(good, store("d5.emb", 4, 6)),    # 3-d vs 5-d
                                 (store("empty.emb", 0, 4), good),  # no queries
                                 (store("k-1.emb", 4, 4, K=-1.0),) * 2,
                                 (store("k0.emb", 4, 4, K=0.0),) * 2,
                                 (store("kinf.emb", 4, 4, K=math.inf),) * 2,
                                 (store("w1.emb", 4, 1),) * 2,
                                 (store("wide.emb", 0, 2**28),) * 2,
                                 (store("tag-5.emb", 4, 4, tag=-5),) * 2,
                                 (huge, huge),
                                 # row 1 is off the upper sheet: with -K<x, q>_L clamped at
                                 # 1, it ranked at distance 0 from the query [3, 2, 2],
                                 # ahead of the query's exact copy
                                 *[(store(f"off{i}.emb", 3, 3, rows=[[3, 2, 2], row, [3, 2, 2]]),)
                                   * 2 for i, row in enumerate([[0.2, 0, 0.1], [-3, 2, 2]])]]:
            for metric in ("cmc@1", "map"):
                assert main(["evaluate", "--queries", queries, "--gallery", gallery,
                             "--metric", metric]) == 2

    def test_bad_metric_trains_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        calls = []
        monkeypatch.setattr("hbct.scenarios.train_old",
                            lambda *a, **k: calls.append(1) or train_old(*a, **k))
        cfg_path = self._write_cfg(tmp_path)
        for argv in (["matrix", "--metric", "cmc@x"], ["matrix", "--metric", "cmc@0"],
                     ["sweep", "--metric", "mAP"], ["sweep", "--metric", "cmc@"],
                     ["scenario", "--metrics", "map,cmc@0"], ["scenario", "--metrics", ""],
                     ["scenario", "--metrics", "cmc@1,,map"]):
            assert main(argv + ["--config", cfg_path]) == 2
        assert calls == [] and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("split,label", [("train", 200000), ("train", 2**31),
                                             ("query", 2**31), ("gallery", 2**31)])
    def test_out_of_range_label_exits_2(self, tmp_path, split, label):
        # a train label of 200000 would build a 200001-row classifier head; any
        # label beyond int32 could not be written to an embedding store
        cfg_path = self._write_cfg(tmp_path)
        ds = generate_dataset(tiny_cfg().dataset)
        y = getattr(ds, f"{split}_y").copy()
        y[0] = label
        data, out = str(tmp_path / "data.npz"), tmp_path / "old.ckpt"
        save_dataset(data, replace(ds, **{f"{split}_y": y}))
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_scenario_metrics(self, tmp_path, monkeypatch, capsys):
        # one seed's cmc anchors coincide on this config, so the default metrics
        # end in a degenerate baseline; mAP alone completes every seed
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg = tiny_cfg(
            manifold=ManifoldConfig(1.0, 8),
            train=TrainConfig(epochs=3, batch_size=16, learning_rate=0.05),
            dataset=SyntheticDatasetSpec(num_classes=12, samples_per_class=30,
                                         input_dim=16),
            scenario=ScenarioSpec(kind="ext_class", class_fraction=0.5,
                                  old_arch=(16,), new_arch=(16,)),
            seeds=(0, 1, 2))
        with pytest.raises(DegenerateBaselineError):
            run_scenario(cfg)
        assert not (tmp_path / "runs").exists()  # seed 0 completed, but nothing is written
        assert sorted(run_scenario(cfg, metrics=("map",))) == [0, 1, 2]
        path = str(tmp_path / "exp.cfg")
        cfgmod.save(path, cfg)
        assert main(["scenario", "--config", path]) == 3
        assert "seed 1, cmc@5: star and old" in capsys.readouterr().err
        assert main(["scenario", "--config", path, "--metrics", "map"]) == 0
        assert capsys.readouterr().out.count("p_com=") == 3
        kv = (tmp_path / "runs" / "seed_2" / "report.kv").read_text()
        assert kv.startswith("map.self = ") and "cmc" not in kv

    @pytest.fixture
    def second_seed_degenerate(self, monkeypatch):
        """P_com is undefined for every pairing of the second seed."""
        import hbct.evaluation as ev
        import hbct.scenarios as sc
        seeds, seeded, p_com = [], sc._seeded, ev.p_com
        monkeypatch.setattr(sc, "_seeded",
                            lambda cfg, seed: seeds.append(seed) or seeded(cfg, seed))

        def degenerate_on_seed_1(*args):
            if seeds[-1] == 1:
                raise DegenerateBaselineError("anchors coincide")
            return p_com(*args)
        monkeypatch.setattr(ev, "p_com", degenerate_on_seed_1)
        return seeds

    @pytest.mark.parametrize("kind,argv", [
        ("ext_class", ["scenario", "--metrics", "map,cmc@1"]),
        ("sequential", ["matrix", "--metric", "map"]),
        ("ext_class", ["sweep", "--metric", "map", "--lambdas", "0.3", "--out", "sweep.txt"])])
    def test_failing_seed_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                         second_seed_degenerate, kind, argv):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        cfg_path = self._write_cfg(tmp_path, seeds=(0, 1),
                                   scenario=ScenarioSpec(kind=kind, n_steps=2))
        assert main(argv + ["--config", cfg_path]) == 3
        assert second_seed_degenerate[0] == 0 and second_seed_degenerate[-1] == 1
        assert not (tmp_path / "runs").exists() and not (tmp_path / "sweep.txt").exists()
        assert "seed 1, map: anchors coincide" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        dict(dataset=SyntheticDatasetSpec(num_classes=6, samples_per_class=15, input_dim=4)),
        dict(manifold=ManifoldConfig(1.0, 3))])
    def test_train_new_checks_old_dims(self, tmp_path, override):
        data, old = str(tmp_path / "data.npz"), str(tmp_path / "old.ckpt")
        first = self._write_cfg(tmp_path)
        assert main(["generate", "--config", first, "--out", data]) == 0
        assert main(["train-old", "--config", first, "--data", data, "--out", old]) == 0
        other = str(tmp_path / "other.cfg")
        cfgmod.save(other, tiny_cfg(**override))
        assert main(["generate", "--config", other, "--out", data]) == 0
        assert main(["train-new", "--config", other, "--data", data,
                     "--old", old, "--out", str(tmp_path / "new.ckpt")]) == 2
        assert not (tmp_path / "new.ckpt").exists()

    def test_train_new_checks_old_geometry(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        data = str(tmp_path / "data.npz")
        old = str(tmp_path / "old.ckpt")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", old]) == 0
        for override in (dict(manifold=ManifoldConfig(0.5, 4)),
                         dict(clip=ClipPolicy(zeta_old=1.5))):
            other = str(tmp_path / "other.cfg")
            cfgmod.save(other, tiny_cfg(**override))
            assert main(["train-new", "--config", other, "--data", data,
                         "--old", old, "--out", str(tmp_path / "new.ckpt")]) == 2
        assert not (tmp_path / "new.ckpt").exists()

    def test_divergence_exits_3(self, tmp_path):
        cfg_path = self._write_cfg(
            tmp_path, train=TrainConfig(epochs=20, batch_size=8, learning_rate=1e150))
        data = str(tmp_path / "data.npz")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data,
                     "--out", str(tmp_path / "old.ckpt")]) == 3

    def test_overflowing_update_exits_3_without_warning(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, train=TrainConfig(
            epochs=2, batch_size=8, learning_rate=1e300, weight_decay=1e10))
        data = str(tmp_path / "data.npz")
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train-old", "--config", cfg_path, "--data", data,
                         "--out", str(tmp_path / "old.ckpt")]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "non-finite parameters at step 0" in capsys.readouterr().err

    def test_sweep_writes_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg_path = self._write_cfg(tmp_path)
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--config", cfg_path, "--lambdas", "0.1,0.5",
                     "--metric", "map", "--out", str(out)]) == 0
        assert "lambda" in out.read_text()

    @pytest.mark.parametrize("argv", [["scenario", "--metrics", "map"],
                                      ["sweep", "--metric", "map", "--lambdas", "0,0.3",
                                       "--out", "sweep.txt"]])
    def test_sequential_update_points_to_matrix(self, tmp_path, monkeypatch, capsys, argv):
        # a sequential chain has no single update: both commands exit 2 before
        # training, name the command that runs the chain and write nothing
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        cfg_path = self._write_cfg(tmp_path, scenario=ScenarioSpec(kind="sequential"))
        assert main(argv + ["--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad config or input") and "`hbct matrix`" in err
        assert "Traceback" not in err and "run_matrix" not in err
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]

    @pytest.mark.parametrize("n_steps", [0, 1])
    def test_matrix_needs_two_steps(self, tmp_path, monkeypatch, capsys, n_steps):
        # hbct matrix runs the chain on any kind, such as this ext_class config
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        calls = []
        monkeypatch.setattr("hbct.scenarios.train_old",
                            lambda *a, **k: calls.append(1) or train_old(*a, **k))
        path = tmp_path / "exp.cfg"
        path.write_text(cfgmod.serialize(tiny_cfg()).replace(
            "scenario.n_steps = 3", f"scenario.n_steps = {n_steps}"))
        assert main(["matrix", "--config", str(path), "--metric", "map"]) == 2
        assert calls == [] and not (tmp_path / "runs").exists()
        err = capsys.readouterr().err
        assert "n_steps must be >= 2" in err and "Traceback" not in err

    def test_aligned_batch_of_one_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBCT_OUTPUT_ROOT", str(tmp_path))
        cfg_path = self._write_cfg(tmp_path)
        data, old, new = (str(tmp_path / name) for name in ("data.npz", "old.ckpt",
                                                            "new.ckpt"))
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data, "--out", old]) == 0
        single = str(tmp_path / "single.cfg")
        cfgmod.save(single, tiny_cfg(train=TrainConfig(epochs=1, batch_size=1)))
        assert main(["train-new", "--config", single, "--data", data,
                     "--old", old, "--out", new]) == 2
        assert not os.path.exists(new)
        assert main(["scenario", "--config", single, "--metrics", "map"]) == 2
        assert not (tmp_path / "runs").exists()

    def test_non_finite_old_checkpoint_exits_2(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        data, old, new = (str(tmp_path / name) for name in ("data.npz", "old.ckpt",
                                                            "new.ckpt"))
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data, "--out", old]) == 0
        ckpt = bytearray(open(old, "rb").read())
        struct.pack_into("<d", ckpt, 48, math.nan)  # the first weight, after one layer
        with open(old, "wb") as f:
            f.write(ckpt)
        assert main(["train-new", "--config", cfg_path, "--data", data,
                     "--old", old, "--out", new]) == 2
        assert not os.path.exists(new)

    def test_negative_generation_checkpoint_exits_2(self, tmp_path, capsys):
        # a generation -1 checkpoint with the config's zeta(-1) would otherwise train
        # an aligned "generation 0" model on the old slice
        cfg_path = self._write_cfg(tmp_path)
        data, old, new = (str(tmp_path / name) for name in ("data.npz", "old.ckpt",
                                                            "new.ckpt"))
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data, "--out", old]) == 0
        ckpt = bytearray(open(old, "rb").read())
        struct.pack_into("<i", ckpt, 12, -1)  # the generation tag, then zeta after K
        struct.pack_into("<d", ckpt, 24, tiny_cfg().clip.zeta(-1))
        with open(old, "wb") as f:
            f.write(ckpt)
        assert main(["train-new", "--config", cfg_path, "--data", data,
                     "--old", old, "--out", new]) == 2
        assert not os.path.exists(new)
        assert "checkpoint generation tag -1 is negative" in capsys.readouterr().err

    def test_largest_generation_checkpoint_exits_2(self, tmp_path, monkeypatch, capsys):
        # a checkpoint at tag 2**31 - 1 is valid, but its next generation's tag would
        # not fit the header: refused before the first step, with nothing written
        cfg_path = self._write_cfg(tmp_path)
        cfg = cfgmod.load(cfg_path)
        data, old, new = (str(tmp_path / name) for name in ("data.npz", "old.ckpt",
                                                            "new.ckpt"))
        assert main(["generate", "--config", cfg_path, "--out", data]) == 0
        assert main(["train-old", "--config", cfg_path, "--data", data, "--out", old]) == 0
        model, head, _, _ = load_checkpoint(old)
        save_checkpoint(old, EncoderModel(model.layers, 2**31 - 1), head, cfg.manifold,
                        cfg.clip)
        import hbct.encoder as enc
        steps, loss = [], enc.total_loss
        monkeypatch.setattr(enc, "total_loss",
                            lambda *a, **k: steps.append(1) or loss(*a, **k))
        assert main(["train-new", "--config", cfg_path, "--data", data,
                     "--old", old, "--out", new]) == 2
        assert steps == [] and not os.path.exists(new)
        err = capsys.readouterr().err
        assert "generation tag must be in [0, 2**31), got 2147483648" in err
        assert "Traceback" not in err
