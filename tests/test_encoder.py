"""Encoder pipeline and training loops: embedding contracts, determinism,
alignment switch-off equivalence, divergence handling, checkpoint format."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbct import encoder
from hbct import losses
from hbct.encoder import (ClipPolicy, EncoderModel, TrainConfig, embed_batch, embed_vars,
                          load_checkpoint, save_checkpoint, train_new, train_old, train_stack)
from hbct.errors import InvalidArgumentError, TrainingFailureError
from hbct.losses import AlignmentConfig, mlr_logits, total_loss
from hbct.manifold import LorentzPoint, ManifoldConfig, on_manifold_defect, uncertainty
from hbct.scenarios import SyntheticDatasetSpec, generate_dataset

MCFG = ManifoldConfig(1.0, 4)
POLICY = ClipPolicy(zeta_old=1.0, zeta_step=0.2)


def two_gaussians(rng, n=40, gap=6.0):
    X = np.concatenate([rng.normal(size=(n, 2)) + [gap, 0.0],
                        rng.normal(size=(n, 2)) - [gap, 0.0]])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return X, y


def params_equal(a: EncoderModel, b: EncoderModel):
    return all(np.array_equal(W1, W2) and np.array_equal(b1, b2)
               for (W1, b1), (W2, b2) in zip(a.layers, b.layers))


class TestEmbed:
    def test_zero_model_maps_to_origin(self):
        model = EncoderModel([(np.zeros((4, 3)), np.zeros(4))])
        Z, times, spaces, _ = embed_batch(model, np.ones((1, 3)), POLICY, MCFG)
        assert np.all(Z == 0.0)
        assert LorentzPoint(times[0], spaces[0]) == MCFG.origin

    def test_clip_contract(self):
        rng = np.random.default_rng(0)
        model = EncoderModel.init(3, (8,), 4, rng, generation_tag=2)
        zeta = POLICY.zeta(2)
        Z, _, _, _ = embed_batch(model, 10.0 * rng.normal(size=(50, 3)), POLICY, MCFG)
        assert np.linalg.norm(Z, axis=1).max() <= zeta * (1.0 + 1e-12)

    def test_lift_consistency(self):
        rng = np.random.default_rng(1)
        model = EncoderModel.init(3, (), 4, rng)
        _, times, spaces, unc = embed_batch(model, rng.normal(size=(20, 3)), POLICY, MCFG)
        for time, space in zip(times, spaces):
            assert on_manifold_defect(LorentzPoint(time, space), MCFG) <= 1e-9
        assert np.all(unc >= 0.0) and np.all(unc <= 1.0)

    @pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 8193, 12287])
    def test_row_blocks_keep_the_bits(self, n):
        # embed_batch walks the rows in blocks of 2048 to 4096; each block matmuls with
        # the bits of one call over all rows, at 1, 2 or 3 blocks and their edges
        rng = np.random.default_rng(n)
        for input_dim in (3, 16, 100):
            X = rng.normal(size=(n, input_dim))
            for arch in ((), (16,), (16, 16)):
                model = EncoderModel.init(input_dim, arch, 8, rng, generation_tag=1)
                mcfg = ManifoldConfig(1.0, 8)
                Z, (times, spaces) = embed_vars(model.params(), X, POLICY.zeta(1), mcfg)
                whole = (Z, times, spaces, uncertainty((times, spaces), mcfg))
                got = embed_batch(model, X, POLICY, mcfg)
                assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                           for a, b in zip(got, whole))

    def test_working_memory_is_the_result(self):
        # above one block, the intermediates stay block-sized: the traced peak is the
        # four outputs plus about one block's worth
        rng = np.random.default_rng(2)
        model = EncoderModel.init(16, (16,), 8, rng)
        X = rng.normal(size=(200_000, 16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = embed_batch(model, X, POLICY, ManifoldConfig(1.0, 8))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        result = sum(a.nbytes for a in out)
        assert peak <= result + 4 * 2**20, (peak, result)


class TestClipPolicy:
    def test_monotone_steps(self):
        for g in range(4):
            assert POLICY.zeta(g + 1) - POLICY.zeta(g) == pytest.approx(0.2, abs=1e-15)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ClipPolicy(zeta_old=0.1, zeta_step=-0.2).zeta(3)


class TestTrainOld:
    def _run(self, seed=0):
        rng = np.random.default_rng(seed)
        X, y = two_gaussians(rng)
        tcfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.05, seed=seed)
        return X, y, train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())

    def test_separable_accuracy(self):
        X, y, (model, head, losses) = self._run()
        _, times, spaces, _ = embed_batch(model, X, POLICY, MCFG)
        pred = np.argmax(mlr_logits((times, spaces), head, MCFG), axis=1)
        assert np.mean(pred == y) >= 0.95

    def test_loss_decreases(self):
        _, _, (_, _, losses) = self._run(1)
        assert losses[-1] < losses[0]

    def test_determinism(self):
        _, _, (m1, h1, l1) = self._run(2)
        _, _, (m2, h2, l2) = self._run(2)
        assert params_equal(m1, m2)
        assert np.array_equal(h1, h2)
        assert l1 == l2

    def test_empty_dataset(self):
        tcfg = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(InvalidArgumentError):
            train_old(np.empty((0, 2)), np.empty(0, dtype=int), 2, MCFG, POLICY, tcfg)

    def test_divergence_reports_step(self):
        rng = np.random.default_rng(3)
        X, y = two_gaussians(rng)
        tcfg = TrainConfig(epochs=20, batch_size=16, learning_rate=1e150, seed=0)
        with pytest.raises(TrainingFailureError) as exc:
            train_old(X, y, 2, MCFG, POLICY, tcfg, arch=(4,))
        assert exc.value.step >= 0

    def test_overflowing_update_reports_step(self):
        # the SGD update overflows to inf; the parameter check names the step, and
        # numpy warns nowhere on the way
        rng = np.random.default_rng(3)
        X, y = two_gaussians(rng)
        tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e300, weight_decay=1e10)
        with pytest.raises(TrainingFailureError, match="non-finite parameters at step 0"):
            train_old(X, y, 2, MCFG, POLICY, tcfg, arch=(4,))


class TestTrainNew:
    def _data(self, seed=0):
        rng = np.random.default_rng(seed)
        return two_gaussians(rng)

    def test_lambda_zero_matches_train_old(self):
        # with a frozen clip threshold the generation change has no effect,
        # so an unaligned new model must reproduce train_old exactly
        X, y = self._data()
        flat = ClipPolicy(zeta_old=1.0, zeta_step=0.0)
        tcfg = TrainConfig(epochs=5, batch_size=16, seed=7)
        old, _, _ = train_old(X, y, 2, MCFG, flat, tcfg, arch=())
        align = AlignmentConfig(lambda_align=0.0)
        new, head_new, _ = train_new(X, y, 2, old, align, MCFG, flat, tcfg, arch=())
        base, head_base, _ = train_old(X, y, 2, MCFG, flat, tcfg, arch=())
        assert params_equal(new, base)
        assert np.array_equal(head_new, head_base)
        assert new.generation_tag == 1

    def test_frozen_old_invariant(self):
        X, y = self._data(1)
        tcfg = TrainConfig(epochs=3, batch_size=16, seed=0)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        snapshot = [(W.copy(), b.copy()) for W, b in old.layers]
        train_new(X, y, 2, old, AlignmentConfig(), MCFG, POLICY, tcfg, arch=(4,))
        assert all(np.array_equal(W, W0) and np.array_equal(b, b0)
                   for (W, b), (W0, b0) in zip(old.layers, snapshot))

    def test_aligned_determinism(self):
        X, y = self._data(3)
        tcfg = TrainConfig(epochs=3, batch_size=16, seed=5)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        runs = [train_new(X, y, 2, old, AlignmentConfig(), MCFG, POLICY, tcfg, arch=(4,))
                for _ in range(2)]
        assert params_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    @pytest.mark.parametrize("lam, batch_rows", [(0.3, [8, 8]), (0.0, [8, 8, 1])])
    def test_one_row_tail_batch(self, monkeypatch, lam, batch_rows):
        # 17 rows in batches of 8 leave a 1-row tail: aligned training skips it, because
        # the contrastive loss pairs rows; base-loss training takes it
        X, y = self._data(4)
        X, y = X[32:49], y[32:49]
        tcfg = TrainConfig(epochs=2, batch_size=8, seed=1)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        seen = []
        monkeypatch.setattr("hbct.encoder.total_loss",
                            lambda *a: seen.append(len(a[1])) or total_loss(*a))
        _, _, losses = train_new(X, y, 2, old, AlignmentConfig(lambda_align=lam), MCFG,
                                 POLICY, tcfg, arch=())
        assert seen == batch_rows * 2
        assert len(losses) == 2 and all(np.isfinite(losses))

    @pytest.mark.parametrize("align", [AlignmentConfig(), AlignmentConfig(lambda_align=0.0)])
    def test_old_model_dims_checked(self, align):
        X, y = self._data(4)
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        wide = np.column_stack([X, X[:, :1]])
        with pytest.raises(InvalidArgumentError, match="old model maps 2 -> 4"):
            train_new(wide, y, 2, old, align, MCFG, POLICY, tcfg, arch=())
        with pytest.raises(InvalidArgumentError, match="old model maps 2 -> 4"):
            train_new(X, y, 2, old, align, ManifoldConfig(1.0, 3), POLICY, tcfg, arch=())

    def test_aligned_batches_need_two_rows(self):
        # the contrastive term pairs rows, so a batch of one could never align
        X, y = self._data(5)
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        for X_, y_, cfg in ((X, y, TrainConfig(epochs=1, batch_size=1)),
                            (X[:1], y[:1], tcfg)):
            with pytest.raises(InvalidArgumentError, match="at least 2 rows"):
                train_new(X_, y_, 2, old, AlignmentConfig(), MCFG, POLICY, cfg)
        # unaligned training has no pairs to form and still trains
        _, _, losses = train_new(X[:8], y[:8], 2, old, AlignmentConfig(lambda_align=0.0),
                                 MCFG, POLICY, TrainConfig(epochs=2, batch_size=1))
        assert len(losses) == 2 and all(np.isfinite(losses))


def trained_bytes(model, head, losses):
    return [a.tobytes() for a in model.params() + [head]] + [np.array(losses).tobytes()]


def failure(fn):
    try:
        fn()
    except TrainingFailureError as e:
        return str(e)
    return None


KINDS = [dict(contrast_kind="rince"), dict(contrast_kind="rince", q_mode="fixed"),
         dict(contrast_kind="infonce"), dict(contrast_kind="mean_distortion", q_mode="fixed")]


class TestTrainStack:
    """A stack of models trained at once equals each model trained alone, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 3),
           order=st.permutations(range(3)), K=st.sampled_from([0.5, 1.0, 2.0]),
           arch=st.sampled_from([(), (5,)]),
           rows_batch=st.sampled_from([(17, 8), (33, 16), (24, 16), (20, 4)]),
           kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2))
    def test_stack_equals_models_alone(self, seed, n_models, order, K, arch, rows_batch,
                                       kinds):
        # a lambda = 0 star and two aligned variants, in any order; 17 and 33 rows
        # leave a 1-row tail batch, which only the star steps on
        rng = np.random.default_rng(seed)
        rows, batch = rows_batch
        mcfg = ManifoldConfig(K, 3)
        X = rng.normal(size=(rows, 4)) * rng.uniform(0.2, 3.0, size=(rows, 1))
        y = rng.integers(0, 3, size=rows)
        tcfg = TrainConfig(epochs=2, batch_size=batch, seed=seed % 1000)
        old, _, _ = train_old(X, y, 3, mcfg, POLICY, tcfg, arch=(4,))
        variants = [AlignmentConfig(lambda_align=0.0),
                    AlignmentConfig(lambda_align=0.3, **kinds[0]),
                    AlignmentConfig(lambda_align=1.0, lambda_entail=0.5, **kinds[1])]
        aligns = [variants[i] for i in order[:n_models]]
        # the stack itself: train_stack would fall back to the models alone on a failure
        stack = encoder._train_stack(X, y, 3, arch, mcfg, POLICY, tcfg, aligns, old)
        assert len(stack) == n_models
        for trained, align in zip(stack, aligns):
            alone = train_new(X, y, 3, old, align, mcfg, POLICY, tcfg, arch=arch)
            assert trained_bytes(*trained) == trained_bytes(*alone)
            assert trained[0].generation_tag == 1

    @pytest.mark.parametrize("case", ["star", "aligned", "center_scale"])
    def test_failure_is_the_first_models_alone(self, case):
        # a failing stack trains its models one at a time, in order, and raises what
        # the first model to fail raises alone
        rng = np.random.default_rng(6)
        X, y = two_gaussians(rng, n=12)
        sane = TrainConfig(epochs=2, batch_size=8, seed=3)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, sane, arch=())
        aligns = [AlignmentConfig(lambda_align=0.0), AlignmentConfig(lambda_align=0.3)]
        tcfg = sane
        if case == "star":
            tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e300, weight_decay=1e10)
        elif case == "aligned":
            aligns[1] = AlignmentConfig(lambda_align=1e308)
        else:  # rows of norm about 1e308, embedded by an old model trained on sane ones
            with np.errstate(over="ignore"):
                X = generate_dataset(SyntheticDatasetSpec(
                    num_classes=2, samples_per_class=12, input_dim=2,
                    class_center_scale=1e308)).train_X
            y = y[:len(X)]
        # in order, up to the first failure
        alone = [failure(lambda: train_new(X, y, 2, old, aligns[0], MCFG, POLICY, tcfg))]
        if case == "aligned":
            assert alone == [None]
            alone.append(failure(lambda: train_new(X, y, 2, old, aligns[1], MCFG, POLICY,
                                                   tcfg)))
        first = alone[-1]
        assert failure(lambda: train_stack(X, y, 2, old, aligns, MCFG, POLICY, tcfg)) == first
        assert first.startswith("non-finite parameters at step 0" if case == "star"
                                else "loss diverged at step 0: non-finite primal")


class TestOldBatch:
    """A run works out the frozen old batch's norms and apertures once; a step's
    gathered rows carry the bits a step would compute on them."""

    def test_gathered_constants_keep_the_bits(self):
        rng = np.random.default_rng(8)
        mcfg = ManifoldConfig(0.5, 3)
        model = EncoderModel.init(4, (5,), 3, rng)
        X = rng.normal(size=(300, 4)) * rng.uniform(0.01, 3.0, size=(300, 1))
        _, times, spaces, _ = embed_batch(model, X, POLICY, mcfg)
        cfgs = [AlignmentConfig(), AlignmentConfig(epsilon_aperture=0.7)]
        run = losses.OldBatch.of((times, spaces), cfgs, mcfg)
        idx = rng.permutation(300)[:16]
        batch, plain = run.take(idx), (times[idx], spaces[idx])
        new = embed_batch(EncoderModel.init(4, (), 3, rng), X[idx], POLICY, mcfg)[1:3]
        for cfg in cfgs:
            assert losses.aperture(batch, cfg, mcfg).tobytes() == \
                losses.aperture(plain, cfg, mcfg).tobytes()
            assert losses.entailment_loss(new, batch, cfg, mcfg).tobytes() == \
                losses.entailment_loss(new, plain, cfg, mcfg).tobytes()
        assert losses.exterior_angle(batch, new, cfgs[0], mcfg).tobytes() == \
            losses.exterior_angle(plain, new, cfgs[0], mcfg).tobytes()
        # a config it was not made for falls back to computing the aperture
        other = AlignmentConfig(epsilon_aperture=0.2)
        assert losses.aperture(batch, other, mcfg).tobytes() == \
            losses.aperture(plain, other, mcfg).tobytes()

    def test_apertures_once_per_run(self, monkeypatch):
        # one aperture per aligned config for the whole run, none per step
        rng = np.random.default_rng(9)
        X, y = two_gaussians(rng, n=16)
        tcfg = TrainConfig(epochs=2, batch_size=8, seed=2)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        calls = []
        aperture = losses._aperture
        monkeypatch.setattr(losses, "_aperture", lambda *a: calls.append(1) or aperture(*a))
        aligns = [AlignmentConfig(lambda_align=0.0), AlignmentConfig(),
                  AlignmentConfig(epsilon_aperture=0.3)]
        train_stack(X, y, 2, old, aligns, MCFG, POLICY, tcfg)
        assert len(calls) == 2


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        model = EncoderModel.init(3, (6, 5), 4, rng, generation_tag=2)
        head = rng.normal(size=(7, 4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, head, MCFG, POLICY)
        loaded, head2, K, zeta = load_checkpoint(path)
        assert params_equal(model, loaded)
        assert np.array_equal(head, head2)
        assert loaded.generation_tag == 2
        assert K == MCFG.curvature_K
        assert zeta == POLICY.zeta(2)
        assert [W.shape for W, _ in loaded.layers] == [(6, 3), (5, 6), (4, 5)]

    @pytest.mark.parametrize("tag", [1.7, "1", -1, 2**31])
    def test_tag_outside_int32_rejected(self, tag):
        # the header stores the tag as an int32 >= 0, as a store does
        with pytest.raises(InvalidArgumentError, match="generation tag"):
            EncoderModel.init(3, (), 2, np.random.default_rng(0), generation_tag=tag)

    def test_golden_bytes(self, tmp_path):
        # header, layer table, then W0, b0, ..., W_L, b_L and the head
        rng = np.random.default_rng(8)
        model = EncoderModel.init(3, (5,), 4, rng, generation_tag=2)
        head = rng.normal(size=(2, 4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, head, MCFG, POLICY)
        (W0, b0), (W1, b1) = model.layers
        expected = (struct.pack("<4sIIiddII", b"HBCT", 1, 1, 2, 1.0, POLICY.zeta(2), 2, 2)
                    + struct.pack("<IIII", 3, 5, 5, 4)
                    + b"".join(a.astype("<f8").tobytes() for a in (W0, b0, W1, b1, head)))
        assert path.read_bytes() == expected

    def test_non_finite_values_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        model = EncoderModel.init(3, (), 2, rng, generation_tag=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, rng.normal(size=(2, 2)), MCFG, POLICY)
        good = path.read_bytes()
        # the first weight (after the one-layer table), the last head entry, K, zeta
        for offset, value in ((48, np.nan), (len(good) - 8, np.inf), (16, 0.0), (16, -1.0),
                              (16, np.inf), (24, 0.0), (24, np.nan), (24, -0.5)):
            data = bytearray(good)
            struct.pack_into("<d", data, offset, value)
            path.write_bytes(bytes(data))
            with pytest.raises(InvalidArgumentError):
                load_checkpoint(path)

    def test_wrong_length_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        model = EncoderModel.init(3, (6,), 4, rng, generation_tag=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, rng.normal(size=(3, 4)), MCFG, POLICY)
        data = path.read_bytes()
        for bad in (data[:-1], data + b"\x00", data[:44], data[:30]):
            path.write_bytes(bad)
            with pytest.raises(InvalidArgumentError):
                load_checkpoint(path)

    def test_unchained_layers_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        model = EncoderModel.init(3, (4,), 2, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, rng.normal(size=(2, 2)), MCFG, POLICY)
        data = bytearray(path.read_bytes())
        # (1, 5) then (7, 2) holds as many floats as (3, 4) then (4, 2)
        struct.pack_into("<IIII", data, 40, 1, 5, 7, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)


class TestTrainConfigValidation:
    def test_bad_values(self):
        for kwargs in (dict(epochs=0), dict(batch_size=0), dict(learning_rate=0.0),
                       dict(momentum=-0.1), dict(weight_decay=-1.0)):
            with pytest.raises(InvalidArgumentError):
                TrainConfig(**kwargs)
