"""Encoder pipeline and training loops: embedding contracts, determinism,
alignment switch-off equivalence, divergence handling, checkpoint format."""

import struct

import numpy as np
import pytest

from hbct.encoder import (ClipPolicy, EncoderModel, TrainConfig, embed_batch,
                          load_checkpoint, save_checkpoint, train_new, train_old)
from hbct.errors import InvalidArgumentError, TrainingFailureError
from hbct.losses import AlignmentConfig, mlr_logits
from hbct.manifold import LorentzPoint, ManifoldConfig, on_manifold_defect

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
        tcfg = TrainConfig(epochs=20, batch_size=16, learning_rate=1e150,
                           cosine_annealing=False, seed=0)
        with pytest.raises(TrainingFailureError) as exc:
            train_old(X, y, 2, MCFG, POLICY, tcfg, arch=(4,))
        assert exc.value.step >= 0


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

    def test_init_from_old(self):
        X, y = self._data(2)
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=(4,))
        new, _, _ = train_new(X, y, 2, old, AlignmentConfig(), MCFG, POLICY, tcfg,
                              arch=(4,), init_from_old=True)
        assert new.generation_tag == old.generation_tag + 1
        assert [W.shape for W, _ in new.layers] == [W.shape for W, _ in old.layers]

    def test_aligned_determinism(self):
        X, y = self._data(3)
        tcfg = TrainConfig(epochs=3, batch_size=16, seed=5)
        old, _, _ = train_old(X, y, 2, MCFG, POLICY, tcfg, arch=())
        runs = [train_new(X, y, 2, old, AlignmentConfig(), MCFG, POLICY, tcfg, arch=(4,))
                for _ in range(2)]
        assert params_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

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
