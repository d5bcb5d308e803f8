import numpy as np
import pytest

from shotrope import model as M
from shotrope import synthetic as S
from shotrope.shots import ShotLayout
from shotrope.tensor import ConfigError, GradTape, ShapeError, Tensor


SMALL = dict(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32)


@pytest.fixture(scope="module")
def small_cfg():
    return M.DenoiserConfig(**SMALL)


@pytest.fixture(scope="module")
def small_world():
    return S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)


class TestConfig:
    def test_variant_gating(self):
        v = M.DenoiserConfig(variant="vanilla")
        assert (v.j_eff, v.k_eff, v.use_ref) == (0.0, 0.0, False)
        t = M.DenoiserConfig(variant="tcrope")
        assert (t.j_eff, t.k_eff) == (4.0, 0.0)
        f = M.DenoiserConfig(variant="full")
        assert (f.j_eff, f.k_eff) == (4.0, 6.0)
        r = M.DenoiserConfig(variant="full+refattn")
        assert (r.j_eff, r.k_eff, r.use_ref) == (4.0, 6.0, True)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            M.DenoiserConfig(variant="nope")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            M.DenoiserConfig(d_model=30, heads=4)

    def test_dict_roundtrip(self):
        cfg = M.DenoiserConfig(variant="tcrope", blocks=2)
        clone = M.DenoiserConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            M.DenoiserConfig.from_dict({"mystery": 1})


class TestParams:
    def test_census_identical_across_variants(self):
        censuses = []
        for variant in M.VARIANTS:
            cfg = M.DenoiserConfig(variant=variant, **SMALL)
            censuses.append(M.params_census(M.init_params(cfg, seed=0)))
        assert all(c == censuses[0] for c in censuses[1:])

    def test_init_determinism(self, small_cfg):
        a = M.init_params(small_cfg, seed=4)
        b = M.init_params(small_cfg, seed=4)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)

    def test_output_head_starts_at_zero(self, small_cfg):
        p = M.init_params(small_cfg, seed=0)
        assert not np.any(p["head/w"].data)
        assert not np.any(p["head/b"].data)

    def test_weights_are_clipped_truncated_normal(self, small_cfg):
        p = M.init_params(small_cfg, seed=1)
        w = p["block0/sa/wq"].data
        assert np.max(np.abs(w)) <= 0.04 + 1e-7
        assert np.std(w) > 0.01


class TestTimestepFeatures:
    def test_shape_and_range(self):
        f = M.timestep_features(0.5, 128)
        assert f.shape == (1, 128)
        assert np.max(np.abs(f)) <= 1.0 + 1e-6

    def test_zero_time_is_cos_one_sin_zero(self):
        f = M.timestep_features(0.0, 8)[0]
        assert np.allclose(f[:4], 1.0)
        assert np.allclose(f[4:], 0.0)

    def test_distinct_times_distinct_codes(self):
        a = M.timestep_features(0.3, 64)
        b = M.timestep_features(0.7, 64)
        assert not np.allclose(a, b)


class TestForward:
    def _sample(self, world):
        return S.make_batch(world, 1, shot_count_range=(2, 2), shot_len_range=(2, 2), seed=8)[0]

    def test_output_shape(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        out = M.denoiser_forward(sample.tokens, 0.5, sample.captions, sample.layout, small_cfg, params)
        assert out.shape == (sample.layout.total_tokens, small_cfg.d_token)

    def test_zero_head_means_zero_velocity_at_init(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        out = M.denoiser_forward(sample.tokens, 0.5, sample.captions, sample.layout, small_cfg, params)
        assert not np.any(out.data)

    def test_deterministic(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        params["head/w"].data[:] = 0.01
        args = (sample.tokens, 0.5, sample.captions, sample.layout, small_cfg, params)
        assert np.array_equal(M.denoiser_forward(*args).data, M.denoiser_forward(*args).data)

    def test_caption_changes_output(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        params["head/w"].data[:] = 0.01
        base = M.denoiser_forward(
            sample.tokens, 0.5, sample.captions, sample.layout, small_cfg, params
        ).data
        entries = [
            S.CaptionEntry(e.shot, (e.scene_id + 1) % small_cfg.v_scene, e.motion_id)
            for e in sample.captions.entries
        ]
        other = M.denoiser_forward(
            sample.tokens, 0.5, S.CaptionBundle(entries), sample.layout, small_cfg, params
        ).data
        assert not np.array_equal(base, other)

    def test_caption_entry_order_is_irrelevant(self, small_cfg, small_world):
        # shot binding comes from the shot-index rotation, not list position
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        params["head/w"].data[:] = 0.01
        base = M.denoiser_forward(
            sample.tokens, 0.5, sample.captions, sample.layout, small_cfg, params
        ).data
        permuted = S.CaptionBundle(list(reversed(sample.captions.entries)))
        out = M.denoiser_forward(
            sample.tokens, 0.5, permuted, sample.layout, small_cfg, params
        ).data
        assert np.max(np.abs(out - base)) <= 1e-5

    def test_bad_tau(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        with pytest.raises(ConfigError):
            M.denoiser_forward(sample.tokens, 1.5, sample.captions, sample.layout, small_cfg, params)

    def test_latent_shape_mismatch(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        with pytest.raises(ShapeError):
            M.denoiser_forward(
                sample.tokens[:-1], 0.5, sample.captions, sample.layout, small_cfg, params
            )

    def test_caption_shot_count_mismatch(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle([S.CaptionEntry(shot=0, scene_id=0, motion_id=0)])
        with pytest.raises(ConfigError):
            M.denoiser_forward(sample.tokens, 0.5, captions, sample.layout, small_cfg, params)

    def test_collector_gathers_all_blocks_and_heads(self, small_world):
        cfg = M.DenoiserConfig(**{**SMALL, "blocks": 2})
        sample = self._sample(small_world)
        params = M.init_params(cfg, seed=0)
        coll = M.AttentionCollector()
        M.denoiser_forward(
            sample.tokens, 0.5, sample.captions, sample.layout, cfg, params, collect=coll
        )
        assert len(coll.self_probs) == cfg.blocks * cfg.heads
        assert len(coll.cross_probs) == cfg.blocks * cfg.heads
        n = sample.layout.total_tokens
        assert coll.self_probs[0].shape == (n, n)
        probs, shot_idx = coll.cross_probs[0]
        assert probs.shape == (n, len(shot_idx))

    def test_collector_gathers_full_matrices_in_ref_mode(self, small_world):
        cfg = M.DenoiserConfig(**{**SMALL, "blocks": 2, "variant": "full+refattn"})
        sample = self._sample(small_world)
        params = M.init_params(cfg, seed=0)
        coll = M.AttentionCollector()
        M.denoiser_forward(
            sample.tokens, 0.5, sample.captions, sample.layout, cfg, params, collect=coll
        )
        assert len(coll.self_probs) == cfg.blocks * cfg.heads
        assert len(coll.cross_probs) == cfg.blocks * cfg.heads
        n = sample.layout.total_tokens
        n0 = sample.layout.token_spans()[0][1]
        for probs in coll.self_probs:
            assert probs.shape == (n, n)
            assert not probs[:n0, n0:].any()
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        for probs, shot_idx in coll.cross_probs:
            assert probs.shape == (n, len(shot_idx))
            assert not probs[:n0, shot_idx != 0].any()

    def test_gradients_flow_after_head_is_nonzero(self, small_cfg, small_world):
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        params["head/w"].data[:] = 0.01
        eps = np.random.default_rng(0).standard_normal(sample.tokens.shape).astype(np.float32)
        with GradTape() as tape:
            pred = M.denoiser_forward(
                M.make_noisy(sample.tokens, eps, 0.5), 0.5, sample.captions,
                sample.layout, small_cfg, params,
            )
            tape.backward(M.rf_loss(pred, sample.tokens, eps))
        g = params["block0/sa/wq"].grad
        assert g is not None and np.any(g)


class TestCaptionContext:
    def test_rows_two_per_shot_without_identity(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=s, scene_id=s % 4, motion_id=0) for s in range(3)]
        )
        ctx = M.caption_context(captions, small_cfg, params)
        assert ctx.embeddings.shape == (6, small_cfg.d_model)
        assert ctx.shot_index.tolist() == [0, 0, 1, 1, 2, 2]

    def test_identity_token_prepended(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        vec = np.ones(small_cfg.d_model, dtype=np.float32)
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=0, scene_id=0, motion_id=0, id_vector=vec)]
        )
        ctx = M.caption_context(captions, small_cfg, params)
        assert ctx.embeddings.shape == (3, small_cfg.d_model)
        assert np.array_equal(ctx.embeddings.data[0], vec)

    def test_zero_identity_vector_uses_learned_null(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        vec = np.zeros(small_cfg.d_model, dtype=np.float32)
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=0, scene_id=0, motion_id=0, id_vector=vec)]
        )
        ctx = M.caption_context(captions, small_cfg, params)
        assert np.array_equal(ctx.embeddings.data[0], params["caption/null_id"].data[0])

    def test_dropped_caption_becomes_single_null_row(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=0, scene_id=0, motion_id=0, dropped=True)]
        )
        ctx = M.caption_context(captions, small_cfg, params)
        assert ctx.embeddings.shape == (1, small_cfg.d_model)
        assert np.array_equal(ctx.embeddings.data, params["caption/null"].data)

    def test_out_of_vocab_rejected(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle([S.CaptionEntry(shot=0, scene_id=99, motion_id=0)])
        with pytest.raises(ConfigError):
            M.caption_context(captions, small_cfg, params)


class TestLossAndNoise:
    def test_rf_loss_oracle(self):
        pred = Tensor(np.zeros((2, 2), dtype=np.float32))
        z = np.ones((2, 2), dtype=np.float32)
        eps = np.full((2, 2), 3.0, dtype=np.float32)
        # target = eps - z = 2; mse of (0 - 2) = 4
        assert M.rf_loss(pred, z, eps).data == pytest.approx(4.0)

    def test_make_noisy_endpoints(self):
        z = np.full((2, 2), 5.0, dtype=np.float32)
        eps = np.full((2, 2), -1.0, dtype=np.float32)
        assert np.array_equal(M.make_noisy(z, eps, 0.0), z)
        assert np.array_equal(M.make_noisy(z, eps, 1.0), eps)
        assert np.allclose(M.make_noisy(z, eps, 0.5), 2.0)

    def test_caption_dropout_rate(self):
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=s, scene_id=0, motion_id=0) for s in range(4)]
        )
        rng = np.random.default_rng(0)
        dropped = 0
        for _ in range(500):
            out = M.apply_caption_dropout(captions, 0.1, rng)
            dropped += sum(e.dropped for e in out.entries)
        assert abs(dropped / 2000 - 0.1) <= 0.02

    def test_caption_dropout_zero_is_identity(self):
        captions = S.CaptionBundle(
            [S.CaptionEntry(shot=0, scene_id=1, motion_id=1)]
        )
        out = M.apply_caption_dropout(captions, 0.0, np.random.default_rng(0))
        assert not out.entries[0].dropped

    def test_caption_dropout_bad_probability(self):
        captions = S.CaptionBundle([S.CaptionEntry(shot=0, scene_id=0, motion_id=0)])
        with pytest.raises(ConfigError):
            M.apply_caption_dropout(captions, 1.5, np.random.default_rng(0))
