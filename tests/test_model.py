import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope.shots import PackedLayout, ShotLayout
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

    @pytest.mark.parametrize("scale", ["j", "k"])
    def test_rejects_negative_shot_scales(self, scale):
        with pytest.raises(ConfigError, match="j and k >= 0"):
            M.DenoiserConfig(**{scale: -1.0})

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

    @pytest.mark.parametrize("d", [8, 24, 128])
    def test_codes_are_cos_sin_of_1000_tau_times_the_frequencies(self, d):
        """cos and sin of 1000 tau 10000^(-i/(d/2)), i < d/2, in float64."""
        freqs = 10000.0 ** (-np.arange(d // 2, dtype=np.float64) / (d // 2))
        for tau in (0.013, 0.25, 0.5, 0.97):
            ang = 1000.0 * tau * freqs
            want = np.concatenate([np.cos(ang), np.sin(ang)])[None, :]
            got = M.timestep_features(tau, d)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


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
        shots = tuple(
            S.ShotPrompt(p.frames, (p.scene + 1) % small_cfg.v_scene, p.motion)
            for p in sample.captions.shots
        )
        other = M.denoiser_forward(
            sample.tokens, 0.5, S.CaptionBundle(shots), sample.layout, small_cfg, params
        ).data
        assert not np.array_equal(base, other)

    @pytest.mark.parametrize("shots", [1, 3])
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_lone_layout_is_the_packing_of_itself(self, small_world, variant, shots):
        """A ShotLayout with its bundle runs exactly as a packing of that one
        layout with a tuple of that one bundle, probabilities included."""
        cfg = M.DenoiserConfig(variant=variant, **SMALL)
        sample = S.make_batch(
            small_world, 1, shot_count_range=(shots, shots), shot_len_range=(1, 3), seed=5
        )[0]
        params = M.init_params(cfg, seed=0)
        params["head/w"].data[:] = np.random.default_rng(1).standard_normal((24, 32)) * 0.01
        captions = M.apply_caption_dropout(sample.captions, 0.5, np.random.default_rng(2))
        runs = []
        for layout, bundles in (
            (sample.layout, captions),
            (PackedLayout((sample.layout,)), (captions,)),
        ):
            collect = M.AttentionCollector()
            out = M.denoiser_forward(sample.tokens, 0.5, bundles, layout, cfg, params, collect)
            runs.append((out.data, collect))
        (lone, lone_probs), (packed, packed_probs) = runs
        assert np.array_equal(lone, packed) and np.any(lone)
        assert len(lone_probs.self_probs) == len(packed_probs.self_probs) == 2
        for a, b in zip(lone_probs.self_probs, packed_probs.self_probs):
            assert np.array_equal(a, b)
        assert len(lone_probs.cross_probs) == len(packed_probs.cross_probs) == 2
        for (a, a_shots), (b, b_shots) in zip(lone_probs.cross_probs, packed_probs.cross_probs):
            assert np.array_equal(a, b) and np.array_equal(a_shots, b_shots)

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
        captions = S.CaptionBundle((S.ShotPrompt(1, 0),))
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


    def _forward(self, sample, tau, cfg, params, collect=None):
        return M.denoiser_forward(
            sample.tokens, tau, sample.captions, sample.layout, cfg, params, collect
        )

    def test_block0_self_attention_sees_the_time_embedding(self, small_cfg, small_world):
        """The time embedding joins the tokens before block 0's self-attention:
        for the same z and captions, that attention's probabilities move with tau."""
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        probs = []
        for tau in (0.1, 0.9):
            collector = M.AttentionCollector()
            self._forward(sample, tau, small_cfg, params, collector)
            probs.append(collector.self_probs[:small_cfg.heads])  # block 0's heads
        for early, late in zip(*probs):
            assert np.abs(early - late).max() > 1e-5  # float32 rounding is ~1e-8 here

    def test_head_normalizes_the_residual_stream(self, small_cfg, small_world):
        """With every block's residual branches zeroed, the head reads
        in_proj(z) + time_proj(features).  Tripling both projections leaves
        the output within layernorm's eps of itself; unnormalized, it would triple."""
        sample = self._sample(small_world)
        params = M.init_params(small_cfg, seed=0)
        rng = np.random.default_rng(3)
        for b in range(small_cfg.blocks):
            for name in ("sa/wo", "ca/wo", "ffn/w2", "ffn/b2"):
                params[f"block{b}/{name}"].data[:] = 0.0
        for name in ("in_proj/b", "time_proj/b", "head/w", "head/b"):
            params[name].data[:] = rng.standard_normal(params[name].shape) * 0.1
        outs = []
        for _ in range(2):
            outs.append(self._forward(sample, 0.5, small_cfg, params).data)
            for name in ("in_proj/w", "in_proj/b", "time_proj/w", "time_proj/b"):
                params[name].data *= 3.0
        base, tripled = outs
        assert np.abs(base).max() > 0.1
        np.testing.assert_allclose(tripled, base, rtol=1e-2, atol=1e-2 * np.abs(base).max())


@st.composite
def _bundles_sharing_shot_0(draw):
    """1-3 caption bundles of 1-4 shots that share shot 0, each with any set
    of dropped shots and with or without an identity row."""
    first = S.ShotPrompt(draw(st.integers(1, 2)), draw(st.integers(0, 3)))
    bundles = []
    for _ in range(draw(st.integers(1, 3))):
        later = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=3))
        shots = (first,) + tuple(S.ShotPrompt(1, scene, motion) for scene, motion in later)
        dropped = draw(st.sets(st.integers(0, len(shots) - 1)))
        id_row = Tensor(np.ones((1, SMALL["d_model"]), dtype=np.float32))
        id_row = draw(st.sampled_from([id_row, None]))
        bundles.append(S.CaptionBundle(shots, frozenset(dropped), id_row))
    return tuple(bundles)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bundles=_bundles_sharing_shot_0())
def test_caption_context_puts_shot_0_first_and_covers_every_shot(bundles):
    """The invariant the attention blocks rely on: the shot-0 rows come
    first, every later row carries a nonzero shot, and every shot of the
    packing appears, whatever is dropped and whichever bundles carry an
    identity row."""
    cfg = M.DenoiserConfig(**SMALL)
    ctx = M.caption_context(bundles, cfg, M.init_params(cfg, seed=0))
    shots, nk0 = ctx.shot_index, ctx.segment_ends[0]
    assert len(ctx.segment_ends) == 1 + len(bundles)
    assert nk0 >= 1 and not shots[:nk0].any() and shots[nk0:].all()
    assert set(shots.tolist()) == set(range(max(b.shot_count for b in bundles)))


class TestCaptionContext:
    def test_rows_two_per_shot_without_identity(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle(tuple(S.ShotPrompt(1, s % 4) for s in range(3)))
        ctx = M.caption_context((captions,), small_cfg, params)
        assert ctx.embeddings.shape == (6, small_cfg.d_model)
        assert ctx.shot_index.tolist() == [0, 0, 1, 1, 2, 2]

    def test_identity_token_prepended(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        vec = np.ones(small_cfg.d_model, dtype=np.float32)
        captions = S.CaptionBundle((S.ShotPrompt(1, 0),), id_row=Tensor(vec[None, :]))
        ctx = M.caption_context((captions,), small_cfg, params)
        assert ctx.embeddings.shape == (3, small_cfg.d_model)
        assert np.array_equal(ctx.embeddings.data[0], vec)

    def test_dropped_training_identity_is_learned_null(self, small_world, monkeypatch):
        """Training's identity dropout conditions on the learned null identity itself."""
        cfg = M.DenoiserConfig(**SMALL, d_id=small_world.d_id, caption_dropout=0.0)
        params = M.init_params(cfg, seed=0)
        null_row = params["caption/null_id"].data[0].copy()  # the step updates it in place
        seen = []
        real = M.caption_context

        def spy(bundles, *rest):
            ctx = real(bundles, *rest)
            seen.append((bundles, ctx))
            return ctx

        monkeypatch.setattr(M, "caption_context", spy)
        train_cfg = E.TrainConfig(steps=1, batch_size=2, seed=1, pmt2v=True, id_dropout=1.0)
        E.train(cfg, train_cfg, small_world, params=params)
        assert len(seen) == 2
        for bundles, ctx in seen:
            rows = [bundle.id_row for bundle in bundles]
            assert all(row is params["caption/null_id"] for row in rows)
            assert np.array_equal(ctx.embeddings.data[0], null_row)

    @pytest.mark.parametrize(
        "shape", [(1, 23), (1, 25), (2, 24), (24,), pytest.param(None, id="raw-array")]
    )
    def test_identity_row_of_wrong_shape(self, small_cfg, shape):
        """A row must be a [1, d_model] Tensor; None stands for a raw array of that shape."""
        params = M.init_params(small_cfg, seed=0)
        if shape is None:
            row = np.ones((1, small_cfg.d_model), dtype=np.float32)
        else:
            row = Tensor(np.ones(shape, dtype=np.float32))
        captions = S.CaptionBundle((S.ShotPrompt(1, 0),), id_row=row)
        with pytest.raises(ShapeError):
            M.caption_context((captions,), small_cfg, params)

    def test_dropped_caption_becomes_single_null_row(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle((S.ShotPrompt(1, 0),), dropped=frozenset({0}))
        ctx = M.caption_context((captions,), small_cfg, params)
        assert ctx.embeddings.shape == (1, small_cfg.d_model)
        assert np.array_equal(ctx.embeddings.data, params["caption/null"].data)

    def test_out_of_vocab_rejected(self, small_cfg):
        params = M.init_params(small_cfg, seed=0)
        captions = S.CaptionBundle((S.ShotPrompt(1, 99),))
        with pytest.raises(ConfigError):
            M.caption_context((captions,), small_cfg, params)


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
        captions = S.CaptionBundle(tuple(S.ShotPrompt(1, 0) for _ in range(4)))
        rng = np.random.default_rng(0)
        dropped = 0
        for _ in range(500):
            out = M.apply_caption_dropout(captions, 0.1, rng)
            dropped += len(out.dropped)
        assert abs(dropped / 2000 - 0.1) <= 0.02

    def test_caption_dropout_zero_is_identity(self):
        captions = S.CaptionBundle((S.ShotPrompt(1, 1, 1),))
        out = M.apply_caption_dropout(captions, 0.0, np.random.default_rng(0))
        assert not out.dropped

    def test_caption_dropout_draws_nothing_for_a_shot_already_dropped(self):
        """Shot 1 of 3 is already dropped: it stays dropped, and shots 0 and 2
        draw one uniform each, in that order."""
        captions = S.CaptionBundle(
            tuple(S.ShotPrompt(1, s) for s in range(3)), dropped=frozenset({1})
        )
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        u0, u2 = twin.uniform(), twin.uniform()
        out = M.apply_caption_dropout(captions, (u0 + u2) / 2, rng)
        assert out.dropped == ({0, 1} if u0 < u2 else {1, 2})
        assert out.shots == captions.shots
        assert rng.uniform() == twin.uniform()

    def test_caption_dropout_bad_probability(self):
        captions = S.CaptionBundle((S.ShotPrompt(1, 0),))
        with pytest.raises(ConfigError):
            M.apply_caption_dropout(captions, 1.5, np.random.default_rng(0))
