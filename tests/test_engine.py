import numpy as np
import pytest

from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.shots import PackedLayout
from shotrope.tensor import ConfigError, NumericError, ShapeError, Tensor


SMALL = dict(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32)


@pytest.fixture(scope="module")
def small_world():
    return S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)


def _small_train_cfg(**kw):
    base = dict(steps=3, batch_size=1, seed=1, shot_count_range=(2, 2), shot_len_range=(2, 2))
    base.update(kw)
    return E.TrainConfig(**base)


class TestTimestepSchedule:
    def test_endpoints_fixed(self):
        taus = E.shift_timesteps(50, 5.0)
        assert taus[0] == 1.0
        assert taus[-1] == 0.0
        assert len(taus) == 51

    def test_strictly_decreasing(self):
        taus = E.shift_timesteps(50, 5.0)
        assert np.all(np.diff(taus) < 0)

    def test_shift_map_value(self):
        # u = 0.5, shift 5: 2.5 / (1 + 4 * 0.5) = 5/6
        assert E.shift_map(0.5, 5.0) == pytest.approx(5.0 / 6.0)

    def test_unit_shift_is_identity_map(self):
        u = np.linspace(0, 1, 11)
        assert np.allclose(E.shift_map(u, 1.0), u)

    def test_shift_biases_towards_high_noise(self):
        u = np.linspace(0.01, 0.99, 50)
        assert np.all(E.shift_map(u, 5.0) > u)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            E.shift_timesteps(0, 5.0)
        with pytest.raises(ConfigError):
            E.shift_timesteps(10, 0.5)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_is_a_config_error(self, shift):
        with pytest.raises(ConfigError, match="shift"):
            E.shift_timesteps(3, shift)


class TestAdamW:
    def test_first_step_matches_hand_calc(self):
        cfg = E.TrainConfig(steps=1, lr=0.1, weight_decay=0.0)
        p = {"w": Tensor(np.array([[1.0]], dtype=np.float32), requires_grad=True)}
        p["w"].grad = np.array([[2.0]], dtype=np.float32)
        opt = E.AdamW(p, cfg)
        opt.step(p)
        # bias-corrected m-hat = g, v-hat = g^2; update = g / (|g| + eps) ~ 1
        assert p["w"].data[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_decoupled_weight_decay(self):
        cfg = E.TrainConfig(steps=1, lr=0.1, weight_decay=0.5)
        p = {"w": Tensor(np.array([[1.0]], dtype=np.float32), requires_grad=True)}
        p["w"].grad = np.zeros((1, 1), dtype=np.float32)
        opt = E.AdamW(p, cfg)
        opt.step(p)
        assert p["w"].data[0, 0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-6)

    def test_skips_params_without_grad(self):
        cfg = E.TrainConfig(steps=1)
        p = {"w": Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)}
        opt = E.AdamW(p, cfg)
        opt.step(p)
        assert np.array_equal(p["w"].data, np.ones((2, 2)))

    def test_grad_cleared_after_step(self):
        cfg = E.TrainConfig(steps=1)
        p = {"w": Tensor(np.ones((1, 1), dtype=np.float32), requires_grad=True)}
        p["w"].grad = np.ones((1, 1), dtype=np.float32)
        E.AdamW(p, cfg).step(p)
        assert p["w"].grad is None


    def test_in_place_step_equals_the_plain_expression(self):
        """Three steps with weight decay give the same bits as AdamW written
        as one numpy expression per moment and per update."""
        cfg = E.TrainConfig(steps=1, lr=3e-3, weight_decay=0.05)
        rng = np.random.default_rng(30)
        shapes = {"w": (5, 7), "b": (7,), "e": (3, 2, 4), "s": (1, 1)}
        start = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        p = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
        want = {n: a.copy() for n, a in start.items()}
        m = {n: np.zeros_like(a) for n, a in start.items()}
        v = {n: np.zeros_like(a) for n, a in start.items()}
        opt = E.AdamW(p, cfg)
        for t in range(1, 4):
            grads = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
            for n in p:
                p[n].grad = grads[n].copy()
            opt.step(p)
            b1c = 1.0 - cfg.beta1**t
            b2c = 1.0 - cfg.beta2**t
            for n, g in grads.items():
                m[n] *= cfg.beta1
                m[n] += (1.0 - cfg.beta1) * g
                v[n] *= cfg.beta2
                v[n] += (1.0 - cfg.beta2) * (g * g)
                update = (m[n] / b1c) / (np.sqrt(v[n] / b2c) + cfg.adam_eps)
                want[n] -= np.float32(cfg.lr) * (update + cfg.weight_decay * want[n]).astype(
                    np.float32
                )
                assert np.array_equal(p[n].data, want[n]), (t, n)
                assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n])
                assert p[n].grad is None


class TestPromptHelpers:
    def test_build_layout_and_captions(self, small_world):
        spec = [E.ShotPrompt(frames=2, scene=1), E.ShotPrompt(frames=3, scene=0, motion=1)]
        layout = E.build_layout(spec, small_world)
        assert layout.frame_counts == (2, 3)
        captions = E.build_captions(spec)
        assert [p.scene for p in captions.shots] == [1, 0]
        assert [p.motion for p in captions.shots] == [0, 1]

    def test_bad_frames(self):
        with pytest.raises(ConfigError):
            E.ShotPrompt(frames=0, scene=0)

    def test_null_captions_drop_everything(self):
        captions = E.build_captions([E.ShotPrompt(frames=2, scene=1), E.ShotPrompt(2, 0)])
        row = Tensor(np.ones((1, 24), dtype=np.float32))
        nulled = M.null_captions(E.condition_identity(captions, row))
        assert nulled.dropped == {0, 1} and nulled.id_row is None
        assert nulled.shots == captions.shots

    def test_condition_identity_attaches_the_row_unchanged(self):
        captions = E.build_captions([E.ShotPrompt(frames=2, scene=1), E.ShotPrompt(2, 0)])
        row = Tensor(np.ones((1, 24), dtype=np.float32))
        out = E.condition_identity(captions, row)
        assert out.id_row is row
        assert out.shots == captions.shots and not out.dropped

    def test_sample_rejects_an_identity_that_is_not_one_row(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        spec = [E.ShotPrompt(frames=2, scene=1)]
        rows = (Tensor(np.ones(24)), Tensor(np.ones((2, 24))), np.ones((1, 24), np.float32))
        for row in rows:
            with pytest.raises(ShapeError):
                E.sample(params, cfg, small_world, spec, steps=1, id_embedding=row)


class TestTraining:
    def test_loss_logged_and_finite(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params, log = E.train(cfg, _small_train_cfg(), small_world)
        assert len(log) == 3
        assert all(np.isfinite(l[1]) for l in log)

    def test_training_is_deterministic(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        p1, log1 = E.train(cfg, _small_train_cfg(), small_world)
        p2, log2 = E.train(cfg, _small_train_cfg(), small_world)
        assert log1 == log2
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_different_seeds_differ(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        _, log1 = E.train(cfg, _small_train_cfg(seed=1), small_world)
        _, log2 = E.train(cfg, _small_train_cfg(seed=2), small_world)
        assert log1 != log2

    def test_loss_decreases_over_training(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        tc = _small_train_cfg(steps=60, batch_size=2)
        _, log = E.train(cfg, tc, small_world)
        early = np.mean([l[1] for l in log[:10]])
        late = np.mean([l[1] for l in log[-10:]])
        assert late < early

    def test_smoothed_loss_is_the_mean_of_the_last_50(self, small_world):
        """Past step 50 the window slides: each row's smoothed loss is, bit for
        bit, np.mean of the losses of its own step and the 49 before it."""
        cfg = M.DenoiserConfig(variant="full", d_model=16, blocks=1, heads=2, d_token=32)
        _, log = E.train(cfg, _small_train_cfg(steps=55), small_world)
        losses = [loss for _, loss, _ in log]
        assert [step for step, _, _ in log] == list(range(55))
        for step, _, smoothed in log:
            assert smoothed == float(np.mean(losses[max(0, step - 49):step + 1]))

    def test_log_hook_called_per_step(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        seen = []
        E.train(cfg, _small_train_cfg(), small_world, log_hook=lambda *a: seen.append(a))
        assert len(seen) == 3

    def test_resume_from_given_params(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        before = {k: p.data.copy() for k, p in params.items()}
        out, _ = E.train(cfg, _small_train_cfg(), small_world, params=params)
        assert out is params
        assert any(not np.array_equal(before[k], params[k].data) for k in params)

    def test_last_update_that_overflows_is_numeric_error(self, small_world):
        """lr 1e39 is finite as a float but infinite once the float32 update
        takes it: no loss reads the last step's update, so train checks the
        parameters themselves after it."""
        cfg = M.DenoiserConfig(**SMALL)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            E.train(cfg, _small_train_cfg(steps=1, lr=1e39), small_world)

    def test_identity_finetune_mode_runs(self, small_world):
        cfg = M.DenoiserConfig(**SMALL, d_id=8)
        tc = _small_train_cfg(pmt2v=True)
        params, log = E.train(cfg, tc, small_world)
        assert np.isfinite(log[-1][1])


class TestSampling:
    def _spec(self):
        return [E.ShotPrompt(frames=2, scene=0), E.ShotPrompt(frames=2, scene=1)]

    def test_shape_and_determinism(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        out1 = E.sample(params, cfg, small_world, self._spec(), steps=4, seed=3)
        out2 = E.sample(params, cfg, small_world, self._spec(), steps=4, seed=3)
        layout = E.build_layout(self._spec(), small_world)
        assert out1.shape == (layout.total_tokens, small_world.d_token)
        assert np.array_equal(out1, out2)

    def test_seed_changes_output(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        a = E.sample(params, cfg, small_world, self._spec(), steps=4, seed=3)
        b = E.sample(params, cfg, small_world, self._spec(), steps=4, seed=4)
        assert not np.array_equal(a, b)

    def test_zero_velocity_model_returns_noise(self, small_world):
        # head is zero at init, so both guidance branches are zero velocity
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        layout = E.build_layout(self._spec(), small_world)
        noise = np.random.default_rng(0).standard_normal(
            (layout.total_tokens, small_world.d_token)
        ).astype(np.float32)
        out = E.sample(params, cfg, small_world, self._spec(), steps=4, init_noise=noise)
        assert np.allclose(out, noise, atol=1e-6)

    def test_bad_init_noise_shape(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        with pytest.raises(ShapeError):
            E.sample(
                params, cfg, small_world, self._spec(), steps=2,
                init_noise=np.zeros((3, small_world.d_token), dtype=np.float32),
            )

    def test_a_step_that_leaves_a_non_finite_field_is_numeric_error(self, small_world):
        """A head so large that the velocity overflows float32: the one step's
        field is not finite, and the sampler raises rather than return it."""
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        params["head/w"].data[:] = 1e38
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 0 of 1"):
            E.sample(params, cfg, small_world, self._spec(), steps=1, seed=3)

    def test_infinite_mode_requires_reference_variant(self, small_world):
        cfg = M.DenoiserConfig(**SMALL)
        params = M.init_params(cfg, seed=0)
        ref = E.ShotPrompt(frames=2, scene=0)
        noise = np.zeros((2 * 4, small_world.d_token), dtype=np.float32)
        with pytest.raises(ConfigError):
            E.sample_infinite(params, cfg, small_world, ref, noise, [[ref]])

    def test_infinite_mode_bad_reference_noise(self, small_world):
        cfg = M.DenoiserConfig(variant="full+refattn", **SMALL)
        params = M.init_params(cfg, seed=0)
        ref = E.ShotPrompt(frames=2, scene=0)
        with pytest.raises(ShapeError):
            E.sample_infinite(
                params, cfg, small_world, ref,
                np.zeros((3, small_world.d_token), dtype=np.float32), [[ref]],
            )


class TestNonFiniteSamplingSettings:
    """A NaN or infinite guidance or shift, or a guidance that float32 cannot
    hold, is refused before any step runs, rather than sampled into a NaN
    field or a late NumericError."""

    REF = E.ShotPrompt(frames=2, scene=0)

    @pytest.fixture(scope="class")
    def model(self):
        cfg = M.DenoiserConfig(variant="full+refattn", **SMALL)
        return M.init_params(cfg, seed=0), cfg

    def _sample(self, model, world, **kw):
        params, cfg = model
        return E.sample(params, cfg, world, [self.REF, E.ShotPrompt(1, 1)], steps=1, **kw)

    def _continue(self, model, world, **kw):
        params, cfg = model
        noise = np.zeros((2 * world.height * world.width, world.d_token), dtype=np.float32)
        attempts = [[E.ShotPrompt(1, 1)], []]
        return E.sample_infinite(params, cfg, world, self.REF, noise, attempts, steps=1, **kw)

    @pytest.mark.parametrize("run", ["_sample", "_continue"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("setting", ["guidance", "shift"])
    def test_refused(self, model, small_world, monkeypatch, run, value, setting):
        forwards = []
        forward = M.denoiser_forward
        monkeypatch.setattr(
            M, "denoiser_forward", lambda *a, **kw: forwards.append(1) or forward(*a, **kw)
        )
        with pytest.raises(ConfigError, match=setting):
            getattr(self, run)(model, small_world, **{setting: value})
        assert forwards == []

    @pytest.mark.parametrize("run", ["_sample", "_continue"])
    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_guidance_beyond_float32_refused(self, model, small_world, run, value):
        """1e39 is a finite float, but the forward's float32 takes it as inf."""
        with pytest.raises(ConfigError, match="guidance must be finite in float32"):
            getattr(self, run)(model, small_world, guidance=value)


class TestCaptionKeysOncePerCall:
    """A sampling call embeds each branch's captions once and projects each
    block's caption keys and values once per branch, whatever its steps; a
    training forward reads the weights as they are when it runs."""

    REF = E.ShotPrompt(frames=2, scene=0, motion=1)
    CFG = M.DenoiserConfig(variant="full+refattn", **{**SMALL, "blocks": 2})

    def _count(self, monkeypatch, params):
        """Spy on caption_context and on the products with each block's
        cross-attention key and value weights."""
        embedded, projected = [], []
        context, matmul = M.caption_context, T.matmul
        watched = {id(params[f"block{b}/ca/{w}"]): f"block{b}/ca/{w}"
                   for b in range(self.CFG.blocks) for w in ("wk", "wv")}

        def counted_matmul(a, b):
            if id(b) in watched:
                projected.append(watched[id(b)])
            return matmul(a, b)

        monkeypatch.setattr(
            M, "caption_context", lambda *a, **k: embedded.append(1) or context(*a, **k)
        )
        monkeypatch.setattr(T, "matmul", counted_matmul)
        return embedded, projected

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("guidance, branches", [(5.0, 2), (1.0, 1)])
    @pytest.mark.parametrize("job", ["sample", "sample_infinite"])
    def test_sampling_call(self, small_world, monkeypatch, job, guidance, branches, steps):
        params = M.init_params(self.CFG, seed=2)
        embedded, projected = self._count(monkeypatch, params)
        kw = dict(steps=steps, guidance=guidance, seed=3)
        if job == "sample":
            E.sample(params, self.CFG, small_world, [self.REF, E.ShotPrompt(2, 1)], **kw)
        elif job == "sample-many-shots":
            shots = [E.ShotPrompt(1, s % 3, s % 2) for s in range(6)]
            E.sample(params, self.CFG, small_world, [self.REF, *shots], **kw)
        else:
            noise = np.zeros((8, small_world.d_token), dtype=np.float32)
            attempts = [[E.ShotPrompt(2, 1)], [E.ShotPrompt(1, 2), E.ShotPrompt(1, 3)]]
            E.sample_infinite(params, self.CFG, small_world, self.REF, noise, attempts, **kw)
        assert len(embedded) == branches
        want = [f"block{b}/ca/{w}" for b in range(self.CFG.blocks) for w in ("wk", "wv")]
        assert sorted(projected) == sorted(want * branches)

    @pytest.mark.parametrize("job", ["sample", "sample_infinite", "sample-many-shots"])
    def test_sampling_steps_fold_the_cross_attention(self, small_world, monkeypatch, job):
        """The conditionings a guided sampling call builds, one a branch, are
        folded, and no step projects the cross-attention's queries or
        outputs: no product reads a block's ca/wq or ca/wo, while the
        self-attention's run.  Seven shots give the conditional branch's later
        shots 14 caption keys, more than d_model / heads = 12: that block runs
        the projections, and the unconditional branch's 7 null keys fold."""
        params = M.init_params(self.CFG, seed=2)
        conds, operands = [], set()
        conditioning, matmul = M.conditioning, T.matmul
        names = {id(p): name for name, p in params.items()}

        def built(*args, **kwargs):
            conds.append(conditioning(*args, **kwargs))
            return conds[-1]

        def spied(a, b):
            operands.add(names.get(id(b)))
            return matmul(a, b)

        monkeypatch.setattr(M, "conditioning", built)
        monkeypatch.setattr(T, "matmul", spied)
        kw = dict(steps=2, guidance=5.0, seed=3)
        if job == "sample":
            E.sample(params, self.CFG, small_world, [self.REF, E.ShotPrompt(2, 1)], **kw)
        elif job == "sample-many-shots":
            shots = [E.ShotPrompt(1, s % 3, s % 2) for s in range(6)]
            E.sample(params, self.CFG, small_world, [self.REF, *shots], **kw)
        else:
            noise = np.zeros((8, small_world.d_token), dtype=np.float32)
            attempts = [[E.ShotPrompt(2, 1)], [E.ShotPrompt(1, 2), E.ShotPrompt(1, 3)]]
            E.sample_infinite(params, self.CFG, small_world, self.REF, noise, attempts, **kw)
        (cond,) = [c for c in conds if not c.captions[0].dropped]
        (uncond,) = [c for c in conds if c is not cond]
        assert uncond.captions == tuple(map(M.null_captions, cond.captions))
        assert len(cond.cross_folds) == len(uncond.cross_folds) == self.CFG.blocks
        many = job == "sample-many-shots"
        for b, (runs, null_runs) in enumerate(zip(cond.cross_folds, uncond.cross_folds)):
            assert sum(run[2] is None for run in runs) == many
            assert all(run[2] is not None for run in null_runs)
            assert {f"block{b}/sa/wq", f"block{b}/sa/wo"} <= operands
            assert bool({f"block{b}/ca/wq", f"block{b}/ca/wo"} & operands) == many

    def test_training_forward_reads_updated_weights(self, small_world):
        """An in-place change to block0/ca/wk between two taped forwards, as
        AdamW makes, reaches the second forward's output and gradients."""
        params = M.init_params(self.CFG, seed=2)
        rng = np.random.default_rng(4)  # the head is zero at init
        params["head/w"].data[...] = rng.standard_normal(params["head/w"].shape)
        sample = S.make_batch(small_world, 1, shot_count_range=(2, 2), shot_len_range=(2, 2),
                              seed=5)[0]

        def forward_and_grad(p):
            with T.GradTape() as tape:
                out = M.denoiser_forward(Tensor(sample.tokens), 0.5, sample.captions,
                                         sample.layout, self.CFG, p)
                tape.backward(T.tmean(T.mul(out, out)))
            grad, p["block0/ca/wk"].grad = p["block0/ca/wk"].grad, None
            return out.data, grad

        before = forward_and_grad(params)
        params["block0/ca/wk"].data += 0.5
        after = forward_and_grad(params)
        fresh = forward_and_grad(
            {n: Tensor(t.data.copy(), requires_grad=True) for n, t in params.items()}
        )
        for got, want, old in zip(after, fresh, before):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


class TestMetrics:
    def test_perfect_field_scores_perfectly(self, small_world):
        spec = [
            E.ShotPrompt(frames=2, scene=0),
            E.ShotPrompt(frames=2, scene=1),
            E.ShotPrompt(frames=2, scene=2),
        ]
        layout = E.build_layout(spec, small_world)
        tokens = S.render_sample(small_world, 5, spec, noise_seed=0)
        m = E.metrics_on_field(tokens, spec, layout, small_world)
        assert m["identity_consistency"] >= 0.99
        assert m["scene_adherence"] == 1.0
        assert m["cut_accuracy"] == 1.0

    def test_wrong_scene_lowers_adherence(self, small_world):
        spec = [E.ShotPrompt(frames=2, scene=0), E.ShotPrompt(frames=2, scene=1)]
        layout = E.build_layout(spec, small_world)
        rendered = [E.ShotPrompt(frames=2, scene=3), E.ShotPrompt(frames=2, scene=1)]
        tokens = S.render_sample(small_world, 5, rendered, noise_seed=0)
        m = E.metrics_on_field(tokens, spec, layout, small_world)
        assert m["scene_adherence"] == 0.5

    def test_missing_cut_fails_cut_accuracy(self, small_world):
        spec = [E.ShotPrompt(frames=2, scene=0), E.ShotPrompt(frames=2, scene=0)]
        layout = E.build_layout(spec, small_world)
        # same scene on both sides of the boundary: no detectable cut
        tokens = S.render_sample(small_world, 5, spec, noise_seed=0)
        m = E.metrics_on_field(tokens, spec, layout, small_world)
        assert m["cut_accuracy"] == 0.0

    def test_single_shot_identity_is_one(self, small_world):
        spec = [E.ShotPrompt(frames=2, scene=0)]
        layout = E.build_layout(spec, small_world)
        tokens = S.render_sample(small_world, 5, spec, noise_seed=0)
        m = E.metrics_on_field(tokens, spec, layout, small_world)
        assert m["identity_consistency"] == 1.0

    def test_eval_specs_use_distinct_scenes(self, small_world):
        specs = E.eval_specs(small_world, 8, seed=0)
        for spec in specs:
            scenes = [p.scene for p in spec]
            assert len(set(scenes)) == 3

    def test_eval_specs_need_three_scenes(self):
        world = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=2, v_mot=2, height=2, width=2)
        with pytest.raises(ConfigError, match="3 scenes"):
            E.eval_specs(world, 1, seed=0)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_evaluation_needs_a_prompt(self, small_world, n_samples):
        with pytest.raises(ConfigError, match="at least one prompt"):
            E.eval_specs(small_world, n_samples, seed=0)
        params = M.init_params(M.DenoiserConfig(**SMALL), seed=0)
        with pytest.raises(ConfigError, match="at least one prompt"):
            E.evaluate(params, M.DenoiserConfig(**SMALL), small_world, n_samples=n_samples)

    def test_eval_specs_deterministic(self, small_world):
        a = E.eval_specs(small_world, 4, seed=0)
        b = E.eval_specs(small_world, 4, seed=0)
        assert a == b


class TestTrainConfig:
    def test_dict_roundtrip(self):
        tc = E.TrainConfig(steps=10, shot_count_range=(2, 3))
        clone = E.TrainConfig.from_dict(tc.to_dict())
        assert clone == tc

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            E.TrainConfig.from_dict({"steps": 1, "mystery": 2})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            E.TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            E.TrainConfig(lr=-1.0)


class TestIdentityEmbedding:
    def test_matches_manual_projection(self, small_world):
        cfg = M.DenoiserConfig(**SMALL, d_id=8)
        params = M.init_params(cfg, seed=0)
        emb = E.identity_embedding(params, small_world, 3)
        expect = small_world.ids[3] @ params["id_proj/w"].data + params["id_proj/b"].data
        assert isinstance(emb, Tensor)
        assert np.allclose(emb.data, expect[None, :], atol=1e-6)
        assert emb.shape == (1, cfg.d_model)


class TestConditionedIdentityMatch:
    def test_conditioned_samples_decode_to_the_conditioned_identity(
        self, identity_model_metrics
    ):
        """On the identity fine-tuned full model, >= 90% of conditioned
        samples decode to the conditioned pool identity (nearest
        neighbour over the pool)."""
        assert identity_model_metrics["identity_match"] >= 0.9

    def test_fixed_reference_continuations_preserve_identity(
        self, identity_finetuned, oracle_world
    ):
        """Fixed-reference generation with identity conditioning: over 10
        continuation attempts the decoded identity of generated shots
        matches shot 0 with mean cosine >= 0.85 (and shot 0 stays
        bit-identical)."""
        params, _ = identity_finetuned
        cfg = M.DenoiserConfig(variant="full+refattn")
        world = oracle_world
        rng = np.random.default_rng(77)
        ref = E.ShotPrompt(frames=3, scene=0)
        n0 = ref.frames * world.height * world.width
        ref_noise = rng.standard_normal((n0, world.d_token)).astype(np.float32)
        attempts = [
            [
                E.ShotPrompt(
                    frames=int(rng.integers(2, 5)),
                    scene=int(rng.integers(1, world.v_scene)),
                )
            ]
            for _ in range(10)
        ]
        id_emb = E.identity_embedding(params, world, 42)
        fields = E.sample_infinite(
            params, cfg, world, ref, ref_noise, attempts,
            seed=5, steps=50, id_embedding=id_emb,
        )
        cosines = []
        for field, extra in zip(fields, attempts):
            layout = E.build_layout([ref] + list(extra), world)
            ids = S.decode_identity(field, world, layout)
            ids = ids / (np.linalg.norm(ids, axis=1, keepdims=True) + 1e-12)
            cosines.extend((ids[1:] @ ids[0]).tolist())
        assert np.mean(cosines) >= 0.85, f"mean cosine {np.mean(cosines):.4f}"
        for field in fields[1:]:
            assert np.array_equal(field[:n0], fields[0][:n0])


class TestPackedContinuation:
    """sample_infinite integrates every attempt in one packed field; each
    attempt must equal a one-attempt `sample` of [ref] + its shots."""

    REF = E.ShotPrompt(frames=2, scene=0, motion=1)

    @pytest.fixture(scope="class")
    def model(self):
        cfg = M.DenoiserConfig(variant="full+refattn", **SMALL)
        params = M.init_params(cfg, seed=4)
        # the head is zero at init; give the field a non-zero velocity
        rng = np.random.default_rng(5)
        params["head/w"].data[...] = rng.standard_normal(params["head/w"].shape).astype(np.float32)
        return params, cfg

    def _ref_noise(self, world):
        n0 = self.REF.frames * world.height * world.width
        return np.random.default_rng(6).standard_normal((n0, world.d_token)).astype(np.float32)

    def _attempt_noise(self, world, ref_noise, seed, attempt, extra):
        layout = E.build_layout([self.REF] + extra, world)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        rest = rng.standard_normal((layout.total_tokens - len(ref_noise), world.d_token))
        return np.concatenate([ref_noise, rest.astype(np.float32)])

    def _run(self, model, world, attempts, **kw):
        params, cfg = model
        kw = {"seed": 8, "steps": 3, **kw}
        ref_noise = self._ref_noise(world)
        return E.sample_infinite(params, cfg, world, self.REF, ref_noise, attempts, **kw)

    @pytest.mark.parametrize(
        "attempts",
        [
            [[E.ShotPrompt(2, 1)]],
            [[E.ShotPrompt(2, 1), E.ShotPrompt(3, 2)], [E.ShotPrompt(1, 3), E.ShotPrompt(2, 1, 1)]],
            [[E.ShotPrompt(3, 2)], [E.ShotPrompt(2, 1), E.ShotPrompt(2, 3)], [E.ShotPrompt(1, 1)]],
        ],
        ids=["one-attempt", "two-added-shots", "mixed-lengths"],
    )
    @pytest.mark.parametrize("id_embedding", [False, True], ids=["plain", "identity"])
    def test_each_attempt_equals_its_own_sample(self, model, small_world, attempts, id_embedding):
        params, cfg = model
        emb = None
        if id_embedding:
            rng = np.random.default_rng(9)
            emb = Tensor(rng.standard_normal((1, cfg.d_model)).astype(np.float32))
        fields = self._run(model, small_world, attempts, id_embedding=emb)
        ref_noise = self._ref_noise(small_world)
        assert len(fields) == len(attempts)
        for a, (field, extra) in enumerate(zip(fields, attempts)):
            want = E.sample(
                params, cfg, small_world, [self.REF] + extra, steps=3,
                init_noise=self._attempt_noise(small_world, ref_noise, 8, a, extra),
                id_embedding=emb,
            )
            assert np.array_equal(field, want), f"attempt {a}"

    def test_attempts_do_not_see_each_other(self, model, small_world):
        first = [E.ShotPrompt(2, 1)]
        base = self._run(model, small_world, [first, [E.ShotPrompt(2, 2)]])
        for other in ([E.ShotPrompt(2, 3, 1)], [E.ShotPrompt(3, 2)], None):
            attempts = [first] if other is None else [first, other]
            fields = self._run(model, small_world, attempts)
            assert np.array_equal(fields[0], base[0])
            if other is not None:
                assert not np.array_equal(fields[1][8:], base[1][8:])

    def test_attempt_without_new_shots_returns_shot_zero(self, model, small_world):
        params, cfg = model
        extra = [E.ShotPrompt(2, 1)]
        fields = self._run(model, small_world, [[], extra, []])
        n0 = self.REF.frames * small_world.height * small_world.width
        # attempt 1 still draws its noise as attempt 1
        noise = self._attempt_noise(small_world, self._ref_noise(small_world), 8, 1, extra)
        want = E.sample(params, cfg, small_world, [self.REF] + extra, steps=3, init_noise=noise)
        assert np.array_equal(fields[1], want)
        assert fields[0].shape == fields[2].shape == (n0, small_world.d_token)
        assert np.array_equal(fields[0], fields[1][:n0])
        assert np.array_equal(fields[2], fields[1][:n0])
        alone = self._run(model, small_world, [[], []])
        assert np.array_equal(alone[0], alone[1])

    def test_no_attempts(self, model, small_world):
        assert self._run(model, small_world, []) == []

    def test_unit_guidance(self, model, small_world):
        params, cfg = model
        extra = [E.ShotPrompt(2, 1)]
        (field,) = self._run(model, small_world, [extra], guidance=1.0)
        noise = self._attempt_noise(small_world, self._ref_noise(small_world), 8, 0, extra)
        want = E.sample(
            params, cfg, small_world, [self.REF] + extra, steps=3, guidance=1.0, init_noise=noise
        )
        assert np.array_equal(field, want)

    @pytest.mark.parametrize("guidance, branches", [(5.0, 2), (1.0, 1)])
    def test_one_forward_a_branch_a_step_whatever_the_attempt_count(
        self, model, small_world, monkeypatch, guidance, branches
    ):
        """Each step is one denoiser_forward call a guidance branch on one
        PackedLayout, the conditional branch's first; the sampling call
        embeds the captions of each branch it runs once, before the first
        step, and no step embeds them again."""
        calls, contexts = [], []
        forward, context = M.denoiser_forward, M.caption_context

        def counted(*args, **kwargs):
            calls.append((args[2], args[3], len(contexts)))
            return forward(*args, **kwargs)

        def embedded(*args, **kwargs):
            contexts.append(args[0])
            return context(*args, **kwargs)

        monkeypatch.setattr(M, "denoiser_forward", counted)
        monkeypatch.setattr(M, "caption_context", embedded)
        attempts = [[E.ShotPrompt(2, 1)], [E.ShotPrompt(3, 2)], [], [E.ShotPrompt(1, 3)]]
        self._run(model, small_world, attempts, steps=4, guidance=guidance)
        assert len(calls) == 4 * branches
        assert [captions for captions, _, _ in calls] == contexts * 4
        assert not contexts[0][0].dropped
        assert all(isinstance(layout, PackedLayout) for _, layout, _ in calls)
        assert [n for _, _, n in calls] == [branches] * 4 * branches
        assert len(contexts) == branches

    def test_packed_forward_needs_reference_variant_and_a_bundle_per_layout(
        self, model, small_world
    ):
        params, cfg = model
        specs = [[self.REF, E.ShotPrompt(2, 1)], [self.REF, E.ShotPrompt(1, 2)]]
        packed = PackedLayout(tuple(E.build_layout(s, small_world) for s in specs))
        captions = tuple(E.build_captions(s) for s in specs)
        z = np.zeros((packed.total_tokens, small_world.d_token), dtype=np.float32)
        assert M.denoiser_forward(z, 0.5, captions, packed, cfg, params).shape == z.shape
        plain = M.DenoiserConfig(variant="full", **SMALL)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, captions, packed, plain, params)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, captions[:1], packed, cfg, params)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, captions[0], packed, cfg, params)
        with pytest.raises(ShapeError):
            PackedLayout((packed.layouts[0], E.build_layout([E.ShotPrompt(3, 0)], small_world)))
