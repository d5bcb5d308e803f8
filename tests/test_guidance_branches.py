"""One forward per guided sampling step: `model.denoiser_forward` at guidance
g != 1 runs both guidance branches together, and the sampler must give the
bits of the two-forwards-a-step loop it replaced, kept here as the reference."""

import numpy as np
import pytest

from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.shots import PackedLayout
from shotrope.synthetic import CaptionBundle
from shotrope.tensor import ConfigError

# a 4x4 grid: a 1-frame shot is a 16-row field, the smallest the sampler makes
WORLD = S.SyntheticWorld(seed=2, d_token=32, v_scene=4, v_mot=2)
STEPS = 3


def _model(variant):
    cfg = M.DenoiserConfig(d_model=32, blocks=2, d_token=32, v_scene=4, v_mot=2, variant=variant)
    params = M.init_params(cfg, seed=4)
    # the head is zero at init; give the field a velocity that reads the captions
    rng = np.random.default_rng(5)
    params["head/w"].data[...] = rng.standard_normal(params["head/w"].shape).astype(np.float32)
    return params, cfg


MODELS = {variant: _model(variant) for variant in M.VARIANTS}


def reference_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding):
    """The guided sampler as two denoiser_forward calls a step: the
    conditional branch, then (unless guidance is 1) the unconditional one,
    combined as v_u + g (v_c - v_u)."""
    packed = PackedLayout(tuple(E.build_layout(spec, world) for spec in specs))
    captions = tuple(E.build_captions(spec) for spec in specs)
    if id_embedding is not None:
        captions = tuple(E.condition_identity(c, id_embedding) for c in captions)
    uncond = tuple(M.null_captions(c) for c in captions)
    taus = E.shift_timesteps(steps, shift)
    for i in range(steps):
        tau = float(taus[i])
        v_c = M.denoiser_forward(z, tau, captions, packed, cfg, params).data
        if guidance == 1.0:
            v = v_c
        else:
            v_u = M.denoiser_forward(z, tau, uncond, packed, cfg, params).data
            v = v_u + guidance * (v_c - v_u)
        dtau = float(taus[i + 1] - taus[i])
        z = (z + np.float32(dtau) * v.astype(np.float32)).astype(np.float32)
    return packed.unpack(z)


SPECS = {
    "1-shot-1-frame": [E.ShotPrompt(1, 0)],
    "2-shots": [E.ShotPrompt(2, 1, 1), E.ShotPrompt(1, 2)],
    "3-shots": [E.ShotPrompt(1, 3), E.ShotPrompt(3, 0, 1), E.ShotPrompt(2, 2)],
    "4-shots": [E.ShotPrompt(1, 0), E.ShotPrompt(2, 1), E.ShotPrompt(1, 2, 1), E.ShotPrompt(2, 3)],
}


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
@pytest.mark.parametrize("guidance", [1.0, 5.0])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_sample_equals_the_two_forward_sampler(variant, guidance, identity, spec):
    params, cfg = MODELS[variant]
    emb = E.identity_embedding(params, WORLD, 3) if identity else None
    got = E.sample(
        params, cfg, WORLD, spec, steps=STEPS, guidance=guidance, seed=9, id_embedding=emb
    )
    n = E.build_layout(spec, WORLD).total_tokens
    z = T.seeded_rng(9).standard_normal((n, WORLD.d_token)).astype(np.float32)
    (want,) = reference_fields(params, cfg, WORLD, [spec], z, STEPS, 5.0, guidance, emb)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
@pytest.mark.parametrize("guidance", [1.0, 5.0])
def test_sample_infinite_equals_the_two_forward_sampler(guidance, identity):
    params, cfg = MODELS["full+refattn"]
    emb = E.identity_embedding(params, WORLD, 1) if identity else None
    ref = E.ShotPrompt(1, 0, 1)
    attempts = [[E.ShotPrompt(2, 1)], [], [E.ShotPrompt(1, 3), E.ShotPrompt(3, 2, 1)]]
    n0 = WORLD.height * WORLD.width
    ref_noise = np.random.default_rng(6).standard_normal((n0, WORLD.d_token)).astype(np.float32)
    got = E.sample_infinite(
        params, cfg, WORLD, ref, ref_noise, attempts, seed=8, steps=STEPS, guidance=guidance,
        id_embedding=emb,
    )
    specs = [[ref] + extra for extra in attempts]
    noise = [ref_noise]
    for a, spec in enumerate(specs):
        n_new = E.build_layout(spec, WORLD).total_tokens - n0
        noise.append(T.seeded_rng(8, a).standard_normal((n_new, WORLD.d_token)).astype(np.float32))
    want = reference_fields(
        params, cfg, WORLD, specs, np.concatenate(noise), STEPS, 5.0, guidance, emb
    )
    assert len(got) == len(want) == 3
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_each_branch_is_its_own_forward(variant):
    """The guided forward, on captions with a dropped shot and an identity
    row, is v_u + g (v_c - v_u) of two denoiser_forward calls, the second on
    the captions' null_captions."""
    params, cfg = MODELS[variant]
    spec = [E.ShotPrompt(1, 0), E.ShotPrompt(2, 3, 1), E.ShotPrompt(1, 1)]
    layout = E.build_layout(spec, WORLD)
    captions = E.condition_identity(CaptionBundle(tuple(spec), dropped=frozenset({1})),
                                    E.identity_embedding(params, WORLD, 2))
    z = np.random.default_rng(10).standard_normal((layout.total_tokens, WORLD.d_token))
    z = z.astype(np.float32)
    v_c = M.denoiser_forward(z, 0.7, captions, layout, cfg, params).data
    v_u = M.denoiser_forward(z, 0.7, M.null_captions(captions), layout, cfg, params).data
    assert not np.array_equal(v_c, v_u)
    for guidance in (0.0, 2.5, 5.0):
        got = M.denoiser_forward(z, 0.7, captions, layout, cfg, params, guidance=guidance).data
        assert got.shape == (layout.total_tokens, WORLD.d_token)
        assert np.array_equal(got, v_u + guidance * (v_c - v_u)), guidance


def test_collect_needs_unit_guidance():
    params, cfg = MODELS["full"]
    spec = [E.ShotPrompt(1, 0), E.ShotPrompt(1, 1)]
    layout, captions = E.build_layout(spec, WORLD), E.build_captions(spec)
    z = np.zeros((layout.total_tokens, WORLD.d_token), dtype=np.float32)
    for guidance in (0.0, 5.0):
        with pytest.raises(ConfigError):
            M.denoiser_forward(
                z, 0.5, captions, layout, cfg, params, collect=M.AttentionCollector(),
                guidance=guidance,
            )
    collector = M.AttentionCollector()
    M.denoiser_forward(z, 0.5, captions, layout, cfg, params, collect=collector)
    assert len(collector.self_probs) == cfg.blocks * cfg.heads


@pytest.mark.parametrize("other", [
    [E.ShotPrompt(1, 0), E.ShotPrompt(2, 1)], [E.ShotPrompt(1, 0), E.ShotPrompt(3, 1)]
], ids=["more-rows", "same-rows"])
def test_a_conditioning_of_another_forward_is_refused(other):
    """A conditioning built for the other branch count, or for another
    layout, even one of as many rows, raises ConfigError instead of giving a
    field of the wrong shape or tables; the one built for the forward gives
    the forward's own bits."""
    params, cfg = MODELS["full"]
    spec = [E.ShotPrompt(2, 0), E.ShotPrompt(2, 1)]
    layout, captions = E.build_layout(spec, WORLD), E.build_captions(spec)
    z = np.zeros((layout.total_tokens, WORLD.d_token), dtype=np.float32)
    for guidance, other_guidance in ((1.0, 5.0), (5.0, 1.0)):
        cond = M.conditioning(captions, layout, cfg, params, guidance)
        want = M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=guidance)
        got = M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=guidance,
                                 cond=cond)
        assert np.array_equal(got.data, want.data)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=other_guidance,
                               cond=cond)
        wrong = M.conditioning(E.build_captions(other), E.build_layout(other, WORLD), cfg,
                               params, guidance)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=guidance,
                               cond=wrong)


def test_a_conditioning_of_other_captions_is_refused():
    """A conditioning built for other captions of the same layout, or for
    the same captions with another identity row Tensor, raises ConfigError
    instead of giving a field conditioned on the captions it was built for;
    the one bundle and the tuple of it are the same captions."""
    params, cfg = MODELS["full"]
    spec = [E.ShotPrompt(2, 0), E.ShotPrompt(2, 1)]
    layout, captions = E.build_layout(spec, WORLD), E.build_captions(spec)
    z = np.zeros((layout.total_tokens, WORLD.d_token), dtype=np.float32)
    row = T.Tensor(np.ones((1, cfg.d_model), dtype=np.float32))
    with_id, copied_id = (E.condition_identity(captions, r) for r in (row, T.Tensor(row.data)))
    assert with_id == E.condition_identity(captions, row) and with_id != copied_id
    others = (E.build_captions([E.ShotPrompt(2, 2), E.ShotPrompt(2, 3)]), with_id)
    for guidance in (1.0, 5.0):
        for built, run in ((others[0], captions), (with_id, copied_id), (captions, with_id)):
            cond = M.conditioning(built, layout, cfg, params, guidance)
            with pytest.raises(ConfigError):
                M.denoiser_forward(z, 0.5, run, layout, cfg, params, guidance=guidance, cond=cond)
        cond = M.conditioning(captions, layout, cfg, params, guidance)
        want = M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=guidance)
        got = M.denoiser_forward(z, 0.5, (captions,), layout, cfg, params, guidance=guidance,
                                 cond=cond)
        assert np.array_equal(got.data, want.data)
