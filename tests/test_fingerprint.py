"""The numerics fingerprint that keys the trained-checkpoint and metrics
cache: it must move with any change to the bits training computes."""

import numpy as np

from shotrope import engine as E, model as M, synthetic as S, tensor as T


def test_one_ulp_in_gelu_changes_the_fingerprint(bitcheck, numerics_fingerprint, monkeypatch):
    # a float64 ulp rounds away in float32, so only the float64 tape gradient sees it
    bumped = np.nextafter(T.GELU_K, 1.0)
    assert np.float32(bumped) == np.float32(T.GELU_K)
    monkeypatch.setattr(T, "GELU_K", bumped)
    assert bitcheck["fingerprint"]() != numerics_fingerprint


def test_fingerprint_pmt2v_runs_draw_both_identity_rows(bitcheck, monkeypatch):
    drawn = []
    attach = E._attach_training_identity

    def spy(captions, sample, world, params, train_cfg, rng):
        out = attach(captions, sample, world, params, train_cfg, rng)
        drawn.append(out.entries[0].id_vector is params["caption/null_id"])
        return out

    monkeypatch.setattr(E, "_attach_training_identity", spy)
    train_cfg = E.TrainConfig(**bitcheck["FINGERPRINT_TRAIN"], pmt2v=True)
    E.train(M.DenoiserConfig(d_model=32, blocks=2), train_cfg, S.SyntheticWorld(seed=1))
    assert True in drawn and False in drawn
