"""The numerics fingerprint that keys the trained-checkpoint and metrics
cache: it must move with any change to the bits training computes.  The
scoring fingerprint, folded into the metrics keys only, must move with any
change to the evaluation prompts, the metric code or `engine.evaluate`."""

import numpy as np
import pytest

from shotrope import engine as E, model as M, synthetic as S, tensor as T


def test_one_ulp_in_gelu_changes_the_fingerprint(bitcheck, numerics_fingerprint, monkeypatch):
    # a float64 ulp rounds away in float32, so only the float64 tape gradient sees it
    bumped = np.nextafter(T.GELU_K, 1.0)
    assert np.float32(bumped) == np.float32(T.GELU_K)
    monkeypatch.setattr(T, "GELU_K", bumped)
    assert bitcheck["fingerprint"]() != numerics_fingerprint


def test_fingerprint_pmt2v_runs_draw_both_identity_rows(bitcheck, monkeypatch):
    cfg = M.DenoiserConfig(d_model=32, blocks=2)
    train_cfg = E.TrainConfig(**bitcheck["FINGERPRINT_TRAIN"], pmt2v=True)
    params = M.init_params(cfg, train_cfg.seed)  # what train builds when given none
    drawn = []
    attach = E.condition_identity

    def spy(captions, id_row):
        drawn.append(id_row is params["caption/null_id"])
        return attach(captions, id_row)

    monkeypatch.setattr(E, "condition_identity", spy)
    E.train(cfg, train_cfg, S.SyntheticWorld(seed=1), params=params)
    assert True in drawn and False in drawn


def _median_metrics(records):
    return {key: float(np.median([r[key] for r in records])) for key in E.METRIC_KEYS}


def _rounded_identity(metrics_on_field):
    def score(*args):
        out = metrics_on_field(*args)
        return {**out, "identity_consistency": round(out["identity_consistency"], 2)}
    return score


def _shifted_specs(eval_specs):
    return lambda world, n_samples, seed, *args: eval_specs(world, n_samples, seed + 1, *args)


def _farthest_identity(tokens, world, layout, id_index):
    mean_id = S.decode_identity(tokens, world, layout).mean(axis=0)
    return int(np.argmin(world.ids @ mean_id)) == id_index


def _shifted_sample_seeds(evaluate):
    return lambda *args, seed=0, **kwargs: evaluate(*args, seed=seed + 1, **kwargs)


def _next_identity(identity_embedding):
    return lambda params, world, i: identity_embedding(params, world, (i + 1) % world.n_ids)


@pytest.mark.parametrize(
    "name,mutate",
    [
        ("mean_metrics", lambda f: _median_metrics),
        ("metrics_on_field", _rounded_identity),
        ("eval_specs", _shifted_specs),
        ("identity_match", lambda f: _farthest_identity),
        ("evaluate", _shifted_sample_seeds),
        ("identity_embedding", _next_identity),
    ],
    ids=[
        "median-of-records", "rounded-identity", "shifted-prompt-seed", "argmin-identity-match",
        "shifted-evaluate-seed", "next-identity-embedding",
    ],
)
def test_a_scoring_change_moves_the_scoring_fingerprint(bitcheck, monkeypatch, name, mutate):
    """The cached metrics are keyed on the scoring code, not only on the
    numerics that produce the fields it scores."""
    before = bitcheck["scoring_fingerprint"]()
    monkeypatch.setattr(E, name, mutate(getattr(E, name)))
    assert bitcheck["scoring_fingerprint"]() != before


def test_bitcheck_against_a_missing_directory_exits_2(bitcheck, tmp_path, capsys):
    """The directory is checked before anything runs."""
    assert bitcheck["main"](["--against", str(tmp_path / "missing")]) == 2
    assert "missing" in capsys.readouterr().err


def test_bitcheck_compare_prints_both_trees_and_fails_on_a_difference(bitcheck):
    compare = bitcheck["compare"]
    report, status = compare(["aa", "bb"], ["aa", "bb"], "parent/src")
    assert status == 0
    assert report[:4] == ["this tree: aa", "this tree: bb", "parent/src: aa", "parent/src: bb"]
    for theirs in (["aa", "bc"], ["aa"], []):
        report, status = compare(["aa", "bb"], theirs, "parent/src")
        assert status == 1
        assert [f"parent/src: {line}" for line in theirs] == report[2:2 + len(theirs)]
