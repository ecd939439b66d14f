import dataclasses
import errno
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import HydrogenGroundState
from sortlet_vmc.ansatz import SignedLog, SortletWavefunction
from sortlet_vmc.backbone import DEFAULT_SORTLETS
from sortlet_vmc.geometry import SystemSpec, parse_config
from sortlet_vmc.optimizer import (
    Adam,
    Checkpoint,
    TrainSettings,
    append_record,
    config_fingerprint,
    energy_gradient,
    estimate_energy,
    evaluate_energy,
    format_energy,
    mad_clip,
    train,
)


class PolyModel:
    """logmag_i = t0*x_i + t1*x_i^2, so the score is (x, x^2) exactly."""

    def __init__(self):
        self.theta0 = np.array([0.1, -0.3])

    def signed_log(self, theta, positions):
        x = positions[:, 0, 0]
        logmag = theta[0] * x + theta[1] * (x * x)
        return SignedLog(np.ones(positions.shape[0]), logmag)


class ShiftedModel(PolyModel):
    def signed_log(self, theta, positions):
        inner = super().signed_log(theta, positions)
        return SignedLog(inner.sign, inner.logmag + 3.7)


def hydrogen_system():
    return SystemSpec(np.zeros((1, 3)), np.array([1]), 1, 0)


def test_estimate_energy_hand_values():
    s = estimate_energy(np.array([1.0, 2.0, 3.0, np.nan]))
    assert s.mean == 2.0
    assert s.variance == 1.0
    assert s.stderr == pytest.approx(np.sqrt(1.0 / 3.0))
    assert (s.n_valid, s.n_total) == (3, 4)


def test_estimate_energy_no_valid_entries():
    s = estimate_energy(np.array([np.nan, np.inf]))
    assert np.isnan(s.mean) and s.n_valid == 0


def test_estimate_energy_of_one_sample_has_an_unknown_spread():
    s = estimate_energy(np.array([1.5, np.nan]))
    assert s.mean == 1.5 and s.n_valid == 1
    assert np.isnan(s.stderr) and np.isnan(s.variance)
    assert estimate_energy(np.array([1.5, 1.5])).stderr == 0.0


def test_mad_clip_hand_case():
    e = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    # median 3, MAD 1 -> window [-2, 8]
    assert np.array_equal(mad_clip(e, 5.0), np.array([1.0, 2.0, 3.0, 4.0, 8.0]))


def test_mad_clip_degenerate_spread_is_identity():
    e = np.array([0.0, 0.0, 0.0, 50.0])
    assert np.array_equal(mad_clip(e, 5.0), e)


def test_gradient_two_point_hand_example():
    model = PolyModel()
    x = np.array([0.7, -1.3])
    positions = x.reshape(2, 1, 1)
    eloc = np.array([0.0, 1.0])
    g, ebar = energy_gradient(model, model.theta0, positions, eloc, clip=None)
    score = np.stack([x, x * x], axis=1)  # per-sample d logmag / d theta
    assert ebar == pytest.approx(0.5)
    assert np.allclose(g, 0.5 * (score[1] - score[0]), rtol=1e-14)


def test_gradient_respects_explicit_weights():
    model = PolyModel()
    x = np.array([0.4, 2.0])
    positions = x.reshape(2, 1, 1)
    eloc = np.array([0.0, 1.0])
    w = np.array([0.25, 0.75])
    g, ebar = energy_gradient(model, model.theta0, positions, eloc,
                              weights=w, clip=None)
    score = np.stack([x, x * x], axis=1)
    expect = 2.0 * (0.25 * (0.0 - 0.75) * score[0] + 0.75 * (1.0 - 0.75) * score[1])
    assert ebar == pytest.approx(0.75)
    assert np.allclose(g, expect, rtol=1e-14)


def test_constant_local_energy_gives_exact_zero_gradient():
    model = PolyModel()
    positions = np.linspace(-1, 1, 8).reshape(8, 1, 1)
    g, _ = energy_gradient(model, model.theta0, positions, np.full(8, -0.5))
    assert np.array_equal(g, np.zeros(2))


def test_gradient_invariant_to_energy_offset():
    model = PolyModel()
    rng = np.random.default_rng(3)
    positions = rng.standard_normal((32, 1, 1))
    eloc = rng.standard_normal(32)
    g0, _ = energy_gradient(model, model.theta0, positions, eloc, clip=None)
    g1, _ = energy_gradient(model, model.theta0, positions, eloc + 17.0, clip=None)
    assert np.allclose(g0, g1, atol=1e-12)


def test_gradient_invariant_to_wavefunction_rescaling():
    rng = np.random.default_rng(4)
    positions = rng.standard_normal((16, 1, 1))
    eloc = rng.standard_normal(16)
    g0, _ = energy_gradient(PolyModel(), PolyModel().theta0, positions, eloc)
    g1, _ = energy_gradient(ShiftedModel(), PolyModel().theta0, positions, eloc)
    assert np.array_equal(g0, g1)


def test_gradient_clipping_matches_preclipped_energies():
    model = PolyModel()
    rng = np.random.default_rng(5)
    positions = rng.standard_normal((16, 1, 1))
    eloc = rng.standard_normal(16)
    eloc[3] = 80.0
    g_clip, _ = energy_gradient(model, model.theta0, positions, eloc, clip=5.0)
    g_pre, _ = energy_gradient(model, model.theta0, positions,
                               mad_clip(eloc, 5.0), clip=None)
    assert np.array_equal(g_clip, g_pre)


def test_the_default_clip_holds_far_outliers_and_passes_near_ones():
    """What energy_gradient's default MAD clip does, not its constant. The
    other eight energies fix the median at 0 and the MAD at 2 wherever the
    last walker sits above them. Moved from 10 to 1000 MADs out, it is
    clipped to the same value both times, so the gradient keeps every bit;
    moved from 1 to 2 MADs, it is not clipped, so the gradient changes."""
    model = PolyModel()
    positions = np.random.default_rng(7).standard_normal((9, 1, 1))
    others = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])

    def grad_with_last_at(mads):
        eloc = np.append(others, 2.0 * mads)
        assert np.median(eloc) == 0.0 and np.median(np.abs(eloc)) == 2.0
        return energy_gradient(model, model.theta0, positions, eloc)[0]

    assert np.array_equal(grad_with_last_at(10.0), grad_with_last_at(1000.0))
    assert not np.allclose(grad_with_last_at(1.0), grad_with_last_at(2.0), rtol=1e-3, atol=0.0)


def test_gradient_error_cases():
    model = PolyModel()
    with pytest.raises(ValueError):
        energy_gradient(model, model.theta0, np.zeros((0, 1, 1)), np.zeros(0))
    with pytest.raises(ValueError):
        energy_gradient(model, model.theta0, np.zeros((2, 1, 1)),
                        np.array([np.nan, np.inf]))
    with pytest.raises(ValueError):
        energy_gradient(model, model.theta0, np.zeros((2, 1, 1)),
                        np.array([np.nan, 1.0]), weights=np.array([1.0, 0.0]))


def test_adam_minimizes_quadratic():
    adam = Adam(3, lr=0.05, decay=None)
    theta = np.array([1.0, -2.0, 0.5])
    for _ in range(600):
        theta = adam.step(theta, theta)
    assert np.max(np.abs(theta)) < 1e-4


def test_adam_state_roundtrip_is_bitwise():
    rng = np.random.default_rng(6)
    grads = rng.standard_normal((10, 4))
    a = Adam(4, lr=1e-2)
    theta = np.ones(4)
    for g in grads[:5]:
        theta = a.step(theta, g)
    saved = {k: (v.copy() if isinstance(v, np.ndarray) else v)
             for k, v in a.state().items()}
    theta_saved = theta.copy()
    for g in grads[5:]:
        theta = a.step(theta, g)
    b = Adam(4, lr=1e-2)
    b.load_state(saved)
    theta2 = theta_saved
    for g in grads[5:]:
        theta2 = b.step(theta2, g)
    assert np.array_equal(theta, theta2)


@pytest.mark.parametrize("mean,stderr,expect", [
    (-7.4776, 0.0028, "-7.478(8)"),
    (-0.5, 0.0, "-0.500000"),
    (-0.5, 0.0033, "-0.50(1)"),
    (float("nan"), 1.0, "nan"),
    (1.859392, float("nan"), "1.859392(?)"),
])
def test_format_energy(mean, stderr, expect):
    assert format_energy(mean, stderr) == expect


class OracleAdapter:
    """Gives a fixed closed-form state the trainable-model interface."""

    def __init__(self, system, oracle):
        self.system = system
        self._oracle = oracle
        self.theta0 = np.zeros(0)

    def bind(self, theta):
        return theta

    def signed_log(self, theta, positions):
        return self._oracle.signed_log(positions)


def test_evaluate_energy_zero_variance_oracle():
    adapter = OracleAdapter(hydrogen_system(), HydrogenGroundState())
    rep = evaluate_energy(adapter, adapter.theta0, n_walkers=32, burn_in=50,
                          n_estimates=10, steps_between=2, seed=2)
    assert abs(rep.mean + 0.5) < 1e-9
    assert rep.stderr < 1e-9
    assert rep.formatted().startswith("-0.5")


def small_wf(seed=0):
    return SortletWavefunction(hydrogen_system(), n_sortlets=1, hidden=8,
                               layers=1, seed=seed)


def smoke_settings(**kw):
    base = dict(iters=6, walkers=16, burn_in=20, steps_per_iter=2,
                lr=5e-3, seed=0, checkpoint_every=3)
    base.update(kw)
    return TrainSettings(**base)


def test_local_energy_chunk_is_not_a_setting():
    # the walker chunk is derived from the system (hamiltonian.walker_chunk);
    # results do not depend on it, so no run setting carries it
    assert "chunk" not in {f.name for f in dataclasses.fields(TrainSettings)}
    assert "chunk" not in inspect.signature(evaluate_energy).parameters


def test_train_smoke_writes_metrics(tmp_path):
    res = train(small_wf(), smoke_settings(), out_dir=tmp_path)
    assert len(res.energies) == 6
    assert np.all(np.isfinite(res.energies))
    lines = [json.loads(l) for l in
             (tmp_path / "metrics.ndjson").read_text().splitlines()]
    assert [l["iter"] for l in lines] == list(range(6))
    for key in ("energy", "stderr", "variance", "acceptance", "sigma",
                "grad_norm", "n_valid", "seconds"):
        assert key in lines[0]
    assert (tmp_path / "checkpoints" / "step-00000003.npz").exists()
    assert (tmp_path / "checkpoints" / "step-00000006.npz").exists()


def test_train_is_deterministic(tmp_path):
    r1 = train(small_wf(), smoke_settings(), out_dir=tmp_path / "a")
    r2 = train(small_wf(), smoke_settings(), out_dir=tmp_path / "b")
    assert r1.energies == r2.energies
    assert np.array_equal(r1.theta, r2.theta)


def test_train_binds_each_theta_once(monkeypatch, tmp_path):
    """The θ-side work (ParamStore.unpack and the rest of bind) runs once per
    θ the run reaches, plain, and once per gradient pass on the tape; the
    many sampling and local-energy calls at one θ share its bind."""
    from sortlet_vmc.ad import Var
    from sortlet_vmc.backbone import ParamStore

    unpacked, calls = [], []
    unpack, signed_log = ParamStore.unpack, SortletWavefunction.signed_log
    monkeypatch.setattr(ParamStore, "unpack",
                        lambda self, theta: unpacked.append(isinstance(theta, Var))
                        or unpack(self, theta))
    monkeypatch.setattr(SortletWavefunction, "signed_log",
                        lambda self, theta, p: calls.append(1) or signed_log(self, theta, p))
    train(small_wf(), smoke_settings(iters=2, walkers=8, burn_in=2), out_dir=tmp_path)
    # θ0, then one gradient pass and the next θ per iteration
    assert unpacked == [False, True, False, True, False]
    assert len(calls) >= 3 + 2 * (2 + 1 + 1)  # placement, burn-in, then sweeps, E_loc, tape


def test_train_resume_is_bitwise(tmp_path):
    full = train(small_wf(), smoke_settings(), out_dir=tmp_path / "a")
    resumed = train(small_wf(), smoke_settings(), out_dir=tmp_path / "b",
                    resume_from=tmp_path / "a" / "checkpoints" / "step-00000003.npz")
    assert np.array_equal(full.theta, resumed.theta)
    assert resumed.energies == full.energies[3:]
    a = [json.loads(l) for l in (tmp_path / "a" / "metrics.ndjson").read_text().splitlines()]
    b = [json.loads(l) for l in (tmp_path / "b" / "metrics.ndjson").read_text().splitlines()]
    for la, lb in zip(a[3:], b):
        la.pop("seconds"), lb.pop("seconds")
        assert la == lb


def test_checkpoints_cache_the_walkers_values_under_their_theta(tmp_path):
    """After each update the walkers are scored again under the new θ, so
    the next Metropolis ratio compares two values of one wavefunction and
    every checkpoint's cached logmag and sign are signed_log(θ, positions)."""
    wf = SortletWavefunction(SystemSpec(np.zeros((1, 3)), np.array([3]), 2, 1),
                             n_sortlets=4, hidden=8, layers=1, seed=0)
    settings = smoke_settings(iters=3, checkpoint_every=1)
    train(wf, settings, out_dir=tmp_path)
    for step in (1, 2, 3):
        state = Checkpoint.load(tmp_path / "checkpoints" / f"step-{step:08d}.npz", wf=wf,
                                fingerprint=config_fingerprint(wf.system, wf, settings))
        sl = wf.signed_log(state["theta"], state["positions"])
        assert np.array_equal(state["logmag"], sl.logmag), step
        assert np.array_equal(state["sign"], sl.sign), step


def test_resume_into_the_same_directory_keeps_one_record_per_iteration(tmp_path):
    def records(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            line.pop("seconds")
        return lines

    train(small_wf(), smoke_settings(), out_dir=tmp_path / "full")
    expected = records(tmp_path / "full" / "metrics.ndjson")
    assert [r["iter"] for r in expected] == list(range(6))
    metrics = tmp_path / "metrics.ndjson"
    ckpt = tmp_path / "checkpoints" / "step-00000003.npz"
    train(small_wf(), smoke_settings(), out_dir=tmp_path)
    train(small_wf(), smoke_settings(), out_dir=tmp_path, resume_from=ckpt)
    assert records(metrics) == expected
    with metrics.open("a") as fh:  # a record cut short by a killed run
        fh.write('{"iter": 6, "ene')
    train(small_wf(), smoke_settings(), out_dir=tmp_path, resume_from=ckpt)
    assert records(metrics) == expected
    assert not (tmp_path / "metrics.ndjson.tmp").exists()


def test_checkpoint_refuses_an_older_format(tmp_path):
    settings = smoke_settings(iters=3)
    train(small_wf(), settings, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoints" / "step-00000003.npz"
    with np.load(ckpt) as z:
        arrays = dict(z)
    arrays["format"] = np.int64(1)
    np.savez(ckpt, **arrays)
    wf = small_wf()
    with pytest.raises(ValueError, match="unsupported checkpoint format 1"):
        Checkpoint.load(ckpt, wf=wf, fingerprint=config_fingerprint(wf.system, wf, settings))


@pytest.mark.parametrize("damage", ["text", "bare_array", "object_array", "field_missing",
                                    "file_missing", "format_not_a_scalar"])
def test_checkpoint_that_is_not_an_archive_of_its_fields_is_refused(tmp_path, damage):
    settings = smoke_settings(iters=3)
    train(small_wf(), settings, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoints" / "step-00000003.npz"
    with np.load(ckpt) as z:
        arrays = dict(z)
    if damage == "text":
        ckpt.write_text("not a checkpoint\n")
    elif damage == "bare_array":
        with ckpt.open("wb") as fh:
            np.save(fh, arrays["theta"])
    elif damage == "object_array":
        np.savez(ckpt, **dict(arrays, theta=np.array([None], dtype=object)))
    elif damage == "file_missing":
        ckpt.unlink()
    elif damage == "format_not_a_scalar":
        np.savez(ckpt, **dict(arrays, format=np.arange(3)))
    else:
        del arrays["theta"]
        np.savez(ckpt, **arrays)
    wf = small_wf()
    with pytest.raises(ValueError, match="not a readable checkpoint"):
        Checkpoint.load(ckpt, wf=wf, fingerprint=config_fingerprint(wf.system, wf, settings))


def test_checkpoint_rejects_mismatched_configuration(tmp_path):
    train(small_wf(), smoke_settings(iters=3), out_dir=tmp_path)
    other = SortletWavefunction(hydrogen_system(), n_sortlets=2, hidden=8,
                                layers=1, seed=0)
    fp = config_fingerprint(other.system, other, smoke_settings(iters=3))
    with pytest.raises(ValueError, match="different configuration"):
        Checkpoint.load(tmp_path / "checkpoints" / "step-00000003.npz",
                        wf=other, fingerprint=fp)


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A save that dies partway through np.savez leaves the checkpoint
    already at that path byte-identical and loadable, and no stray file."""
    settings = smoke_settings(iters=3)
    train(small_wf(), settings, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoints" / "step-00000003.npz"
    before = ckpt.read_bytes()
    write_array = np.lib.format.write_array
    written = []

    def dies_on_the_fifth_array(*args, **kwargs):
        if len(written) == 4:
            raise OSError("disk full")
        written.append(args[1])
        write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", dies_on_the_fifth_array)
    with pytest.raises(OSError, match="disk full"):
        train(small_wf(), settings, out_dir=tmp_path)
    monkeypatch.undo()
    assert len(written) == 4
    assert ckpt.read_bytes() == before
    assert [p.name for p in ckpt.parent.iterdir()] == [ckpt.name]
    wf = small_wf()
    state = Checkpoint.load(ckpt, wf=wf, fingerprint=config_fingerprint(wf.system, wf, settings))
    assert state["next_iter"] == 3


def test_failed_metrics_rewrite_keeps_the_metrics_and_leaves_no_tmp(tmp_path, monkeypatch):
    """A resume rewrites metrics.ndjson beside itself; a write that fails
    partway (a full disk) propagates, leaves metrics.ndjson as it was and
    removes its partial file, as a failed checkpoint save does."""
    settings = smoke_settings(iters=3, checkpoint_every=1)
    train(small_wf(), settings, out_dir=tmp_path)
    metrics = tmp_path / "metrics.ndjson"
    before = metrics.read_bytes()
    write_text = Path.write_text

    def fills_the_disk(self, text, *args, **kwargs):
        write_text(self, text[:10], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", fills_the_disk)
    with pytest.raises(OSError, match="No space left"):
        train(small_wf(), settings, out_dir=tmp_path,
              resume_from=tmp_path / "checkpoints" / "step-00000002.npz")
    monkeypatch.undo()
    assert metrics.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoints", "metrics.ndjson"]


@pytest.mark.parametrize("change", [
    {"lr": 2e-3}, {"lr_decay": 500.0}, {"burn_in": 7}, {"steps_per_iter": 3},
    {"walkers": 8}, {"seed": 1}, "wavefunction_seed",
], ids=lambda c: c if isinstance(c, str) else next(iter(c)))
def test_run_fingerprint_reads_every_setting_a_resume_must_keep(change):
    """Two runs that differ in any setting but the run length and the
    checkpoint spacing, or only in theta0, get different run fingerprints
    (and so different run directories); their model fingerprint is one."""
    base = small_wf()
    wf = small_wf(seed=1) if change == "wavefunction_seed" else base
    settings = smoke_settings() if change == "wavefunction_seed" else smoke_settings(**change)
    assert (config_fingerprint(wf.system, wf, settings)
            != config_fingerprint(base.system, base, smoke_settings()))
    assert config_fingerprint(wf.system, wf) == config_fingerprint(base.system, base)


@pytest.mark.parametrize("change", [{"iters": 60}, {"checkpoint_every": 1}])
def test_run_fingerprint_ignores_the_run_length_and_checkpoint_spacing(change):
    wf = small_wf()
    assert (config_fingerprint(wf.system, wf, smoke_settings(**change))
            == config_fingerprint(wf.system, wf, smoke_settings()))


# config_fingerprint(system, wf) of each shipped config with the default
# --sortlets and the config's seed; a change here orphans every checkpoint
# already trained, which `evaluate` would then refuse
MODEL_FINGERPRINTS = {
    "b": "4488d424e85c", "be": "d9d22982ae61", "h4_theta90": "891a51d1c810",
    "h_atom": "ae341ac37c9e", "li": "a8645edfc2d5", "lih": "1fd9eeecca00",
}


def test_model_fingerprints_of_the_shipped_configs_are_pinned():
    configs = Path(__file__).resolve().parents[1] / "configs"
    found = {}
    for path in sorted(configs.glob("*.yaml")):
        cfg = parse_config(path.read_text())
        wf = SortletWavefunction(cfg.system, n_sortlets=DEFAULT_SORTLETS, seed=cfg.run.seed)
        found[path.stem] = config_fingerprint(cfg.system, wf)
    assert found == MODEL_FINGERPRINTS


def test_append_record_writes_numpy_values_as_json_numbers_and_lists(tmp_path):
    path = tmp_path / "run" / "report.txt"
    append_record(path, {"n": np.int64(3), "x": np.float32(0.5), "ok": np.bool_(True),
                         "v": np.arange(3), "e": np.float64(-7.25), "s": "a"})
    append_record(path, {"n": 4})
    assert path.read_text() == ('{"n": 3, "x": 0.5, "ok": true, "v": [0, 1, 2], '
                                '"e": -7.25, "s": "a"}\n{"n": 4}\n')


def test_records_hold_nan_and_infinities_as_null(tmp_path):
    """Every line append_record writes is strict JSON, which has no NaN or
    infinity: they become null, as Python floats, numpy scalars and entries
    of arrays, lists and nested records."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    path = tmp_path / "report.txt"
    append_record(path, {"nan": float("nan"), "inf": float("inf"), "ninf": np.float64(-np.inf),
                         "f32": np.float32("nan"), "v": np.array([[1.0, np.nan], [np.inf, 2.0]]),
                         "l": [0.5, float("-inf"), (np.nan,)], "r": {"x": np.nan, "y": 1.5},
                         "n": 3})
    (line,) = path.read_text().splitlines()
    assert json.loads(line, parse_constant=refuse) == {
        "nan": None, "inf": None, "ninf": None, "f32": None, "v": [[1.0, None], [None, 2.0]],
        "l": [0.5, None, [None]], "r": {"x": None, "y": 1.5}, "n": 3}


def test_a_record_that_cannot_be_serialized_leaves_no_trace(tmp_path):
    fresh = tmp_path / "run" / "report.txt"
    with pytest.raises(TypeError, match="object"):
        append_record(fresh, {"n": 1, "bad": object()})
    assert not fresh.parent.exists()
    kept = tmp_path / "report.txt"
    append_record(kept, {"n": 1})
    before = kept.read_bytes()
    with pytest.raises(TypeError, match="complex"):
        append_record(kept, {"n": 2, "bad": 1j})
    assert kept.read_bytes() == before
