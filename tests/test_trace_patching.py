"""perfbench's `--trace 1` patches ad ops by name: every name it lists must
exist in `sortlet_vmc.ad`, get wrapped, and come back unchanged. Its layer
spans must still see the evaluations a bound θ runs, and its phase clocks
must still find the units it times."""

import importlib.util
from pathlib import Path

import numpy as np

from sortlet_vmc import ad, optimizer
from sortlet_vmc.ansatz import SortletWavefunction
from sortlet_vmc.geometry import load_system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_ad_name():
    spans = _load_spans()
    names = spans.AD_NAMED + spans.AD_OTHER
    original = {name: getattr(ad, name) for name in names}
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        for name in names:
            assert getattr(ad, name) is not original[name], name
        ad.exp(np.ones(2))
        ad.einsum("i,i->i", np.ones(2), ad.Dual(np.ones(2), np.eye(2), np.zeros(2)))
        assert [(s[0], s[1]) for s in tracer.spans] == [("ad.other", "np"),
                                                        ("ad.einsum", "dual")]
    finally:
        tracer.uninstall()
    for name in names:
        assert getattr(ad, name) is original[name], name


def test_tracer_sees_signed_log_in_every_engine_of_a_tiny_train(tmp_path):
    """train passes the bound θ through SortletWavefunction.signed_log, so the
    tracer's ansatz.signed_log span fires for sampling (np), the local
    energy (dual) and the gradient (var), and backbone.scores on the tape."""
    spans = _load_spans()
    system = load_system("system:\n  nuclei:\n    - element: Li\n      xyz: [0.0, 0.0, 0.0]\n")
    wf = SortletWavefunction(system, n_sortlets=2, hidden=8, layers=1)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        optimizer.train(wf, optimizer.TrainSettings(iters=1, walkers=8, burn_in=2,
                                                    steps_per_iter=2, checkpoint_every=0),
                        out_dir=tmp_path)
    finally:
        tracer.uninstall()
    seen = {(s[0], s[1]) for s in tracer.spans}
    assert {("ansatz.signed_log", "np"), ("ansatz.signed_log", "dual"),
            ("ansatz.signed_log", "var"), ("backbone.scores", "var")} <= seen


def test_tracer_keeps_the_layer_split_on_a_two_nucleus_train(tmp_path):
    """featurize, the envelope and the pair factor read one shared geometry;
    the tracer finds the engine among the arguments (a Dual, or a tuple or
    dict holding one), so each of them still reports a dual span of its own
    and a plain one."""
    spans = _load_spans()
    system = load_system("system:\n  nuclei:\n    - element: H\n      xyz: [0.0, 0.0, 0.0]\n"
                         "    - element: H\n      xyz: [1.4, 0.0, 0.0]\n")
    wf = SortletWavefunction(system, n_sortlets=2, hidden=8, layers=1)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        optimizer.train(wf, optimizer.TrainSettings(iters=1, walkers=8, burn_in=2,
                                                    steps_per_iter=2, checkpoint_every=0),
                        out_dir=tmp_path)
    finally:
        tracer.uninstall()
    seen = {(s[0], s[1]) for s in tracer.spans}
    for name in ("backbone.featurize", "ansatz.envelope_distance_sum", "ansatz.pair_log_factor"):
        assert {(name, "np"), (name, "dual")} <= seen, name


def test_phase_clocks_see_one_sweep_and_one_local_energy_per_unit(tmp_path):
    """perfbench's unit rule: the first sampler.run_sweeps span of an episode
    is the burn-in, then every training iteration or energy estimate is one
    run_sweeps span and one local_energy span. The walker phase must reach
    both through module globals, which the tracer rebinds."""
    spans = _load_spans()
    system = load_system("system:\n  nuclei:\n    - element: Li\n      xyz: [0.0, 0.0, 0.0]\n")
    wf = SortletWavefunction(system, n_sortlets=2, hidden=8, layers=1)
    tracer = spans.Tracer()
    spans.install_phase_clocks(tracer)
    try:
        optimizer.train(wf, optimizer.TrainSettings(iters=3, walkers=8, burn_in=4,
                                                    steps_per_iter=2, checkpoint_every=0),
                        out_dir=tmp_path)
        trained = len(tracer.spans)
        optimizer.evaluate_energy(wf, wf.theta0, n_walkers=8, burn_in=4, n_estimates=2,
                                  steps_between=3)
    finally:
        tracer.uninstall()
    sweep, energy = "sampler.run_sweeps", "hamiltonian.local_energy"
    for run, steps, units in ((tracer.spans[:trained], 2, 3), (tracer.spans[trained:], 3, 2)):
        assert [s[0] for s in run] == [sweep] + [sweep, energy] * units
        assert [s[5]["steps"] for s in run if s[0] == sweep] == [4] + [steps] * units
