"""perfbench's `--trace 1` patches ad ops by name: every name it lists must
exist in `sortlet_vmc.ad`, get wrapped, and come back unchanged."""

import importlib.util
from pathlib import Path

import numpy as np

from sortlet_vmc import ad

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
