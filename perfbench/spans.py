"""Spans around calls into sortlet_vmc's public functions, patched from outside.

A Tracer replaces module attributes (and a few class methods) of the
already-imported package with thin wrappers. Each call appends one span

    [name, engine, start, end, parent, info]

to an in-memory list; parent is the index of the enclosing span (-1 at top
level) and info holds counts taken at the same boundary (walkers, bytes,
accepted moves, ...). Nothing is written until the caller summarizes.

The engine of a span is the AD engine of the data it was handed: "dual" if
any argument is a forward-mode Dual, "var" if any is a reverse-mode Var,
"np" otherwise. Operator methods on Dual/Var (+, *, /, indexing) are not
wrapped, so their cost lands in the self time of the calling span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "sortlet_vmc"
CALIBRATION = "bench.calibrate"

# ad namespace ops that dispatch on engine; the first four are reported by
# name, the rest are folded into "ad.other"
AD_NAMED = ("einsum", "symsum", "symsum_abs", "take_along")
AD_OTHER = ("exp", "log", "log1p", "sqrt", "tanh", "square", "absolute", "where",
            "maximum", "minimum", "sum", "reshape", "moveaxis", "concat", "stack",
            "softplus")


def _engine_of(values, dual_t, var_t) -> str:
    for x in values:
        if isinstance(x, dual_t):
            return "dual"
        if isinstance(x, var_t):
            return "var"
        if isinstance(x, (list, tuple)):
            inner = _engine_of(x, dual_t, var_t)
        elif isinstance(x, dict):
            inner = _engine_of(x.values(), dual_t, var_t)
        else:
            continue
        if inner != "np":
            return inner
    return "np"


class Tracer:
    """Owns the span list and the patches; uninstall() restores every
    attribute it replaced."""

    def __init__(self):
        self.spans = []
        self.last_ensemble = None  # walkers after the latest sweep, for checks
        self._stack = []
        self._patches = []
        from sortlet_vmc import ad
        self._dual_t, self._var_t = ad.Dual, ad.Var

    # -- recording --------------------------------------------------------

    def _open(self, name: str, engine: str):
        rec = [name, engine, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own code around a block."""
        rec = self._open(name, "np")
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, observe, before=None):
        dual_t, var_t = self._dual_t, self._var_t

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            engine = _engine_of(args, dual_t, var_t)
            if kwargs and engine == "np":
                engine = _engine_of(kwargs.values(), dual_t, var_t)
            rec = self._open(name, engine)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                rec[5] = observe(args, kwargs, out)
            return out

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, observe=None, before=None):
        """Wrap module.attr, and every other reference to the same function
        held by a loaded module of the package (e.g. `from .x import f`).
        `before` runs ahead of each call, outside its span."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, observe, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, observe=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__, observe)))
        else:
            self._set(cls, attr, self._wrap(name, raw, observe))

    def patch_count(self) -> int:
        return len(self._patches)

    def uninstall(self, keep: int = 0):
        """Undo patches, newest first, until `keep` remain."""
        while len(self._patches) > keep:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# -- what to patch -----------------------------------------------------------

def _energy_info(args, kwargs, out):
    total = out.total
    return {"walkers": int(total.size), "nonfinite": int((~np.isfinite(total)).sum())}


def _step_info(args, kwargs, out):
    m = (args[0] if args else kwargs["ensemble"]).n_walkers
    return {"accepted": int(round(out * m)), "proposed": m}


def _walkers_info(args, kwargs, out):
    return {"walkers": int(out.sign.shape[0])}


def _dual_info(args, kwargs, out):
    tan = getattr(out, "tan", None)
    curv = getattr(out, "curv", None)
    if tan is None or curv is None:
        return None
    return {"bytes": tan.nbytes + curv.nbytes, "lanes": tan.shape[-1]}


def _saved_bytes(args, kwargs, out):
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size}


def install_phase_clocks(tracer: Tracer, before=None):
    """The spans every run needs: sampling sweeps and local-energy passes,
    which bound the timed units and carry the failure counts. There are a
    few per second, so they cost nothing measurable. `before` (the
    host-speed calibration) runs ahead of each sweep call, that is at unit
    boundaries only."""
    from sortlet_vmc import hamiltonian, sampler

    def sweeps_info(args, kwargs, out):
        ens = tracer.last_ensemble = args[0] if args else kwargs["ensemble"]
        steps = args[2] if len(args) > 2 else kwargs["steps"]
        return {"walkers": ens.n_walkers, "steps": int(steps),
                "sign0": int((ens.sign == 0).sum())}

    tracer.patch_function(sampler, "run_sweeps", "sampler.run_sweeps", sweeps_info, before)
    tracer.patch_function(hamiltonian, "local_energy", "hamiltonian.local_energy",
                          _energy_info)


def install_layers(tracer: Tracer):
    """Spans at every layer boundary the per-layer report names."""
    from sortlet_vmc import ad, ansatz, backbone, geometry, hamiltonian, optimizer, sampler
    tracer.patch_function(geometry, "parse_config", "geometry.parse_config")
    tracer.patch_function(sampler, "init_ensemble", "sampler.init_ensemble")
    tracer.patch_function(sampler, "mh_step", "sampler.mh_step", _step_info)
    tracer.patch_method(ansatz.SortletWavefunction, "signed_log", "ansatz.signed_log",
                        _walkers_info)
    for fn in ("sortlet_logs", "envelope_distance_sum", "pair_log_factor", "mix_signed_logs"):
        tracer.patch_function(ansatz, fn, f"ansatz.{fn}")
    tracer.patch_function(backbone, "featurize", "backbone.featurize")
    tracer.patch_function(backbone, "scores", "backbone.scores")
    for op in AD_NAMED:
        tracer.patch_function(ad, op, f"ad.{op}", _dual_info)
    for op in AD_OTHER:
        tracer.patch_function(ad, op, "ad.other", _dual_info)
    tracer.patch_method(ad.GradientTape, "gradient", "ad.reverse.GradientTape.gradient")
    tracer.patch_function(hamiltonian, "electron_potentials", "hamiltonian.electron_potentials")
    tracer.patch_function(optimizer, "train", "optimizer.train")
    tracer.patch_function(optimizer, "evaluate_energy", "optimizer.evaluate_energy")
    tracer.patch_function(optimizer, "energy_gradient", "optimizer.energy_gradient")
    tracer.patch_method(optimizer.Adam, "step", "optimizer.Adam.step")
    tracer.patch_method(optimizer.Checkpoint, "save", "optimizer.Checkpoint.save", _saved_bytes)
    tracer.patch_method(optimizer.Checkpoint, "load", "optimizer.Checkpoint.load")


# -- summaries ---------------------------------------------------------------

def summarize(spans, lo: int = 0, hi: int | None = None) -> dict:
    """(name, engine) -> {calls, busy_s, self_s, <info sums>} over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so that is exactly the part
    of the interval no child covers. Busy time excludes the CALIBRATION
    spans nested inside a span; they keep their own row.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    calibration = defaultdict(float)
    for i in range(lo, hi):
        rec = spans[i]
        if rec[4] >= lo:
            child[rec[4]] += rec[3] - rec[2]
        if rec[0] == CALIBRATION:
            parent = rec[4]
            while parent >= lo:
                calibration[parent] += rec[3] - rec[2]
                parent = spans[parent][4]
    out = {}
    for i in range(lo, hi):
        name, engine, t0, t1, _, info = spans[i]
        row = out.get((name, engine))
        if row is None:
            row = out[(name, engine)] = defaultdict(float)
        dur = t1 - t0
        row["calls"] += 1
        row["busy_s"] += dur - calibration.get(i, 0.0)
        row["self_s"] += dur - child.get(i, 0.0)
        if info:
            for key, value in info.items():
                if key == "lanes":
                    row[key] = max(row[key], value)
                else:
                    row[key] += value
    return out
