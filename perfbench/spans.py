"""In-memory spans around calls into toruslab, installed from outside the package.

Every public function and public method of each layer module is replaced by a
wrapper that records a span (name, layer, start, end, parent, item).  Names a
module imported from another module at import time (``cli`` binds
``build_hodge`` and friends; ``hodge`` binds ``assemble_dbar``) are patched in
the importing module too, so a span is recorded whichever name the caller used.
Nothing in ``src/`` is edited: ``enable``/``disable`` swap the attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# layer name -> modules whose functions belong to it
LAYERS = {
    "geometry": ("toruslab.geometry",),
    "forms": ("toruslab.forms",),
    "hodge": ("toruslab.hodge",),
    "family": ("toruslab.family",),
    "curvature": ("toruslab.curvature",),
    "oracle": ("toruslab.oracle",),
    "bls": ("toruslab.bls",),
    "cli": ("toruslab.cli", "toruslab.config"),
}

# private functions that another module calls: cli calls blsmod._als_min.
EXTRA_PRIVATE = {("toruslab.bls", "_als_min")}


def _takes_sweep(a):
    """1 when rank_k_min_oracle takes the CP^1 sweep for these dimensions."""
    kk = min(a["k"], a["m1"], a["r"])
    return int(kk < min(a["m1"], a["r"]) and kk == 1 and a["m1"] == 2)


# span name -> one number recorded with the span, from the bound arguments
DETAILS = {
    "hodge.build_hodge": lambda a: a["space"].dim,
    "bls.rank_k_min_oracle": _takes_sweep,
}

# span names the per-layer metrics single out
BUILD = "hodge.build_hodge"
SOLVE = "hodge.HodgePackage.green"
FD = "oracle.fd_chern_curvature_H"
THETA = "oracle.theta_frame"
ORACLE = "bls.rank_k_min_oracle"
ALS = "bls.schur_complement_demailly"


class Tracer:
    """Spans kept in memory; recorded only while ``item`` is not None."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, item, detail]
        self._stack = []
        self.item = None
        self._patches = []
        self.t0 = perf_counter()

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name, layer):
        """A span around a block of the benchmark's own code."""
        if self.item is None:
            yield
            return
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name, layer, detail=None):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, perf_counter(), 0.0, parent, self.item, detail]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer, name, fn):
        detail = DETAILS.get(name)
        sig = inspect.signature(fn) if detail else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            rec = tracer._open(
                name, layer,
                detail(sig.bind(*args, **kwargs).arguments) if detail else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self):
        """Build the wrappers; ``enable`` puts them in place."""
        wrapped = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = importlib.import_module(modname)
                short = modname.rsplit(".", 1)[1]
                if layer == "cli":
                    short = "cli"
                for name, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj) and (
                            not name.startswith("_") or (modname, name) in EXTRA_PRIVATE):
                        wrapped[id(obj)] = (obj, self._wrap(layer, f"{short}.{name}", obj))
                    elif inspect.isclass(obj) and not name.startswith("_"):
                        for mname, meth in list(vars(obj).items()):
                            if inspect.isfunction(meth) and not mname.startswith("_"):
                                self._patches.append(
                                    (obj, mname, meth,
                                     self._wrap(layer, f"{short}.{name}.{mname}", meth)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "toruslab" or modname.startswith("toruslab.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj, hit[1]))

    def enable(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- output --------------------------------------------------------------
    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, layer, start, end, parent, item, detail in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer,
                    "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "item": item, "detail": detail,
                }) + "\n")


def layer_metrics(spans, item_times, setup_reps):
    """Per-item layer figures from the spans of traced items.

    ``item_times`` maps each traced item id to its wall time; spans recorded
    under the item id ``"setup"`` feed the ``hodge.setup_*`` figures, averaged
    over ``setup_reps`` set-ups.
    """
    n = max(len(item_times), 1)
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, item, detail in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    sums = {k: 0.0 for k in ("build_s", "builds", "unknowns", "solve_s", "solves",
                             "fd_s", "theta_frames", "oracle_s", "oracle_calls", "sweeps",
                             "als_s", "als_calls",
                             "setup_build_s", "setup_builds", "covered")}
    for idx, (name, layer, start, end, parent, item, detail) in enumerate(spans):
        dur = end - start
        if item == "setup":
            if name == BUILD:
                sums["setup_build_s"] += dur
                sums["setup_builds"] += 1
            continue
        if item not in item_times:
            continue
        out[f"{layer}.self_s"] += dur - child[idx]
        out[f"{layer}.calls"] += 1
        if parent < 0:
            sums["covered"] += dur
        if name == BUILD:
            sums["build_s"] += dur
            sums["builds"] += 1
            sums["unknowns"] += detail
        elif name == SOLVE:
            sums["solve_s"] += dur
            sums["solves"] += 1
        elif name == FD:
            sums["fd_s"] += dur
        elif name == THETA:
            sums["theta_frames"] += 1
        elif name == ORACLE:
            sums["oracle_s"] += dur
            sums["oracle_calls"] += 1
            sums["sweeps"] += detail
        elif name == ALS:
            sums["als_s"] += dur
            sums["als_calls"] += 1
    for key in list(out):
        out[key] /= n
    for key in ("build_s", "builds", "unknowns", "solve_s", "solves"):
        out[f"hodge.{key}"] = sums[key] / n
    for key in ("fd_s", "theta_frames"):
        out[f"oracle.{key}"] = sums[key] / n
    for key in ("oracle_s", "oracle_calls", "als_s", "als_calls"):
        out[f"bls.{key}"] = sums[key] / n
    out["bls.sweep_share"] = sums["sweeps"] / sums["oracle_calls"] if sums["oracle_calls"] else 0.0
    reps = max(setup_reps, 1)
    out["hodge.setup_build_s"] = sums["setup_build_s"] / reps
    out["hodge.setup_builds"] = sums["setup_builds"] / reps
    total = sum(item_times.values())
    out["trace.item_s"] = total / n
    out["trace.coverage"] = sums["covered"] / total if total > 0 else 0.0
    return out
