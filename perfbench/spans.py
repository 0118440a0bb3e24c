"""Spans around the public functions of wconvexity, recorded from outside.

The program is not edited: a Tracer swaps each traced function for a
timing wrapper under every name the package's modules look it up by
(``verify.w0``, ``theory.w0``, ``cli.verify_region``, ...), and swaps the
originals back afterwards.  Aggregates (calls, elements, total and self
time) are updated as each span closes; whole spans are kept in memory only
while ``keep_spans`` is set and are written out once, at the end.

A span's self time is its duration minus the durations of its direct child
spans.  The process is single-threaded, so children never overlap.
"""

import importlib
import json
import time

import numpy as np

MODULES = ("lambert", "means", "theory", "verify", "raster", "cli")


# Element counters take the traced function's own parameter names, so they
# accept whatever mix of positional and keyword arguments the caller used.
def _w0_elems(z):
    return int(np.size(z))


def _mean_elems(p, r, s):
    return max(int(np.size(r)), int(np.size(s)))


def _form_elems(x, y):
    return max(int(np.size(x)), int(np.size(y)))


def _sample_elems(seed, start, count):
    return int(count)


def _h_p_elems(p, r):
    return int(np.size(r))


# Traced layer -> element counter for array kernels (None: calls and times only).
LAYERS = {
    "lambert.w0": _w0_elems,
    "means.holder_mean": _mean_elems,
    "means.quartic_harmonic_form": _form_elems,
    "verify.sample_pairs": _sample_elems,
    "verify.verify_region": None,
    "verify.find_counterexamples": None,
    "verify.compare_at": None,
    "verify.check_h_lemma": None,
    "verify.check_g_lemma": None,
    "verify.check_chain": None,
    "theory.h_p": _h_p_elems,
    "theory.classify": None,
    "raster.build_raster": None,
    "raster.write_csv": None,
    "raster.write_svg": None,
    "cli.run": None,
}


def _modules():
    pkg = importlib.import_module("wconvexity")
    return [pkg] + [importlib.import_module(f"wconvexity.{name}") for name in MODULES]


def original(layer):
    module, func = layer.split(".")
    return getattr(importlib.import_module(f"wconvexity.{module}"), func)


def patch_everywhere(replacements):
    """Rebind, in every wconvexity module, each name bound to a replaced function.

    `replacements` maps id(original) to (original, replacement).  Matching
    is by identity, so each caller's own import of the function is found
    whatever its name.  Returns the undo list for restore().
    """
    undo = []
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None and value is new[0]:
                setattr(mod, attr, new[1])
                undo.append((mod, attr, value))
    return undo


def restore(undo):
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class Tracer:
    """Per-layer aggregates plus, optionally, the raw spans."""

    def __init__(self):
        self.stats = {layer: [0, 0, 0.0, 0.0] for layer in LAYERS}
        self.spans = []
        self.keep_spans = False
        self.op = 0
        self._stack = []
        self._next_id = 0

    def _wrap(self, layer, fn, size):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            n = size(*args, **kwargs) if size is not None else 0
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += n
                stats[2] += dur
                stats[3] += dur - frame[0]
                if self.keep_spans:
                    self.spans.append((self.op, span_id, parent, layer, t0, t1, n))

        return traced

    def install(self):
        """Wrap every traced layer; returns the undo list for restore()."""
        replacements = {}
        for layer, size in LAYERS.items():
            fn = original(layer)
            replacements[id(fn)] = (fn, self._wrap(layer, fn, size))
        return patch_everywhere(replacements)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, layer, t0, t1, n in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": layer,
                         "start": t0, "end": t1, "elems": n}
                    )
                    + "\n"
                )
