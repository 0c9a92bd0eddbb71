"""Per-layer tracing from outside the package.

The tracer replaces a public function of each danet module, wherever the
package binds it, with a wrapper that times the call and counts it.  A
span's self time is its duration minus the wrapped calls inside it.
Observers run after a call returns, on its arguments and return value:
they add counts taken from return values and, when asked, check outputs.
Their time and the time of every benchmark check made while spans are
open is kept on a shared clock and subtracted from those spans, so checks
never show as program time.
"""

import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter


class Clock:
    """Wall clock that leaves out the time the benchmark spends checking."""

    def __init__(self):
        self.excluded = 0.0

    @contextmanager
    def excluding(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.excluded += perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``; return its result and its duration without checks."""
        ex0 = self.excluded
        t0 = perf_counter()
        result = fn()
        return result, perf_counter() - t0 - (self.excluded - ex0)


# span name -> (module, attribute path).  A dotted path names a method.
SPANS = {
    "dsp.stft": ("danet.dsp", "stft"),
    "dsp.istft": ("danet.dsp", "istft"),
    "nn.embed": ("danet.nn", "EmbedNet.embed"),
    "nn.adam_step": ("danet.nn", "adam_step"),
    "autograd.backward": ("danet.autograd", "Tensor.backward"),
    "attractor.form_attractors": ("danet.attractor", "form_attractors"),
    "adanet.select_attractor_set": ("danet.adanet", "select_attractor_set"),
    "adanet.pit_loss": ("danet.adanet", "pit_loss"),
    "inference.kmeans": ("danet.inference", "kmeans"),
    "inference.separate": ("danet.inference", "separate"),
    "metrics.score_with_permutation": ("danet.metrics", "score_with_permutation"),
    "checkpoint.save": ("danet.checkpoint", "checkpoint_save"),
    "checkpoint.load": ("danet.checkpoint", "checkpoint_load"),
    "wavio.read": ("danet.wavio", "wav_read"),
    "wavio.write": ("danet.wavio", "wav_write"),
    "data.generate_dataset": ("danet.data", "generate_dataset"),
    "training.train": ("danet.training", "train"),
    "cli.main": ("danet.cli", "main"),
}

# per-layer metric -> (span, field).  Fields calls/s/self_s are timings of
# the span; any other field is a count an observer adds.
PER_LAYER = {
    "dsp.stft.calls": ("dsp.stft", "calls"),
    "dsp.stft.s": ("dsp.stft", "s"),
    "dsp.istft.calls": ("dsp.istft", "calls"),
    "dsp.istft.s": ("dsp.istft", "s"),
    "nn.embed.calls": ("nn.embed", "calls"),
    "nn.embed.s": ("nn.embed", "s"),
    "nn.adam_step.calls": ("nn.adam_step", "calls"),
    "nn.adam_step.s": ("nn.adam_step", "s"),
    "autograd.backward.calls": ("autograd.backward", "calls"),
    "autograd.backward.s": ("autograd.backward", "s"),
    "attractor.form_attractors.calls": ("attractor.form_attractors", "calls"),
    "attractor.form_attractors.s": ("attractor.form_attractors", "s"),
    "adanet.select_attractor_set.calls": ("adanet.select_attractor_set", "calls"),
    "adanet.select_attractor_set.s": ("adanet.select_attractor_set", "s"),
    "adanet.subsets_scored": ("adanet.select_attractor_set", "subsets_scored"),
    "adanet.subsets_skipped": ("adanet.select_attractor_set", "subsets_skipped"),
    "adanet.pit_loss.s": ("adanet.pit_loss", "s"),
    "inference.kmeans.calls": ("inference.kmeans", "calls"),
    "inference.kmeans.s": ("inference.kmeans", "s"),
    "inference.kmeans.iterations": ("inference.kmeans", "iterations"),
    "inference.separate.calls": ("inference.separate", "calls"),
    "inference.separate.self_s": ("inference.separate", "self_s"),
    "metrics.score_with_permutation.calls": ("metrics.score_with_permutation", "calls"),
    "metrics.score_with_permutation.s": ("metrics.score_with_permutation", "s"),
    "checkpoint.save.calls": ("checkpoint.save", "calls"),
    "checkpoint.save.s": ("checkpoint.save", "s"),
    "checkpoint.save.bytes": ("checkpoint.save", "bytes"),
    "checkpoint.load.calls": ("checkpoint.load", "calls"),
    "checkpoint.load.s": ("checkpoint.load", "s"),
    "wavio.read.calls": ("wavio.read", "calls"),
    "wavio.read.s": ("wavio.read", "s"),
    "wavio.write.calls": ("wavio.write", "calls"),
    "wavio.write.s": ("wavio.write", "s"),
    "data.generate_dataset.s": ("data.generate_dataset", "s"),
    "training.train.s": ("training.train", "s"),
    "training.train.self_s": ("training.train", "self_s"),
    "training.epochs": ("training.train", "epochs"),
    "training.steps": ("training.train", "steps"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}

_UNITS = {"s": "s", "self_s": "s", "bytes": "B"}


def unit_of(metric: str) -> str:
    return _UNITS.get(PER_LAYER[metric][1], "count")


def _count_subsets(stats, args, kwargs, result):
    sims = result.similarities
    stats["subsets_scored"] += len(sims)
    stats["subsets_skipped"] += sum(1 for s in sims if s == float("inf"))


def _count_iterations(stats, args, kwargs, result):
    stats["iterations"] += len(result.history)


def _count_bytes(stats, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    stats["bytes"] += os.path.getsize(path)


def _count_training(stats, args, kwargs, result):
    stats["epochs"] += result.epoch
    stats["steps"] += result.adam["step"]


COUNTERS = {
    "adanet.select_attractor_set": _count_subsets,
    "inference.kmeans": _count_iterations,
    "checkpoint.save": _count_bytes,
    "training.train": _count_training,
}


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None when it no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner, attr = module, path
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(module, cls_name, None)
        if not inspect.isclass(owner):
            return None
    original = inspect.getattr_static(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Spans and counts at the package's module boundaries.

    ``checks`` maps a span name to a callable ``(args, kwargs, result)``
    that verifies the output of each call; it runs on the excluded clock.
    """

    def __init__(self, clock: Clock, checks: dict | None = None):
        self.clock = clock
        self.checks = checks or {}
        self.stats = {}
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        counter = COUNTERS.get(name)
        check = self.checks.get(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            ex0 = clock.excluded
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (clock.excluded - ex0)
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats["calls"] += 1
                stats["s"] += dt
                stats["self_s"] += dt - children[0]
            if counter or check:
                with clock.excluding():
                    if counter:
                        counter(stats, args, kwargs, return_value)
                    if check:
                        check(args, kwargs, return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every span target wherever a danet module binds it."""
        if self._patches:
            return
        self.missing = []
        for name, (module_name, path) in SPANS.items():
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            self.stats.setdefault(name, _zero_stats())
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                targets = [owner]
            else:
                targets = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod is not None
                    and (mod_name == "danet" or mod_name.startswith("danet."))
                    and vars(mod).get(attr) is original
                ]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict:
        """Every per-layer metric; a vanished span reads as missing."""
        out = {}
        for metric, (span, field) in PER_LAYER.items():
            if span in self.missing:
                out[metric] = {"value": None, "unit": unit_of(metric), "missing": True}
                continue
            value = self.stats.get(span, _zero_stats())[field]
            out[metric] = {"value": value, "unit": unit_of(metric)}
        return out


def _zero_stats() -> dict:
    stats = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for field in ("subsets_scored", "subsets_skipped", "iterations", "bytes",
                  "epochs", "steps"):
        stats[field] = 0
    return stats
