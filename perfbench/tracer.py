"""Spans around the package's layer functions, recorded from outside.

`Tracer.install` replaces each target function by a wrapper wherever the
package holds a reference to it (its defining module, every module that
imported it, the package namespace) and wraps each entry of the runner's
check registry.  `uninstall` puts the originals back.  Nothing under
`src/` changes.  A target that no longer exists raises `TracerError`
instead of silently dropping its span.

Spans are kept in memory as tuples and turned into metrics at the end:
a span's self time is its duration minus the durations of its direct
child spans (and the bookkeeping the tracer spent before each child).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import sys
import time

import numpy as np

PACKAGE = "bidiscframes"

# (module, qualified name) of every function traced as a layer call.
TARGETS = (
    ("hardy", "shift_matrix"),
    ("inner", "build_inner"),
    ("submodule", "beurling_submodule"),
    ("submodule", "generated_submodule"),
    ("submodule", "quotient"),
    ("submodule", "doubly_commute_test"),
    ("submodule", "jordan_identity_check"),
    ("submodule", "codimension_profile"),
    ("frames", "iterate"),
    ("frames", "frame_bounds"),
    ("frames", "synthesis_kernel"),
    ("frames", "kernel_shift_invariance"),
    ("frames", "kernel_doubly_commutes"),
    ("models", "triple_from_quotient"),
    ("models", "transport"),
    ("models", "estimate_similarity"),
    ("models", "random_similarity"),
    ("models", "recover_model"),
    ("models", "uniqueness_of_L"),
    ("dynamics", "adjoint_decay"),
    ("dynamics", "conjecture_probe"),
    ("dynamics", "equivalent_frame_vector"),
    ("fixtures", "Fixture.make_submodule"),
    ("_linalg", "opnorm"),
    ("_linalg", "orthonormal_columns"),
    ("_linalg", "null_space_onb"),
    ("_linalg", "restrict_to_support"),
    ("_linalg", "subspace_distance"),
    ("_linalg", "hermitian_extremes"),
    ("runner", "run"),
    ("runner", "ExperimentConfig.from_json"),
)
LAYERS = ("hardy", "inner", "submodule", "frames", "models", "dynamics",
          "fixtures", "linalg", "runner")
MB = float(2**20)


class TracerError(RuntimeError):
    """A traced name is missing from the package."""


def metric_name(module: str, qualname: str) -> str:
    # metric names must start with a letter, so `_linalg` reports as `linalg`
    return f"{module.lstrip('_')}.{qualname}"


def _system_key(system, *rest, **options):
    digest = hashlib.blake2b(np.ascontiguousarray(system.synthesis).tobytes(),
                             digest_size=16).digest()
    return system.synthesis.shape, digest, rest, tuple(sorted(options.items()))


def _shift_key(space, axis):
    return tuple(space.order), axis


# Functions whose inputs are counted for distinct-per-call ratios.
DISTINCT = {
    "frames.synthesis_kernel": _system_key,
    "frames.frame_bounds": _system_key,
    "hardy.shift_matrix": _shift_key,
}


def _array_bytes(obj, seen: set, depth: int = 5) -> int:
    """Bytes of the ndarrays reachable from obj through containers and
    dataclass fields, each array counted once."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o, seen, depth - 1) for o in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(o, seen, depth - 1) for o in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_array_bytes(getattr(obj, f.name), seen, depth - 1)
                   for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Wraps the layer functions of an imported package and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent, bookkeeping s)
        self.in_bytes: dict[str, int] = {}
        self._distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._run = 0
        self._installed: list[tuple[object, str, object]] = []
        runner = importlib.import_module(f"{PACKAGE}.runner")
        registry = getattr(runner, "_REGISTRY", None)
        if not isinstance(registry, dict) or not registry:
            raise TracerError(f"{PACKAGE}.runner._REGISTRY is missing")
        self._registry = registry
        self._checks = {check: self._wrap(f"check.{check}", fn)
                        for check, fn in registry.items()}
        self._targets = []
        for mod, qual in TARGETS:
            name, owner, attr, raw = self._resolve(mod, qual)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, skip_self=True))
            else:
                new = self._wrap(name, raw, skip_self=isinstance(owner, type))
            self._targets.append((owner, attr, raw, new))

    @staticmethod
    def _resolve(mod: str, qual: str):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
        except ImportError as exc:
            raise TracerError(f"cannot import {PACKAGE}.{mod}: {exc}") from exc
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None or not callable(getattr(owner, attr)):
            raise TracerError(f"{PACKAGE}.{mod}.{qual} is missing")
        return metric_name(mod, qual), owner, attr, raw

    def _wrap(self, name: str, fn, skip_self: bool = False):
        self.names.append(name)
        self.in_bytes[name] = 0
        idx = len(self.names) - 1
        key_of = DISTINCT.get(name)
        is_run = name == "runner.run"
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if is_run:
                self._run += 1
            inputs = args[1:] if skip_self else args
            self.in_bytes[name] += _array_bytes((inputs, kwargs), set())
            if key_of is not None:
                self._distinct[name].add((self._run, key_of(*inputs, **kwargs)))
            spans = self.spans
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (idx, start, end, parent, start - t0)

        return wrapper

    def install(self) -> "Tracer":
        """Point every reference the package holds to a target at its wrapper."""
        if self._installed:
            raise TracerError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for owner, attr, raw, new in self._targets:
            holders = [(owner, attr)] if isinstance(owner, type) else [
                (module, key) for module in modules
                for key, value in vars(module).items() if value is raw
            ]
            for holder, key in holders:
                self._installed.append((holder, key, raw))
                setattr(holder, key, new)
        for check, wrapper in self._checks.items():
            self._installed.append((self._registry, check, self._registry[check]))
            self._registry[check] = wrapper
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            if holder is self._registry:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> tuple[dict, list]:
        """(metric -> (value, unit), spans) of the spans recorded since the
        last take; the recorder starts empty again."""
        spans = list(self.spans)
        self.spans.clear()
        covered = [0.0] * len(spans)
        for _, start, end, parent, book in spans:
            if parent >= 0:
                covered[parent] += end - start + book
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        for i, (idx, start, end, _, _) in enumerate(spans):
            name = self.names[idx]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
            total[name] = total.get(name, 0.0) + (end - start)

        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            if name.startswith("check."):
                out[f"{name}.s"] = (total.get(name, 0.0), "s")
                continue
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            out[f"{name}.in_mb"] = (self.in_bytes[name] / MB, "MB-computed")
        for name, seen in self._distinct.items():
            ratio = len(seen) / calls[name] if calls.get(name) else 0.0
            out[f"{name}.distinct_ratio"] = (ratio, "ratio")
        for layer in LAYERS:
            owned = [v for k, v in self_s.items() if k.startswith(layer + ".")
                     or (layer == "runner" and k.startswith("check."))]
            out[f"layer.{layer}.self_s"] = (sum(owned), "s")

        self.in_bytes = dict.fromkeys(self.in_bytes, 0)
        self._distinct = {name: set() for name in DISTINCT}
        return out, spans
