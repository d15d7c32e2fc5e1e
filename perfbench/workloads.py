"""Benchmark inputs: the experiment configs of each workload, made from a seed.

A config is the JSON object `ExperimentConfig.from_json` accepts, without
its `output` key (the worker adds a report prefix).  The seed fixes the
order in which a workload's configs run and the `seed` each config hands
to its random similarity and random vectors; nothing else depends on it.
Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import random

# The ten checks ROADMAP.md times on `inner-zw`.
TEN_CHECKS = (
    "build-module", "mandrekar", "jordan", "frame-bounds", "kernel-invariance",
    "kernel-doubly-commutes", "similarity", "recover", "decay", "equiv-vector",
)
# Every check of the runner's registry, in registry order.
ALL_CHECKS = (
    "build-module", "codimension", "mandrekar", "jordan", "parseval",
    "frame-bounds", "kernel-invariance", "kernel-doubly-commutes", "riesz",
    "similarity", "recover", "decay", "probe-conjecture", "equiv-vector",
)
CATALOG_FIXTURES = (
    "inner-z", "inner-w", "inner-zw", "inner-z2w", "inner-zw2",
    "blaschke-half", "blaschke-product", "generated-zw", "riesz-model",
)
LADDER_INNERS = ("z", "zw", "z2w")

# Tiny config run once during set-up, so first-call costs of the chain are
# paid before timing starts (a CLI user pays them on every invocation).
WARMUP = {"fixture": "inner-zw", "order": [2, 2], "checks": list(TEN_CHECKS)}


def _large_box(toy: bool) -> list[dict]:
    order = [5, 5] if toy else [28, 28]
    return [
        {"fixture": "inner-zw", "order": order, "checks": list(TEN_CHECKS)},
        {"fixture": "generated-zw", "order": order,
         "checks": ["build-module", "mandrekar"]},
    ]


def _wide_horizon(toy: bool) -> list[dict]:
    order, horizon = ([3, 3], [8, 8]) if toy else ([8, 8], [28, 28])
    return [{"fixture": "inner-zw", "order": order, "horizon": horizon,
             "checks": list(TEN_CHECKS)}]


def _catalog_sweep(toy: bool) -> list[dict]:
    fixtures = CATALOG_FIXTURES[::3] if toy else CATALOG_FIXTURES
    orders = range(3, 5) if toy else range(3, 9)
    configs = []
    for name in fixtures:
        configs += [{"fixture": name, "checks": [check]} for check in ALL_CHECKS]
        configs.append({"fixture": name, "checks": list(ALL_CHECKS)})
    configs += [
        {"inner": inner, "order": [n, n], "checks": list(ALL_CHECKS)}
        for inner in LADDER_INNERS
        for n in orders
    ]
    for cfg in configs:
        cfg["format"] = "csv"
    return configs


_BUILDERS = {
    "large-box": _large_box,
    "wide-horizon": _wide_horizon,
    "catalog-sweep": _catalog_sweep,
}
WORKLOADS = tuple(_BUILDERS)


def build_configs(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The workload's configs in the seed's order, each with its own seed."""
    configs = _BUILDERS[workload](toy)
    rng = random.Random(seed)
    rng.shuffle(configs)
    for cfg in configs:
        cfg["seed"] = rng.randrange(2**31)
    return configs
