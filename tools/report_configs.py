"""Write the standard set of configs for comparing reports across two trees.

    python tools/report_configs.py OUT_DIR

One JSON config per file, all in csv format:

- every catalog fixture with each check alone, with all checks at its
  default order, and with all checks at order (12, 12);
- the inner functions z, zw and z2w at orders 3 to 8, with all checks;
- three larger runs: inner-zw at (16, 16) with seed 7, generated-zw at
  (20, 20) with build-module and mandrekar, and blaschke-half at (10, 4)
  with horizon (12, 6);
- a z-Blaschke factor with the complex zero 0.3 + 0.4i, with all checks
  at (8, 8), (10, 4) and (12, 12): the one module of the set whose
  chain runs in complex arithmetic (every catalog fixture is real);
- the three configs of the benchmark (perfbench/workloads.py): inner-zw
  at (28, 28) with the ten checks, generated-zw at (28, 28) with
  build-module and mandrekar, and inner-zw at (8, 8) with horizon
  (28, 28) and the ten checks;
- the other monomial inners, z, w, z2w and zw2, at (28, 28) with
  mandrekar;
- riesz-model at (24, 24) with riesz: the shift pair's 625 x 625
  iterate system, whose synthesis matrix is a permutation;
- at the rectangular order (9, 4), riesz with no recipe and riesz-model
  with frame-bounds: the same shift pair, reached once by the check and
  once through the fixture's chain;
- inner-z2w at (28, 28) with similarity and equiv-vector: dense moved
  systems over a coordinate base at benchmark scale, where the map V of
  equiv-vector is not the identity;
- inner-z2w at the rectangular order (20, 9) with the same two checks:
  the moved systems' k x k block route on a box that is not square;
- inner-zw at (8, 8) with horizon (12, 4), with similarity and
  equiv-vector: a coordinate base of rank 13 below its dimension 17,
  with 65 columns, so its moved systems take the SVD, not the values of
  their k x k block;
- inner-z2w at (8, 8) with horizon (12, 4) and the same two checks: a
  coordinate base of rank 17 below its dimension 25, where the map V of
  equiv-vector is not the identity, so its moved system is dense and
  takes the equal-rank gap of rowspace_gap;
- the constant inner at (3, 3) with all checks: the one config whose
  quotient is trivial, so its complement basis K has no columns.

181 configs in all.

The codimension check needs an inner recipe, so fixtures without one
(generated-zw, riesz-model) skip it; every config then runs without a
config error, and `bdf suite` gets through the whole directory.  Run it
once per tree and compare the two report directories:

    bdf suite --config OUT_DIR --out A/r      # on the first tree
    bdf suite --config OUT_DIR --out B/r      # on the second tree
    python tools/compare_reports.py A B
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bidiscframes.fixtures import CATALOG
from bidiscframes.runner import CHECK_NAMES

LADDER = ("z", "zw", "z2w")
COMPLEX_ZERO = {"kind": "blaschke_z", "zeros": [[0.3, 0.4]]}
TEN_CHECKS = ("build-module", "mandrekar", "jordan", "frame-bounds", "kernel-invariance",
              "kernel-doubly-commutes", "similarity", "recover", "decay", "equiv-vector")


def configs() -> dict[str, dict]:
    """File stem -> config, in a fixed order."""
    out: dict[str, dict] = {}
    for fixture in CATALOG:
        checks = [c for c in CHECK_NAMES if fixture.spec is not None or c != "codimension"]
        for check in checks:
            out[f"{fixture.name}.{check}"] = {"fixture": fixture.name, "checks": [check]}
        out[f"{fixture.name}.all"] = {"fixture": fixture.name, "checks": checks}
        out[f"{fixture.name}.all-12"] = {"fixture": fixture.name, "order": [12, 12],
                                         "checks": checks}
    for inner in LADDER:
        for n in range(3, 9):
            out[f"ladder-{inner}-{n}"] = {"inner": inner, "order": [n, n],
                                          "checks": list(CHECK_NAMES)}
    out["inner-zw.all-16-seed7"] = {"fixture": "inner-zw", "order": [16, 16], "seed": 7,
                                    "checks": list(CHECK_NAMES)}
    out["generated-zw.build-20"] = {"fixture": "generated-zw", "order": [20, 20],
                                    "checks": ["build-module", "mandrekar"]}
    out["blaschke-half.horizon-12-6"] = {"fixture": "blaschke-half", "order": [10, 4],
                                         "horizon": [12, 6], "checks": list(CHECK_NAMES)}
    for order in ([8, 8], [10, 4], [12, 12]):
        out["blaschke-complex.all-{}-{}".format(*order)] = {
            "inner": COMPLEX_ZERO, "order": order, "checks": list(CHECK_NAMES)}
    out["bench.inner-zw.ten-28"] = {"fixture": "inner-zw", "order": [28, 28],
                                    "checks": list(TEN_CHECKS)}
    out["bench.generated-zw.build-28"] = {"fixture": "generated-zw", "order": [28, 28],
                                          "checks": ["build-module", "mandrekar"]}
    out["bench.inner-zw.horizon-28"] = {"fixture": "inner-zw", "order": [8, 8],
                                        "horizon": [28, 28], "checks": list(TEN_CHECKS)}
    for name in ("inner-z", "inner-w", "inner-z2w", "inner-zw2"):
        out[f"{name}.mandrekar-28"] = {"fixture": name, "order": [28, 28],
                                       "checks": ["mandrekar"]}
    out["riesz-model.riesz-24"] = {"fixture": "riesz-model", "order": [24, 24],
                                   "checks": ["riesz"]}
    out["riesz.no-recipe-9-4"] = {"order": [9, 4], "checks": ["riesz"]}
    out["riesz-model.frame-bounds-9-4"] = {"fixture": "riesz-model", "order": [9, 4],
                                           "checks": ["frame-bounds"]}
    out["inner-z2w.similarity-28"] = {"fixture": "inner-z2w", "order": [28, 28],
                                      "checks": ["similarity", "equiv-vector"]}
    out["inner-z2w.similarity-20-9"] = {"fixture": "inner-z2w", "order": [20, 9],
                                        "checks": ["similarity", "equiv-vector"]}
    out["inner-zw.similarity-8-horizon-12-4"] = {"fixture": "inner-zw", "order": [8, 8],
                                                 "horizon": [12, 4],
                                                 "checks": ["similarity", "equiv-vector"]}
    out["inner-z2w.similarity-8-horizon-12-4"] = {"fixture": "inner-z2w", "order": [8, 8],
                                                  "horizon": [12, 4],
                                                  "checks": ["similarity", "equiv-vector"]}
    out["constant-inner.all-3"] = {"inner": {"kind": "monomial", "degree": [0, 0]},
                                   "order": [3, 3], "checks": list(CHECK_NAMES)}
    for cfg in out.values():
        cfg["format"] = "csv"
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: report_configs.py OUT_DIR", file=sys.stderr)
        return 2
    root = Path(args[0])
    root.mkdir(parents=True, exist_ok=True)
    written = configs()
    for stem, cfg in written.items():
        (root / f"{stem}.json").write_text(json.dumps(cfg, indent=2) + "\n")
    print(f"wrote {len(written)} configs to {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
