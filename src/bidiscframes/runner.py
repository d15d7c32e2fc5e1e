"""Configuration-driven experiment runner.

A config is one JSON object describing a truncation order, a submodule
recipe (an inner function, a generator list, or a catalog fixture name),
and a list of named checks.  Checks always execute in dependency order:
submodule construction first, then quotient-level identities, then the
iterate system and its reports.  Given a seed, every run is
deterministic down to the report bytes; timestamps go to a separate
metadata file so reports can be compared directly.

Each check (_REGISTRY) only computes: it returns its report data, with a
note when it has one.  Its verdict is a rule of that data alone, one per
check in the _PASS table, which states every threshold the runner judges
by; _run_check pairs the two into a CheckResult.  A report read back from
its JSON file is judged the same way.

Exit-code contract: 0 all checks pass, 1 a mathematical check failed,
2 config error (raised as ValueError), 3 numerical guard (GuardError).
A check whose mathematical precondition is false (PreconditionError, for
example "not a frame"), or whose asserted invariant fails
(InvariantViolation), fails like any other check, with the reason as its
note.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import adjoint_decay, conjecture_probe, equivalent_frame_report
from .fixtures import Fixture, FixtureChain, build_chain, catalog_inner_specs, get_fixture
from .frames import (
    GuardError,
    InvariantViolation,
    PreconditionError,
    frame_bounds,
    iterate,
    kernel_doubly_commutes,
    kernel_shift_invariance,
    moved_frame_report,
)
from .hardy import BidiscPoly, DegreePair, _degree_pair, _integer
from .inner import InnerSpec, monomial_degree
from .models import (
    estimate_similarity,
    random_similarity,
    recover_model,
    transport,
    uniqueness_of_L,
)
from .submodule import codimension_profile, doubly_commute_test, jordan_identity_check

# Re-exported only for perfbench's tracer test, which reads runner.quotient.
from .submodule import quotient  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "CheckResult",
    "RunOutcome",
    "RunContext",
    "CHECK_NAMES",
    "run",
    "run_file",
    "run_suite",
]

_MONOMIAL_RE = re.compile(r"(?:z(\d+)?)?(?:w(\d+)?)?")


def _parse_monomial(text: str) -> BidiscPoly:
    m = _MONOMIAL_RE.fullmatch(text.strip())
    if m is None or not text.strip():
        raise ValueError(f"cannot parse generator {text!r}; expected e.g. 'z', 'zw2'")
    has_z = text.lstrip().startswith("z")
    a = int(m.group(1)) if m.group(1) else (1 if has_z else 0)
    b = int(m.group(2)) if m.group(2) else (1 if "w" in text else 0)
    if a == 0 and b == 0:
        raise ValueError(f"cannot parse generator {text!r}")
    return BidiscPoly.monomial(a, b)


def _parse_generator(item) -> BidiscPoly:
    if isinstance(item, str):
        return _parse_monomial(item)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return BidiscPoly.monomial(*_degree_pair(item, "generator"))
    raise ValueError(f"generator entries must be strings or [i, j] pairs, got {item!r}")


def _parse_inner(value) -> InnerSpec:
    if isinstance(value, str):
        catalog = catalog_inner_specs()
        if value in catalog:
            return catalog[value]
        raise ValueError(
            f"unknown inner name {value!r}; known: {', '.join(sorted(catalog))}"
        )
    if isinstance(value, dict):
        return InnerSpec.from_json(value)
    raise ValueError("inner must be a catalog name or a serialized spec")


def _seed(value, key: str) -> int:
    """A random seed: numpy takes only nonnegative integers."""
    seed = _integer(value, key)
    if seed < 0:
        raise ValueError(f"{key} must be nonnegative, got {seed}")
    return seed


_KNOWN_KEYS = {
    "order", "horizon", "inner", "generators", "fixture",
    "transport", "checks", "seed", "output", "format",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a recipe, a horizon, checks, and a seed."""

    order: DegreePair
    horizon: DegreePair
    checks: tuple[str, ...]
    inner: InnerSpec | None = None
    generators: tuple[BidiscPoly, ...] = ()
    fixture: str | None = None
    seed: int = 0
    transport_seed: int | None = None
    condition_cap: float = 1e3
    output: str | None = None
    fmt: str = "json"

    @classmethod
    def from_json(cls, data: dict, **overrides) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged = dict(data)
        for key, val in overrides.items():
            if val is not None:
                merged[key] = val

        fixture_name = merged.get("fixture")
        if fixture_name is not None and not isinstance(fixture_name, str):
            raise ValueError(f"fixture must be a catalog name, got {fixture_name!r}")
        fixture = get_fixture(fixture_name) if fixture_name is not None else None

        checks = merged.get("checks", ())
        if not isinstance(checks, (list, tuple)) or not all(
            isinstance(c, str) for c in checks
        ):
            raise ValueError(f"checks must be a list of check names, got {checks!r}")
        unknown_checks = [c for c in checks if c not in _REGISTRY]
        if unknown_checks:
            raise ValueError(f"unknown check name: {', '.join(unknown_checks)}")

        generators = merged.get("generators") or ()
        if not isinstance(generators, (list, tuple)):
            raise ValueError(f"generators must be a list, got {generators!r}")
        gens = tuple(_parse_generator(g) for g in generators)
        inner = _parse_inner(merged["inner"]) if merged.get("inner") else None

        recipes = [k for k in ("inner", "generators", "fixture") if merged.get(k)]
        if len(recipes) > 1:
            raise ValueError(f"give at most one of inner/generators/fixture, got {recipes}")

        if "order" in merged:
            order = _degree_pair(merged["order"], "order")
        elif fixture is not None:
            order = fixture.order
        else:
            raise ValueError("config requires an order (or a fixture with a default)")

        if "horizon" in merged:
            horizon = _degree_pair(merged["horizon"], "horizon")
            if not order.covers(horizon):
                warnings.warn(
                    f"horizon {tuple(horizon)} exceeds order {tuple(order)}; "
                    "model-exact checks may degrade",
                    stacklevel=2,
                )
        else:
            horizon = order

        if fixture is not None:
            inner = fixture.spec
            if fixture.kind == "generated":
                gens = fixture.generators

        transport_cfg = merged.get("transport") or {}
        if not isinstance(transport_cfg, dict):
            raise ValueError("transport must be an object with seed/condition_cap")
        unknown = set(transport_cfg) - {"seed", "condition_cap"}
        if unknown:
            raise ValueError(f"unknown transport keys: {', '.join(sorted(unknown))}")
        cap = transport_cfg.get("condition_cap", 1e3)
        # a condition number is at least 1, so a smaller cap refuses every map
        if isinstance(cap, bool) or not isinstance(cap, (int, float)) or not cap >= 1:
            raise ValueError(f"condition_cap must be a number >= 1, got {cap!r}")
        output = merged.get("output")
        if output is not None and not isinstance(output, str):
            raise ValueError(f"output must be a path prefix string, got {output!r}")
        fmt = merged.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {fmt!r}")

        return cls(
            order=order,
            horizon=horizon,
            checks=tuple(checks),
            inner=inner,
            generators=gens,
            fixture=fixture_name,
            seed=_seed(merged.get("seed", 0), "seed"),
            transport_seed=(
                _seed(transport_cfg["seed"], "transport seed")
                if "seed" in transport_cfg else None
            ),
            condition_cap=float(cap),
            output=output,
            fmt=fmt,
        )

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_json(data, **overrides)

    def echo(self) -> dict:
        """Canonical JSON-ready form, embedded in the summary report."""
        out: dict = {
            "order": list(self.order),
            "horizon": list(self.horizon),
            "checks": list(self.checks),
            "seed": self.seed,
            "format": self.fmt,
        }
        if self.inner is not None:
            out["inner"] = self.inner.to_json()
        if self.generators:
            out["generators"] = [list(g.maxdeg) for g in self.generators]
        if self.fixture is not None:
            out["fixture"] = self.fixture
        out["transport"] = {
            "seed": self.seed if self.transport_seed is None else self.transport_seed,
            "condition_cap": self.condition_cap,
        }
        return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    data: dict
    note: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "note": self.note,
            "data": _native(self.data),
        }


@dataclass
class RunOutcome:
    exit_code: int
    results: list[CheckResult]
    files: list[str] = field(default_factory=list)
    error: str = ""  # why a suite config did not run (exit 2 or 3)

    @property
    def summary_lines(self) -> list[str]:
        lines = [
            f"check {r.name}: {'pass' if r.passed else 'FAIL'}"
            + (f"  ({r.note})" if r.note else "")
            for r in self.results
        ]
        verdict = "pass" if self.exit_code == 0 else "FAIL"
        lines.append(f"summary: {verdict} ({len(self.results)} checks)")
        return lines


def _native(obj):
    """Recursively convert numpy scalars and arrays for JSON output."""
    if isinstance(obj, dict):
        return {str(k): _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # tolist() gives Python bools, ints and floats; only complex
        # entries still need converting
        return obj.tolist() if obj.dtype.kind in "biuf" else _native(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _recipe(cfg: ExperimentConfig) -> Fixture | None:
    """The config's submodule recipe as a fixture: the named fixture, or
    its inner function or generators, or None when it gives none."""
    if cfg.fixture is not None:
        return get_fixture(cfg.fixture)
    if cfg.inner is not None:
        return Fixture("inner", "the config's inner function", "inner", cfg.order,
                       spec=cfg.inner)
    if cfg.generators:
        return Fixture("generated", "the config's generators", "generated", cfg.order,
                       generators=cfg.generators)
    return None


class RunContext(FixtureChain):
    """The construction chain of one run's recipe, shared by its checks,
    with the config and its random streams."""

    def __init__(self, cfg: ExperimentConfig):
        super().__init__(_recipe(cfg), cfg.order, cfg.horizon)
        self.cfg = cfg

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.cfg.seed)

    def transport_rng(self) -> np.random.Generator:
        seed = self.cfg.transport_seed
        return np.random.default_rng(self.cfg.seed if seed is None else seed)

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        dim = self.triple.dim
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# --- checks: each returns its data, or (data, note), and judges nothing --


def _check_build(ctx: RunContext) -> dict:
    sub = ctx.submodule
    quot = ctx.quotient
    data = {
        "kind": sub.kind,
        "rank": sub.rank,
        "space_dim": sub.space.dim,
        "quotient_dim": quot.dim,
        "commutator_residual": quot.comm_residual,
        "exact": sub.exact,
    }
    if sub.inner is not None:
        data["truncation_tail"] = sub.inner.trunc_error
    return data


def _check_codimension(ctx: RunContext) -> dict:
    if ctx.cfg.inner is None:
        raise ValueError("codimension check requires an inner recipe")
    top = min(ctx.cfg.order)
    a, b = monomial_degree(ctx.cfg.inner)
    ks = list(range(max(2, a, b), top + 1)) or [max(top, a, b)]
    orders = [(k, k) for k in ks]
    profile = codimension_profile(ctx.cfg.inner, orders)
    return {"orders": orders, "profile": profile,
            "constant_inner": ctx.cfg.inner.degree == (0, 0)}


def _fields(rep, *names) -> dict:
    """The named fields of a report, as check data under the same keys."""
    return {name: getattr(rep, name) for name in names}


def _check_mandrekar(ctx: RunContext) -> tuple[dict, str]:
    rep = doubly_commute_test(ctx.submodule)
    data = _fields(rep, "residual_interior", "verdict", "residual_z", "residual_w",
                   "n_interior_z", "n_interior_w")
    return data, "double-commutation holds" if rep.verdict else "double-commutation fails"


def _check_jordan(ctx: RunContext) -> dict:
    return jordan_identity_check(ctx.quotient)


def _check_parseval(ctx: RunContext) -> dict:
    return {**frame_bounds(ctx.system).to_dict(), "tolerance": _PARSEVAL_TOL}


def _check_frame_bounds(ctx: RunContext) -> dict:
    return frame_bounds(ctx.system).to_dict()


def _kernel_data(rep, *names) -> tuple[dict, str]:
    """(data, note) of a kernel report: an inconclusive report gives only
    that flag with n_checked 0, any other the named report fields; the
    note is the report's message."""
    if rep.inconclusive:
        return {"inconclusive": True, "n_checked": 0}, rep.message
    return _fields(rep, *names), rep.message


def _check_kernel_invariance(ctx: RunContext) -> tuple[dict, str]:
    return _kernel_data(kernel_shift_invariance(ctx.system),
                        "residual", "vacuous", "inconclusive", "n_checked")


def _check_kernel_commutes(ctx: RunContext) -> tuple[dict, str]:
    return _kernel_data(kernel_doubly_commutes(ctx.system),
                        "residual", "verdict", "vacuous", "residual_z", "residual_w",
                        "n_checked")


def _check_riesz(ctx: RunContext) -> dict:
    """The plain shift pair with constant seed over the config order: the
    riesz-model chain at (order, order), which is the run's own chain when
    the config is that fixture at its order."""
    cfg = ctx.cfg
    own = cfg.fixture == "riesz-model" and cfg.horizon == cfg.order
    chain = ctx if own else build_chain(get_fixture("riesz-model"), cfg.order)
    return frame_bounds(chain.system).to_dict()


def _check_similarity(ctx: RunContext) -> dict:
    rng = ctx.transport_rng()
    base = frame_bounds(ctx.system)
    cap = ctx.cfg.condition_cap
    # one SVD of L serves the cap, the witness and the uniqueness test
    l, svals = random_similarity(ctx.triple.dim, rng, condition_cap=cap, return_svals=True)
    moved_triple, witness = transport(ctx.triple, l, condition_cap=cap, svals=svals)
    if not base.is_frame:
        # uniqueness_of_L would refuse it last: no moved system is built
        raise PreconditionError("witness uniqueness requires a frame system")
    moved_sys = iterate(moved_triple, ctx.cfg.horizon)
    # kernel gap = row-space gap, since P_N = I - P_R
    gap, moved = moved_frame_report(ctx.system, moved_sys)
    l_est = estimate_similarity(ctx.system, moved_sys)
    uniq = uniqueness_of_L(ctx.system, l, l_est, moved_triple, svals)
    smin, smax = witness.sigma_min, witness.sigma_max
    return {
        "condition": witness.cond,
        "certified": witness.certified,
        "base_bounds": [base.lower, base.upper],
        "moved_bounds": [moved.lower, moved.upper],
        "singular_bracket": [smin**2 * base.lower, smax**2 * base.upper],
        "base_class": base.classification,
        "moved_class": moved.classification,
        "kernel_distance": gap,
        "witness_distance": uniq.distance,
    }


def _check_recover(ctx: RunContext) -> dict:
    return _fields(recover_model(ctx.system), "k_dim", "intertwine_residual_z",
                   "intertwine_residual_w", "residual_phi", "cond_W")


def _decay_horizon(cfg: ExperimentConfig) -> DegreePair:
    """Default decay horizon: one past the order, the nilpotency index."""
    return DegreePair(cfg.order.d1 + 1, cfg.order.d2 + 1)


def _trace_data(trace) -> dict:
    """Report data of an orbit trace (decay and probe-conjecture)."""
    return _fields(trace, "direction", "tail_max", "corner", "decayed", "norms")


def _check_decay(ctx: RunContext) -> tuple[dict, str]:
    rng = ctx.rng()
    f = ctx.random_vector(rng)
    trace = adjoint_decay(ctx.triple, f, _decay_horizon(ctx.cfg))
    return _trace_data(trace), trace.note


def _check_probe(ctx: RunContext) -> tuple[dict, str]:
    rng = ctx.rng()
    f = ctx.random_vector(rng)
    kc = kernel_doubly_commutes(ctx.system)
    verdict = bool(kc.verdict) if not (kc.vacuous or kc.inconclusive) else None
    with warnings.catch_warnings():
        if verdict is not True:
            warnings.simplefilter("ignore")
        trace = conjecture_probe(ctx.triple, f, _decay_horizon(ctx.cfg),
                                 kernel_verdict=verdict)
    return {**_trace_data(trace), "kernel_verdict": verdict, "evidence_only": True}, trace.note


def _check_equiv_vector(ctx: RunContext) -> dict:
    t = ctx.triple
    v = np.eye(t.dim, dtype=t.T1.dtype) + 0.5 * (t.T1 @ t.T2)
    base = frame_bounds(ctx.system)
    moved = equivalent_frame_report(ctx.system, v)
    return {
        "map": "I + 0.5 T1 T2",
        "base_class": base.classification,
        "moved_class": moved.classification,
        "moved_bounds": [moved.lower, moved.upper],
    }


_REGISTRY = {
    "build-module": _check_build,
    "codimension": _check_codimension,
    "mandrekar": _check_mandrekar,
    "jordan": _check_jordan,
    "parseval": _check_parseval,
    "frame-bounds": _check_frame_bounds,
    "kernel-invariance": _check_kernel_invariance,
    "kernel-doubly-commutes": _check_kernel_commutes,
    "riesz": _check_riesz,
    "similarity": _check_similarity,
    "recover": _check_recover,
    "decay": _check_decay,
    "probe-conjecture": _check_probe,
    "equiv-vector": _check_equiv_vector,
}

CHECK_NAMES = tuple(_REGISTRY)
_STAGE = {name: i for i, name in enumerate(_REGISTRY)}


# --- verdicts: one rule per check, reading only its data ------------------

_PARSEVAL_TOL = 1e-10  # recorded in the parseval data as its tolerance


def _near_one(d: dict, tol: float) -> bool:
    """Both frame bounds of the data within tol of 1."""
    return abs(d["lower"] - 1.0) <= tol and abs(d["upper"] - 1.0) <= tol


def _in_bracket(d: dict, slack: float) -> bool:
    """The moved frame bounds inside the singular bracket, up to slack."""
    (lower, upper), (low, high) = d["moved_bounds"], d["singular_bracket"]
    return lower >= low - slack and upper <= high + slack


_PASS = {
    "build-module": lambda d: True,
    # codimension 0 at every order for a constant inner, else strictly growing
    "codimension": lambda d: (
        all(c == 0 for c in d["profile"]) if d["constant_inner"]
        else all(a < b for a, b in zip(d["profile"], d["profile"][1:]))),
    "mandrekar": lambda d: True,  # its verdict is evidence, in the data
    "jordan": lambda d: d["max_residual"] <= 1e-9,
    "parseval": lambda d: _near_one(d, _PARSEVAL_TOL),
    "frame-bounds": lambda d: d["classification"] != "not_frame",
    "kernel-invariance": lambda d: (
        d["inconclusive"] or d["vacuous"] or d["residual"] <= 1e-8),
    "kernel-doubly-commutes": lambda d: d.get("inconclusive", False) or d["verdict"],
    "riesz": lambda d: d["classification"] == "minimal_frame" and _near_one(d, 1e-12),
    "similarity": lambda d: (
        d["certified"]
        and d["moved_class"] != "not_frame"  # a base that is not a frame has no data
        and _in_bracket(d, 1e-9)
        and d["kernel_distance"] <= 1e-10
        and d["witness_distance"] <= 1e-8),
    "recover": lambda d: (
        all(d[f"intertwine_residual_{axis}"] <= 1e-7 for axis in "zw")
        and d["residual_phi"] <= 1e-8),
    "decay": lambda d: d["decayed"],
    "probe-conjecture": lambda d: True,  # evidence only
    "equiv-vector": lambda d: d["base_class"] == d["moved_class"],
}


def _write_report(path: Path, text: str):
    """Write text to path in place: the file is opened without O_TRUNC and
    cut at the end of the new text, so a rewrite leaves exactly its bytes.

    Truncating a file that holds data to zero length makes some file
    systems (ext4 with auto_da_alloc, and a discard mount) start
    writeback and discard its blocks, about ten times the cost of the
    write itself.  No fsync: reports make no durability promise.
    """
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _dump_json(obj, path: Path):
    _write_report(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_mirror(result: CheckResult, prefix: Path) -> list[str]:
    """Tabular companions for checks with natural row data."""
    if not result.data:  # a failed precondition leaves no rows
        return []
    rows = None
    if result.name in ("frame-bounds", "parseval", "riesz"):
        trace = result.data.get("bound_trace")
        if trace:
            rows = [("horizon", "lower", "upper")]
            rows += [(h, repr(float(lo)), repr(float(hi))) for h, lo, hi in trace]
    elif result.name == "codimension":
        rows = [("order", "codimension")]
        rows += [
            (o[0], c) for o, c in zip(result.data["orders"], result.data["profile"])
        ]
    elif result.name in ("decay", "probe-conjecture"):
        norms = np.asarray(result.data["norms"])
        rows = [("i", "j", "norm")]
        rows += [
            (i, j, repr(float(norms[i, j])))
            for i in range(norms.shape[0])
            for j in range(norms.shape[1])
        ]
    if rows is None:
        return []
    path = Path(f"{prefix}.{result.name}.csv")
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    _write_report(path, text.getvalue())
    return [str(path)]


def _run_check(name: str, ctx: RunContext) -> CheckResult:
    """Run one check and judge its data by its rule in _PASS.  A false
    precondition or a failed invariant is a FAIL with no data and the
    reason as its note."""
    try:
        out = _REGISTRY[name](ctx)
    except (PreconditionError, InvariantViolation) as exc:
        return CheckResult(name, False, {}, note=str(exc))
    data, note = out if isinstance(out, tuple) else (out, "")
    return CheckResult(name, bool(_PASS[name](data)), data, note=note)


def run(cfg: ExperimentConfig) -> RunOutcome:
    """Execute the configured checks in dependency order.

    Config problems raise ValueError and guard trips raise GuardError;
    mathematical failures, failed preconditions included, are recorded in
    the results and the exit code, never raised.
    """
    ctx = RunContext(cfg)
    ordered = sorted(dict.fromkeys(cfg.checks), key=_STAGE.__getitem__)
    results = [_run_check(name, ctx) for name in ordered]
    exit_code = 0 if all(r.passed for r in results) else 1

    files: list[str] = []
    if cfg.output:
        prefix = Path(cfg.output)
        if prefix.parent != Path("."):
            prefix.parent.mkdir(parents=True, exist_ok=True)
        for r in results:
            path = Path(f"{prefix}.{r.name}.json")
            _dump_json(r.to_json(), path)
            files.append(str(path))
            if cfg.fmt == "csv":
                files.extend(_csv_mirror(r, prefix))
        summary = {
            "passed": exit_code == 0,
            "exit_code": exit_code,
            "checks": [{"check": r.name, "passed": r.passed} for r in results],
            "config": cfg.echo(),
        }
        spath = Path(f"{prefix}.summary.json")
        _dump_json(summary, spath)
        files.append(str(spath))
        meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "files": files}
        mpath = Path(f"{prefix}.meta.json")
        _dump_json(meta, mpath)
    return RunOutcome(exit_code=exit_code, results=results, files=files)


def run_file(path, **overrides) -> RunOutcome:
    return run(ExperimentConfig.from_file(path, **overrides))


def run_suite(directory, **overrides) -> list[tuple[str, RunOutcome]]:
    """Run every *.json config in a directory, in sorted order.

    An output override becomes a per-config prefix so reports from
    different configs never collide.  A config that raises is recorded
    and the suite goes on: a ValueError as exit 2, a GuardError as exit
    3, with the message as the outcome's error and no results.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"suite path {directory} is not a directory")
    configs = sorted(p for p in root.glob("*.json") if not p.name.endswith(".meta.json"))
    if not configs:
        raise ValueError(f"no *.json configs under {directory}")
    results = []
    for path in configs:
        per = dict(overrides)
        if per.get("output"):
            per["output"] = f"{per['output']}.{path.stem}"
        try:
            outcome = run_file(path, **per)
        except GuardError as exc:
            outcome = RunOutcome(exit_code=3, results=[], error=str(exc))
        except ValueError as exc:
            outcome = RunOutcome(exit_code=2, results=[], error=str(exc))
        results.append((str(path), outcome))
    return results
