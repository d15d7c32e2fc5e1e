"""Expected outcome of every benchmark config, derived from the mathematics.

The table says, per recipe family and check, whether the check should
pass, record a FAIL (its hypothesis is false, which ROADMAP.md's exit-code
contract turns into exit 1), or be refused as a config error (exit 2,
only for a check the recipe cannot run).  Value rules give the quotient
dimension k, the frame-bounds classification and kernel_dim, and the
`mandrekar` verdict.  Every rule carries a one-line reason.

`KNOWN_DEFECTS` lists where the package disagrees with the table today.
Those configs still count as mismatches in `failed_ratio`; they are only
told apart from new mismatches, which make the benchmark report
`correct: false`.
"""

from __future__ import annotations

from dataclasses import dataclass

PASS, FAIL, CONFIG_ERROR = "pass", "fail", "config-error"
EXIT = {PASS: 0, FAIL: 1, CONFIG_ERROR: 2}

# (family, degree box (p, q) of the inner function or None, default order)
FIXTURES = {
    "inner-z": ("monomial", (1, 0), (6, 6)),
    "inner-w": ("monomial", (0, 1), (6, 6)),
    "inner-zw": ("monomial", (1, 1), (6, 6)),
    "inner-z2w": ("monomial", (2, 1), (6, 6)),
    "inner-zw2": ("monomial", (1, 2), (6, 6)),
    "blaschke-half": ("blaschke-z", (6, 0), (10, 4)),
    "blaschke-product": ("mixed-product", (6, 1), (10, 4)),
    "generated-zw": ("generated-zw", None, (5, 5)),
    "riesz-model": ("zero", None, (5, 5)),
}
INNERS = {"z": (1, 0), "w": (0, 1), "zw": (1, 1), "z2w": (2, 1), "zw2": (1, 2)}

# family -> {check or "*": (outcome, reason)}; "*" covers unlisted checks.
OUTCOMES = {
    "monomial": {
        "*": (PASS, "the quotient of z^a w^b is spanned by the monomials outside "
                    "the ideal, a lower set, so the iterates are that orthonormal "
                    "basis plus zero columns and every hypothesis holds exactly"),
        "kernel-doubly-commutes": (PASS, "with horizon = order the synthesis kernel "
                                         "is the ideal of z^a w^b alone, a Beurling-"
                                         "type module, which doubly commutes"),
        "equiv-vector": (PASS, "V = I + T1 T2 / 2 is invertible and commutes with "
                               "both operators, so it keeps frame-ness, minimality "
                               "and the synthesis kernel"),
    },
    "blaschke-z": {
        "*": (PASS, "a one-variable factor with full w-width gives tensor-product "
                    "quotient and kernel, on which the compressed shifts commute "
                    "and doubly commute"),
        "jordan": (FAIL, "the seed 1 has the component conj(b(0)) b along M, whose "
                         "edge copy b z^4 leaves M under the truncated z-shift, so "
                         "the identity is off by about the truncation tail"),
        "parseval": (FAIL, "not a frame at CLASS_RTOL, so not Parseval"),
        "frame-bounds": (FAIL, "the exact quotient has one z-direction per w-degree; "
                               "the five truncation directions are reached only "
                               "through the tail, so lower/upper < CLASS_RTOL"),
        "similarity": (FAIL, "witness uniqueness needs a frame system; the "
                             "hypothesis is false"),
        "recover": (FAIL, "model recovery needs a frame system; the hypothesis "
                          "is false"),
        "decay": (FAIL, "the compressed z-shift has the eigenvalue 1/2 (the "
                        "Blaschke zero), so adjoint orbits do not vanish at the "
                        "nilpotency index"),
    },
    "mixed-product": {
        "*": (FAIL, "the compressed shifts of the mixed product fail to commute "
                    "(residual near 1), so no commuting pair exists to iterate; the "
                    "hypothesis is false"),
        "build-module": (PASS, "records dimensions only"),
        "codimension": (PASS, "a nonconstant inner function has strictly growing "
                              "codimension"),
        "mandrekar": (PASS, "the check records the verdict of a nonzero module"),
        "jordan": (PASS, "the seed 1 is orthogonal to M (every copy carries the "
                         "factor w) and the interior sweep never pushes an M-"
                         "component past the box edge"),
        "riesz": (PASS, "the riesz check ignores the recipe: the shift pair with "
                        "constant seed iterates the monomial orthonormal basis"),
    },
    "generated-zw": {
        "*": (PASS, "<z, w> holds every monomial but 1, so K is the constants, the "
                    "compressed shifts are 0 and the iterates are 1 plus zeros"),
        "codimension": (CONFIG_ERROR, "codimension is defined through an inner "
                                      "function and this recipe has none"),
        "kernel-doubly-commutes": (FAIL, "the synthesis kernel is the ideal <z, w>, "
                                         "which has two generators and so does not "
                                         "doubly commute (Mandrekar 1988)"),
    },
    "zero": {
        "*": (PASS, "the zero module leaves K = whole box, whose iterates are the "
                    "monomial orthonormal basis, a Riesz basis"),
        "codimension": (CONFIG_ERROR, "codimension is defined through an inner "
                                      "function and this recipe has none"),
        "mandrekar": (FAIL, "the double-commutation test needs a nonzero submodule; "
                            "the hypothesis is false"),
    },
}

WIDE_KERNEL_REASON = (
    "past the nilpotency index the kernel also holds z^(N1+1) or w^(N2+1); a "
    "monomial ideal with more than one minimal generator does not doubly commute"
)

# family -> (frame-bounds classification, reason)
CLASSIFICATION = {
    "monomial": ("parseval", "orthonormal basis of K plus zero columns"),
    "generated-zw": ("parseval", "the vector 1 spanning K plus zero columns"),
    "zero": ("minimal_frame", "the monomial orthonormal basis, no kernel"),
    "blaschke-z": ("not_frame", "lower/upper falls below CLASS_RTOL, see frame-bounds"),
}
K_REASON = ("an inner function multiplies isometrically, so its (N1-p+1)(N2-q+1) "
            "copies in the box are independent; <z, w> misses only 1; the zero "
            "module misses nothing")
KERNEL_DIM_REASON = ("the seed P_K 1 is cyclic for the compressed pair, so the "
                     "iterates span K and kernel_dim = ncols - k")
# family -> (mandrekar verdict, reason)
VERDICT = {
    "monomial": (True, "Beurling-type modules doubly commute (Mandrekar 1988)"),
    "blaschke-z": (True, "Beurling-type modules doubly commute (Mandrekar 1988)"),
    "mixed-product": (True, "Beurling-type modules doubly commute (Mandrekar 1988)"),
    "generated-zw": (False, "<z, w> has no single inner generator, so by "
                            "Mandrekar's theorem it cannot doubly commute"),
}


@dataclass(frozen=True)
class Defect:
    family: str
    check: str
    observed: str
    reason: str
    when: object = None  # optional predicate on (a, b) of a monomial family


KNOWN_DEFECTS = (
    Defect("monomial", "equiv-vector", FAIL,
           "the check compares the four-way class; V is not unitary once T1 T2 "
           "is nonzero on K (max(a, b) >= 2), so Parseval-ness is lost",
           when=lambda a, b: max(a, b) >= 2),
    Defect("blaschke-z", "similarity", CONFIG_ERROR,
           "uniqueness_of_L raises ValueError instead of recording a FAIL"),
    Defect("blaschke-z", "recover", CONFIG_ERROR,
           "recover_model raises ValueError instead of recording a FAIL"),
    *(Defect("mixed-product", check, CONFIG_ERROR,
             "OperatorTriple raises ValueError instead of recording a FAIL")
      for check in ("parseval", "frame-bounds", "kernel-invariance",
                    "kernel-doubly-commutes", "similarity", "recover", "decay",
                    "probe-conjecture", "equiv-vector")),
    Defect("zero", "mandrekar", CONFIG_ERROR,
           "doubly_commute_test raises ValueError instead of recording a FAIL"),
)


@dataclass(frozen=True)
class Expected:
    exit_code: int
    checks: dict  # check -> PASS/FAIL; empty when the run stops with exit 2
    values: dict  # check -> {data key: value}


def _recipe(cfg: dict):
    """(family, (a, b) or None, order, horizon) of a config."""
    if "fixture" in cfg:
        family, box, default = FIXTURES[cfg["fixture"]]
    else:
        family, box, default = "monomial", INNERS[cfg["inner"]], None
    order = tuple(cfg.get("order", default))
    horizon = tuple(cfg.get("horizon", order))
    return family, box, order, horizon


def _outcome(family, box, order, horizon, check) -> str:
    if check == "kernel-doubly-commutes" and family == "monomial" and horizon != order:
        a, b = box
        gens = {(a, b)}
        if horizon[0] > order[0]:
            gens.add((order[0] + 1, 0))
        if horizon[1] > order[1]:
            gens.add((0, order[1] + 1))
        minimal = [g for g in gens
                   if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in gens)]
        if len(minimal) > 1:
            return FAIL  # WIDE_KERNEL_REASON
    table = OUTCOMES[family]
    return table.get(check, table["*"])[0]


def _known(family, box, check):
    for d in KNOWN_DEFECTS:
        if d.family == family and d.check == check and (d.when is None or d.when(*box)):
            return d.observed
    return None


def _expected(outcomes: dict, values: dict) -> Expected:
    codes = [EXIT[o] for o in outcomes.values()]
    code = max(codes, default=0)
    if code == 2:
        return Expected(2, {}, {})
    return Expected(code, outcomes, values)


def expectations(cfg: dict) -> tuple[Expected, Expected]:
    """(what the mathematics says, what the package does today)."""
    family, box, order, horizon = _recipe(cfg)
    n = (order[0] + 1) * (order[1] + 1)
    ncols = (horizon[0] + 1) * (horizon[1] + 1)
    if box is not None:
        k = n - (order[0] - box[0] + 1) * (order[1] - box[1] + 1)
    else:
        k = 1 if family == "generated-zw" else n
    values = {"build-module": {"quotient_dim": k}}
    if family in CLASSIFICATION:
        values["frame-bounds"] = {"classification": CLASSIFICATION[family][0],
                                  "kernel_dim": ncols - k}
    if family in VERDICT:
        values["mandrekar"] = {"verdict": VERDICT[family][0]}

    checks = list(dict.fromkeys(cfg["checks"]))
    math = {c: _outcome(family, box, order, horizon, c) for c in checks}
    today = {c: _known(family, box, c) or math[c] for c in checks}
    return _expected(math, values), _expected(today, values)


def observed(result) -> tuple[int, dict, dict]:
    """(exit code, check -> PASS/FAIL, check -> data) of a RunOutcome, or of
    the name of the exception a run raised."""
    if isinstance(result, str):
        return {"ValueError": 2, "GuardError": 3}.get(result, -1), {}, {}
    checks = {r.name: PASS if r.passed else FAIL for r in result.results}
    return result.exit_code, checks, {r.name: r.data for r in result.results}


def _matches(exp: Expected, code: int, checks: dict, data: dict) -> bool:
    if code != exp.exit_code or checks != exp.checks:
        return False
    return all(data[c].get(key) == want
               for c, pairs in exp.values.items() if c in data
               for key, want in pairs.items())


def judge(cfg: dict, result) -> str:
    """Return "ok", "known" (a listed defect, as it shows today) or "unexpected"."""
    math, today = expectations(cfg)
    seen = observed(result)
    if _matches(math, *seen):
        return "ok"
    if _matches(today, *seen):
        return "known"
    return "unexpected"
