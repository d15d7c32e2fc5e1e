"""The exit-code contract of `bdf suite` on generated configs.

Configs at orders up to 6 are drawn from catalog names, monomial and
Blaschke specs and their nested products, generator strings and pairs,
fixtures, horizons, check lists, seeds and transport settings, mostly
valid and sometimes not.  Each runs through the command line in-process,
and whatever the config, the run ends in one of the four exit codes with
what that code promises: 0 or 1 with a summary report, 2 with a
"config error" line, 3 with a "guard tripped" line, and never a
traceback.  The examples are derandomized, so the test is deterministic.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st

from bidiscframes.cli import main
from bidiscframes.fixtures import CATALOG
from bidiscframes.runner import CHECK_NAMES

MAX_ORDER = 6


def _mostly(valid, invalid):
    """valid nine times in ten, else invalid (hypothesis leans towards the
    first entries of a sampled list, so the valid ones come first)."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda strategy: strategy)


def _polar(r, angle):
    return [r * math.cos(angle), r * math.sin(angle)]


ZERO = _mostly(
    st.builds(_polar, st.floats(0.05, 0.95), st.floats(0.0, 2 * math.pi)),
    st.sampled_from([[0, 0], [1.0, 0], [0.6, 0.9], [0.5], "0.5", [float("nan"), 0]]),
)
LEAF = st.one_of(
    st.builds(lambda a, b: {"kind": "monomial", "degree": [a, b]},
              st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda kind, zeros: {"kind": kind, "zeros": zeros},
              st.sampled_from(["blaschke_z", "blaschke_w"]), st.lists(ZERO, max_size=3)),
)
SPEC = st.recursive(
    LEAF,
    lambda inner: st.builds(lambda fs: {"kind": "product", "factors": fs},
                            st.lists(inner, min_size=1, max_size=3)),
    max_leaves=4,
)
INNER = _mostly(
    st.one_of(st.sampled_from(["z", "w", "zw", "z2w", "zw2"]), SPEC),
    st.sampled_from(["bogus", 5, {"kind": "monomial"}, {"kind": "spiral"},
                     {"kind": "product", "factors": []}, {"kind": "product"}]),
)
GENERATOR = _mostly(
    st.one_of(st.sampled_from(["z", "w", "zw", "z2", "w2", "zw2", "z2w3"]),
              st.lists(st.integers(0, 3), min_size=2, max_size=2)),
    st.sampled_from(["", "q", "1", [1], [-1, 2], 5]),
)
GENERATORS = _mostly(st.lists(GENERATOR, min_size=1, max_size=3), st.just("z"))
FIXTURE = _mostly(st.sampled_from([f.name for f in CATALOG]), st.just("no-such-fixture"))
DEGREES = _mostly(
    st.lists(st.integers(0, MAX_ORDER), min_size=2, max_size=2),
    st.sampled_from([[6], [-1, 2], [2.0, 3], "66", [True, 1], 6, [1, 2, 3], None]),
)
CHECKS = _mostly(st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=4),
                 st.sampled_from([["bogus"], "parseval", [5]]))
SEED = _mostly(st.integers(0, 99), st.sampled_from([-1, "7", 1.5, True]))
TRANSPORT = _mostly(
    st.fixed_dictionaries({"condition_cap": st.floats(1.0, 25.0)},
                          optional={"seed": st.integers(0, 99)}),
    st.sampled_from([{"condition_cap": 0.5}, {"condition_cap": "x"}, {"sed": 1}, [1]]),
)

FORMAT = _mostly(st.sampled_from(["json", "csv"]), st.just("xml"))


@st.composite
def configs(draw):
    recipes = {"fixture": FIXTURE, "inner": INNER, "generators": GENERATORS}
    # one recipe eight times in ten, else none or two
    count = draw(st.sampled_from([1] * 8 + [0, 2]))
    cfg = {key: draw(recipes[key])
           for key in draw(st.permutations(list(recipes)))[:count]}
    for key, strategy, odds in (("order", DEGREES, 9), ("horizon", DEGREES, 3),
                                ("checks", CHECKS, 9), ("seed", SEED, 2),
                                ("transport", TRANSPORT, 3),
                                ("format", FORMAT, 3)):
        if draw(st.sampled_from([True] * odds + [False] * (10 - odds))):
            cfg[key] = draw(strategy)
    return cfg


def _run(config):
    """(exit code, stderr, whether the summary report exists)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(["suite", "--config", str(path), "--out", str(Path(tmp) / "r")])
        return code, err.getvalue(), (Path(tmp) / "r.summary.json").is_file()


def test_every_config_ends_in_an_exit_code_of_the_contract(tmp_path):
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(configs())
    @example({"inner": "zw", "order": [3, 3], "checks": ["parseval"]})
    @example({"inner": "z2w", "order": [3, 3], "checks": ["equiv-vector"]})
    @example({"inner": "zw", "order": [-1, 3]})
    @example({"inner": "zw", "order": [3, 3], "checks": ["similarity"],
              "transport": {"condition_cap": 1.0}})
    def check(config):
        code, err, summary = _run(config)
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            assert summary
        else:
            assert err.startswith({2: "config error: ", 3: "guard tripped: "}[code])
        seen[code] += 1

    # hypothesis caches the literals it mines from the source it imports
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)
    assert set(seen) == {0, 1, 2, 3}
