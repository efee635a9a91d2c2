"""Tests for the project linter (``repro.lint``).

Every rule gets a violating fixture and a clean fixture, proving the rule
both fires on the bug class it encodes and stays quiet on the sanctioned
pattern.  Framework behaviour (suppressions, baseline, CLI, config
fallback) is covered separately, and a self-check at the end lints the
real repository expecting zero violations — the committed-baseline-empty
policy, enforced from inside the test suite.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.lint import (
    LintConfig,
    Violation,
    all_rules,
    lint_paths,
    lint_sources,
    load_config,
    render_json,
    render_text,
)
from repro.lint.baseline import filter_baselined, load_baseline, write_baseline
from repro.lint.config import FALLBACK_CONFIG
from repro.lint.registry import resolve_rules
from repro.lint.__main__ import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(sources, tmp_path, **overrides):
    """Lint in-memory sources with an isolated root (no disk test globs)."""
    config = LintConfig(root=str(tmp_path), **overrides)
    pairs = [
        (path, textwrap.dedent(source).lstrip("\n"))
        for path, source in sources
    ]
    return lint_sources(pairs, config)


def codes(violations):
    return sorted(v.rule for v in violations)


# ---------------------------------------------------------------------------
# RL001 — dtype policy
# ---------------------------------------------------------------------------
def test_rl001_flags_hardcoded_float64(tmp_path):
    violations = run_lint(
        [(
            "src/repro/feat.py",
            """
            import numpy as np

            def features(n):
                return np.zeros((n, 4), dtype=np.float64)
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL001"]
    assert violations[0].line == 4


def test_rl001_flags_dtype_float_and_astype_float(tmp_path):
    violations = run_lint(
        [(
            "src/repro/feat.py",
            """
            import numpy as np

            def features(x):
                a = np.asarray(x, dtype=float)
                return a.astype(float)
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL001", "RL001"]


def test_rl001_clean_engine_module_comparisons_and_legacy(tmp_path):
    violations = run_lint(
        [
            (
                # The policy module itself may name float64.
                "src/repro/autograd/engine.py",
                """
                import numpy as np
                SCORE_DTYPE = np.float64
                """,
            ),
            (
                "src/repro/check.py",
                """
                import numpy as np

                def is_wide(x):
                    return x.dtype == np.float64
                """,
            ),
            (
                # Legacy oracles name float64 freely: tests/ ignores RL001.
                "tests/oracles/feature.py",
                """
                import numpy as np

                def legacy_feature(n):
                    return np.zeros(n, dtype=np.float64)
                """,
            ),
        ],
        tmp_path,
        # Scoped to the rule under test: the legacy_ fixture would
        # otherwise (correctly) trip RL006's parity-pairing check.
        select=("RL001",),
        per_path_ignores=(("tests/", ("RL001",)),),
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL002 — no scatter-add outside legacy references
# ---------------------------------------------------------------------------
def test_rl002_flags_scatter_add(tmp_path):
    violations = run_lint(
        [(
            "src/repro/kernel.py",
            """
            import numpy as np

            def segment_sum(values, index, n):
                out = np.zeros(n)
                np.add.at(out, index, values)
                return out

            # A legacy_ name exempts only the oracles under tests/oracles/.
            def legacy_segment_sum(values, index, n):
                out = np.zeros(n)
                np.add.at(out, index, values)
                return out
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL002", "RL002"]
    assert "legacy_" in violations[0].message


def test_rl002_clean_inside_legacy_reference(tmp_path):
    violations = run_lint(
        [(
            "tests/oracles/kernel.py",
            """
            import numpy as np

            def legacy_segment_sum(values, index, n):
                out = np.zeros(n)
                np.add.at(out, index, values)
                np.maximum.at(out, index, values)
                return out
            """,
        )],
        tmp_path,
        # Scoped to the rule under test: the legacy_ fixture would
        # otherwise (correctly) trip RL006's parity-pairing check.
        select=("RL002",),
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL003 — no id()-keyed caches
# ---------------------------------------------------------------------------
def test_rl003_flags_id_keyed_cache(tmp_path):
    violations = run_lint(
        [(
            "src/repro/cache.py",
            """
            _CACHE = {}

            def lookup(graph):
                return _CACHE.get(id(graph))
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL003"]
    assert "recycled" in violations[0].message


def test_rl003_clean_fingerprint_key(tmp_path):
    violations = run_lint(
        [(
            "src/repro/cache.py",
            """
            _CACHE = {}

            def lookup(graph):
                return _CACHE.get(graph.fingerprint())
            """,
        )],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL004 — seeding discipline
# ---------------------------------------------------------------------------
def test_rl004_flags_default_rng_and_bare_sampling(tmp_path):
    violations = run_lint(
        [(
            "src/repro/sampling.py",
            """
            import numpy as np

            def draw(n):
                rng = np.random.default_rng(0)
                noise = np.random.normal(size=n)
                return rng, noise
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL004", "RL004"]
    messages = " ".join(v.message for v in violations)
    assert "seeded_rng" in messages and "global state" in messages


def test_rl004_clean_seeded_rng_and_chokepoint_module(tmp_path):
    violations = run_lint(
        [
            (
                "src/repro/sampling.py",
                """
                from repro.utils.seeding import seeded_rng

                def draw(n, seed):
                    return seeded_rng(seed).normal(size=n)
                """,
            ),
            (
                # The chokepoint module itself is the one sanctioned caller.
                "src/repro/utils/seeding.py",
                """
                import numpy as np

                def seeded_rng(seed):
                    return np.random.default_rng(seed)
                """,
            ),
        ],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL005 — fork safety of worker-pool ops
# ---------------------------------------------------------------------------
def test_rl005_flags_lambda_and_global_mutation(tmp_path):
    violations = run_lint(
        [(
            "src/repro/parallel/myops.py",
            """
            from repro.parallel.pool import register_op

            _RESULTS = {}

            register_op("square")(lambda payload, state: payload ** 2)

            @register_op("tally")
            def tally_op(payload, state):
                _RESULTS[payload["key"]] = payload["value"]
                _RESULTS.update(payload["extra"])
                return None
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL005", "RL005", "RL005"]
    messages = " ".join(v.message for v in violations)
    assert "lambda" in messages and "_RESULTS" in messages


def test_rl005_flags_nested_op_and_global_stmt(tmp_path):
    violations = run_lint(
        [(
            "src/repro/parallel/myops.py",
            """
            from repro.parallel.pool import register_op

            _EPOCH = 0

            def install():
                @register_op("inner")
                def inner_op(payload, state):
                    return payload

            @register_op("bump")
            def bump_op(payload, state):
                global _EPOCH
                _EPOCH = payload
                return _EPOCH
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL005", "RL005"]
    messages = " ".join(v.message for v in violations)
    assert "nested closure" in messages and "_EPOCH" in messages


def test_rl005_clean_module_level_op_with_state_dict(tmp_path):
    violations = run_lint(
        [(
            "src/repro/parallel/myops.py",
            """
            from repro.parallel.pool import register_op

            @register_op("prepare")
            def prepare_op(payload, state):
                cache = state.setdefault("cache", {})
                cache[payload["key"]] = payload["value"]
                local = {}
                local.update(payload)
                return cache
            """,
        )],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL006 — legacy parity pairing (cross-file)
# ---------------------------------------------------------------------------
def test_rl006_flags_unpaired_legacy_reference(tmp_path):
    violations = run_lint(
        [(
            "tests/oracles/kernels.py",
            """
            def legacy_zz_orphan_kernel(values):
                return values
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL006"]
    assert "legacy_zz_orphan_kernel" in violations[0].message


def test_rl006_clean_when_equivalence_module_references_it(tmp_path):
    violations = run_lint(
        [
            (
                "tests/oracles/kernels.py",
                """
                def legacy_zz_paired_kernel(values):
                    return values
                """,
            ),
            (
                "tests/test_kernels_equivalence.py",
                """
                from oracles import kernels

                def test_parity(data):
                    assert kernels.legacy_zz_paired_kernel(data) is data
                """,
            ),
        ],
        tmp_path,
    )
    assert violations == []


def test_rl006_loads_equivalence_modules_from_disk(tmp_path):
    """Parity suites count even when the walk did not include them."""
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_disk_equivalence.py").write_text(
        "def test_it():\n    name = 'legacy_zz_disk_kernel'\n"
    )
    violations = run_lint(
        [(
            "tests/oracles/kernels.py",
            """
            def legacy_zz_disk_kernel(values):
                return values
            """,
        )],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL007 — no-grad hygiene
# ---------------------------------------------------------------------------
def test_rl007_flags_unguarded_backward_closure(tmp_path):
    violations = run_lint(
        [(
            "src/repro/autograd/extra_ops.py",
            """
            from repro.autograd.tensor import Tensor

            def double(a):
                def backward(grad):
                    return (grad * 2,)
                return Tensor(a.data * 2, parents=(a,), backward_fn=backward)
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL007"]
    assert "'double'" in violations[0].message


def test_rl007_clean_with_needs_graph_guard(tmp_path):
    violations = run_lint(
        [(
            "src/repro/autograd/extra_ops.py",
            """
            from repro.autograd.engine import _needs_graph
            from repro.autograd.tensor import Tensor

            def double(a):
                data = a.data * 2
                if not _needs_graph(a):
                    return Tensor(data)
                def backward(grad):
                    return (grad * 2,)
                return Tensor(data, parents=(a,), backward_fn=backward)
            """,
        )],
        tmp_path,
    )
    assert violations == []


def test_rl007_ignores_modules_outside_autograd(tmp_path):
    violations = run_lint(
        [(
            "src/repro/serve/adhoc.py",
            """
            from repro.autograd.tensor import Tensor

            def wrap(a, backward):
                return Tensor(a, backward_fn=backward)
            """,
        )],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL008 — instrumentation clock discipline
# ---------------------------------------------------------------------------
def test_rl008_flags_time_and_perf_counter_in_library_code(tmp_path):
    violations = run_lint(
        [(
            "src/repro/train/timing_hack.py",
            """
            import time
            from time import perf_counter

            def step(fn):
                start = perf_counter()
                fn()
                wall = time.time()
                return time.perf_counter() - start, wall
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL008", "RL008", "RL008"]
    assert "repro.obs.span" in violations[0].message


def test_rl008_tracks_import_aliases(tmp_path):
    violations = run_lint(
        [(
            "src/repro/eval/clocked.py",
            """
            import time as t
            from time import perf_counter as pc

            def measure(fn):
                start = pc()
                fn()
                return t.perf_counter() - start
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL008", "RL008"]


def test_rl008_allows_monotonic_obs_and_out_of_scope_paths(tmp_path):
    deadline = """
    import time

    def wait(timeout):
        return time.monotonic() + timeout
    """
    clocked = """
    import time

    def now():
        return time.perf_counter()
    """
    violations = run_lint(
        [
            ("src/repro/serve/deadline.py", deadline),  # monotonic: control flow
            ("src/repro/obs/clock.py", clocked),  # the sanctioned call site
            ("benchmarks/bench_adhoc.py", clocked),  # outside src/repro
            ("tests/test_adhoc.py", clocked),
        ],
        tmp_path,
    )
    assert violations == []


def test_rl008_suppression_with_reason(tmp_path):
    violations = run_lint(
        [(
            "src/repro/train/wall.py",
            """
            import time

            def wall_budget_exceeded(start, budget):
                now = time.time()  # repro-lint: disable=RL008 wall budget compares epoch time, not a measurement
                return now - start > budget
            """,
        )],
        tmp_path,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
def test_trailing_suppression_with_reason_mutes_violation(tmp_path):
    violations = run_lint(
        [(
            "src/repro/cache.py",
            """
            def lookup(cache, graph):
                return cache.get(id(graph))  # repro-lint: disable=RL003 values pin the graph
            """,
        )],
        tmp_path,
    )
    assert violations == []


def test_standalone_suppression_applies_to_next_line(tmp_path):
    violations = run_lint(
        [(
            "src/repro/cache.py",
            """
            def lookup(cache, graph):
                # repro-lint: disable=RL003 values pin the graph
                return cache.get(id(graph))
            """,
        )],
        tmp_path,
    )
    assert violations == []


def test_suppression_without_reason_is_rl000_and_does_not_mute(tmp_path):
    violations = run_lint(
        [(
            "src/repro/cache.py",
            """
            def lookup(cache, graph):
                return cache.get(id(graph))  # repro-lint: disable=RL003
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL000", "RL003"]
    rl000 = [v for v in violations if v.rule == "RL000"][0]
    assert "without a reason" in rl000.message


def test_suppression_with_unknown_code_is_rl000(tmp_path):
    violations = run_lint(
        [(
            "src/repro/mod.py",
            """
            x = 1  # repro-lint: disable=RL999 no such rule
            """,
        )],
        tmp_path,
    )
    assert codes(violations) == ["RL000"]
    assert "RL999" in violations[0].message


def test_suppression_only_mutes_named_codes(tmp_path):
    violations = run_lint(
        [(
            "src/repro/mix.py",
            """
            import numpy as np

            def make(cache, graph, n):
                key = id(graph)  # repro-lint: disable=RL001 wrong code on purpose
                return key, np.zeros(n, dtype=np.float64)
            """,
        )],
        tmp_path,
    )
    # The RL001 suppression does not apply to the RL003 site it decorates.
    assert codes(violations) == ["RL001", "RL003"]


def test_suppression_inside_string_literal_is_not_a_suppression(tmp_path):
    violations = run_lint(
        [(
            "src/repro/doc.py",
            """
            EXAMPLE = "x = id(y)  # repro-lint: disable=RL003 not a comment"
            """,
        )],
        tmp_path,
    )
    # Neither a violation (no real id() call at runtime... there is none)
    # nor an RL000: the tokenizer sees a string, not a comment.
    assert violations == []


# ---------------------------------------------------------------------------
# Config: select / ignore / per-path ignores / fallback sync
# ---------------------------------------------------------------------------
SOURCE_WITH_TWO_RULES = (
    "src/repro/two.py",
    """
    import numpy as np

    def make(graph, n):
        return id(graph), np.zeros(n, dtype=np.float64)
    """,
)


def test_select_runs_only_named_rules(tmp_path):
    violations = run_lint([SOURCE_WITH_TWO_RULES], tmp_path, select=("RL003",))
    assert codes(violations) == ["RL003"]


def test_ignore_disables_named_rules(tmp_path):
    violations = run_lint([SOURCE_WITH_TWO_RULES], tmp_path, ignore=("RL003",))
    assert codes(violations) == ["RL001"]


def test_unknown_rule_code_raises(tmp_path):
    with pytest.raises(KeyError):
        run_lint([SOURCE_WITH_TWO_RULES], tmp_path, select=("RL999",))


# ---------------------------------------------------------------------------
# RL009 — no silently swallowed exceptions
# ---------------------------------------------------------------------------
def test_rl009_flags_pass_only_except(tmp_path):
    violations = run_lint(
        [(
            "src/repro/worker.py",
            """
            def collect(queue):
                try:
                    return queue.get_nowait()
                except KeyError:
                    pass
            """,
        )],
        tmp_path,
        select=("RL009",),
    )
    assert codes(violations) == ["RL009"]


def test_rl009_flags_ellipsis_body_and_bare_except(tmp_path):
    violations = run_lint(
        [(
            "src/repro/worker.py",
            """
            def collect(queue):
                try:
                    return queue.get_nowait()
                except ValueError:
                    ...
                except:
                    log = 1
            """,
        )],
        tmp_path,
        select=("RL009",),
    )
    assert codes(violations) == ["RL009", "RL009"]


def test_rl009_allows_handled_translated_or_reraised(tmp_path):
    violations = run_lint(
        [(
            "src/repro/worker.py",
            """
            def collect(queue):
                try:
                    return queue.get_nowait()
                except KeyError as error:
                    raise RuntimeError("empty") from error
                except ValueError:
                    return None
                except:
                    raise
            """,
        )],
        tmp_path,
        select=("RL009",),
    )
    assert violations == []


def test_rl009_suppression_needs_a_reason(tmp_path):
    source = """
    def close(queue):
        try:
            queue.close()
        except OSError:  # repro-lint: disable=RL009 teardown race, pipe may be gone
            pass
    """
    violations = run_lint(
        [("src/repro/worker.py", source)], tmp_path, select=("RL009",)
    )
    assert violations == []


def test_rl009_is_scoped_to_library_code(tmp_path):
    noisy = """
    def probe(thing):
        try:
            return thing()
        except Exception:
            pass
    """
    in_tests = run_lint(
        [("tests/test_probe.py", noisy)], tmp_path, select=("RL009",)
    )
    in_bench = run_lint(
        [("benchmarks/bench_probe.py", noisy)], tmp_path, select=("RL009",)
    )
    in_src = run_lint(
        [("src/repro/probe.py", noisy)], tmp_path, select=("RL009",)
    )
    assert in_tests == [] and in_bench == []
    assert codes(in_src) == ["RL009"]


def test_per_path_ignores_scope_rules_to_prefix(tmp_path):
    config_kwargs = {
        "per_path_ignores": (("tests/", ("RL001", "RL004")),),
    }
    noisy = """
    import numpy as np

    def helper(n):
        rng = np.random.default_rng(0)
        return rng.normal(size=n).astype(float)
    """
    in_tests = run_lint(
        [("tests/test_helper.py", noisy)], tmp_path, **config_kwargs
    )
    in_src = run_lint(
        [("src/repro/helper.py", noisy)], tmp_path, **config_kwargs
    )
    assert in_tests == []
    assert codes(in_src) == ["RL001", "RL004"]


def test_registry_has_all_nine_project_rules():
    rules = all_rules()
    assert set(rules) >= {f"RL00{i}" for i in range(1, 10)}
    assert len(resolve_rules((), ())) >= 9


def test_fallback_config_matches_pyproject_section():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
        section = tomllib.load(handle)["tool"]["repro-lint"]
    assert section == FALLBACK_CONFIG


def test_load_config_reads_repo_pyproject():
    config = load_config(REPO_ROOT)
    assert config.baseline == "lint-baseline.json"
    assert config.ignored_rules_for("tests/test_anything.py") == (
        "RL001",
        "RL004",
    )
    assert config.ignored_rules_for("src/repro/core/base.py") == ()


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
def test_baseline_round_trip_filters_known_violations(tmp_path):
    violations = [
        Violation("RL003", "src/repro/a.py", 10, 5, "id() keys alias"),
        Violation("RL001", "src/repro/b.py", 3, 1, "hardcoded float64"),
    ]
    path = str(tmp_path / "baseline.json")
    write_baseline(path, violations[:1])
    baseline = load_baseline(path)
    remaining = filter_baselined(violations, baseline)
    assert [v.rule for v in remaining] == ["RL001"]
    # Line numbers are not part of baseline identity: the same violation
    # shifted by an unrelated edit still matches.
    moved = Violation("RL003", "src/repro/a.py", 99, 1, "id() keys alias")
    assert filter_baselined([moved], baseline) == []


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) == set()


def test_committed_baseline_is_empty_by_policy():
    baseline = load_baseline(os.path.join(REPO_ROOT, "lint-baseline.json"))
    assert baseline == set(), (
        "lint-baseline.json must stay empty on main: fix new violations or "
        "inline-suppress them with a reason instead of baselining"
    )


# ---------------------------------------------------------------------------
# Rendering + CLI
# ---------------------------------------------------------------------------
def test_render_text_and_json_agree(tmp_path):
    violations = run_lint([SOURCE_WITH_TWO_RULES], tmp_path)
    text = render_text(violations, files_scanned=1)
    assert "2 violations in 1 files" in text
    assert "src/repro/two.py:4:" in text
    payload = json.loads(render_json(violations, files_scanned=1))
    assert payload["count"] == 2
    assert payload["files_scanned"] == 1
    assert {v["rule"] for v in payload["violations"]} == {"RL001", "RL003"}


def _write_project(tmp_path, source):
    (tmp_path / "mod.py").write_text(textwrap.dedent(source).lstrip("\n"))
    return str(tmp_path)


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    root = _write_project(tmp_path, "def add(a, b):\n    return a + b\n")
    status = lint_main(["mod.py", "--root", root])
    assert status == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_exits_one_on_violations_with_json(tmp_path, capsys):
    root = _write_project(
        tmp_path,
        """
        import numpy as np
        X = np.zeros(3, dtype=np.float64)
        """,
    )
    status = lint_main(["mod.py", "--root", root, "--format", "json"])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["violations"][0]["rule"] == "RL001"


def test_cli_select_and_ignore_flags(tmp_path, capsys):
    root = _write_project(
        tmp_path,
        """
        import numpy as np
        X = np.zeros(3, dtype=np.float64)
        """,
    )
    assert lint_main(["mod.py", "--root", root, "--ignore", "RL001"]) == 0
    capsys.readouterr()
    assert lint_main(["mod.py", "--root", root, "--select", "RL003"]) == 0
    capsys.readouterr()
    assert lint_main(["mod.py", "--root", root, "--select", "RL001"]) == 1


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    root = _write_project(tmp_path, "x = 1\n")
    status = lint_main(["mod.py", "--root", root, "--select", "RL999"])
    assert status == 2
    assert "RL999" in capsys.readouterr().err


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    root = _write_project(
        tmp_path,
        """
        import numpy as np
        X = np.zeros(3, dtype=np.float64)
        """,
    )
    assert lint_main(["mod.py", "--root", root, "--write-baseline"]) == 0
    capsys.readouterr()
    # Baselined violation no longer fails the gate...
    assert lint_main(["mod.py", "--root", root]) == 0
    capsys.readouterr()
    # ...but a fresh one does.
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "X = np.zeros(3, dtype=np.float64)\n"
        "Y = np.random.default_rng(0)\n"
    )
    status = lint_main(["mod.py", "--root", root])
    assert status == 1
    assert "RL004" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL004", "RL007"):
        assert code in out


def test_syntax_error_reports_rl000(tmp_path):
    violations = run_lint([("src/repro/bad.py", "def broken(:\n")], tmp_path)
    assert codes(violations) == ["RL000"]
    assert "syntax error" in violations[0].message


# ---------------------------------------------------------------------------
# Self-check: the real repository is clean under the committed config
# ---------------------------------------------------------------------------
def test_repository_is_lint_clean():
    config_base = load_config(REPO_ROOT)
    config = LintConfig(
        select=config_base.select,
        ignore=config_base.ignore,
        baseline=config_base.baseline,
        per_path_ignores=config_base.per_path_ignores,
        root=REPO_ROOT,
    )
    violations, files_scanned = lint_paths(
        ["src", "tests", "benchmarks"], config
    )
    assert files_scanned > 100
    assert violations == [], render_text(violations, files_scanned)
