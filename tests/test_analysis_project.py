"""Tests for the inter-procedural engine and the project rules R8-R10.

Covers the symbol table and call graph (pass 1/2), the seed-provenance
dataflow classifier, constant re-derivation detection, and mirror-drift
checking — including the acceptance case: a one-sided edit to a mirrored
region of the *real* source tree must fail R10.
"""

import json
import shutil
import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import run_analysis
from repro.analysis.dataflow import classify_seed_expr
from repro.analysis.mirrors import scan_mirrors, write_manifest
from repro.analysis.project_rules import (
    PROJECT_RULES,
    ConstantProvenanceRule,
    MirrorDriftRule,
    SeedProvenanceRule,
)
from repro.analysis.symbols import build_project

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path, files):
    """Write ``{relative_path: source}`` under ``tmp_path / 'src'``."""
    for relative, source in files.items():
        target = tmp_path / "src" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def project_of(tmp_path):
    return build_project([tmp_path / "src"], root=tmp_path)


def lint_project(tmp_path, rules):
    return run_analysis([tmp_path / "src"], rules=rules, root=tmp_path)


# --------------------------------------------------------------- pass 1/2


class TestSymbolTable:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/util.py": """
            LIMIT = 8


            def helper(value):
                return value + LIMIT


            class Box:
                def get(self):
                    return helper(1)
        """,
        "pkg/main.py": """
            from pkg.util import helper as h

            import pkg.util


            def entry(seed):
                return h(seed)
        """,
    }

    def test_definitions_and_constants(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        assert "pkg" in project.packages
        assert "pkg.util.helper" in project.functions
        assert "pkg.util.Box.get" in project.functions
        assert project.functions["pkg.util.Box.get"].class_name == "Box"
        assert "pkg.util.LIMIT" in project.constants
        assert project.functions["pkg.main.entry"].params == ("seed",)

    def test_import_alias_resolution(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        assert project.resolve("pkg.main", "h") == "pkg.util.helper"
        assert project.resolve("pkg.main", "pkg.util.LIMIT") == "pkg.util.LIMIT"
        assert project.resolve("pkg.main", "nowhere") is None
        # `import pkg.util` also binds the head package name.
        assert project.import_graph["pkg.main"] >= {"pkg.util"}

    def test_path_index_uses_display_paths(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        module = project.module_for_path("src/pkg/util.py")
        assert module is not None and module.path == "src/pkg/util.py"

    def test_cache_round_trip(self, tmp_path):
        tree = make_tree(tmp_path, self.FILES)
        cache = tmp_path / "cache"
        first = build_project([tree / "src"], root=tree, cache_dir=cache)
        entries = list(cache.glob("symtab-*.pkl"))
        assert len(entries) == 1
        second = build_project([tree / "src"], root=tree, cache_dir=cache)
        assert set(second.functions) == set(first.functions)
        # An edit changes the content hash: a new entry appears.
        (tree / "src" / "pkg" / "util.py").write_text(
            "LIMIT = 9\n", encoding="utf-8"
        )
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 2

    def test_cache_invalidates_when_analyzer_changes(
        self, tmp_path, monkeypatch
    ):
        """The cache key folds in a digest of the analyzer's own sources,
        so upgrading the engine can never serve a stale symbol table."""
        import repro.analysis.symbols as symbols

        tree = make_tree(tmp_path, self.FILES)
        cache = tmp_path / "cache"
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 1
        monkeypatch.setattr(symbols, "_engine_digest", lambda: "0" * 16)
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 2


class TestCallGraph:
    def test_sites_and_reverse_edges(self, tmp_path):
        tree = make_tree(tmp_path, {
            "mod.py": """
                def callee(seed):
                    return seed


                def caller():
                    return callee(41)
            """,
        })
        project = project_of(tree)
        graph = build_callgraph(project)
        callers = graph.callers_of.get("mod.callee", [])
        assert [site.caller for site in callers] == ["mod.caller"]

    def test_method_call_through_self(self, tmp_path):
        tree = make_tree(tmp_path, {
            "mod.py": """
                class Runner:
                    def step(self, seed):
                        return seed

                    def run(self):
                        return self.step(3)
            """,
        })
        graph = build_callgraph(project_of(tree))
        callers = graph.callers_of.get("mod.Runner.step", [])
        assert [site.caller for site in callers] == ["mod.Runner.run"]


class TestDataflow:
    def classify(self, tmp_path, files, module, function, argument_of):
        """Origins of the first argument of the named call in ``function``."""
        import ast

        project = project_of(make_tree(tmp_path, files))
        graph = build_callgraph(project)
        scope = project.functions[f"{module}.{function}"]
        for node in ast.walk(scope.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == argument_of
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == argument_of
            ):
                return classify_seed_expr(
                    project, graph, module, scope, node.args[0]
                )
        raise AssertionError(f"no call to {argument_of} in {function}")

    def test_literal_and_derive_seed(self, tmp_path):
        files = {
            "mod.py": """
                import random

                from repro.util.rng import derive_seed


                def fresh(seed):
                    return random.Random(derive_seed(seed, "x"))


                def fixed():
                    return random.Random(1234)
            """,
        }
        assert self.classify(
            tmp_path, files, "mod", "fresh", "Random"
        ) == {"derived"}
        assert self.classify(
            tmp_path, files, "mod", "fixed", "Random"
        ) == {"literal"}

    def test_parameter_follows_callers(self, tmp_path):
        files = {
            "mod.py": """
                import random
                import time


                def make(seed):
                    return random.Random(seed)


                def bad_entry():
                    return make(int(time.time()))
            """,
        }
        origins = self.classify(tmp_path, files, "mod", "make", "Random")
        assert any(o.startswith("bad:") for o in origins)
        assert any("wall clock" in o for o in origins)

    def test_uncalled_seed_parameter_is_config(self, tmp_path):
        files = {
            "mod.py": """
                import random


                def make(base_seed):
                    return random.Random(base_seed)
            """,
        }
        assert self.classify(
            tmp_path, files, "mod", "make", "Random"
        ) == {"config"}


# -------------------------------------------------------------------- R8


class TestSeedProvenanceRule:
    RULES = (SeedProvenanceRule(),)

    def r8(self, tmp_path, files):
        findings = lint_project(make_tree(tmp_path, files), self.RULES)
        assert all(f.rule == "R8" for f in findings)
        return findings

    def test_hash_seed_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(name):
                    return random.Random(hash(name))
            """,
        })
        assert len(findings) == 1
        assert "hash" in findings[0].message

    def test_system_random_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random

                rng = random.SystemRandom()
            """,
        })
        assert len(findings) == 1
        assert "SystemRandom" in findings[0].message

    def test_entropy_laundered_into_deriver_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import os

                from repro.util.rng import derive_seed


                def make():
                    return derive_seed(os.getpid(), "stream")
            """,
        })
        assert len(findings) == 1
        assert "os.getpid" in findings[0].message

    def test_untraceable_seed_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(knob):
                    return random.Random(knob)


                def entry(payload):
                    return make(payload.version)
            """,
        })
        assert len(findings) == 1
        assert "cannot be traced" in findings[0].message

    def test_default_rng_checked_too(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import time

                import numpy as np


                def make():
                    return np.random.default_rng(int(time.time_ns()))
            """,
        })
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_clean_flows_pass(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random

                from repro.util.rng import derive_seed

                DEFAULT_SEED = 1234


                def fresh(seed):
                    return random.Random(derive_seed(seed, "x"))


                def from_constant():
                    return random.Random(DEFAULT_SEED)


                def unseeded():
                    return random.Random()


                def entry(config_seed):
                    return fresh(config_seed)
            """,
        })
        assert findings == []

    def test_inline_suppression_applies(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(name):
                    return random.Random(hash(name))  # repro: ignore[R8]
            """,
        })
        assert findings == []


# -------------------------------------------------------------------- R9


class TestConstantProvenanceRule:
    RULES = (ConstantProvenanceRule(),)

    def r9(self, tmp_path, files):
        findings = lint_project(make_tree(tmp_path, files), self.RULES)
        assert all(f.rule == "R9" for f in findings)
        return findings

    def test_distinctive_literal_is_flagged(self, tmp_path):
        findings = self.r9(tmp_path, {
            "mod.py": "gamma = 0.999\n",
        })
        assert len(findings) == 1
        assert "PREFETCH_GAMMA" in findings[0].message

    def test_arithmetic_rederivation_is_flagged_once(self, tmp_path):
        # 1 - 0.001 == 0.999 (and 0.001 is itself distinctive); the folded
        # match covers the whole expression, so exactly one finding.
        findings = self.r9(tmp_path, {
            "mod.py": "decay = 1 - 0.001\n",
        })
        assert len(findings) == 1
        assert "PREFETCH_GAMMA" in findings[0].message

    def test_aliased_literal_is_flagged_at_binding(self, tmp_path):
        findings = self.r9(tmp_path, {
            "mod.py": """
                _c = 0.04


                def exploration():
                    return _c
            """,
        })
        assert len(findings) == 1
        assert "PREFETCH_EXPLORATION_C" in findings[0].message

    def test_constants_module_and_workloads_are_exempt(self, tmp_path):
        findings = self.r9(tmp_path, {
            "constants.py": "PREFETCH_GAMMA = 0.999\n",
            "workloads/gen.py": "branch_rate = 0.001\n",
        })
        assert findings == []

    def test_undistinctive_values_pass(self, tmp_path):
        findings = self.r9(tmp_path, {
            "mod.py": "half = 0.5\nwidth = 4\nscale = 2 * 0.25\n",
        })
        assert findings == []


# ------------------------------------------------------------------- R10


MIRRORED = {
    "kernel.py": """
        # repro: mirror[step]
        def kernel_step(state):
            state.count += 1
            return state.count * 2
    """,
    "objects.py": """
        # repro: mirror[step]
        def object_step(state):
            state.count += 1
            return state.count * 2
    """,
}


class TestMirrorDriftRule:
    RULES = (MirrorDriftRule(),)

    def record(self, tree):
        project = build_project([tree / "src"], root=tree)
        manifest = tree / "mirror-manifest.json"
        write_manifest(manifest, scan_mirrors(project))
        return manifest

    def test_untagged_tree_is_clean(self, tmp_path):
        tree = make_tree(tmp_path, {"mod.py": "x = 1\n"})
        assert lint_project(tree, self.RULES) == []

    def test_tags_without_manifest_are_flagged(self, tmp_path):
        tree = make_tree(tmp_path, MIRRORED)
        findings = lint_project(tree, self.RULES)
        assert len(findings) == 1
        assert "no recorded manifest" in findings[0].message

    def test_recorded_manifest_round_trips_clean(self, tmp_path):
        tree = make_tree(tmp_path, MIRRORED)
        self.record(tree)
        assert lint_project(tree, self.RULES) == []

    def test_one_sided_edit_fails(self, tmp_path):
        tree = make_tree(tmp_path, MIRRORED)
        self.record(tree)
        kernel = tree / "src" / "kernel.py"
        kernel.write_text(
            kernel.read_text().replace("* 2", "* 3"), encoding="utf-8"
        )
        findings = lint_project(tree, self.RULES)
        assert len(findings) == 1
        assert findings[0].rule == "R10"
        assert findings[0].path == "src/kernel.py"
        assert "one side only" in findings[0].message
        assert "src/objects.py" in findings[0].message

    def test_both_sides_edited_asks_for_rerecord(self, tmp_path):
        tree = make_tree(tmp_path, MIRRORED)
        self.record(tree)
        for name in ("kernel.py", "objects.py"):
            path = tree / "src" / name
            path.write_text(
                path.read_text().replace("* 2", "* 3"), encoding="utf-8"
            )
        findings = lint_project(tree, self.RULES)
        assert len(findings) == 1
        assert "both sides" in findings[0].message

    def test_unpaired_tag_is_flagged(self, tmp_path):
        tree = make_tree(tmp_path, {"kernel.py": MIRRORED["kernel.py"]})
        self.record(tree)
        findings = lint_project(tree, self.RULES)
        assert any("exactly 2" in f.message for f in findings)

    def test_comment_only_edit_is_not_drift(self, tmp_path):
        tree = make_tree(tmp_path, MIRRORED)
        self.record(tree)
        kernel = tree / "src" / "kernel.py"
        kernel.write_text(
            kernel.read_text().replace(
                "state.count += 1", "state.count += 1  # bump"
            ),
            encoding="utf-8",
        )
        assert lint_project(tree, self.RULES) == []


def test_real_tree_one_sided_kernel_edit_fails_r10(tmp_path):
    """Acceptance: editing the replay kernel without its object-path twin
    must produce an R10 finding against the recorded manifest."""
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    shutil.copy(REPO_ROOT / "mirror-manifest.json", tmp_path)

    kernel = tmp_path / "src" / "repro" / "core_model" / "replay_kernel.py"
    source = kernel.read_text(encoding="utf-8")
    marker = "    hierarchy = core.hierarchy\n"
    assert marker in source
    kernel.write_text(
        source.replace(marker, marker + "    drift_probe = 0\n", 1),
        encoding="utf-8",
    )

    findings = run_analysis(
        [tmp_path / "src"], rules=(MirrorDriftRule(),), root=tmp_path
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "R10"
    assert finding.path == "src/repro/core_model/replay_kernel.py"
    assert "mirror[demand-path]" in finding.message
    assert "one side only" in finding.message
    assert "src/repro/uncore/hierarchy.py" in finding.message


def test_real_tree_is_clean_under_project_rules(src_findings):
    """The shipped tree passes R8-R12 against its own manifest."""
    project_codes = {rule.code for rule in PROJECT_RULES}
    findings = [f for f in src_findings if f.rule in project_codes]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_manifest_document_shape():
    document = json.loads(
        (REPO_ROOT / "mirror-manifest.json").read_text(encoding="utf-8")
    )
    assert document["version"] == 1
    for name, sides in document["mirrors"].items():
        assert len(sides) == 2, name
        for side in sides:
            assert set(side) == {"path", "anchor", "fingerprint"}
