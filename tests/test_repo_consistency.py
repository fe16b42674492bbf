"""Repository-level consistency: registry <-> benchmarks <-> documentation."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.base import all_experiment_ids

REPO = Path(__file__).parent.parent

#: Benchmarks of whole subsystems rather than paper experiments; exempt
#: from the experiment-registry pairing below.
NON_EXPERIMENT_BENCHMARKS = {"service", "sweep", "hierarchy"}


class TestBenchmarkCoverage:
    """``benchmarks/bench_experiments.py`` runs every registered
    experiment through one test parametrized by experiment id."""

    def test_every_experiment_has_a_benchmark(self):
        from benchmarks import bench_experiments

        (mark,) = [
            m
            for m in bench_experiments.test_experiment.pytestmark
            if m.name == "parametrize"
        ]
        missing = sorted(set(all_experiment_ids()) - set(mark.args[1]))
        assert not missing, f"experiments without benchmarks: {missing}"

    def test_every_benchmark_has_an_experiment(self):
        stray = [
            p.name
            for p in (REPO / "benchmarks").glob("bench_*.py")
            if p.stem.removeprefix("bench_")
            not in NON_EXPERIMENT_BENCHMARKS | {"experiments"}
        ]
        assert not stray, f"benchmarks without experiments: {stray}"

    def test_benchmarks_reference_their_experiment(self, monkeypatch):
        from benchmarks import bench_experiments

        ran = []
        monkeypatch.setattr(
            bench_experiments,
            "run_and_report",
            lambda benchmark, ctx, archive, eid: ran.append(eid),
        )
        for eid in all_experiment_ids():
            bench_experiments.test_experiment(None, None, None, eid)
        assert ran == all_experiment_ids()


class TestDocumentationCoverage:
    def test_design_md_indexes_every_experiment(self):
        design = (REPO / "DESIGN.md").read_text()
        missing = [
            eid for eid in all_experiment_ids() if f"`{eid}`" not in design
        ]
        assert not missing, f"experiments missing from DESIGN.md: {missing}"

    def test_experiments_md_covers_every_table_and_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ["Table 1", "Table 2"] + [
            f"Figure {i}" for i in range(1, 13)
        ]:
            assert artifact in text, f"{artifact} missing from EXPERIMENTS.md"

    def test_readme_lists_every_example(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, (
                f"examples/{example.name} missing from README"
            )


class TestExampleHygiene:
    def test_examples_have_docstrings_and_main(self):
        for example in (REPO / "examples").glob("*.py"):
            text = example.read_text()
            assert text.startswith("#!/usr/bin/env python"), example.name
            assert '"""' in text, f"{example.name} lacks a docstring"
            assert 'if __name__ == "__main__":' in text, example.name


class TestRemovedCompatShims:
    #: Files allowed to *mention* the old path: this scanner, and the
    #: test asserting the import now raises ModuleNotFoundError.
    ALLOWED = {"tests/test_repo_consistency.py", "tests/test_obs_metrics.py"}

    def test_no_module_imports_the_old_service_metrics_path(self):
        """The repro.service.metrics shim is gone — nothing may import it."""
        offenders = []
        for root in ("src", "tests", "benchmarks", "examples", "tools"):
            base = REPO / root
            if not base.is_dir():
                continue
            for path in base.rglob("*.py"):
                if str(path.relative_to(REPO)) in self.ALLOWED:
                    continue
                text = path.read_text()
                if (
                    "from repro.service.metrics" in text
                    or "import repro.service.metrics" in text
                    or "from repro.service import metrics" in text
                ):
                    offenders.append(str(path.relative_to(REPO)))
        assert not offenders, (
            f"modules still importing the removed repro.service.metrics "
            f"shim: {offenders}"
        )

    def test_shim_file_is_gone(self):
        assert not (REPO / "src" / "repro" / "service" / "metrics.py").exists()


class TestImportLayering:
    def test_no_upward_module_top_level_imports(self):
        """tools/check_layering.py passes over src/ (also a CI job)."""
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py"),
             str(REPO / "src")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_checker_flags_a_synthetic_violation(self, tmp_path):
        """The guard guards: a planted upward import must fail the check."""
        pkg = tmp_path / "src" / "repro"
        for sub in ("", "cache", "service"):
            d = pkg / sub if sub else pkg
            d.mkdir(parents=True, exist_ok=True)
            (d / "__init__.py").write_text("")
        (pkg / "cache" / "bad.py").write_text("import repro.service\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py"),
             str(tmp_path / "src")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "repro.cache.bad" in proc.stdout
        assert "repro.service" in proc.stdout


class TestVersion:
    def test_package_version_matches_pyproject(self):
        # A regex, not tomllib: the supported Python 3.10 has no tomllib.
        text = (REPO / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        assert match, "pyproject.toml declares no [project] version"
        assert repro.__version__ == match.group(1)


class TestTraceability:
    def test_traceability_doc_references_valid_experiments(self):
        text = (REPO / "docs" / "TRACEABILITY.md").read_text()
        ids = set(all_experiment_ids())
        referenced = set(re.findall(r"`([a-z0-9_]+)`", text)) & {
            token for token in re.findall(r"`([a-z0-9_]+)`", text)
        }
        # every backticked token that looks like an experiment id must be one
        known_non_experiments = {
            "python",
            "repro",
        }
        for token in referenced:
            if token in ids or token in known_non_experiments:
                continue
            if token.startswith("examples") or "." in token:
                continue
            # tolerate API references like FileculeLRU(...)
            if not token.islower():
                continue
            assert token in ids or "_" not in token, (
                f"TRACEABILITY.md references unknown experiment-like id "
                f"{token!r}"
            )

    def test_traceability_covers_every_experiment(self):
        text = (REPO / "docs" / "TRACEABILITY.md").read_text()
        missing = [
            eid for eid in all_experiment_ids() if f"`{eid}`" not in text
        ]
        assert not missing, f"experiments missing from TRACEABILITY.md: {missing}"
