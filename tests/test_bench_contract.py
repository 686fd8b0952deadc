"""The names the benchmark in bench/ reaches in the package.

The benchmark wraps package functions by module attribute (bench/spans.py)
and builds its jobs through a few public names (bench/workloads.py), so a
rename or deletion there breaks it.  This test fails first.  It only
imports from bench/ and writes nothing there."""

import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """Import a module of bench/ without leaving bytecode behind."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        monkeypatch.delitem(sys.modules, name, raising=False)
        return importlib.import_module(name)

    return load


def test_span_targets_resolve_to_package_functions(bench):
    spans = bench("spans")
    importlib.import_module("tadic.cli")
    for owner, attr, *_ in spans.TARGETS:
        assert hasattr(spans._resolve(owner), attr), f"{owner}.{attr}"
    spans.assert_unwrapped()


def test_workload_names_exist(bench):
    tadic = importlib.import_module("tadic")
    importlib.import_module("tadic.cli")
    golden = {path.stem: path.read_text(encoding="utf-8")
              for path in (BENCH.parent / "tests" / "golden").glob("*.json")}
    for name, build in bench("workloads").WORKLOADS.items():
        assert build(tadic, 0, golden), name
    for path in ("cli.JobConfig", "cli.effective_digits", "cli.run",
                 "splitting.TowerInput", "xseries.Geometry.AFFINE_LINE",
                 "profile.PrecisionProfile.create", "pipeline.run_slopes",
                 "pipeline.doubling_check", "slopes.SlopeReport.all_qualities"):
        obj = tadic
        for part in path.split("."):
            assert hasattr(obj, part), f"tadic.{path}"
            obj = getattr(obj, part)
