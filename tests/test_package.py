"""The package entry point: one declaration of the public names per module."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import esbacktest

LIBRARY_MODULES = ("backtest", "dist", "estimators", "harness", "parallel", "secured", "simulation")

# every name `import esbacktest` exported before the modules' __all__ became its source
EXPORTED_BEFORE = {
    "BacktestResult", "ConfusionMatrix", "DataError", "DistSpec", "ES_THRESHOLDS",
    "FitError", "GarchSpec", "McConfig", "Normal", "NullDistribution", "PRESETS",
    "ReturnPanel", "RngStream", "RollingConfig", "STREAM_CONTRACT", "Sample",
    "SampleMoments", "SecuredSample", "SkewT", "StatResult", "StudentT",
    "VAR_THRESHOLDS", "ZONES", "Z_THRESHOLDS", "ZoneThresholds", "build_normalized",
    "build_secured", "classify", "compare_backtest", "confusion", "dist_from_json",
    "dist_to_json", "dual_g", "dual_t", "es_empirical", "es_normal", "filter_dates",
    "fit_and_simulate", "fit_iid", "g_stat", "garch_fit", "garch_from_json",
    "garch_simulate", "garch_to_json", "heatmap_table", "load_returns", "mc_null",
    "moments", "parallel_map", "preset", "rolling_backtest", "run_batch",
    "run_compare_batch", "split_samples", "t_stat", "true_risk", "var_empirical",
    "var_normal", "write_heatmap_csv", "z_stat",
}
# names taken out of the public API on purpose: the cli writes the heatmap itself,
# and zone_bounds gives every zone bound that the four threshold names held
REMOVED = {"write_heatmap_csv", "ZoneThresholds", "VAR_THRESHOLDS", "ES_THRESHOLDS",
           "Z_THRESHOLDS"}


def _module(name):
    return importlib.import_module(f"esbacktest.{name}")


def test_package_all_is_the_duplicate_free_union_of_the_module_lists():
    union = [n for name in LIBRARY_MODULES for n in _module(name).__all__]
    assert esbacktest.__all__ == union
    assert len(set(union)) == len(union)


def test_each_exported_name_is_its_defining_modules_own_object():
    for name in LIBRARY_MODULES:
        module = _module(name)
        for public in module.__all__:
            assert getattr(esbacktest, public) is getattr(module, public), public


def test_no_name_exported_before_is_lost():
    assert EXPORTED_BEFORE - REMOVED <= set(esbacktest.__all__)
    assert not REMOVED & set(dir(esbacktest))
    newly = set(esbacktest.__all__) - EXPORTED_BEFORE
    assert newly == {
        "simulate_batch", "MODELS", "GARCH_BURN_IN", "CALIBRATION", "CalibrationPoint",
        "RESULT_FIELDS", "ESTIMATORS", "FAMILIES", "FORMATS", "LEARN", "zone_bounds",
    }
    assert "main" not in esbacktest.__all__  # the cli is not re-exported


def test_fresh_package_import_loads_numpy_and_the_standard_library_only():
    src = str(Path(esbacktest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import esbacktest\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    roots = {m.split(".")[0] for m in proc.stdout.split()}
    assert "scipy" not in roots
    # numpy's compiled extensions register Cython's runtime as modules too
    cython = {r for r in roots if r == "cython_runtime" or r.startswith("_cython_")}
    assert roots - cython - set(sys.stdlib_module_names) == {"esbacktest", "numpy"}


def _loaded_by(module):
    """The package's modules that ``import esbacktest.<module>`` loads in a fresh
    interpreter. The package's __init__ loads every module, so a bare package
    stands in for it: what loads is what the module itself imports."""
    pkg = str(Path(esbacktest.__file__).resolve().parent)
    code = (
        "import sys, types\n"
        "package = types.ModuleType('esbacktest')\n"
        f"package.__path__ = [{pkg!r}]\n"
        "sys.modules['esbacktest'] = package\n"
        f"import esbacktest.{module}\n"
        "print(' '.join(m for m in sorted(sys.modules) if m.startswith('esbacktest.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return proc.stdout.split()


def test_estimators_load_neither_harness_nor_simulation():
    assert _loaded_by("estimators") == ["esbacktest.dist", "esbacktest.estimators",
                                        "esbacktest.secured"]


def test_harness_and_simulation_load_each_other_not():
    # siblings over backtest, estimators, secured, dist and parallel: both count
    # through backtest's kernels, and a FitError is a ValueError to Sample.run
    assert "esbacktest.simulation" not in _loaded_by("harness")
    assert "esbacktest.harness" not in _loaded_by("simulation")


def test_every_name_the_bench_wraps_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def wrap(self, owner, attr, units=None):
            self.wrapped.append((owner, attr))

    recorder = Recorder()
    spans.instrument(recorder)
    assert [attr for owner, attr in recorder.wrapped if owner is esbacktest.harness]
    for owner, attr in recorder.wrapped:
        # Tracer.wrap reads the attribute from the owner's own namespace
        assert attr in vars(owner), (owner.__name__, attr)
