"""The public import surface is pinned: a name joins or leaves it on purpose.

Both lists are literal, in declaration order.  Changing either export list
means changing this file in the same commit.
"""

import repro
import repro.harness

PACKAGE_SURFACE = [
    "__version__",
    "HyperionRuntime",
    "RuntimeConfig",
    "ExecutionReport",
    "JavaClass",
    "JavaObject",
    "JavaArray",
    "ClusterSpec",
    "myrinet_cluster",
    "sci_cluster",
    "cluster_by_name",
    "list_clusters",
    "available_protocols",
    "ExperimentSpec",
    "ExperimentMatrix",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultStore",
    "Session",
    "SessionResult",
]

HARNESS_SURFACE = [
    # execution layer
    "ExperimentSpec",
    "ExperimentMatrix",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultStore",
    "StoreSchemaError",
    "Session",
    "SessionResult",
    "CellResult",
    "run_spec",
    # comparisons
    "ProtocolComparison",
    "comparison_specs",
    "fill_comparison",
    # sharded resumable sweeps
    "SweepJob",
    "SweepProgress",
    "SweepInterrupted",
    "CheckpointMismatch",
    # the sweep service
    "SweepService",
    "ServiceServer",
    "serve",
    # figures and reports
    "FIGURE_APPS",
    "FigureSeries",
    "FigureData",
    "generate_figure",
    "generate_all_figures",
    "figure_table",
    "ascii_plot",
    "improvement_table",
    "improvement_summary",
    "render_experiments_document",
    # calibration
    "CalibrationReport",
    "calibrate",
    # ablations
    "SweepResult",
    "Ablation",
    "ABLATIONS",
    "ablation_by_name",
]


def test_package_surface_is_pinned():
    assert repro.__all__ == PACKAGE_SURFACE
    assert all(hasattr(repro, name) for name in PACKAGE_SURFACE)


def test_harness_surface_is_pinned():
    assert repro.harness.__all__ == HARNESS_SURFACE
    assert all(hasattr(repro.harness, name) for name in HARNESS_SURFACE)
