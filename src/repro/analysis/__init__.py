"""Analysis: working-set profiling, cached experiment running, tables,
terminal charts and CSV export."""

from .charts import bar_chart
from .diskcache import SCHEMA_VERSION, ResultCache, content_key
from .export import (
    export_experiment,
    flatten_run_summaries,
    write_csv,
    write_json,
)
from .runner import (
    RunnerTelemetry,
    cache_size,
    clear_cache,
    default_jobs,
    hmean_speedup,
    reset_telemetry,
    run,
    run_matrix,
    set_default_cache_dir,
    speedups_vs_baseline,
    telemetry,
)
from .tables import format_series, format_table, normalize
from .working_set import (
    SHARING_FALSE,
    SHARING_NONE,
    SHARING_TRUE,
    WorkingSetPoint,
    classify_lines,
    working_set_profile,
)

__all__ = [
    "bar_chart",
    "export_experiment",
    "flatten_run_summaries",
    "write_csv",
    "write_json",
    "SCHEMA_VERSION",
    "ResultCache",
    "content_key",
    "RunnerTelemetry",
    "cache_size",
    "clear_cache",
    "default_jobs",
    "hmean_speedup",
    "reset_telemetry",
    "run",
    "run_matrix",
    "set_default_cache_dir",
    "speedups_vs_baseline",
    "telemetry",
    "format_series",
    "format_table",
    "normalize",
    "SHARING_FALSE",
    "SHARING_NONE",
    "SHARING_TRUE",
    "WorkingSetPoint",
    "classify_lines",
    "working_set_profile",
]
