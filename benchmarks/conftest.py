"""Shared benchmark configuration.

Set ``REPRO_FULL=1`` to run the paper's full parameters (100 MB streams,
all 15 Fig. 3/4 sizes, 100-trial connection setup).  The default is a
scaled run that preserves every reported shape while finishing quickly.
"""

import os

FULL = os.environ.get("REPRO_FULL", "0") == "1"


def emit(report):
    """Print the report and file its artifact, tagged with the scale.

    Every bench run leaves a machine-readable ``BENCH_<name>.json``
    behind (in ``$REPRO_BENCH_DIR``, or the working directory) so perf
    trajectories can be compared across commits."""
    report.params["full"] = FULL
    print(report.render())
    print(f"[bench] wrote {report.write()}")


def fig_sizes(full_sizes, quick_sizes):
    return full_sizes if FULL else quick_sizes
