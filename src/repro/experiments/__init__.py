"""repro.experiments — regeneration of every table and figure in the
paper's evaluation (see DESIGN.md's per-experiment index)."""

from .fig2_probing import (
    Fig2Row,
    SyntheticOracle,
    probe_synthetic,
    render_fig2,
    run_fig2,
)
from .fig3_dump import run_fig3
from .fig4_query_stats import Fig4Row, check_shape, render_fig4, run_fig4
from .fig5_importance import (
    DEFAULT_WORKLOADS,
    VersionRow,
    render_fig5_importance,
    render_fig5_importance_many,
    run_fig5_importance,
    version_rows,
)
from .fig5_versions import PAPER_VERSIONS, VERSIONS, render_fig5
from .fig6_pass_stats import FIG6_ROWS, Fig6Row, render_fig6, run_fig6
from .fig7_kernels import Fig7Row, render_fig7, run_fig7
from .runtimes import PAPER_NOTES, RuntimeRow, render_runtimes, run_runtimes
from .tables import pct, render_table

__all__ = [name for name in dir() if not name.startswith("_")]
