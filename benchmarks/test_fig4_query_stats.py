"""Fig. 4 — alias-query statistics for all sixteen configurations.

Regenerates the paper's main table: per configuration, the number of
optimistic / pessimistic ORAQL responses (unique and cached) under the
final sequence, and the chain-wide no-alias counts for the original vs.
ORAQL compilation.  Asserts the paper's qualitative shape: which rows
are fully optimistic, and that ORAQL always increases no-alias counts.
"""

from repro.experiments.fig4_query_stats import Fig4Row, check_shape, render_fig4
from repro.workloads.base import get_info, row_names

from conftest import save_result


def test_fig4_table(benchmark, probed_reports, once):
    def build():
        return [Fig4Row(get_info(name), probed_reports[name])
                for name in row_names()]

    rows = once(benchmark, build)
    table = render_fig4(rows)
    path = save_result("fig4_query_stats", table)
    print("\n" + table)

    problems = []
    for row in rows:
        problems.extend(check_shape(row))
    assert not problems, "\n".join(problems)


def test_fig4_no_alias_deltas_positive(probed_reports):
    """ORAQL must add no-alias responses in every configuration (the
    rightmost Δ column of Fig. 4 is positive in every paper row)."""
    for name, rep in probed_reports.items():
        assert rep.no_alias_oraql > rep.no_alias_original, rep.summary()


def test_fig4_probing_effort_bounded(probed_reports):
    """Probing is bisection-cheap: tests grow ~k·log(n), not n."""
    for name, rep in probed_reports.items():
        n = max(1, rep.opt_unique + rep.pess_unique)
        k = rep.pess_unique
        bound = 3 + (k + 1) * (n.bit_length() + 3)
        assert rep.tests_run + rep.tests_cached <= bound, rep.summary()
