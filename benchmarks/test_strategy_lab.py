"""The strategy lab's scored benchmark matrix.

Every registered probing strategy runs over all sixteen paper
configurations and is scored on probes-to-convergence (verdicts the
search consumed), compiles, pass executions, and wall-clock.  The
referee rules:

* the chunked-skeleton strategy (``provenance-prior``) must land on
  chunked's pessimistic set *bit for bit* — same pinned indices, same
  final executable hash — on every row;
* ``frequency`` explores a different search space and may legally pin a
  different locally-maximal set (it does, on a handful of rows); it is
  held to validity (the driver verified its final sequence) and
  determinism instead;
* at least one learned strategy must beat chunked on median
  probes-to-convergence — the lab has to pay for itself.

The ``smoke`` subset (``pytest -k smoke``) is the CI job: two
workloads across every strategy plus a frequency rerun determinism
check, no full sweep.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_strategy_lab.py -v
"""

import statistics
import time
from typing import Dict

import pytest

from repro.oraql import ProbingDriver, ProbingReport
from repro.oraql.strategies import strategy_names
from repro.workloads.base import get_config, row_names

from conftest import save_result

#: strategies that share chunked's search skeleton and therefore must
#: reproduce its exact answer everywhere
EXACT = ("provenance-prior",)

#: the CI smoke subset: cheap rows with a real (non-trivial) bisection
SMOKE_ROWS = ("LULESH-seq", "MiniFE-openmp")


def probes_of(rep: ProbingReport) -> int:
    """Probes-to-convergence: every verdict the search consumed,
    whether freshly run or served from the executable-hash cache."""
    return rep.tests_run + rep.tests_cached


@pytest.fixture(scope="module")
def lab_reports(probed_reports) -> Dict[str, Dict[str, ProbingReport]]:
    """strategy -> row -> report, for every registered strategy over
    every Fig. 4 configuration (chunked reuses the shared sweep)."""
    matrix: Dict[str, Dict[str, ProbingReport]] = {
        "chunked": dict(probed_reports)}
    for strategy in strategy_names():
        if strategy in matrix:
            continue
        matrix[strategy] = {}
        for row in row_names():
            t0 = time.time()
            rep = ProbingDriver(get_config(row), strategy=strategy).run()
            rep.wall_seconds = time.time() - t0
            matrix[strategy][row] = rep
    return matrix


def test_matrix_scores_and_agreement(lab_reports):
    """The full matrix: render the scoreboard artifact and hold every
    chunked-skeleton strategy to bit-identical agreement."""
    lines = [f"{'configuration':<22} {'strategy':<18} {'probes':>6} "
             f"{'compiles':>8} {'pass-exec':>9} {'wall-s':>7} "
             f"{'pessimistic':>11}"]
    for row in row_names():
        for strategy in strategy_names():
            rep = lab_reports[strategy][row]
            assert not rep.failed, (row, strategy, rep.error)
            assert not rep.budget_exhausted, (row, strategy)
            assert rep.strategy == strategy
            lines.append(
                f"{row:<22} {strategy:<18} {probes_of(rep):>6} "
                f"{rep.compiles:>8} {rep.pass_executions:>9} "
                f"{getattr(rep, 'wall_seconds', 0.0):>7.2f} "
                f"{len(rep.pessimistic_indices):>11}")
    table = "\n".join(lines)
    save_result("strategy_lab_matrix", table)
    print("\n" + table)

    for row in row_names():
        chunked = lab_reports["chunked"][row]
        for strategy in EXACT:
            rep = lab_reports[strategy][row]
            assert rep.pessimistic_indices == \
                chunked.pessimistic_indices, (row, strategy)
            assert rep.final_exe_hash == chunked.final_exe_hash, (
                row, strategy)


def test_frequency_is_valid_and_self_consistent(lab_reports):
    """Frequency may disagree with chunked on *which* locally-maximal
    set it pins (it does on a few rows) but never on validity: its
    final sequence passed verification and fully-optimistic rows are
    fully optimistic under every strategy."""
    disagreements = []
    for row in row_names():
        chunked = lab_reports["chunked"][row]
        freq = lab_reports["frequency"][row]
        assert not freq.failed, (row, freq.error)
        assert freq.fully_optimistic == chunked.fully_optimistic, row
        if freq.pessimistic_indices != chunked.pessimistic_indices:
            disagreements.append(row)
    # the disagreement set is small and stable — a blow-up here means
    # the frequency port changed behaviour
    assert len(disagreements) <= 6, disagreements


def test_probes_to_convergence_median(lab_reports):
    """The lab pays for itself: at least one new strategy beats chunked
    on median probes-to-convergence across the sixteen rows."""
    medians = {
        strategy: statistics.median(
            probes_of(lab_reports[strategy][row]) for row in row_names())
        for strategy in strategy_names()}
    save_result("strategy_lab_medians", "\n".join(
        f"{s:<18} {m:g}" for s, m in sorted(medians.items())))
    newcomers = [s for s in strategy_names()
                 if s not in ("chunked", "frequency")]
    assert any(medians[s] < medians["chunked"] for s in newcomers), medians


def test_prior_never_worse_than_chunked_by_much(lab_reports):
    """The prior's confidence gate bounds the downside.  A confident
    but wrong guess both wastes the probe and unbalances the split, so
    a hostile row can cost real money — the worst observed is
    LULESH-openmp at ~1.7x chunked — but the gate keeps it under 2x
    everywhere (an ungated linear scan would be ~10x)."""
    for row in row_names():
        chunked = probes_of(lab_reports["chunked"][row])
        prior = probes_of(lab_reports["provenance-prior"][row])
        assert prior <= max(8, 2 * chunked), (row, prior, chunked)


# -- CI smoke subset (pytest -k smoke) ---------------------------------------

def test_smoke_all_strategies_agree_on_two_rows():
    """Two cheap rows across every registered strategy: the
    chunked-skeleton strategies agree bit for bit, frequency verifies,
    and every report carries its strategy name."""
    for row in SMOKE_ROWS:
        reports = {s: ProbingDriver(get_config(row), strategy=s).run()
                   for s in strategy_names()}
        chunked = reports["chunked"]
        assert chunked.pessimistic_indices, row  # a real bisection
        for strategy, rep in reports.items():
            assert not rep.failed, (row, strategy, rep.error)
            assert rep.strategy == strategy
        for strategy in EXACT:
            assert reports[strategy].pessimistic_indices == \
                chunked.pessimistic_indices, (row, strategy)
            assert reports[strategy].final_exe_hash == \
                chunked.final_exe_hash, (row, strategy)


def test_smoke_frequency_rerun_is_deterministic():
    row = SMOKE_ROWS[1]
    a = ProbingDriver(get_config(row), strategy="frequency").run()
    b = ProbingDriver(get_config(row), strategy="frequency").run()
    assert a.pessimistic_indices == b.pessimistic_indices
    assert a.final_exe_hash == b.final_exe_hash
