"""Probe-for-probe parity of the ported strategies.

The chunked and frequency strategies were moved out of the driver into
``repro.oraql.strategies`` as pluggable objects.  The port must not
change a single probe: the goldens under
``tests/goldens/strategy_probes_*.txt`` were captured from the
*pre-refactor* in-driver search loops, and the strategy objects must
reproduce them bit for bit — same probe sequences in the same order,
same pessimistic sets, same test/cache/deduction/compile totals.

Regenerate with ``pytest --update-goldens`` (and justify the diff in
review: a changed probe log means the search behaviour changed).
"""

from helpers import parity_cases, probe_logging_driver, render_probe_log


def _capture(strategy):
    sections = []
    for title, make_config in parity_cases():
        driver = probe_logging_driver(make_config(), strategy=strategy)
        report = driver.run()
        assert not report.failed, f"{title}: {report.error}"
        sections.append(render_probe_log(f"{title} / {strategy}",
                                         driver, report))
    return "\n\n".join(sections) + "\n"


class TestPortParity:
    def test_chunked_probe_log_matches_pre_refactor(self, golden):
        golden("strategy_probes_chunked.txt", _capture("chunked"))

    def test_frequency_probe_log_matches_pre_refactor(self, golden):
        golden("strategy_probes_frequency.txt", _capture("frequency"))
