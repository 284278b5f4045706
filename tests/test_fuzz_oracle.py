"""Tests for the differential oracle: the config matrix, finding
classification, and the bisection hand-off to the probing driver."""

import pytest

from repro.fuzz.generator import GeneratorOptions, generate_program
from repro.fuzz.oracle import (
    MUST_MATCH,
    TAIL_PAD,
    DifferentialOracle,
    OracleFinding,
    _first_diff,
    base_config,
)
from repro.oraql.cache import VerdictCache
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence


SIMPLE = """\
double buf[8];

int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    buf[i] = i * 2.0;
  }
  double acc = 0.0;
  for (i = 0; i < 8; i = i + 1) {
    acc = acc + buf[i];
  }
  printf("%f\\n", acc);
  return 0;
}
"""

BROKEN = """\
int main() {
  int i = 1;
  while (i > 0) { i = i + 1; }
  return 0;
}
"""


class TestMatrix:
    def test_clean_program_matches_everywhere(self):
        res = DifferentialOracle().check(0, SIMPLE)
        assert res.clean
        assert res.reference_output == "56.000000\n"
        for key in ("o0",) + MUST_MATCH:
            assert res.outcomes[key] == "match", key
        # 7 matrix compiles (o0, o2, o3, coarse, override, optimistic,
        # pessimistic)
        assert res.compiles == 7

    def test_optimistic_key_is_not_must_match(self):
        assert "optimistic" not in MUST_MATCH
        assert "o0" not in MUST_MATCH

    def test_reference_failure_short_circuits(self):
        res = DifferentialOracle().check(1, BROKEN)
        assert not res.clean
        assert res.findings[0].kind == "reference-failure"
        assert res.outcomes == {"o0": "trapped"}
        assert res.compiles == 1  # nothing else ran

    def test_base_config_embeds_seed_and_source(self):
        cfg = base_config(42, SIMPLE, opt_level=2)
        assert cfg.name == "fuzz-42"
        assert cfg.opt_level == 2
        assert cfg.sources[0].text == SIMPLE

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pessimistic_row_answers_every_query_pessimistically(self, seed):
        """The all-pessimistic row pads the optimistic run's query count
        by ``TAIL_PAD``; a query past the pad would be answered
        optimistically (end of sequence) and the row would not be
        all-pessimistic."""
        prog = generate_program(seed, GeneratorOptions(hazard=True))
        cfg = base_config(seed, prog.source)
        compiler = Compiler()
        opt = compiler.compile(cfg, sequence=DecisionSequence(),
                               oraql_enabled=True)
        assert opt.oraql.unique_queries > 0
        n = opt.oraql.unique_queries + TAIL_PAD
        pess = compiler.compile(cfg, sequence=DecisionSequence([0] * n),
                                oraql_enabled=True)
        assert pess.oraql.opt_unique == 0
        assert pess.oraql.pess_unique == pess.oraql.unique_queries > 0


class TestHazardBisection:
    @pytest.fixture(scope="class")
    def hazard_result(self):
        prog = generate_program(1, GeneratorOptions(hazard=True))
        return DifferentialOracle().check(1, prog.source)

    def test_injected_hazard_diverges_and_is_caught(self, hazard_result):
        res = hazard_result
        assert res.optimism_divergent
        assert res.outcomes["optimistic"] in ("divergent", "trapped")
        # caught: a non-empty pessimistic set explains the divergence,
        # so it is NOT a finding
        assert res.pessimistic_indices
        assert res.clean

    def test_pessimistic_build_still_matches(self, hazard_result):
        assert hazard_result.outcomes["pessimistic"] == "match"

    def test_bisection_can_be_disabled(self):
        prog = generate_program(1, GeneratorOptions(hazard=True))
        res = DifferentialOracle().check(
            1, prog.source, bisect_divergence=False)
        assert res.optimism_divergent
        assert not res.pessimistic_indices
        assert res.clean  # no verdict attempted, no finding

    def test_verdict_cache_is_seeded_for_the_driver(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        prog = generate_program(1, GeneratorOptions(hazard=True))
        res = DifferentialOracle(verdict_cache=cache).check(1, prog.source)
        assert res.clean and res.pessimistic_indices
        # the driver's empty-sequence attempt hit the pre-seeded verdict
        assert res.cache_hits >= 1


class TestFirstDiff:
    def test_pinpoints_the_byte(self):
        msg = _first_diff("aaaa bbbb\n", "aaaa cbbb\n")
        assert "first diff at byte 5" in msg

    def test_length_only_difference(self):
        assert _first_diff("ab", "abc") == "length 2 vs 3"

    def test_finding_is_a_plain_record(self):
        f = OracleFinding("miscompile", "o3", "boom")
        assert (f.kind, f.config_key, f.detail) == ("miscompile", "o3", "boom")
