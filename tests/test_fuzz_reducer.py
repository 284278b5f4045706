"""Tests for the delta-debugging reducer: shrinkage, invariants,
trial accounting, and the end-to-end shrink of a real hazard seed."""

import copy

from repro.frontend import parse
from repro.fuzz.campaign import SELF_TEST_SIZE_LIMIT, _optimism_diverges
from repro.fuzz.generator import GeneratorOptions, generate_program
from repro.fuzz.reduce import reduce_program
from repro.fuzz.render import ast_size, render_unit


def _unit(source):
    return parse(source, filename="t.c")


MANY_STMTS = """\
int main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int d = 4;
  int e = 5;
  printf("%d\\n", c);
  return 0;
}
"""


class TestDdmin:
    def test_shrinks_to_the_needed_statements(self):
        unit = _unit(MANY_STMTS)
        # interesting = "still prints via c"; everything else should go
        predicate = lambda u: "printf" in render_unit(u) \
            and "c" in render_unit(u)  # noqa: E731
        res = reduce_program(unit, predicate)
        assert res.final_size < res.initial_size
        assert "printf" in res.source
        assert "int b" not in res.source

    def test_input_unit_is_never_mutated(self):
        unit = _unit(MANY_STMTS)
        before = render_unit(unit)
        reduce_program(unit, lambda u: "printf" in render_unit(u))
        assert render_unit(unit) == before

    def test_non_reproducing_input_is_returned_unchanged(self):
        unit = _unit(MANY_STMTS)
        res = reduce_program(unit, lambda u: False)
        assert res.final_size == res.initial_size
        assert res.trials == 1  # only the entry assertion
        assert res.rounds == 0

    def test_predicate_exceptions_mean_not_interesting(self):
        unit = _unit(MANY_STMTS)
        calls = {"n": 0}

        def flaky(u):
            calls["n"] += 1
            if calls["n"] == 1:
                return True  # entry check passes
            raise RuntimeError("compile error")

        res = reduce_program(unit, flaky)
        # nothing shrank, but the reducer survived
        assert res.final_size == res.initial_size

    def test_trial_budget_is_respected(self):
        unit = _unit(MANY_STMTS)
        res = reduce_program(unit, lambda u: True, max_trials=5)
        assert res.trials <= 5


class TestStructureOps:
    def test_unused_helper_functions_are_dropped(self):
        unit = _unit("""\
double helper(double x) {
  return x * 2.0;
}

int main() {
  printf("%d\\n", 1);
  return 0;
}
""")
        res = reduce_program(unit, lambda u: "printf" in render_unit(u))
        assert "helper" not in res.source

    def test_loops_are_hoisted_when_the_body_suffices(self):
        unit = _unit("""\
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 4; i = i + 1) {
    acc = acc + 1;
  }
  printf("%d\\n", acc);
  return 0;
}
""")
        res = reduce_program(
            unit, lambda u: "acc + 1" in render_unit(u))
        assert "for" not in res.source

    def test_else_branches_are_dropped(self):
        unit = _unit("""\
int main() {
  int x = 1;
  if (x > 0) {
    printf("%d\\n", 1);
  } else {
    printf("%d\\n", 2);
  }
  return 0;
}
""")
        res = reduce_program(unit, lambda u: "printf" in render_unit(u))
        assert "else" not in res.source


class TestEndToEnd:
    def test_hazard_seed_shrinks_below_the_self_test_limit(self):
        prog = generate_program(1, GeneratorOptions(hazard=True))
        assert _optimism_diverges(copy.deepcopy(prog.unit), 3)
        res = reduce_program(prog.unit,
                             lambda u: _optimism_diverges(u, 3),
                             max_trials=600)
        assert res.final_size <= SELF_TEST_SIZE_LIMIT
        assert res.final_size < ast_size(prog.unit)
        # the minimal reproducer still diverges
        assert _optimism_diverges(copy.deepcopy(res.unit), 3)
