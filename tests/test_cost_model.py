"""Unit tests for the interpreter cycle cost model (§V-A / §V-C)."""

import pytest

from repro.vm.cost_model import (
    CostModel,
    DEFAULT_COSTS,
    INTRINSIC_COSTS,
    UnknownCostError,
    occupancy_factor,
)


class TestDefaultTables:
    def test_every_default_cost_is_positive_or_free(self):
        for op, cost in DEFAULT_COSTS.items():
            assert cost >= 0.0, op

    def test_memory_ops_cost_more_than_register_ops(self):
        assert DEFAULT_COSTS["load"] > DEFAULT_COSTS["add"]
        assert DEFAULT_COSTS["store"] > DEFAULT_COSTS["add"]

    def test_division_is_the_expensive_integer_op(self):
        for op in ("add", "sub", "mul", "and", "or", "xor", "shl"):
            assert DEFAULT_COSTS["sdiv"] > DEFAULT_COSTS[op]

    def test_fp_ops_cost_at_least_their_integer_counterparts(self):
        assert DEFAULT_COSTS["fadd"] >= DEFAULT_COSTS["add"]
        assert DEFAULT_COSTS["fmul"] >= DEFAULT_COSTS["mul"]

    def test_phi_is_free(self):
        # phis are resolved by copies counted at lowering time
        assert DEFAULT_COSTS["phi"] == 0.0

    def test_intrinsic_table_covers_the_math_library(self):
        for name in ("sqrt", "exp", "log", "pow", "sin", "cos", "fabs"):
            assert name in INTRINSIC_COSTS

    def test_intrinsic_table_covers_the_whole_runtime_surface(self):
        # strict measurement sessions price every call the VM runtime
        # can dispatch; a new runtime handler without a cost entry
        # would crash the importance driver mid-measurement
        from repro.vm.runtime import Runtime
        unpriced = set(Runtime().handlers) - set(INTRINSIC_COSTS)
        assert not unpriced, f"runtime calls without a cycle cost: " \
                             f"{sorted(unpriced)}"


class TestCostModel:
    def test_of_known_opcode(self):
        cm = CostModel()
        assert cm.of("load") == DEFAULT_COSTS["load"]
        assert cm.of("fdiv") == DEFAULT_COSTS["fdiv"]

    def test_of_unknown_opcode_defaults_to_one_cycle(self):
        assert CostModel().of("some-new-opcode") == 1.0

    def test_of_intrinsic_known_and_unknown(self):
        cm = CostModel()
        assert cm.of_intrinsic("sqrt") == INTRINSIC_COSTS["sqrt"]
        assert cm.of_intrinsic("erfc") == 10.0

    def test_instances_do_not_share_tables(self):
        a, b = CostModel(), CostModel()
        a.costs["load"] = 99.0
        a.intrinsic_costs["sqrt"] = 99.0
        assert b.of("load") == DEFAULT_COSTS["load"]
        assert b.of_intrinsic("sqrt") == INTRINSIC_COSTS["sqrt"]
        assert DEFAULT_COSTS["load"] != 99.0

    def test_custom_table_override(self):
        cm = CostModel(costs={"load": 2.0})
        assert cm.of("load") == 2.0
        assert cm.of("store") == 1.0  # fallback for missing entries


class TestStrictMode:
    def test_strict_unknown_opcode_raises(self):
        cm = CostModel(strict=True)
        with pytest.raises(UnknownCostError, match="some-new-opcode"):
            cm.of("some-new-opcode")

    def test_strict_unknown_intrinsic_raises(self):
        cm = CostModel(strict=True)
        with pytest.raises(UnknownCostError, match="erfc"):
            cm.of_intrinsic("erfc")

    def test_strict_known_entries_unaffected(self):
        cm = CostModel(strict=True)
        assert cm.of("load") == DEFAULT_COSTS["load"]
        assert cm.of_intrinsic("sqrt") == INTRINSIC_COSTS["sqrt"]
        assert cm.unknown_opcodes == {}
        assert cm.unknown_intrinsics == {}

    def test_unknowns_counted_in_lenient_mode(self):
        # the silent 1.0/10.0 defaults are no longer silent: even a
        # lenient model tallies what it could not price
        cm = CostModel()
        cm.of("mystery-op")
        cm.of("mystery-op")
        cm.of_intrinsic("erfc")
        assert cm.unknown_opcodes == {"mystery-op": 2}
        assert cm.unknown_intrinsics == {"erfc": 1}

    def test_unknowns_counted_in_strict_mode_too(self):
        cm = CostModel(strict=True)
        with pytest.raises(UnknownCostError):
            cm.of("mystery-op")
        assert cm.unknown_opcodes == {"mystery-op": 1}

    def test_unknown_cost_error_is_not_a_vm_error(self):
        # a missing table entry must crash the measuring session, not
        # become a "trapped" run verdict
        from repro.vm.errors import VMError
        assert not issubclass(UnknownCostError, VMError)


class TestOccupancyFactor:
    def test_no_penalty_at_or_below_32_registers(self):
        assert occupancy_factor(0) == 1.0
        assert occupancy_factor(32) == 1.0

    def test_monotone_non_decreasing_in_register_pressure(self):
        factors = [occupancy_factor(r) for r in range(0, 300)]
        assert factors == sorted(factors)

    @pytest.mark.parametrize("regs,expected", [
        (33, 1.08), (64, 1.08),     # first cliff
        (65, 1.38), (96, 1.38),
        (97, 1.48), (128, 1.48),
        (129, 1.58), (168, 1.58),
        (169, 1.75), (255, 1.75),   # saturation
    ])
    def test_cliff_boundaries(self, regs, expected):
        assert occupancy_factor(regs) == expected

    def test_penalty_saturates(self):
        assert occupancy_factor(10_000) == occupancy_factor(169)


class TestCostBinding:
    """Costs are charged per *executed* instruction from the run's own
    table: an unpriced opcode is priced (and counted, or refused in
    strict mode) when it executes, never when the program is loaded."""

    SRC = """
    int main() {
      double a = 7.0;
      int n = %d;
      for (int i = 0; i < n; i++) { a = a / 3.0; }
      if (n > 100) { a = a / 5.0; }
      printf("%%.3f\\n", a);
      return 0;
    }
    """

    @staticmethod
    def _without(op):
        costs = dict(DEFAULT_COSTS)
        del costs[op]
        return costs

    def _run(self, trips, cost_model):
        from repro.frontend import compile_source
        from repro.vm import Machine
        m = Machine(compile_source(self.SRC % trips), cost_model=cost_model)
        m.start("main")
        m.run_to_completion()
        return m

    def test_unpriced_opcode_in_a_block_never_executed(self):
        cm = CostModel(costs=self._without("fdiv"), strict=True)
        m = self._run(0, cm)
        assert m.state == "done", m.error
        assert cm.unknown_opcodes == {}

    def test_unpriced_opcode_counted_per_execution(self):
        cm = CostModel(costs=self._without("fdiv"))
        m = self._run(2, cm)
        assert m.state == "done", m.error
        assert cm.unknown_opcodes == {"fdiv": 2}

    def test_strict_model_raises_when_the_opcode_executes(self):
        cm = CostModel(costs=self._without("fdiv"), strict=True)
        with pytest.raises(UnknownCostError, match="fdiv"):
            self._run(2, cm)
        assert cm.unknown_opcodes == {"fdiv": 1}

    def test_rerun_with_another_table_charges_that_table(self):
        # a program run first with the default table and then with a
        # custom one must be charged the custom costs, exactly as a
        # fresh program run only with the custom table
        import repro.workloads  # noqa: F401 — registers all variants
        from repro.oraql.compiler import Compiler
        from repro.workloads.base import get_config

        cfg = get_config("TestSNAP-seq")
        prog = Compiler().compile(cfg)
        default = prog.run()
        custom = prog.run(cost_model=CostModel(costs={"load": 2.0}))
        fresh = Compiler().compile(cfg).run(
            cost_model=CostModel(costs={"load": 2.0}))
        assert custom.cycles == fresh.cycles
        assert custom.cycles != default.cycles
        assert custom.instructions == default.instructions
        assert prog.run().cycles == default.cycles
