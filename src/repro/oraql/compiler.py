"""The compilation entry point the probing driver invokes.

Plays the role of the paper's ``clang -mllvm -opt-aa-seq=...``: MiniC
sources → IR modules → (optional manual LTO link) → optimization
pipeline with the ORAQL pass appended to the AA chain → "executable"
(the optimized module plus codegen artifacts), runnable on the VM.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..analysis import DEFAULT_AA_CHAIN
from ..codegen import (
    FunctionCodegen,
    KernelInfo,
    codegen_function,
    compile_kernel,
)
from ..frontend import (
    FrontendOptions,
    TranslationUnit,
    compile_source,
    parse,
)
from ..ir import Module, function_hash, print_module_header, verify_module
from ..passes import (
    CompilationContext,
    DominatorTreeAnalysis,
    PassManager,
    build_pipeline,
)
from ..vm import DEFAULT_COSTS, Machine, MPIWorld, VMError
from ..vm.decode import DecodedModule
from .config import BenchmarkConfig
from .errors import ReleasedProgramError
from .pass_ import DumpFlags, OraqlAAPass
from .sequence import DecisionSequence
from .verify import RunResult


@dataclass
class CompiledProgram:
    """An "executable": the optimized module plus everything needed to
    run it and to report on the compilation."""

    config: BenchmarkConfig
    module: Module
    ctx: CompilationContext
    oraql: Optional[OraqlAAPass]
    kernel_info: Dict[str, KernelInfo]
    codegen: Dict[str, object]
    exe_hash: str
    #: per-function body hashes (module order, every function incl.
    #: declarations); ``exe_hash`` is assembled from these, and they
    #: key the content-addressed codegen cache
    fn_hashes: Dict[str, str] = field(default_factory=dict)
    #: the compiling session's decoded VM code, shared by body hash
    #: (see :class:`~repro.vm.decode.DecodedModule`); None decodes
    #: every function for this program alone
    shared_code: Optional[dict] = field(default=None, repr=False,
                                        compare=False)
    #: decoded VM code per cost table (see :meth:`decoded`)
    _decoded: Dict[tuple, DecodedModule] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: set by :meth:`release`
    released: bool = field(default=False, init=False, compare=False)

    # -- execution ---------------------------------------------------------
    def run(self, fuel: Optional[int] = None,
            wall_clock: Optional[float] = None,
            cost_model=None) -> RunResult:
        """Execute the program on the VM.

        ``fuel`` overrides the config's instruction budget and
        ``wall_clock`` arms a per-run wall-clock deadline — the probing
        runtime's per-test budgets (a miscompiled binary may loop
        forever; the budget turns that into a ``step-limit`` triage
        instead of a hung driver).  ``cost_model`` overrides the VM's
        default :class:`~repro.vm.CostModel` — measurement sessions pass
        a strict model so unpriced operations crash loudly instead of
        silently distorting cycle deltas."""
        self._check_live("run")
        cfg = self.config
        max_steps = cfg.max_steps if fuel is None else fuel
        trace = self.ctx.trace
        with (trace.phase("vm-run") if trace is not None
              else nullcontext()):
            return self._run(cfg, max_steps, wall_clock, cost_model)

    def decoded(self, cost_model=None) -> DecodedModule:
        """The module decoded for the VM against ``cost_model``'s table
        (default: the default table), decoded once per table and shared
        by every run and MPI rank of this program."""
        self._check_live("decode")
        costs = cost_model.costs if cost_model is not None else DEFAULT_COSTS
        key = tuple(sorted(costs.items()))
        decoded = self._decoded.get(key)
        if decoded is None:
            decoded = self._decoded[key] = DecodedModule(
                self.module, costs, self.shared_code, self.fn_hashes)
        return decoded

    def release(self) -> None:
        """Free the program's IR, its compilation context and its
        decoded VM code by reference counting, now rather than at the
        next full collection: each of them is cyclic, so this breaks
        their cycles at their owners.  ``exe_hash``, ``fn_hashes``,
        statistics and counters stay readable; :meth:`run` and
        :meth:`decoded` raise :class:`ReleasedProgramError`."""
        if self.released:
            return
        for decoded in self._decoded.values():
            decoded.release()
        self._decoded.clear()
        self.ctx.release()
        if self.oraql is not None:
            self.oraql.records.clear()  # they point into the IR
        self.module.drop_all_references()
        self.released = True

    def _check_live(self, what: str) -> None:
        if self.released:
            raise ReleasedProgramError(
                f"cannot {what} the {self.config.name} program "
                f"{self.exe_hash[:12]}: it was released after its "
                f"verdict was booked")

    def _run(self, cfg: BenchmarkConfig, max_steps: int,
             wall_clock: Optional[float], cost_model=None) -> RunResult:
        decoded = self.decoded(cost_model)
        try:
            if cfg.nranks > 1:
                machines = [
                    Machine(self.module, max_steps=max_steps,
                            cost_model=cost_model,
                            kernel_info=self.kernel_info,
                            num_threads=cfg.num_threads, argv=cfg.argv,
                            wall_clock=wall_clock, decoded=decoded)
                    for _ in range(cfg.nranks)
                ]
                for m in machines:
                    m.start(cfg.entry)
                MPIWorld(machines).run()
                state = ("done" if all(m.state == "done" for m in machines)
                         else "trapped")
                first_error = next((m.error for m in machines
                                    if m.error is not None), None)
                err = str(first_error) if first_error is not None else None
                kind = (type(first_error).__name__
                        if first_error is not None else None)
                out = "".join(m.output() for m in machines)
                insts = sum(m.instructions for m in machines)
                cycles = max(m.cycles for m in machines)
                kcycles: Dict[str, float] = {}
                for m in machines:
                    for k, v in m.kernel_cycles.items():
                        kcycles[k] = kcycles.get(k, 0.0) + v
                return RunResult(out, state, err, insts, cycles, kcycles,
                                 error_kind=kind)
            m = Machine(self.module, max_steps=max_steps,
                        cost_model=cost_model,
                        kernel_info=self.kernel_info,
                        num_threads=cfg.num_threads, argv=cfg.argv,
                        wall_clock=wall_clock, decoded=decoded)
            m.start(cfg.entry)
            m.run_to_completion()
            return RunResult(m.output(), m.state,
                             str(m.error) if m.error else None,
                             m.instructions, m.cycles, dict(m.kernel_cycles),
                             error_kind=(type(m.error).__name__
                                         if m.error else None))
        except VMError as e:  # scheduler-level failures (deadlock)
            return RunResult("", "trapped", str(e),
                             error_kind=type(e).__name__)

    # -- reporting -----------------------------------------------------------
    @property
    def stats(self):
        return self.ctx.stats

    @property
    def no_alias_count(self) -> int:
        return self.ctx.aa.no_alias_count

    @property
    def analysis_counters(self) -> Dict[str, Dict[str, int]]:
        """AnalysisManager bookkeeping: builds / cache hits / rebuilds
        avoided by fine-grained invalidation, per analysis name."""
        return self.ctx.am.counters()

    @property
    def pass_executions(self) -> int:
        """Pass executions this compile performed (per-function runs +
        module-pass runs; per-TU contexts are folded in)."""
        return self.ctx.pass_executions


class Compiler:
    """Deterministic compiler: same config + same sequence ⇒ same hash.

    ``verify_analyses`` and ``invalidation`` set per-instance defaults
    for every ``compile`` call (the CLI's ``--verify-analyses`` plumbs
    through here so the probing drivers inherit it)."""

    def __init__(self, frontend_options: Optional[FrontendOptions] = None,
                 verify_analyses: bool = False,
                 invalidation: str = "fine"):
        self.frontend_options = frontend_options or FrontendOptions()
        self.verify_analyses = verify_analyses
        self.invalidation = invalidation
        #: content-addressed codegen caches: body hash → artifact.  The
        #: key is the *printed body* hash, so hash-identical functions
        #: hash-hit across probes (and across configs compiled by the
        #: same Compiler) without re-lowering
        self._codegen_cache: Dict[Tuple[str, str], FunctionCodegen] = {}
        self._kernel_cache: Dict[Tuple[str, str],
                                 Tuple[int, int, int]] = {}
        #: parsed units of the last compiled config's sources, keyed by
        #: ``(filename, text)``.  A session's probes compile the same
        #: sources again and again, and lowering leaves a unit
        #: unchanged, so each compile only lowers.  Replaced per config:
        #: a Compiler reused across configs (``--fig 4``, the fuzz
        #: campaign) holds only the current one's units.
        self._units: Dict[Tuple[str, str], TranslationUnit] = {}
        #: decoded VM code shared by the programs this Compiler makes,
        #: keyed by (function name, body hash, nargs, cost table).  A
        #: body hash does not cover the struct layouts a body names, so
        #: the cache is replaced when the sources change, like _units.
        self._code: dict = {}
        self._code_sources: Tuple[Tuple[str, str], ...] = ()

    def compile(self, config: BenchmarkConfig,
                sequence: Optional[DecisionSequence] = None,
                oraql_enabled: bool = False,
                dump: Optional[DumpFlags] = None,
                debug_pass_executions: bool = False,
                suppress_chain: bool = False,
                override=None,
                verify_analyses: Optional[bool] = None,
                invalidation: Optional[str] = None,
                trace=None) -> CompiledProgram:
        if verify_analyses is None:
            verify_analyses = self.verify_analyses
        if invalidation is None:
            invalidation = self.invalidation

        def timed(name):
            return trace.phase(name) if trace is not None else nullcontext()

        # 1. frontend: one module per translation unit, lowered from
        #    the unit parsed once per session
        modules: List[Module] = []
        with timed("frontend"):
            for tu, src in zip(self._parsed(config), config.sources):
                modules.append(compile_source(tu, src.name,
                                              options=self.frontend_options))

        # 2. ORAQL pass appended to the chain when probing; one pass
        #    instance is shared across translation units so the decision
        #    sequence is consumed in deterministic source order
        oraql: Optional[OraqlAAPass] = None
        if oraql_enabled:
            # a reused sequence object must answer from the top: unique-
            # query indices are positions in the decision stream, and a
            # sequence carried over from a previous compile (a report's
            # final_sequence measured again by the importance driver)
            # would shift the whole index space by its consumed count,
            # silently detaching provenance from the real queries
            if sequence is not None:
                sequence.reset()
            oraql = OraqlAAPass(
                sequence=sequence if sequence is not None
                else DecisionSequence(),
                target_filter=config.target_filter,
                probe_functions=config.probe_function_set(),
                probe_files=config.probe_file_set(),
                dump=dump,
            )
        # override mode (paper §VIII): force chain answers pessimistic
        if suppress_chain and override is None:
            from .override import OraqlOverridePass
            override = OraqlOverridePass(DecisionSequence())

        chain = tuple(config.aa_chain) if config.aa_chain else DEFAULT_AA_CHAIN
        pipeline = build_pipeline(config.opt_level)

        if config.lto or len(modules) == 1:
            # 3a. manual LTO: link everything into one module *before*
            #     optimization so interprocedural passes see the whole
            #     program (§V-A-d)
            main = modules[0]
            for other in modules[1:]:
                main.link(other)
            verify_module(main)
            ctx = CompilationContext(
                main, aa_chain=chain, oraql=oraql, override=override,
                debug_pass_executions=debug_pass_executions,
                verify_analyses=verify_analyses, invalidation=invalidation,
                trace=trace)
            with timed("passes"):
                PassManager(ctx).run(pipeline)
            verify_module(main, partial(ctx.am.cached, DominatorTreeAnalysis))
        else:
            # 3b. non-LTO: optimize each translation unit in isolation
            #     (no cross-TU inlining or analysis), then link the
            #     optimized modules for execution
            contexts: List[CompilationContext] = []
            for module in modules:
                verify_module(module)
                mctx = CompilationContext(
                    module, aa_chain=chain, oraql=oraql, override=override,
                    debug_pass_executions=debug_pass_executions,
                    verify_analyses=verify_analyses,
                    invalidation=invalidation, trace=trace)
                # a fresh pipeline per TU: passes may keep per-run state
                with timed("passes"):
                    PassManager(mctx).run(build_pipeline(config.opt_level))
                verify_module(module,
                              partial(mctx.am.cached, DominatorTreeAnalysis))
                contexts.append(mctx)
            main = modules[0]
            for other in modules[1:]:
                main.link(other)
            verify_module(main)
            # fold the per-TU bookkeeping into the first context, which
            # becomes the program's reporting context
            ctx = contexts[0]
            for other_ctx in contexts[1:]:
                ctx.merge(other_ctx)
                other_ctx.release()
            if oraql is not None:
                oraql.attach(ctx)

        # 4. codegen: host statistics + device kernels (Fig. 6 / Fig. 7),
        #    served through the content-addressed per-function cache
        with timed("codegen"):
            fn_hashes = {name: function_hash(fn)
                         for name, fn in main.functions.items()}
            codegen = self._codegen_cached(main, ctx.stats, fn_hashes)
            kernels = self._kernels_cached(main, fn_hashes)
        for name, ki in kernels.items():
            ctx.stats.add("asm printer", "# machine instructions generated",
                          ki.machine_insts)

        exe_hash = self._hash(main, kernels, fn_hashes)
        if dump is not None and dump.any():
            # per-function body hashes: which function made two
            # executables' hashes differ
            for name, fh in fn_hashes.items():
                ctx.log(f"[fn-hash] {name} {fh}")
        if trace is not None:
            trace.record_stats(ctx.stats)
        sources = tuple((src.name, src.text) for src in config.sources)
        if sources != self._code_sources:
            self._code, self._code_sources = {}, sources
        return CompiledProgram(config, main, ctx, oraql, kernels, codegen,
                               exe_hash, fn_hashes=fn_hashes,
                               shared_code=self._code)

    def _parsed(self, config: BenchmarkConfig) -> List[TranslationUnit]:
        """The parsed unit of each of ``config``'s sources, parsing only
        the ones the last compiled config did not have."""
        units: Dict[Tuple[str, str], TranslationUnit] = {}
        for src in config.sources:
            key = (src.name, src.text)
            tu = units.get(key) or self._units.get(key)
            if tu is None:
                tu = parse(src.text, src.name, unit_name=src.name)
            units[key] = tu
        self._units = units
        return [units[src.name, src.text] for src in config.sources]

    # -- codegen through the content-addressed cache -----------------------
    def _codegen_cached(self, module: Module, stats, fn_hashes:
                        Dict[str, str],
                        target: str = "host") -> Dict[str, FunctionCodegen]:
        """:func:`~repro.codegen.run_codegen` with a body-hash keyed
        cache; identical selection logic and statistics side effects."""
        out: Dict[str, FunctionCodegen] = {}
        for fn in module.defined_functions():
            if fn.target != target:
                continue
            key = (fn_hashes[fn.name], target)
            cg = self._codegen_cache.get(key)
            if cg is None:
                cg = codegen_function(fn)
                self._codegen_cache[key] = cg
            out[fn.name] = cg
            stats.add("asm printer", "# machine instructions generated",
                      cg.machine_insts)
            stats.add("register allocation", "# register spills inserted",
                      cg.spills)
        return out

    def _kernels_cached(self, module: Module, fn_hashes: Dict[str, str],
                        target: str = "nvptx") -> Dict[str, KernelInfo]:
        """:func:`~repro.codegen.compile_device_kernels` with the cache;
        KernelInfo is rebuilt around the function's own name (two
        same-bodied kernels under different names share one entry)."""
        out: Dict[str, KernelInfo] = {}
        for fn in module.defined_functions():
            if fn.target != target:
                continue
            key = (fn_hashes[fn.name], f"kernel:{target}")
            cached = self._kernel_cache.get(key)
            if cached is None:
                ki = compile_kernel(fn)
                self._kernel_cache[key] = (ki.registers, ki.stack_bytes,
                                           ki.machine_insts)
            else:
                regs, stack, insts = cached
                ki = KernelInfo(fn.name, regs, stack, insts)
            out[fn.name] = ki
        return out

    @staticmethod
    def _hash(module: Module, kernels: Dict[str, KernelInfo],
              fn_hashes: Dict[str, str]) -> str:
        """The executable hash: module header text, then the
        per-function body hashes in module order, then the kernel
        properties.  Each body is printed once, for ``fn_hashes``,
        which the codegen cache keys on too."""
        h = hashlib.sha256(print_module_header(module).encode())
        for name, fh in fn_hashes.items():
            h.update(f"{name}={fh}\n".encode())
        for name in sorted(kernels):
            ki = kernels[name]
            h.update(f"{name}:{ki.registers}:{ki.stack_bytes}".encode())
        return h.hexdigest()
