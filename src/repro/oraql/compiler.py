"""The compilation entry point the probing driver invokes.

Plays the role of the paper's ``clang -mllvm -opt-aa-seq=...``: MiniC
sources → IR modules → (optional manual LTO link) → optimization
pipeline with the ORAQL pass appended to the AA chain → "executable"
(the optimized module plus codegen artifacts), runnable on the VM.
"""

from __future__ import annotations

import hashlib
import sys
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Type

from ..analysis import DEFAULT_AA_CHAIN
from ..codegen import (
    FunctionCodegen,
    KernelInfo,
    codegen_function,
    compile_kernel,
)
from ..frontend import FrontendOptions, compile_source
from ..ir import Module, function_hash, print_module_header, verify_module
from ..ir.clone import clone_module
from ..passes import (
    AnalysisManager,
    CompilationContext,
    DominatorTreeAnalysis,
    Pass,
    PassManager,
    build_pipeline,
    split_prefix,
)
from ..vm import DEFAULT_COSTS, INTRINSIC_COSTS, Machine, MPIWorld, VMError
from ..vm.decode import CodeTable, DecodedModule, cost_tables
from .config import BenchmarkConfig
from .errors import ReleasedProgramError
from .fnmemo import FunctionMemo, Handover, MemoRun, bypass_reason
from .pass_ import DumpFlags, OraqlAAPass
from .replay import setup_digest
from .sequence import DecisionSequence
from .verify import RunResult


@dataclass
class CompiledProgram:
    """An "executable": the optimized module plus everything needed to
    run it and to report on the compilation.

    ``_module`` is the module as the compile left it: a function the
    function memo replayed has no body until ``handover`` gives it one
    (see :class:`~repro.oraql.fnmemo.Handover`).  The VM reads it and
    takes only the bodies it decodes; :attr:`module` takes them all."""

    config: BenchmarkConfig
    _module: Module
    ctx: CompilationContext
    oraql: Optional[OraqlAAPass]
    kernel_info: Dict[str, KernelInfo]
    codegen: Dict[str, object]
    exe_hash: str
    #: per-function body hashes (module order, every function incl.
    #: declarations); ``exe_hash`` is assembled from these, and they
    #: key the content-addressed codegen cache
    fn_hashes: Dict[str, str] = field(default_factory=dict)
    #: what the function memo did in this compile (see
    #: :mod:`repro.oraql.fnmemo`): ``steps replayed`` and ``functions
    #: materialized``, or ``bypassed (<reason>)`` when it ran no part
    function_memo: Dict[str, int] = field(default_factory=dict)
    #: the compiling session's decoded VM code, shared by body hash
    #: (see :class:`~repro.vm.decode.DecodedModule`); None decodes
    #: every function for this program alone
    shared_code: Optional[dict] = field(default=None, repr=False,
                                        compare=False)
    #: the replayed functions still without a body, or None
    handover: Optional[Handover] = field(default=None, repr=False,
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
        if cost_model is None:
            costs, intrinsics = DEFAULT_COSTS, INTRINSIC_COSTS
        else:
            costs, intrinsics = cost_model.costs, cost_model.intrinsic_costs
        key = cost_tables(costs, intrinsics)
        decoded = self._decoded.get(key)
        if decoded is None:
            decoded = self._decoded[key] = DecodedModule(
                self._module, costs, intrinsics, self.shared_code,
                self.fn_hashes,
                None if self.handover is None else self.handover.take)
        return decoded

    @property
    def module(self) -> Module:
        """The optimized module, every function with its body: the
        first read takes the replayed bodies the program lacks."""
        if self.handover is not None:
            self.handover.take_all()
        return self._module

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
            self.oraql.release()  # the records point into the IR
        if self.handover is not None:
            self.handover.pending = {}
        self._module.drop_all_references()
        self.shared_code = None  # lets the table go with its last holder
        self.released = True

    def __del__(self):
        """The last reference dropped: release the program now rather
        than leave its IR to the cyclic collector — unless its module or
        decoded code is still held from outside, or the program never
        finished construction."""
        if "_decoded" not in vars(self) or self.released \
                or self._held_elsewhere():
            return  # half-built (the last field is unset), or in use
        self.release()

    def _held_elsewhere(self) -> bool:
        """Whether anything besides the program's own IR, context and
        decoded code references its module or its decoded code."""
        module = self._module
        decoded = list(self._decoded.values())
        # this program's field, the local above and getrefcount's argument
        ours = 3 + sum(fn.parent is module
                       for fn in module.functions.values())
        ours += self.ctx.module is module
        ours += sum(d.module is module for d in decoded)
        if sys.getrefcount(module) > ours:
            return True
        for d in decoded:
            # the program's table, the list above, the loop variable,
            # getrefcount's argument and the code's functions
            if sys.getrefcount(d) > 4 + len(d._functions):
                return True
        return False

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
                    Machine(self._module, max_steps=max_steps,
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
            m = Machine(self._module, max_steps=max_steps,
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
        """Per-function pass runs this compile performed (per-TU
        contexts are folded in)."""
        return self.ctx.pass_executions


@dataclass
class KeptPrefix:
    """One unit's module after the query-free prefix of the pipeline
    (:func:`~repro.passes.split_prefix`), kept by a :class:`Compiler`
    for the rest of the session: every compile of the unit runs the
    rest of the pipeline on a copy of it, so no compile changes it.
    ``ctx`` is the prefix's released context, holding its statistics,
    its announcements and its work counters."""

    module: Module
    ctx: CompilationContext

    def drop(self) -> None:
        """Free the module by reference counting (see
        :meth:`Module.drop_all_references`)."""
        self.module.drop_all_references()
        self.ctx.release()


class Compiler:
    """Deterministic compiler: same config + same sequence ⇒ same hash.

    Its settings hold for every ``compile`` call: the CLI's
    ``--verify-analyses`` plumbs through here so the probing drivers
    inherit it."""

    #: the analysis manager of every compile: fine-grained invalidation.
    #: Only the invalidation referee
    #: (:class:`repro.fuzz.oracle.RefereeCompiler`) overrides it.
    analysis_manager: Type[AnalysisManager] = AnalysisManager

    def __init__(self, frontend_options: Optional[FrontendOptions] = None,
                 verify_analyses: bool = False):
        self.frontend_options = frontend_options or FrontendOptions()
        self.verify_analyses = verify_analyses
        #: content-addressed codegen caches: body hash → artifact.  The
        #: key is the *printed body* hash, so hash-identical functions
        #: hash-hit across probes (and across configs compiled by the
        #: same Compiler) without re-lowering
        self._codegen_cache: Dict[Tuple[str, str], FunctionCodegen] = {}
        self._kernel_cache: Dict[Tuple[str, str],
                                 Tuple[int, int, int]] = {}
        #: the current sources' units after the pipeline's query-free
        #: prefix, keyed by (unit sources, opt level).  A session's
        #: probes compile the same sources again and again, and each
        #: compile starts from a copy of these.
        self._kept: Dict[tuple, KeptPrefix] = {}
        #: decoded VM code shared by the programs this Compiler makes,
        #: keyed by (function name, body hash, nargs, cost tables).  A
        #: body hash does not cover the struct layouts a body names, so
        #: the cache is replaced when the sources change, like _kept.
        #: A table frees its code when its last holder drops it.
        self._code = CodeTable()
        #: the function memos of the current sources' units, keyed by
        #: the _kept key plus the ORAQL scope settings; freed with _kept
        self._memos: Dict[tuple, FunctionMemo] = {}
        #: the sources _kept and _code belong to
        self._sources: Tuple[Tuple[str, str], ...] = ()
        #: the hand-overs of live programs whose replayed bodies the
        #: memos hold: they take them before the memos are dropped
        self._handovers: "weakref.WeakSet[Handover]" = weakref.WeakSet()

    @property
    def replay_digest(self) -> str:
        """The setup this compiler's answer logs are valid for (see
        :func:`~repro.oraql.replay.setup_digest`)."""
        return setup_digest(self.frontend_options, self.verify_analyses,
                            self.analysis_manager)

    def compile(self, config: BenchmarkConfig,
                sequence: Optional[DecisionSequence] = None,
                oraql_enabled: bool = False,
                dump: Optional[DumpFlags] = None,
                debug_pass_executions: bool = False,
                override=None,
                trace=None) -> CompiledProgram:
        def timed(name):
            return trace.phase(name) if trace is not None else nullcontext()

        sources = tuple((src.name, src.text) for src in config.sources)
        if sources != self._sources:
            self._switch_sources(sources)

        # 1. ORAQL pass appended to the chain when probing; one pass
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
        chain = tuple(config.aa_chain) if config.aa_chain else DEFAULT_AA_CHAIN
        # which functions ORAQL answers: the baseline records its
        # queries for the functions a probe's ORAQL will answer
        scope = oraql or OraqlAAPass(
            target_filter=config.target_filter,
            probe_functions=config.probe_function_set(),
            probe_files=config.probe_file_set())
        scope_key = (chain, scope.target_filter,
                     _frozen(scope.probe_functions),
                     _frozen(scope.probe_files), scope.cache_enabled)
        # the units optimized on their own: the whole program under
        # manual LTO, which links everything *before* optimization so
        # interprocedural passes see the whole program (§V-A-d); else
        # each translation unit in isolation (no cross-TU inlining or
        # analysis), linked for execution after optimization
        units = ([sources] if config.lto or len(sources) == 1
                 else [(src,) for src in sources])
        keys = [(unit, config.opt_level) for unit in units]

        # 2. frontend: parse and lower the units this session keeps no
        #    prefix of yet; link and verify them
        lowered: Dict[tuple, Module] = {}
        missing = [key for key in keys if key not in self._kept]
        if missing:
            with timed("frontend"):
                modules = [[compile_source(text, name,
                                           options=self.frontend_options)
                            for name, text in unit] for unit, _ in missing]
            for key, (module, *others) in zip(missing, modules):
                for other in others:
                    module.link(other)
                verify_module(module)
                lowered[key] = module

        # 3. the pipeline, per unit: the query-free prefix runs once per
        #    session, on the lowered module, which is then kept; every
        #    compile runs the rest on a copy of the kept module
        contexts: List[CompilationContext] = []
        runs = []
        # the replayed functions of the units so far (see Handover)
        replayed: Dict[str, tuple] = {}
        reason = bypass_reason(trace, oraql, override, debug_pass_executions,
                               self.verify_analyses)
        memo_counts = {} if reason is None else {f"bypassed ({reason})": 1}
        for key in keys:
            # a fresh pipeline per unit: passes may keep per-run state
            prefix, rest = split_prefix(build_pipeline(config.opt_level))
            with timed("passes"):
                kept = self._kept.get(key)
                built = kept is None
                if built:
                    kept = self._keep(key, lowered[key], prefix, trace)
                # under the function memo a function gets a body only
                # when it runs passes or when the pipeline ends
                module = clone_module(kept.module, bodies=reason is not None)
                ctx = self._context(
                    module, aa_chain=chain, oraql=oraql, override=override,
                    debug_pass_executions=debug_pass_executions,
                    trace=trace, analysis_module=kept.module)
                ctx.adopt_prefix(kept.ctx, built)
                if reason is None:
                    memo = self._memos.get(key + scope_key)
                    if memo is None:
                        memo = self._memos[key + scope_key] = FunctionMemo()
                    ctx.memo = MemoRun(
                        memo, ctx, oraql, scope, kept.module,
                        sum(len(c.module.functions) for c in contexts))
                    runs.append(ctx.memo)
                PassManager(ctx).run(rest)
                ctx.memo = None
                if reason is None:
                    replayed.update(runs[-1].replayed)
            # a replayed body is verified when the program takes it
            verify_module(module, partial(ctx.am.cached, DominatorTreeAnalysis),
                          skip=replayed)
            contexts.append(ctx)
        ctx = contexts[0]
        main = ctx.module
        if len(contexts) > 1:
            for other in contexts[1:]:
                main.link(other.module)
            verify_module(main, skip=replayed)
            # fold the per-TU bookkeeping into the first context, which
            # becomes the program's reporting context
            for other in contexts[1:]:
                ctx.merge(other)
                other.release()
            if oraql is not None:
                oraql.attach(ctx)

        # 4. codegen: host statistics + device kernels (Fig. 6 / Fig. 7),
        #    served through the content-addressed per-function cache
        handover = Handover(replayed)
        with timed("codegen"):
            fn_hashes = {name: replayed[name][1].fn_hash if name in replayed
                         else function_hash(fn)
                         for name, fn in main.functions.items()}
            for run in runs:
                run.finish(fn_hashes)
            if runs:
                memo_counts = {
                    "steps replayed": sum(r.steps_replayed for r in runs),
                    "functions materialized": sum(r.materialized
                                                  for r in runs)}
            codegen = self._codegen_cached(main, ctx.stats, fn_hashes,
                                           handover.take)
            kernels = self._kernels_cached(main, fn_hashes, handover.take)
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
        if handover.pending:
            self._handovers.add(handover)
            if oraql is not None:
                oraql.handover = handover
        else:
            handover = None
        return CompiledProgram(config, main, ctx, oraql, kernels, codegen,
                               exe_hash, fn_hashes=fn_hashes,
                               function_memo=memo_counts,
                               shared_code=self._code, handover=handover)

    def _context(self, module: Module, **kwargs) -> CompilationContext:
        """A compilation context under this compiler's settings."""
        return CompilationContext(
            module, verify_analyses=self.verify_analyses,
            analysis_manager=self.analysis_manager, **kwargs)

    def _keep(self, key: tuple, module: Module, prefix: List[Pass],
              trace) -> KeptPrefix:
        """Run the query-free ``prefix`` on a lowered, verified module
        and keep the result under ``key``; a prefix that raises keeps
        nothing.  The context records every announcement, for the
        compiles that announce."""
        ctx = self._context(module, aa_chain=(), debug_pass_executions=True,
                            trace=trace)
        PassManager(ctx).run(prefix)
        ctx.release()
        if ctx.aa.total_queries:
            raise RuntimeError(
                f"the pipeline prefix {[p.name for p in prefix]} issued "
                f"{ctx.aa.total_queries} alias queries: a pass in "
                f"repro.passes.pipelines.QUERY_FREE consults alias "
                f"analysis")
        kept = self._kept[key] = KeptPrefix(module, ctx)
        return kept

    def drop_prefixes(self) -> None:
        """Free the kept prefix modules and the function memos now; the
        next compile of each unit lowers it again.  A live program
        takes the replayed bodies it lacks first (a released one has
        none to take)."""
        for handover in list(self._handovers):
            handover.take_all()
        self._handovers.clear()
        for kept in self._kept.values():
            kept.drop()
        self._kept = {}
        for memo in self._memos.values():
            memo.drop()
        self._memos = {}

    def __del__(self):
        """The last reference dropped: free the kept prefixes and the
        memos' bodies by reference counting rather than leave their IR
        to the cyclic collector (unless construction failed first)."""
        if "_memos" in vars(self):
            self.drop_prefixes()

    def _switch_sources(self, sources: Tuple[Tuple[str, str], ...]) -> None:
        """Drop what belongs to the previous sources: the kept prefixes
        and the decoded-code table, which frees its code once no
        program, decoded module or machine holds it."""
        self.drop_prefixes()
        self._code, self._sources = CodeTable(), sources

    # -- codegen through the content-addressed cache -----------------------
    def _codegen_cached(self, module: Module, stats,
                        fn_hashes: Dict[str, str],
                        take) -> Dict[str, FunctionCodegen]:
        """:func:`~repro.codegen.run_codegen` with a body-hash keyed
        cache; identical selection logic and statistics side effects.
        ``take(fn)`` gives a replayed function its body on a miss."""
        out: Dict[str, FunctionCodegen] = {}
        for fn in module.defined_functions():
            if fn.target != "host":
                continue
            key = (fn_hashes[fn.name], "host")
            cg = self._codegen_cache.get(key)
            if cg is None:
                take(fn)
                cg = codegen_function(fn)
                self._codegen_cache[key] = cg
            out[fn.name] = cg
            stats.add("asm printer", "# machine instructions generated",
                      cg.machine_insts)
            stats.add("register allocation", "# register spills inserted",
                      cg.spills)
        return out

    def _kernels_cached(self, module: Module, fn_hashes: Dict[str, str],
                        take) -> Dict[str, KernelInfo]:
        """:func:`~repro.codegen.compile_device_kernels` with the cache;
        KernelInfo is rebuilt around the function's own name (two
        same-bodied kernels under different names share one entry)."""
        out: Dict[str, KernelInfo] = {}
        for fn in module.defined_functions():
            if fn.target != "nvptx":
                continue
            key = (fn_hashes[fn.name], "kernel:nvptx")
            cached = self._kernel_cache.get(key)
            if cached is None:
                take(fn)
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


def _frozen(names: Optional[set]) -> Optional[frozenset]:
    return None if names is None else frozenset(names)
