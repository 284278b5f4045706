"""The function memo: a compile runs the pipeline only on functions
whose ORAQL answers are new.

Every probe of a session compiles the same kept prefix (see
:class:`~repro.oraql.compiler.KeptPrefix`) again, and the ORAQL answers
are the only input that varies between those compiles (paper §IV-A/B).
A function's rest of the pipeline is a pure function of its prefix body
and of the answers it gets, in order:

* every pass is a function pass and never reaches the module;
* function attributes are set by the frontend only;
* analysis caches are per function, and GlobalsAA fixes its verdicts
  when the chain is built;
* pass instances keep no state from one function to the next.

So the memo keeps, per function, a trie whose levels are the pipeline's
steps (one pass on the function) and whose edges are the answers the
step got.  Each edge records the step's ORAQL interactions (the pointer
pair in a compile-stable form, the answer, the issuing pass) and its
effects on the compile's shared state: the ``Statistics`` adds, the
``AAResults`` counters, the analysis manager's gets and invalidations,
and whether the pass ran.  A path that reaches the end of the pipeline
holds the final body, its ``fn_hash`` and the locations of its queries.

In a compile every function starts *virtual*: at each step, its
recorded interactions are resolved against the live ORAQL without
changing it (a peek into the sequence, a lookup in the cache).  If the
answers follow an edge, the step is committed — the queries are
answered for real, so indices, the cache, the Fig. 4 counters and the
records move exactly as if the pass had run, and the recorded effects
are applied.  If no edge matches, the function *materializes*: its
prefix body re-runs the steps so far with the recorded answers and
every effect discarded, and from there it runs live and records a new
branch.  A function still virtual when the pipeline ends is *replayed*:
its hash is the stored path end's, and the program gets the stored
body (moved or copied) only when something reads it (see
:class:`Handover`).  Answers, executables, counters and records are
those of a compile without the memo; only the work differs.

Compiles that observe the pipeline from inside bypass the memo (see
:func:`bypass_reason`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.aliasing import AliasResult
from ..ir.clone import clone_body, move_body
from ..ir.function import Function
from ..ir.values import GlobalVariable
from ..ir.verifier import verify_function
from ..passes.statistics import Statistics
from .errors import ProbingError
from .verify import TRIAGE_COMPILER_ERROR

_NO = AliasResult.NO
_MAY = AliasResult.MAY
#: pointers named the same in every compile: numbered by name, per
#: unit; every other pointer is numbered within its function in the
#: order the queries first name it
_NAMED = (GlobalVariable, Function)
#: set in the numbers of named pointers
_NAMED_BIT = 1 << 62


class FunctionMemoError(ProbingError):
    """A function re-running its recorded steps asked a different query
    than the memo recorded: the pipeline is not deterministic, and the
    compile stops instead of guessing."""

    def __init__(self, message: str):
        super().__init__(message, triage=TRIAGE_COMPILER_ERROR)


def bypass_reason(trace, oraql, override, announce: bool,
                  verify_analyses: bool) -> Optional[str]:
    """Why a compile must run every pass itself, or None.  Each reason
    observes the steps one by one: a trace that keeps per-step events
    (a timer-only trace, or a service job's coarse event stream, does
    not), ORAQL dumps, the override pass, announced pass executions,
    and the per-step analysis verifier.  (Only the
    :class:`~repro.oraql.compiler.Compiler` runs the memo, and it never
    verifies each step's IR.)"""
    if trace is not None and trace.observes_steps:
        return "trace"
    if oraql is not None and oraql.wants_dump():
        return "dump"
    if override is not None:
        return "override"
    if announce:
        return "announce"
    if verify_analyses:
        return "verify-analyses"
    return None


class Node:
    """A function's state before one step (or after the last): the
    edges recorded from it, and at the end of the pipeline the stored
    result."""

    __slots__ = ("edges", "end")

    def __init__(self):
        self.edges: List[Edge] = []
        self.end: Optional[PathEnd] = None


class Edge:
    """One step as a compile recorded it: its ORAQL interactions (cache
    key, answer and issuing pass of each) and its effects on shared
    state; None stands for no effect."""

    __slots__ = ("keys", "answers", "passes", "ran", "stats", "aa", "am",
                 "child")

    def __init__(self, keys=(), answers=(), passes=(), ran=False,
                 stats=None, aa=None, am=None):
        self.keys = keys
        self.answers = answers
        self.passes = passes
        self.ran = ran
        #: ``Statistics`` adds, in order
        self.stats = stats
        #: ``AAResults`` counter deltas: total, no-alias, must-alias,
        #: no-alias by analysis, queries by issuer
        self.aa = aa
        #: analysis-manager events (see ``AnalysisManager.events``)
        self.am = am
        self.child = Node()


class Body:
    """A final body the memo holds, shared by the path ends that end
    with it.  ``fn`` is the function of the last program that got the
    body; it is ``held``, so its program's release leaves it whole, and
    the next program that takes it moves it out of a released program
    instead of copying it."""

    __slots__ = ("fn", "ends")

    def __init__(self, fn: Function):
        self.fn = fn
        self.ends: List[PathEnd] = []
        fn.held = True

    def give(self, dst: Function) -> None:
        """Give ``dst`` the body, which ``dst`` holds from now on: moved
        out of a released program's function, else copied.  The path
        ends' locations follow the body."""
        src = self.fn
        src.held = False
        self.fn = dst
        dst.held = True
        if src.parent is None:
            move_body(src, dst)
            return
        vmap = clone_body(src, dst)
        for end in self.ends:
            end.locs = [None if loc is None else
                        (_moved(loc[0], vmap), _moved(loc[1], vmap))
                        for loc in end.locs]


class PathEnd:
    """A function after the whole pipeline: the body, its hash, and the
    locations of the queries on the path whose records may render them
    (see ``MemoRun.answer``)."""

    __slots__ = ("body", "fn_hash", "locs")

    def __init__(self, body: Body, fn_hash: str, locs: list):
        self.body = body
        self.fn_hash = fn_hash
        self.locs = locs
        body.ends.append(self)


class Handover:
    """The replayed functions of one program that have no body yet:
    name -> (function, path end, the function's committed records and
    their query positions).  The program takes a body only when it is
    read: the VM decodes a function the session's code table lacks,
    codegen misses its cache, or the module or the ORAQL records are
    read (the pessimistic records take only the functions they name).
    A body is verified when it is taken; the compile verified only the
    functions it ran live."""

    __slots__ = ("pending", "__weakref__")

    def __init__(self, pending: Dict[str, tuple]):
        self.pending = pending

    def take(self, fn: Function) -> None:
        """Give ``fn`` its replayed body, if it waits for one."""
        entry = self.pending.pop(fn.name, None)
        if entry is not None:
            _hand_over(*entry)

    def take_named(self, names) -> None:
        """Give each waiting function named in ``names`` its body, in
        module order."""
        pending = self.pending
        for name in [name for name in pending if name in names]:
            _hand_over(*pending.pop(name))

    def take_all(self) -> None:
        """Give every waiting function its body, in module order."""
        pending, self.pending = self.pending, {}
        for entry in pending.values():
            _hand_over(*entry)


def _hand_over(fn: Function, end: "PathEnd", records: list) -> None:
    """``fn`` gets ``end``'s body, verified, and its records point into
    it, as they would without the memo."""
    end.body.give(fn)
    for rec, pos in records:
        rec.a, rec.b = end.locs[pos]
    verify_function(fn)


class FunctionMemo:
    """The tries of one unit's functions under one ORAQL scope, for the
    session of a :class:`~repro.oraql.compiler.Compiler`."""

    def __init__(self):
        self.roots: Dict[str, Node] = {}
        #: (name, fn_hash) -> the body the path ends with that result
        #: share
        self.bodies: Dict[tuple, Body] = {}
        #: global or function name -> its number in query keys
        self.names: Dict[str, int] = {}

    def drop(self) -> None:
        """Free the held bodies by reference counting; a body still in
        a live program goes with that program."""
        for body in self.bodies.values():
            fn = body.fn
            fn.held = False
            if fn.parent is None:
                fn.drop_all_references()
            body.ends = []  # they point back at the body
        self.bodies = {}
        self.roots = {}


class _FnState:
    """One function during one compile."""

    __slots__ = ("fn", "in_scope", "base", "node", "path", "queries",
                 "sim", "pending", "rec", "numbers", "locs", "seen",
                 "script", "keys", "answers", "passes")

    def __init__(self, fn: Function, root: Node, in_scope: bool,
                 slot: int):
        self.fn = fn
        self.in_scope = in_scope
        #: added to the function's pointer numbers: keys of different
        #: functions, in any unit of the compile, never meet
        self.base = slot << 32
        #: virtual: the node before the next step; None once live
        self.node: Optional[Node] = root
        #: virtual: the edges followed so far
        self.path: List[Edge] = []
        #: virtual: the number of queries on the path so far
        self.queries = 0
        #: virtual: analysis id -> epoch it was cached at
        self.sim: Dict[type, int] = {}
        #: virtual: (record, query position) of committed unique queries
        self.pending: list = []
        #: live: the node the next recorded edge starts from
        self.rec: Optional[Node] = None
        #: live: pointer id -> number
        self.numbers: Dict[int, int] = {}
        #: live: (a, b) of every query on the path whose key is new on
        #: it, None for the others (see ``MemoRun.answer``)
        self.locs: list = []
        #: live: the keys on the path
        self.seen: set = set()
        #: materializing: the recorded (key, answer) of every query
        self.script: Optional[list] = None
        #: live: the step being recorded
        self.keys: list = []
        self.answers: list = []
        self.passes: list = []


class MemoRun:
    """The memo in one compile of one unit.  It runs the pipeline for
    :meth:`PassManager.run <repro.passes.PassManager.run>`, and stands
    in for ORAQL at the end of the chain (``ctx.aa.oraql``) to record
    what live functions ask.

    ``ctx``'s module is a copy of the kept ``prefix`` module without
    bodies; ``oraql`` is the live ORAQL pass (None for the baseline,
    whose queries all get may-alias) and ``scope`` the pass whose
    ``applies_to`` says which functions ORAQL answers.  The unit's
    functions take the slots from ``first_slot`` on, the compile's
    earlier units the ones below (see ``_FnState.base``)."""

    name = "oraql-aa"

    def __init__(self, memo: FunctionMemo, ctx, oraql, scope, prefix,
                 first_slot: int):
        self.memo = memo
        self.first_slot = first_slot
        self.ctx = ctx
        self.oraql = oraql
        self.scope = scope
        #: the module whose bodies a materializing function starts from
        self.prefix = prefix
        #: name -> number of the unit's globals and functions
        self.named: Dict[str, int] = {}
        #: whether a key's later queries on a path are cache hits
        self.cached = scope.cache_enabled
        self.states: List[_FnState] = []
        self.cur: Optional[_FnState] = None
        #: the functions that end virtual, as :class:`Handover` holds
        #: them
        self.replayed: Dict[str, tuple] = {}
        self.steps_replayed = 0
        self.materialized = 0

    # -- the pipeline --------------------------------------------------------
    def run(self, pm, pipeline) -> None:
        """Run ``pipeline`` (the rest after the kept prefix) with
        ``pm``'s steps, pass by pass as ``PassManager.run`` does."""
        ctx = self.ctx
        roots = self.memo.roots
        for slot, fn in enumerate(ctx.module.defined_functions(),
                                  self.first_slot):
            root = roots.get(fn.name)
            if root is None:
                root = roots[fn.name] = Node()
            self.states.append(_FnState(fn, root, self.scope.applies_to(fn),
                                        slot))
        ctx.aa.oraql = self
        try:
            for p in pipeline:
                for st in self.states:
                    if st.node is not None:
                        edge = next((e for e in st.node.edges
                                     if self._follows(e)), None)
                        if edge is not None:
                            self._commit(st, edge)
                            continue
                        self._materialize(pm, pipeline, st)
                    self._record(pm, p, st)
            for st in self.states:
                if st.node is None:
                    continue
                end = st.node.end
                if end is None:  # its recording compile did not finish
                    self._materialize(pm, pipeline, st)
                    continue
                self.replayed[st.fn.name] = (st.fn, end, st.pending)
        finally:
            ctx.aa.oraql = self.oraql

    def finish(self, fn_hashes: Dict[str, str]) -> None:
        """The compile's function hashes are known: store the path ends
        of the functions that ran live.  Path ends with the same result
        share one body, the first."""
        bodies = self.memo.bodies
        for st in self.states:
            if st.node is not None or st.rec.end is not None:
                continue
            fn = st.fn
            fn_hash = fn_hashes[fn.name]
            body = bodies.get((fn.name, fn_hash))
            locs = st.locs
            if body is None:
                body = bodies[(fn.name, fn_hash)] = Body(fn)
            elif locs:
                vmap = _counterparts(fn, body.fn)
                locs = [None if loc is None else
                        (_moved(loc[0], vmap), _moved(loc[1], vmap))
                        for loc in locs]
            st.rec.end = PathEnd(body, fn_hash, locs)
        self.states = []

    # -- virtual functions ----------------------------------------------------
    def _follows(self, edge: Edge) -> bool:
        """Whether the live ORAQL would give the edge's answers to its
        queries, without changing it."""
        keys = edge.keys
        if not keys:
            return True
        oraql = self.oraql
        if oraql is None:
            return not any(edge.answers)
        seq = oraql.sequence
        i = seq.consumed
        if not oraql.cache_enabled:
            for ans in edge.answers:
                if seq.peek(i) != ans:
                    return False
                i += 1
            return True
        cache = oraql.cache
        fresh: Dict[object, bool] = {}
        for key, ans in zip(keys, edge.answers):
            hit = cache.get(key)
            if hit is not None:
                got = hit[0]
            else:
                got = fresh.get(key)
                if got is None:
                    got = fresh[key] = seq.peek(i)
                    i += 1
            if got != ans:
                return False
        return True

    def _commit(self, st: _FnState, edge: Edge) -> None:
        """Take a step the function's answers follow: ask its queries
        for real and apply its effects."""
        st.path.append(edge)
        st.node = edge.child
        if not edge.ran:
            return
        ctx = self.ctx
        ctx.pass_executions += 1
        self.steps_replayed += 1
        oraql = self.oraql
        if edge.keys and oraql is not None:
            records = oraql.records
            name = st.fn.name
            pos = st.queries
            for key, pass_name in zip(edge.keys, edge.passes):
                n = len(records)
                oraql.decide(key, None, None, name, pass_name)
                if len(records) > n:
                    st.pending.append((records[-1], pos))
                pos += 1
        st.queries += len(edge.keys)
        if edge.stats is not None:
            counters = ctx.stats.counters
            for key, n in edge.stats:
                counters[key] += n
        if edge.aa is not None:
            aa = ctx.aa
            total, no_alias, must, by_pass, by_issuer = edge.aa
            aa.total_queries += total
            aa.no_alias_count += no_alias
            aa.must_alias_count += must
            aa.no_alias_by_pass.update(by_pass)
            aa.queries_by_issuer.update(by_issuer)
        if edge.am is not None:
            am = ctx.am
            sim = st.sim
            for ev in edge.am:
                if ev.__class__ is tuple:
                    analysis_id, built = ev
                    if built:
                        am.builds[analysis_id.name] += 1
                        sim[analysis_id] = am.epoch
                    else:
                        am.cache_hits[analysis_id.name] += 1
                        if sim[analysis_id] < am.epoch:
                            am.preserved_hits[analysis_id.name] += 1
                else:
                    am.epoch += 1
                    for analysis_id in list(sim):
                        if ev is None or not ev.preserves(analysis_id):
                            del sim[analysis_id]

    def _materialize(self, pm, pipeline, st: _FnState) -> None:
        """Re-run the steps the virtual function took so far on its
        prefix body, with the recorded answers and every effect on
        shared state discarded; the function is live afterwards."""
        ctx, aa, am = self.ctx, self.ctx.aa, self.ctx.am
        fn = st.fn
        saved = (ctx.stats, ctx.pass_executions, aa.total_queries,
                 aa.no_alias_count, aa.must_alias_count,
                 aa.no_alias_by_pass.copy(), aa.queries_by_issuer.copy(),
                 am.epoch, am.builds.copy(), am.cache_hits.copy(),
                 am.preserved_hits.copy())
        ctx.stats = Statistics()
        clone_body(self.prefix.functions[fn.name], fn)
        st.script = [qa for e in st.path for qa in zip(e.keys, e.answers)]
        self.cur = st
        try:
            for p, edge in zip(pipeline, st.path):
                if bool(p.should_run_on(fn)) != edge.ran:
                    raise FunctionMemoError(
                        f"function memo: '{p.display_name}' on "
                        f"@{fn.name} did not {'run' if edge.ran else 'skip'}"
                        f" as recorded")
                if edge.ran:
                    pm.step(p, fn)
            if len(st.locs) != len(st.script):
                raise FunctionMemoError(
                    f"function memo: @{fn.name} asked {len(st.locs)} of "
                    f"its {len(st.script)} recorded queries")
        finally:
            st.script = None
            (ctx.stats, ctx.pass_executions, aa.total_queries,
             aa.no_alias_count, aa.must_alias_count, aa.no_alias_by_pass,
             aa.queries_by_issuer, am.epoch, am.builds, am.cache_hits,
             am.preserved_hits) = saved
        # the analyses the function keeps are the ones it would have,
        # cached at the epochs the committed steps gave them
        if not am.restamp(fn, st.sim):
            raise FunctionMemoError(
                f"function memo: @{fn.name} re-ran to other cached "
                f"analyses than {sorted(a.name for a in st.sim)}")
        for rec, pos in st.pending:
            rec.a, rec.b = st.locs[pos]
        st.rec, st.node = st.node, None
        st.path = st.pending = st.sim = None
        self.materialized += 1

    # -- live functions ---------------------------------------------------------
    def _record(self, pm, p, st: _FnState) -> None:
        """Run step ``p`` on a live function and record it as an edge."""
        fn = st.fn
        if not p.should_run_on(fn):
            edge = Edge()
        else:
            ctx = self.ctx
            aa, am, stats = ctx.aa, ctx.am, ctx.stats
            total, no_alias, must = (aa.total_queries, aa.no_alias_count,
                                     aa.must_alias_count)
            by_pass = dict(aa.no_alias_by_pass)
            by_issuer = dict(aa.queries_by_issuer)
            stats.journal = journal = []
            am.events = events = []
            st.keys, st.answers, st.passes = [], [], []
            self.cur = st
            try:
                pm.step(p, fn)
            finally:
                stats.journal = am.events = None
            delta = None
            if aa.total_queries != total:
                delta = (aa.total_queries - total,
                         aa.no_alias_count - no_alias,
                         aa.must_alias_count - must,
                         _since(aa.no_alias_by_pass, by_pass),
                         _since(aa.queries_by_issuer, by_issuer))
            edge = Edge(tuple(st.keys), tuple(st.answers), tuple(st.passes),
                        True, tuple(journal) or None, delta,
                        tuple(events) or None)
        st.rec.edges.append(edge)
        st.rec = edge.child

    def answer(self, a, b, fn, issuing_pass: str) -> AliasResult:
        """A query that reached the end of the chain, from the current
        function: answered by ORAQL (may-alias without it, or from the
        recorded answers while materializing) and recorded."""
        st = self.cur
        if not st.in_scope:
            return _MAY
        x, y = self._number(st, a.ptr), self._number(st, b.ptr)
        key = (x << 64 | y) if x <= y else (y << 64 | x)
        # a key's later queries on the path hit the cache, so no record
        # will ever render their locations
        if key in st.seen and self.cached:
            loc = None
        else:
            st.seen.add(key)
            loc = (a, b)
        script = st.script
        if script is not None:
            pos = len(st.locs)
            if pos >= len(script) or script[pos][0] != key:
                raise FunctionMemoError(
                    f"function memo: query {pos} of @{fn.name} "
                    f"({issuing_pass}) differs from the recorded one")
            st.locs.append(loc)
            return _NO if script[pos][1] else _MAY
        oraql = self.oraql
        r = (_MAY if oraql is None
             else oraql.decide(key, a, b, fn.name, issuing_pass))
        st.keys.append(key)
        st.answers.append(r is _NO)
        st.passes.append(issuing_pass)
        st.locs.append(loc)
        return r

    def _number(self, st: _FnState, v) -> int:
        """The pointer's number in query keys: the same in every compile
        of the session, distinct for distinct pointers of one compile,
        as ``Value.id`` is."""
        if isinstance(v, _NAMED):
            n = self.named.get(v.name)
            if n is None:
                names = self.memo.names
                index = names.setdefault(v.name, len(names))
                # per unit: the units of a compile have distinct globals
                n = self.named[v.name] = (_NAMED_BIT | self.first_slot << 32
                                          | index)
            return n
        numbers = st.numbers
        n = numbers.get(v.id)
        if n is None:
            n = numbers[v.id] = st.base + len(numbers)
        return n


def _counterparts(fn: Function, same: Function) -> Dict[int, object]:
    """Map each argument and instruction of ``fn`` (by id) to its
    counterpart in ``same``, a body that prints the same."""
    vmap: Dict[int, object] = {}
    for a, b in zip(fn.args, same.args):
        vmap[a.id] = b
    for bb, sb in zip(fn.blocks, same.blocks):
        for i, j in zip(bb.instructions, sb.instructions):
            vmap[i.id] = j
    return vmap


def _moved(loc, vmap: dict):
    """``loc`` on the copy of its pointer; a pointer the copy lacks (an
    instruction a pass erased) stays."""
    ptr = vmap.get(loc.ptr.id)
    return loc if ptr is None else loc.with_ptr(ptr)


def _since(now, before: dict) -> dict:
    """The counts ``now`` gained over its copy ``before``."""
    return {k: n - before.get(k, 0) for k, n in now.items()
            if n != before.get(k, 0)}
