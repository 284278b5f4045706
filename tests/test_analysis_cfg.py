"""Tests for CFG utilities, dominators, dominance frontiers, loops."""

from repro.analysis import (
    DominatorTree,
    LoopInfo,
    loop_trip_count,
    predecessor_map,
    reverse_postorder,
)
from repro.ir import FunctionType, I1, I64, IRBuilder, VOID
from repro.passes.mem2reg import dominance_frontiers


def diamond(module):
    """entry -> (then | else) -> join -> exit"""
    fn = module.add_function(FunctionType(VOID, [I1]), "f")
    e, t, f, j = (fn.add_block(n) for n in ("e", "t", "f", "j"))
    b = IRBuilder(e)
    b.cond_br(fn.args[0], t, f)
    for bb in (t, f):
        b.position_at_end(bb)
        b.br(j)
    b.position_at_end(j)
    b.ret()
    return fn, (e, t, f, j)


def counted_loop(module, start=0, bound=10, step=1):
    fn = module.add_function(FunctionType(VOID, []), "loop")
    pre, hdr, body, ex = (fn.add_block(n) for n in ("pre", "hdr", "body", "ex"))
    b = IRBuilder(pre)
    b.br(hdr)
    b.position_at_end(hdr)
    i = b.phi(I64, "i")
    c = b.icmp("slt", i, b.i64(bound))
    b.cond_br(c, body, ex)
    b.position_at_end(body)
    i2 = b.add(i, b.i64(step))
    b.br(hdr)
    i.add_incoming(b.i64(start), pre)
    i.add_incoming(i2, body)
    b.position_at_end(ex)
    b.ret()
    return fn, (pre, hdr, body, ex), i


class TestOrderings:
    def test_rpo_entry_first(self, module):
        fn, (e, t, f, j) = diamond(module)
        rpo = reverse_postorder(fn)
        assert rpo[0] is e
        assert rpo[-1] is j
        assert set(rpo) == {e, t, f, j}

    def test_rpo_skips_unreachable(self, module):
        fn, blocks = diamond(module)
        dead = fn.add_block("dead")
        IRBuilder(dead).ret()
        assert dead not in reverse_postorder(fn)

    def test_predecessor_map(self, module):
        fn, (e, t, f, j) = diamond(module)
        preds = predecessor_map(fn)
        assert set(preds[j]) == {t, f}
        assert preds[e] == []


class TestDominators:
    def test_diamond(self, module):
        fn, (e, t, f, j) = diamond(module)
        dt = DominatorTree(fn)
        assert dt.dominates_block(e, j)
        assert not dt.dominates_block(t, j)
        assert dt.idom[j] is e
        assert dt.idom[t] is e

    def test_loop_header_dominates_body(self, module):
        fn, (pre, hdr, body, ex), _ = counted_loop(module)
        dt = DominatorTree(fn)
        assert dt.dominates_block(hdr, body)
        assert dt.dominates_block(hdr, ex)
        assert not dt.dominates_block(body, ex)

    def test_instruction_dominance(self, module):
        fn, (pre, hdr, body, ex), i = counted_loop(module)
        dt = DominatorTree(fn)
        cmp_ = hdr.instructions[1]
        add_ = body.instructions[0]
        assert dt.dominates(i, cmp_)
        assert dt.dominates(cmp_, add_)
        assert not dt.dominates(add_, cmp_)  # only via backedge

    def test_dominance_frontier_diamond(self, module):
        fn, (e, t, f, j) = diamond(module)
        dt = DominatorTree(fn)
        df = dominance_frontiers(fn, dt)
        assert df[t] == {j}
        assert df[f] == {j}
        assert df[e] == set()

    def test_dominance_frontier_loop(self, module):
        fn, (pre, hdr, body, ex), _ = counted_loop(module)
        dt = DominatorTree(fn)
        df = dominance_frontiers(fn, dt)
        assert hdr in df[body]  # backedge frontier


class TestLoops:
    def test_detects_loop(self, module):
        fn, (pre, hdr, body, ex), _ = counted_loop(module)
        li = LoopInfo(fn)
        assert len(li.loops) == 1
        loop = li.loops[0]
        assert loop.header is hdr
        assert loop.blocks == {hdr, body}
        assert loop.preheader() is pre
        assert loop.latches() == [body]
        assert loop.exit_blocks() == [ex]
        assert loop.exiting_blocks() == [hdr]

    def test_trip_count(self, module):
        fn, _, _ = counted_loop(module, 0, 10, 1)
        li = LoopInfo(fn)
        assert loop_trip_count(li.loops[0]) == 10

    def test_trip_count_stride(self, module):
        fn, _, _ = counted_loop(module, 0, 10, 3)
        li = LoopInfo(fn)
        assert loop_trip_count(li.loops[0]) == 4

    def test_trip_count_unknown_bound(self, module):
        fn = module.add_function(FunctionType(VOID, [I64]), "g")
        pre, hdr, body, ex = (fn.add_block(n) for n in ("p", "h", "b", "x"))
        b = IRBuilder(pre)
        b.br(hdr)
        b.position_at_end(hdr)
        i = b.phi(I64)
        c = b.icmp("slt", i, fn.args[0])
        b.cond_br(c, body, ex)
        b.position_at_end(body)
        i2 = b.add(i, b.i64(1))
        b.br(hdr)
        i.add_incoming(b.i64(0), pre)
        i.add_incoming(i2, body)
        b.position_at_end(ex)
        b.ret()
        li = LoopInfo(fn)
        assert loop_trip_count(li.loops[0]) is None

    def test_nested_loops(self):
        from repro.frontend import compile_source
        src = """
        void f(double* a, int n) {
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < n; j++) {
              a[i * n + j] = 1.0;
            }
          }
        }
        """
        m = compile_source(src)
        li = LoopInfo(m.get_function("f"))
        assert len(li.loops) == 2
        inner = [l for l in li.loops if not l.subloops]
        outer = [l for l in li.loops if l.subloops]
        assert len(inner) == 1 and len(outer) == 1
        assert inner[0].parent is outer[0]
        assert inner[0].depth == 2
