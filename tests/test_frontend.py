"""Tests for the MiniC frontend: lexer, parser, and codegen semantics."""

import pytest

from repro.frontend import (
    CodegenError,
    LexError,
    ParseError,
    compile_source,
    parse,
    tokenize,
)
from repro.ir import F64, LoadInst, StoreInst, verify_module

from helpers import run_main


def out_of(src, **kw):
    m = compile_source(src)
    verify_module(m)
    return run_main(m, **kw).output()


class TestLexer:
    def test_tokens(self):
        toks = tokenize("int x = 42 + 0x1F; // comment\n double y;")
        kinds = [(t.kind, t.text) for t in toks if t.kind != "eof"]
        assert ("kw", "int") in kinds
        assert ("num", "42") in kinds
        assert ("num", "0x1F") in kinds
        assert not any("comment" in t for _, t in kinds)

    def test_float_literals(self):
        toks = tokenize("1.5 2e3 0.001")
        assert [t.kind for t in toks[:-1]] == ["fnum"] * 3

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\tc"')
        assert toks[0].value if hasattr(toks[0], "value") else True
        assert toks[0].text == "a\nb\tc"

    def test_char_literal(self):
        toks = tokenize("'A' '\\n'")
        assert toks[0].text == "65"
        assert toks[1].text == "10"

    def test_pragma_token(self):
        toks = tokenize("#pragma omp parallel for\nint x;")
        assert toks[0].kind == "pragma"

    def test_block_comment(self):
        toks = tokenize("int /* hi \n there */ x;")
        assert [t.text for t in toks[:-1]] == ["int", "x", ";"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestParser:
    def test_precedence(self):
        assert out_of('int main() { printf("%d\\n", 2 + 3 * 4); return 0; }'
                      ) == "14\n"
        assert out_of('int main() { printf("%d\\n", (2 + 3) * 4); return 0; }'
                      ) == "20\n"

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match=":2"):
            parse("int main() {\n !!; }")

    def test_struct_parsing(self):
        tu = parse("struct P { double x; double y; }; "
                   "struct P g; int main() { return 0; }")
        assert tu.structs[0].name == "P"
        assert len(tu.structs[0].fields) == 2

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { int x = 1 return 0; }")


class TestSemantics:
    def test_if_else_both_branches(self):
        """Regression for the falsy-BasicBlock bug: the else branch must
        actually execute."""
        src = """
        int main() {
          int lo = 0; int hi = 10;
          if (hi < 5) { lo = 1; } else { hi = 5; }
          printf("%d %d\\n", lo, hi);
          return 0;
        }
        """
        assert out_of(src) == "0 5\n"

    def test_while_and_break_continue(self):
        src = """
        int main() {
          int i = 0; int s = 0;
          while (1 < 2) {
            i = i + 1;
            if (i == 3) { continue; }
            if (i > 6) { break; }
            s = s + i;
          }
          printf("%d %d\\n", i, s);
          return 0;
        }
        """
        assert out_of(src) == "7 18\n"

    def test_do_while(self):
        src = """
        int main() {
          int i = 0;
          do { i = i + 1; } while (i < 5);
          printf("%d\\n", i);
          return 0;
        }
        """
        assert out_of(src) == "5\n"

    def test_short_circuit_evaluation(self):
        src = """
        int side = 0;
        int bump() { side = side + 1; return 1; }
        int main() {
          int a = (0 > 1) && bump();
          int b = (1 > 0) || bump();
          printf("%d %d %d\\n", a, b, side);
          return 0;
        }
        """
        assert out_of(src) == "0 1 0\n"

    def test_ternary(self):
        assert out_of('int main() { int x = 5; '
                      'printf("%d\\n", (x > 3) ? 10 : 20); return 0; }'
                      ) == "10\n"

    def test_pointer_arithmetic_and_deref(self):
        src = """
        int main() {
          double a[4];
          a[0] = 1.5; a[1] = 2.5; a[2] = 3.5;
          double* p = a + 1;
          printf("%.1f %.1f\\n", *p, p[1]);
          return 0;
        }
        """
        assert out_of(src) == "2.5 3.5\n"

    def test_pointer_difference(self):
        src = """
        int main() {
          double a[8];
          double* p = a + 6;
          double* q = a + 2;
          printf("%d\\n", p - q);
          return 0;
        }
        """
        assert out_of(src) == "4\n"

    def test_address_of_and_struct_access(self):
        src = """
        struct V { double x; double y; int tag; };
        void scale(struct V* v, double s) {
          v->x = v->x * s;
          v->y = v->y * s;
        }
        int main() {
          struct V v;
          v.x = 1.0; v.y = 2.0; v.tag = 7;
          scale(&v, 3.0);
          printf("%.1f %.1f %d\\n", v.x, v.y, v.tag);
          return 0;
        }
        """
        assert out_of(src) == "3.0 6.0 7\n"

    def test_2d_arrays(self):
        src = """
        int main() {
          double m[3][4];
          for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
          }
          printf("%.0f %.0f\\n", m[2][3], m[0][1]);
          return 0;
        }
        """
        assert out_of(src) == "23 1\n"

    def test_global_variables(self):
        src = """
        double gv = 2.5;
        int counter = 0;
        double table[4] = { 1.0, 2.0, 3.0 };
        int main() {
          counter = counter + 3;
          printf("%.1f %d %.1f %.1f\\n", gv, counter, table[1], table[3]);
          return 0;
        }
        """
        assert out_of(src) == "2.5 3 2.0 0.0\n"

    def test_conversions(self):
        src = """
        int main() {
          int i = 7;
          double d = i / 2;         // int division then convert
          double e = i / 2.0;       // float division
          int t = (int)3.9;
          char c = 'A';
          printf("%.1f %.2f %d %d\\n", d, e, t, c + 1);
          return 0;
        }
        """
        assert out_of(src) == "3.0 3.50 3 66\n"

    def test_compound_assign_and_incdec(self):
        src = """
        int main() {
          int x = 10;
          x += 5; x -= 2; x *= 3; x /= 2;
          int y = x++;
          int z = ++x;
          printf("%d %d %d\\n", x, y, z);
          return 0;
        }
        """
        assert out_of(src) == "21 19 21\n"

    def test_sizeof(self):
        src = """
        struct P { double a; int b; };
        int main() {
          printf("%d %d %d\\n", sizeof(double), sizeof(int),
                 sizeof(struct P));
          return 0;
        }
        """
        assert out_of(src) == "8 8 16\n"

    def test_recursion(self):
        src = """
        int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        int main() { printf("%d\\n", fib(12)); return 0; }
        """
        assert out_of(src) == "144\n"

    def test_unknown_identifier_rejected(self):
        with pytest.raises(CodegenError, match="unknown"):
            compile_source("int main() { return nope; }")

    def test_call_arity_checked(self):
        with pytest.raises(CodegenError, match="expects"):
            compile_source("""
            int f(int a, int b) { return a + b; }
            int main() { return f(1); }
            """)

    def test_definition_after_prototype(self):
        src = """
        long odd(long n);
        long even(long n) { if (n == 0) { return 1; } return odd(n - 1); }
        long odd(long n) { if (n == 0) { return 0; } return even(n - 1); }
        int main() { printf("%ld %ld\\n", even(4), even(3)); return 0; }
        """
        m = compile_source(src)
        assert not m.get_function("odd").is_declaration
        assert out_of(src) == "1 0\n"

    def test_definition_takes_its_own_parameters(self):
        m = compile_source("""
        void f(double* a, double* restrict b);
        void f(double* restrict x, double* y) { x[0] = y[0]; }
        """)
        f = m.get_function("f")
        assert [a.name for a in f.args] == ["x", "y"]
        assert [a.is_noalias for a in f.args] == [True, False]

    def test_definition_must_match_its_prototype(self):
        with pytest.raises(CodegenError, match="does not match"):
            compile_source("""
            long f(long n);
            long f(double x) { return 1; }
            """)

    def test_second_definition_is_rejected(self):
        with pytest.raises(CodegenError,
                           match=r"^line 3: redefinition of f\(\)$"):
            compile_source(
                "int f(int a) { return 1; }\n"
                "\n"
                "int f(int a) { return 2; }\n"
                "int main() { return f(0); }\n")

    def test_prototype_definition_prototype(self):
        src = """
        long f(long n);
        long f(long n) { return n + 1; }
        long f(long n);
        int main() { printf("%ld\\n", f(1)); return 0; }
        """
        assert not compile_source(src).get_function("f").is_declaration
        assert out_of(src) == "2\n"

    def test_prototype_after_definition(self):
        src = """
        long f(long n) { return n * 3; }
        long f(long n);
        int main() { printf("%ld\\n", f(2)); return 0; }
        """
        assert out_of(src) == "6\n"

    def test_cli_reports_a_redefinition_without_a_traceback(
            self, tmp_path, capsys):
        import json

        from repro.oraql.cli import main
        text = ("int f(int a) { return 1; }\n"
                "int f(int a) { return 2; }\n"
                "int main() { return f(0); }\n")
        path = tmp_path / "redef.json"
        path.write_text(json.dumps(
            {"name": "redef", "sources": [{"name": "a.c", "text": text}]}))
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "CodegenError: line 2: redefinition of f()" in err
        assert "Traceback" not in err


class TestMetadataEmission:
    def test_restrict_becomes_noalias(self):
        m = compile_source(
            "void f(double* restrict a, double* b) { a[0] = b[0]; }")
        f = m.get_function("f")
        assert f.args[0].is_noalias
        assert not f.args[1].is_noalias

    def test_tbaa_tags_attached(self):
        m = compile_source("""
        struct S { double d; int i; };
        void f(struct S* s, double* p) { s->d = p[0]; s->i = 3; }
        """)
        f = m.get_function("f")
        loads = [i for i in f.instructions() if isinstance(i, LoadInst)]
        stores = [i for i in f.instructions() if isinstance(i, StoreInst)]
        mem = [i for i in loads + stores
               if i.pointer.type.pointee in (F64,) or True]
        tagged = [i for i in stores if i.tbaa is not None]
        assert tagged, "stores must carry TBAA access tags"
        names = {i.tbaa.name for i in tagged}
        assert any("S::" in n for n in names)

    def test_restrict_scopes_attached(self):
        m = compile_source(
            "void f(double* restrict a, double* restrict b, int n) {"
            "  for (int i = 0; i < n; i++) { a[i] = b[i]; } }")
        f = m.get_function("f")
        accesses = [i for i in f.instructions()
                    if isinstance(i, (LoadInst, StoreInst))
                    and i.scoped is not None and i.scoped.alias_scopes]
        assert accesses

    def test_debug_locations(self):
        m = compile_source("int main() {\n  int x = 1;\n  return x;\n}",
                           "file.c")
        main = m.get_function("main")
        dbg = [i.dbg for i in main.instructions() if i.dbg is not None]
        assert dbg and all(d.file == "file.c" for d in dbg)


class TestOpenMPOutlining:
    SRC = """
    int main() {
      double a[10];
      double scale = 2.0;
      #pragma omp parallel for
      for (int i = 0; i < 10; i++) { a[i] = i * scale; }
      printf("%.1f\\n", a[9]);
      return 0;
    }
    """

    def test_outlined_function_created(self):
        m = compile_source(self.SRC)
        names = [n for n in m.functions if ".omp_outlined." in n]
        assert len(names) == 1
        out = m.functions[names[0]]
        assert [a.name for a in out.args] == ["tid", "__ctx", "lb", "ub"]
        assert "omp.ctx.main.0" in m.struct_types

    def test_captures_are_indirect(self):
        m = compile_source(self.SRC)
        out = next(f for n, f in m.functions.items()
                   if ".omp_outlined." in n)
        dptr_loads = [i for i in out.instructions()
                      if isinstance(i, LoadInst) and i.name.startswith("cap.")]
        assert {l.name for l in dptr_loads} == {"cap.a", "cap.scale"}

    def test_semantics(self):
        assert out_of(self.SRC) == "18.0\n"

    def test_non_canonical_loop_rejected(self):
        from repro.frontend import OmpError
        with pytest.raises(OmpError):
            compile_source("""
            int main() {
              #pragma omp parallel for
              for (int i = 10; i > 0; i--) { int x = i; }
              return 0;
            }
            """)


class TestCUDAFrontend:
    def test_kernel_attributes(self):
        m = compile_source("""
        __global__ void k(double* a, int n) {
          int t = cuda_thread_id();
          if (t < n) { a[t] = t; }
        }
        int main() {
          double* a = (double*)malloc(64);
          launch(k, 1, 8, a, 8);
          printf("%.0f\\n", a[7]);
          return 0;
        }
        """)
        k = m.get_function("k")
        assert k.target == "nvptx" and "kernel" in k.attrs
        assert run_main(m).output() == "7\n"

    def test_launch_requires_kernel(self):
        with pytest.raises(CodegenError, match="__global__"):
            compile_source("""
            void notk(double* a) { a[0] = 1.0; }
            int main() { launch(notk, 1, 1, (double*)malloc(8)); return 0; }
            """)
