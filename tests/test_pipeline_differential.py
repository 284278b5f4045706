"""Differential testing of the whole optimization pipeline.

The strongest correctness property we have: for any program, the output
of the O0 build and the O3 build must be identical (the compiler may
only get *faster*, never different).  We check a curated corpus plus a
hypothesis-generated family of random straight-line/loop programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.passes import PASS_NAMES, build_pipeline

from helpers import differential

CORPUS = {
    "stencil": """
    int main() {
      double a[32]; double b[32];
      for (int i = 0; i < 32; i++) { a[i] = i * 0.5; b[i] = 0.0; }
      for (int i = 1; i < 31; i++) {
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
      }
      double s = 0.0;
      for (int i = 0; i < 32; i++) { s = s + b[i]; }
      printf("%.6f\\n", s);
      return 0;
    }
    """,
    "in_place_update": """
    int main() {
      double a[16];
      for (int i = 0; i < 16; i++) { a[i] = i; }
      for (int i = 1; i < 16; i++) { a[i] = a[i] + a[i - 1]; }
      printf("%.1f\\n", a[15]);
      return 0;
    }
    """,
    "branchy_max": """
    int main() {
      double a[20];
      for (int i = 0; i < 20; i++) {
        a[i] = (i % 3 == 0) ? (20.0 - i) : (i * 1.5);
      }
      double mx = a[0];
      int arg = 0;
      for (int i = 1; i < 20; i++) {
        if (a[i] > mx) { mx = a[i]; arg = i; }
      }
      printf("%.1f %d\\n", mx, arg);
      return 0;
    }
    """,
    "struct_swap": """
    struct Pair { double lo; double hi; };
    void order(struct Pair* p) {
      if (p->lo > p->hi) {
        double t = p->lo;
        p->lo = p->hi;
        p->hi = t;
      }
    }
    int main() {
      struct Pair p;
      p.lo = 9.0; p.hi = 2.0;
      order(&p);
      printf("%.1f %.1f\\n", p.lo, p.hi);
      return 0;
    }
    """,
    "nested_accumulate": """
    int main() {
      double m[6][6];
      for (int i = 0; i < 6; i++) {
        for (int j = 0; j < 6; j++) { m[i][j] = i * 6 + j; }
      }
      double trace = 0.0;
      double total = 0.0;
      for (int i = 0; i < 6; i++) {
        trace = trace + m[i][i];
        for (int j = 0; j < 6; j++) { total = total + m[i][j]; }
      }
      printf("%.0f %.0f\\n", trace, total);
      return 0;
    }
    """,
    "pointer_walk": """
    int main() {
      double a[10];
      for (int i = 0; i < 10; i++) { a[i] = i + 1.0; }
      double* p = a;
      double prod = 1.0;
      while (p < a + 5) {
        prod = prod * *p;
        p++;
      }
      printf("%.0f\\n", prod);
      return 0;
    }
    """,
    "alias_through_args": """
    void acc(double* dst, double* src, int n) {
      for (int i = 0; i < n; i++) { dst[i] = dst[i] + src[i]; }
    }
    int main() {
      double a[12];
      for (int i = 0; i < 12; i++) { a[i] = i; }
      acc(a, a, 12);      // dst == src: the compiler must stay honest
      acc(a + 6, a, 6);   // disjoint halves
      double s = 0.0;
      for (int i = 0; i < 12; i++) { s = s + a[i]; }
      printf("%.1f\\n", s);
      return 0;
    }
    """,
    "memarg_reuse": """
    double helper(double* x) {
      x[0] = x[0] * 2.0;
      return x[0] + x[1];
    }
    int main() {
      double buf[3];
      buf[0] = 1.5; buf[1] = 2.5; buf[2] = 0.0;
      buf[2] = helper(buf) + helper(buf + 1);
      printf("%.2f %.2f %.2f\\n", buf[0], buf[1], buf[2]);
      return 0;
    }
    """,
    "integer_mix": """
    int main() {
      int acc = 0;
      for (int i = 1; i <= 30; i++) {
        if (i % 2 == 0) { acc += i * i; }
        else { acc -= i; }
        acc = acc ^ (i << 2);
      }
      printf("%d\\n", acc);
      return 0;
    }
    """,
    "omp_private_buffers": """
    int main() {
      double out[40];
      double w = 0.25;
      #pragma omp parallel for
      for (int i = 0; i < 40; i++) {
        double t = i * w;
        out[i] = t * t + 1.0;
      }
      double s = 0.0;
      for (int i = 0; i < 40; i++) { s = s + out[i]; }
      printf("%.4f\\n", s);
      return 0;
    }
    """,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_differential(name):
    differential(CORPUS[name])


# -- calls: no pipeline inlines, so each level runs these as calls ---------

_BIG_BODY = "\n".join(f"  s = s + a[{i % 4}] * {i}.0;" for i in range(40))

#: name -> (source, the output every level must print)
CALLS = {
    "callee_twice": ("""
    double f(double x) { return x * 2.0 + 1.0; }
    double g(double x) { return f(x) + f(x + 1.0); }
    int main() { printf("%.1f\\n", g(3.0)); return 0; }
    """, "16.0\n"),
    "pointer_arg_sums": ("""
    double total(double* a, int n) {
      double s = 0.0;
      for (int i = 0; i < n; i++) { s = s + a[i]; }
      return s;
    }
    int main() {
      double v[9];
      for (int i = 0; i < 9; i++) { v[i] = i * 1.5; }
      printf("%.1f\\n", total(v, 9) + total(v + 3, 3));
      return 0;
    }
    """, "72.0\n"),
    "restrict_axpy": ("""
    void axpy(double* restrict y, double* restrict x, int n) {
      for (int i = 0; i < n; i++) { y[i] = y[i] + 2.0 * x[i]; }
    }
    int main() {
      double x[8]; double y[8];
      for (int i = 0; i < 8; i++) { x[i] = i; y[i] = 1.0; }
      axpy(y, x, 8);
      printf("%.1f\\n", y[7]);
      return 0;
    }
    """, "15.0\n"),
    "restrict_dot": ("""
    double square(double x) { return x * x; }
    double combine(double* restrict a, double* restrict b) {
      return a[0] * b[0] + a[1] * b[1];
    }
    int main() {
      double u[2]; double v[2];
      u[0] = 3.0; u[1] = 4.0; v[0] = 0.5; v[1] = 2.0;
      printf("%.2f %.2f\\n", square(1.5), combine(u, v));
      return 0;
    }
    """, "2.25 9.50\n"),
    "recursion": ("""
    int fact(int n) {
      if (n < 2) { return 1; }
      return n * fact(n - 1);
    }
    int main() { printf("%d\\n", fact(5)); return 0; }
    """, "120\n"),
    "large_callee": (
        "double big(double* a) {\n  double s = 0.0;\n" + _BIG_BODY
        + "\n  return s;\n}\n"
        "int main() { double z[4]; z[0]=1.0; z[1]=2.0; z[2]=0.0;"
        " z[3]=1.0; printf(\"%.0f\\n\", big(z)); return 0; }",
        "770\n"),
    "callee_fills_buffer": ("""
    void fill(double* a, int n, double v) {
      for (int i = 0; i < n; i++) { a[i] = v + i; }
    }
    int main() {
      double buf[6];
      fill(buf, 6, 10.0);
      double s = 0.0;
      for (int i = 0; i < 6; i++) { s = s + buf[i]; }
      printf("%.0f\\n", s);
      return 0;
    }
    """, "75\n"),
    "kernel_launch": ("""
    __global__ void k(double* a) { a[0] = 1.0; }
    int main() {
      double* a = (double*)malloc(8);
      launch(k, 1, 1, a);
      printf("%.0f\\n", a[0]);
      return 0;
    }
    """, "1\n"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_differential(name):
    source, expected = CALLS[name]
    assert differential(source) == expected


# -- random program family ---------------------------------------------------

_ops = ["+", "-", "*"]


@st.composite
def straightline_program(draw):
    """A random program over two arrays with guarded mixed accesses."""
    n = draw(st.integers(6, 14))
    stmts = []
    for k in range(draw(st.integers(2, 6))):
        dst = draw(st.sampled_from(["a", "b"]))
        src = draw(st.sampled_from(["a", "b"]))
        i1 = draw(st.integers(0, n - 1))
        i2 = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(_ops))
        const = draw(st.integers(-3, 3))
        stmts.append(
            f"{dst}[{i1}] = {src}[{i2}] {op} {const}.0;")
    loop_src = draw(st.sampled_from(["a", "b"]))
    body = "\n          ".join(stmts)
    return f"""
    int main() {{
      double a[{n}]; double b[{n}];
      for (int i = 0; i < {n}; i++) {{ a[i] = i * 0.5; b[i] = {n} - i; }}
      {body}
      double s = 0.0;
      for (int i = 0; i < {n}; i++) {{
        s = s + a[i] * 3.0 - b[i];
        b[i] = {loop_src}[i] + s * 0.125;
      }}
      printf("%.6f %.6f\\n", s, b[{n - 1}]);
      return 0;
    }}
    """


@settings(max_examples=25, deadline=None)
@given(straightline_program())
def test_random_programs_differential(src):
    differential(src)


def test_every_named_pass_runs_at_o3():
    """A pass that no pipeline runs takes no part in any answer."""
    o3 = {type(p) for p in build_pipeline(3)}
    assert [name for name, cls in PASS_NAMES.items() if cls not in o3] == []
