"""Parse once per session: a Compiler lowers the unit it parsed earlier.

Lowering must read the parsed unit and never change it, so lowering the
same unit again gives the module a fresh parse would.  The Compiler
keeps only the units of the config it compiled last.
"""

from copy import deepcopy

import pytest

import repro.oraql.compiler as compiler_mod
from repro.frontend import compile_source, parse
from repro.ir import print_module
from repro.oraql.compiler import Compiler
from repro.oraql.config import BenchmarkConfig, SourceFile
from repro.oraql.sequence import DecisionSequence
from repro.workloads import get_config, row_names

ROW_SOURCES = sorted({(src.name, src.text)
                      for row in row_names()
                      for src in get_config(row).sources})


@pytest.mark.parametrize("name,text", ROW_SOURCES,
                         ids=[name for name, _ in ROW_SOURCES])
def test_lowering_leaves_the_unit_unchanged(name, text):
    tu = parse(text, name, unit_name=name)
    before = deepcopy(tu)
    first = print_module(compile_source(tu, name))
    second = print_module(compile_source(tu, name))
    assert tu == before
    fresh = print_module(compile_source(text, name))
    assert first == fresh
    assert second == fresh


@pytest.fixture
def parse_calls(monkeypatch):
    """Every (filename, text) the compiler hands to ``parse``."""
    calls = []

    def counting(source, filename="<minic>", unit_name="unit"):
        calls.append((filename, source))
        return parse(source, filename, unit_name=unit_name)

    monkeypatch.setattr(compiler_mod, "parse", counting)
    return calls


def _config(name, *sources):
    return BenchmarkConfig(name=name,
                           sources=[SourceFile(n, t) for n, t in sources])


def test_one_parse_per_source_per_session(parse_calls):
    cfg = get_config("Quicksilver-openmp")
    compiler = Compiler()
    hashes = set()
    for _ in range(3):
        hashes.add(compiler.compile(cfg).exe_hash)
        hashes.add(compiler.compile(cfg, sequence=DecisionSequence(),
                                    oraql_enabled=True).exe_hash)
    assert sorted(parse_calls) == sorted((s.name, s.text)
                                         for s in cfg.sources)
    assert len(hashes) == 2


def test_same_filename_with_new_text_is_parsed_again(parse_calls):
    one = _config("one", ("a.c", "int main() { return 1; }"))
    two = _config("two", ("a.c", "int main() { return 2; }"))
    compiler = Compiler()
    progs = [compiler.compile(cfg) for cfg in (one, two, one)]
    assert [text for _, text in parse_calls] == [
        one.sources[0].text, two.sources[0].text, one.sources[0].text]
    assert "ret i64 1" in print_module(progs[0].module)
    assert "ret i64 2" in print_module(progs[1].module)
    assert progs[0].exe_hash == progs[2].exe_hash != progs[1].exe_hash


def test_units_are_kept_for_the_current_config_only(parse_calls):
    compiler = Compiler()
    for i in range(20):
        cfg = _config(f"c{i}", (f"m{i}.c", f"int main() {{ return {i}; }}"),
                      ("lib.c", "int helper() { return 0; }"))
        compiler.compile(cfg)
        compiler.compile(cfg)
        assert len(compiler._units) == 2
    # the shared source stays parsed from one config to the next
    assert sum(name == "lib.c" for name, _ in parse_calls) == 1
    assert len(parse_calls) == 21
