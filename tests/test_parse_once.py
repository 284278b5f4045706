"""Parse once per session: a Compiler parses and lowers each unit once
per opt level and keeps the result after the query-free pipeline prefix
(see ``test_compile_prefix.py``), not the parsed unit.  The Compiler
keeps only the units of the config it compiled last.

A new config or opt level parses and lowers its sources again, so each
lowering of the same text must give the same module.
"""

import gc

import pytest

import repro.frontend.codegen as codegen_mod
from repro.frontend import TranslationUnit, compile_source, parse
from repro.ir import print_module, verify_module
from repro.oraql.compiler import Compiler
from repro.oraql.config import BenchmarkConfig, SourceFile
from repro.oraql.sequence import DecisionSequence
from repro.workloads import get_config, row_names

ROW_SOURCES = sorted({(src.name, src.text)
                      for row in row_names()
                      for src in get_config(row).sources})


@pytest.mark.parametrize("name,text", ROW_SOURCES,
                         ids=[name for name, _ in ROW_SOURCES])
def test_lowering_the_same_text_gives_the_same_module(name, text):
    first = compile_source(text, name)
    verify_module(first)
    assert print_module(compile_source(text, name)) == print_module(first)


@pytest.fixture
def parse_calls(monkeypatch):
    """Every (filename, text) the compiler hands to ``parse``."""
    calls = []

    def counting(source, filename="<minic>", unit_name="unit"):
        calls.append((filename, source))
        return parse(source, filename, unit_name=unit_name)

    monkeypatch.setattr(codegen_mod, "parse", counting)
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
        # no LTO: each source is a unit of its own
        assert list(compiler._kept) == [(((src.name, src.text),), 3)
                                        for src in cfg.sources]
    # a new config's sources are parsed again, each once, and no parsed
    # unit outlives its lowering
    assert sum(name == "lib.c" for name, _ in parse_calls) == 20
    assert len(parse_calls) == 40
    assert not any(isinstance(v, TranslationUnit)
                   for v in gc.get_referents(*vars(compiler).values()))
