"""End-to-end command-line tests, driving main() in process.

Every positive case freezes exact stdout bytes; errors assert the exit code
and a stderr diagnostic. One subprocess test checks the module entry point.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import pytest

import gzasp
import gzasp.cli
from gzasp import semantics
from gzasp.cli import main
from gzasp.core import AtomLiteral, Program, Rule, atoms_of
from gzasp.errors import AggregateOverflowError
from gzasp.parser import render

import gen
import oracles
from helpers import (
    CROSSOVERS,
    GOLDEN_REW_TEXT,
    GOLDEN_STR_TEXT,
    GOLDEN_TEXT,
    half_chosen,
    program_blocks,
    without_classes,
)

README = Path(__file__).resolve().parent.parent / "README.md"
GADGET_TEXT = "p :- count{p} >= 0.\n"
TWO_CYCLE_TEXT = "p :- not q.\nq :- not p.\n"


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.lp"
    path.write_text(GOLDEN_TEXT)
    return str(path)


@pytest.fixture
def gadget_file(tmp_path):
    path = tmp_path / "gadget.lp"
    path.write_text(GADGET_TEXT)
    return str(path)


def write_program(tmp_path, text):
    path = tmp_path / "program.lp"
    path.write_text(text)
    return str(path)


class TestModels:
    def test_golden_g(self, golden_file, capsys):
        code = main(["models", golden_file])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == "{}\n{a,c}\n"
        assert err == ""

    def test_golden_f(self, golden_file, capsys):
        code = main(["models", golden_file, "--semantics", "f"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "{}\n{a,b}\n{a,c}\n"

    def test_incoherent_exits_one(self, gadget_file, capsys):
        code = main(["models", gadget_file])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out == ""

    def test_gadget_f_has_model(self, gadget_file, capsys):
        code = main(["models", gadget_file, "--semantics", "f"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "{p}\n"

    def test_json_report(self, golden_file, capsys):
        code = main(["models", golden_file, "--json"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out) == {
            "command": "models",
            "input_sha256": hashlib.sha256(GOLDEN_TEXT.encode()).hexdigest(),
            "semantics": "g",
            "via": "direct",
            "models": [[], ["a", "c"]],
            "count": 2,
        }

    @pytest.mark.parametrize("via", ["rew", "str"])
    def test_via_rewriting_matches_direct(self, golden_file, capsys, via):
        code = main(["models", golden_file, "--via", via])
        routed, _ = capsys.readouterr()
        assert code == 0
        assert main(["models", golden_file]) == 0
        direct, _ = capsys.readouterr()
        assert routed == direct

    def test_via_requires_g(self, golden_file, capsys):
        code = main(["models", golden_file, "--via", "rew", "--semantics", "f"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "--semantics g" in err

    def test_env_guard(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("GZASP_MAX_ATOMS", "2")
        code = main(["models", golden_file])
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error:")

    def test_flag_beats_env(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("GZASP_MAX_ATOMS", "2")
        code = main(["models", golden_file, "--max-atoms", "3"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "{}\n{a,c}\n"

    def test_invalid_env(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("GZASP_MAX_ATOMS", "lots")
        code = main(["models", golden_file])
        _, err = capsys.readouterr()
        assert code == 2
        assert "GZASP_MAX_ATOMS" in err

    @pytest.mark.parametrize("command", [["models"], ["query", "--mode", "coherent"]])
    def test_negative_flag(self, golden_file, capsys, command):
        code = main([*command, golden_file, "--max-atoms", "-3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --max-atoms must not be negative, got -3\n"

    def test_negative_env(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("GZASP_MAX_ATOMS", "-3")
        code = main(["models", golden_file])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: GZASP_MAX_ATOMS must not be negative, got -3\n"

    def test_zero_guard_is_a_limit(self, golden_file, capsys):
        code = main(["models", golden_file, "--max-atoms", "0"])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "error: program has 3 atoms; the enumeration guard allows 0\n"

    def test_timing_line(self, golden_file, capsys):
        code = main(["models", golden_file, "--timing"])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["{}", "{a,c}"]
        assert lines[2].startswith("% wall_ms ")

    def test_timing_json_field(self, golden_file, capsys):
        code = main(["models", golden_file, "--json", "--timing"])
        out, _ = capsys.readouterr()
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["wall_ms"], float)


class TestRewrite:
    def test_rew_golden(self, golden_file, capsys):
        code = main(["rewrite", golden_file, "--method", "rew"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == GOLDEN_REW_TEXT

    def test_str_golden(self, golden_file, capsys):
        code = main(["rewrite", golden_file, "--method", "str"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == GOLDEN_STR_TEXT

    def test_c_two_cycle(self, tmp_path, capsys):
        path = write_program(tmp_path, TWO_CYCLE_TEXT)
        code = main(["rewrite", path, "--method", "c"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "p :- count{q} <= 0.\nq :- count{p} <= 0.\n"

    def test_minimal_copies(self, golden_file, capsys):
        code = main(["rewrite", golden_file, "--method", "rew", "--minimal-copies"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == (
            "a :- not not a.\n"
            "b | c :- count{a, b} >= 1, a__t, b__t.\n"
            "a__t :- not a.\n"
            "a__t :- a.\n"
            "b__t :- not b.\n"
            "b__t :- b.\n"
        )

    def test_precondition_failure(self, golden_file, capsys):
        code = main(["rewrite", golden_file, "--method", "m"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "not not a" in err

    def test_minimal_copies_rejected_for_m(self, tmp_path, capsys):
        path = write_program(tmp_path, TWO_CYCLE_TEXT)
        code = main(["rewrite", path, "--method", "m", "--minimal-copies"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "--minimal-copies" in err

    def test_core2_dialect(self, golden_file, capsys):
        code = main(["rewrite", golden_file, "--method", "rew", "--dialect", "core2"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == (
            "a :- not not a.\n"
            "b | c :- #count{1,a : a; 1,b : b} >= 1, a__t, b__t.\n"
            "a__t :- not a.\n"
            "a__t :- a.\n"
            "b__t :- not b.\n"
            "b__t :- b.\n"
            "c__t :- not c.\n"
            "c__t :- c.\n"
        )

    def test_core2_rejects_parity(self, tmp_path, capsys):
        path = write_program(tmp_path, "p :- odd{q}.\nq.\n")
        code = main(["rewrite", path, "--method", "rew", "--dialect", "core2"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "odd" in err


class TestQuery:
    @pytest.mark.parametrize(
        "argv, expected_code, expected_out",
        [
            (["--mode", "coherent"], 0, "true\n"),
            (["--mode", "cautious", "--atom", "a"], 1, "false\n"),
            (["--mode", "brave", "--atom", "a"], 0, "true\n"),
            (["--mode", "brave", "--atom", "b"], 1, "false\n"),
            (["--mode", "brave", "--atom", "b", "--semantics", "f"], 0, "true\n"),
        ],
    )
    def test_golden_queries(self, golden_file, capsys, argv, expected_code, expected_out):
        code = main(["query", golden_file] + argv)
        out, _ = capsys.readouterr()
        assert code == expected_code
        assert out == expected_out

    def test_incoherent_conventions(self, gadget_file, capsys):
        assert main(["query", gadget_file, "--mode", "coherent"]) == 1
        out, _ = capsys.readouterr()
        assert out == "false\n"
        assert main(["query", gadget_file, "--mode", "cautious", "--atom", "p"]) == 0
        out, _ = capsys.readouterr()
        assert out == "true\n"
        assert main(["query", gadget_file, "--mode", "brave", "--atom", "p"]) == 1
        out, _ = capsys.readouterr()
        assert out == "false\n"

    def test_missing_atom_flag(self, golden_file, capsys):
        code = main(["query", golden_file, "--mode", "cautious"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "--atom" in err

    def test_unknown_atom(self, golden_file, capsys):
        code = main(["query", golden_file, "--mode", "brave", "--atom", "zz"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "zz" in err

    def test_atom_rejected_for_coherence(self, golden_file, capsys):
        code = main(["query", golden_file, "--mode", "coherent", "--atom", "a"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "--atom" in err


    def test_wide_aggregate_coherence_agrees_with_models(self, tmp_path, capsys):
        # 22 atoms, with a 21-atom domain that classifies monotone: both
        # commands answer from the least fixpoint
        wide = ", ".join(f"a{i}" for i in range(21))
        facts = "".join(f"a{i}.\n" for i in range(1, 21))
        path = write_program(tmp_path, f"p :- count{{{wide}}} >= 1.\n" + facts)
        for sem in ("g", "f"):
            assert main(["models", path, "--semantics", sem]) == 0
            assert capsys.readouterr().out.count("\n") == 1
            assert main(["query", path, "--mode", "coherent", "--semantics", sem]) == 0
            assert capsys.readouterr() == ("true\n", "")

    def test_monotone_program_above_the_guard(self, tmp_path, capsys):
        # 31 atoms; q supports itself, so its least fixpoint is F-stable only
        chain = "p0.\n" + "".join(f"p{i + 1} :- p{i}.\n" for i in range(29))
        path = write_program(tmp_path, chain + "q :- count{q} >= 0.\n")
        fixpoint = "{" + ",".join(sorted([f"p{i}" for i in range(30)] + ["q"])) + "}\n"
        for sem, models, coherent, brave_q in (("g", "", 1, 1), ("f", fixpoint, 0, 0)):
            assert main(["models", path, "--semantics", sem]) == coherent
            assert capsys.readouterr() == (models, "")
            for argv, code in (
                (["--mode", "coherent"], coherent),
                (["--mode", "cautious", "--atom", "p29"], 0),
                (["--mode", "brave", "--atom", "q"], brave_q),
            ):
                assert main(["query", path, "--semantics", sem] + argv) == code
                assert capsys.readouterr() == (("false\n", "true\n")[code == 0], "")

    def test_hundred_atom_count_in_every_command(self, tmp_path, monkeypatch, capsys):
        # 101 atoms: the count is classified along its chain, with no truth
        # table, so each command answers from the least fixpoint, {}
        def refuse(spec):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(semantics, "_table", refuse)
        wide = ", ".join(f"a{i}" for i in range(100))
        path = write_program(tmp_path, f"p :- count{{{wide}}} >= 1.\n")
        for sem in ("g", "f"):
            for argv, code, out in (
                (["models", path], 0, "{}\n"),
                (["query", path, "--mode", "coherent"], 0, "true\n"),
                (["query", path, "--mode", "brave", "--atom", "p"], 1, "false\n"),
                (["query", path, "--mode", "cautious", "--atom", "p"], 1, "false\n"),
            ):
                assert main(argv + ["--semantics", sem]) == code
                assert capsys.readouterr() == (out, "")
        assert main(["stats", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        shown = ", ".join(sorted(f"a{i}" for i in range(100)))
        lines = out.splitlines()
        assert lines[0] == "atoms 101"
        assert lines[2:4] == ["fragment {} × M", f"aggregate count{{{shown}}} >= 1 MONOTONE"]


class TestHelp:
    # the exact help text; sharing the option declarations must keep it
    MODELS = """\
usage: gzasp models [-h] [--semantics {g,f}] [--via {direct,rew,str}]
                    [--max-atoms MAX_ATOMS] [--json] [--timing]
                    file

positional arguments:
  file                  program file, or - for stdin

options:
  -h, --help            show this help message and exit
  --semantics {g,f}     which reduct defines stability (default: g)
  --via {direct,rew,str}
                        solve directly, or compile through an aggregate-
                        guarding rewriting (G-semantics only)
  --max-atoms MAX_ATOMS
  --json
  --timing
"""
    QUERY = """\
usage: gzasp query [-h] --mode {coherent,cautious,brave} [--atom ATOM]
                   [--semantics {g,f}] [--max-atoms MAX_ATOMS]
                   file

positional arguments:
  file                  program file, or - for stdin

options:
  -h, --help            show this help message and exit
  --mode {coherent,cautious,brave}
  --atom ATOM
  --semantics {g,f}     which reduct defines stability (default: g)
  --max-atoms MAX_ATOMS
"""

    @pytest.mark.parametrize("command,expected", [("models", MODELS), ("query", QUERY)])
    def test_help_text(self, command, expected, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr() == (expected, "")


class TestStats:
    def test_golden_block(self, golden_file, capsys):
        code = main(["stats", golden_file])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == (
            "atoms 3\n"
            "size 6\n"
            "fragment {~,∨} × M\n"
            "aggregate count{a, b} >= 1 MONOTONE\n"
            "size_rew 20\n"
            "size_str 38\n"
            "bound_rew 24 ok\n"
            "bound_str 42 ok\n"
        )

    def test_wide_monotone_aggregate(self, tmp_path, capsys):
        # a 21-atom count is classified along its chain of counts
        wide = ", ".join(f"a{i}" for i in range(21))
        path = write_program(tmp_path, f"p :- count{{{wide}}} >= 1.\n")
        code = main(["stats", path])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        shown = ", ".join(sorted(f"a{i}" for i in range(21)))  # in name order
        assert f"aggregate count{{{shown}}} >= 1 MONOTONE" in out.splitlines()

    def test_equal_aggregates_are_classified_once(self, tmp_path, monkeypatch, capsys):
        # one classification, and still one aggregate line per occurrence
        classified = []
        classify = gzasp.cli.classify_aggregate

        def counted(spec):
            classified.append(spec)
            return classify(spec)

        monkeypatch.setattr(gzasp.cli, "classify_aggregate", counted)
        text = "q. p :- count{q, r} >= 1. s :- count{q, r} >= 1. t :- count{q, r} >= 1.\n"
        assert main(["stats", write_program(tmp_path, text)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2:6] == [
            "fragment {} × M",
            *["aggregate count{q, r} >= 1 MONOTONE"] * 3,
        ]
        assert len(classified) == 1

    def test_wide_count_is_classified_without_a_table(self, tmp_path, monkeypatch, capsys):
        # a count's class is read off its chain of counts: no 2**24-bit table
        def refuse(spec):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(semantics, "_table", refuse)
        wide = ", ".join(f"a{i}" for i in range(24))
        assert main(["stats", write_program(tmp_path, f"p :- count{{{wide}}} != 1.\n")]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        shown = ", ".join(sorted(f"a{i}" for i in range(24)))
        assert f"aggregate count{{{shown}}} != 1 NONCONVEX" in out.splitlines()

    @pytest.mark.parametrize(
        "size, err",
        [
            (24, "error: sum 9223372036854775824 exceeds the 64-bit integer range\n"),
            (25, "error: aggregate domain has 25 atoms; exhaustive evaluation is capped at 24\n"),
        ],
    )
    def test_overflowing_wide_sum_is_refused_before_any_column(
        self, size, err, tmp_path, monkeypatch, capsys
    ):
        # size weights of 2**63 // size + 1 overflow only all together. The
        # error reads the spec alone, so no atom column of the table is
        # built: 24 of 2**24 bits (2 MiB) each were once built first. A
        # domain over the cap is refused before any overflow is looked for
        patterns = []
        pattern = semantics._pattern
        monkeypatch.setattr(
            semantics, "_pattern", lambda *key: patterns.append(key) or pattern(*key)
        )
        weight = 2**63 // size + 1
        elements = ", ".join(f"{weight} : x{i}" for i in range(size))
        path = write_program(tmp_path, f"x0 :- sum{{{elements}}} >= 0.\n")
        tracemalloc.start()
        try:
            code = main(["stats", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (2, "", err)
        assert patterns == []
        assert peak < 1024 * 1024

    def test_nonconvex_fragment(self, tmp_path, capsys):
        path = write_program(tmp_path, "p :- count{p, q} != 1.\n")
        code = main(["stats", path])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert "fragment {} × N" in lines
        assert "aggregate count{p, q} != 1 NONCONVEX" in lines

    def test_empty_program(self, tmp_path, capsys):
        path = write_program(tmp_path, "")
        code = main(["stats", path])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == (
            "atoms 0\n"
            "size 0\n"
            "fragment {} × ∅\n"
            "size_rew 0\n"
            "size_str 0\n"
            "bound_rew 0 ok\n"
            "bound_str 0 ok\n"
        )

    def test_generated_name_clash(self, tmp_path, capsys):
        # the rewritten sizes are undefined when a copy name is taken,
        # so this is an error, not a report
        path = write_program(tmp_path, "p :- a, a__t.\n")
        code = main(["stats", path])
        _, err = capsys.readouterr()
        assert code == 2
        assert "a__t" in err


    @pytest.mark.parametrize(
        "text, code, out, err",
        [
            ("a. a__t.\n", 2, "", "error: generated atom a__t already occurs in the program\n"),
            ("a. a__g.\n", 2, "", "error: generated atom a__g already occurs in the program\n"),
            ("a__t :- b__g.\n", 0, "size_rew 10\nsize_str 22\n", ""),
        ],
    )
    def test_generated_names(self, tmp_path, capsys, text, code, out, err):
        # a name is taken only if it is a copy of an atom of the program
        assert main(["stats", write_program(tmp_path, text)]) == code
        printed, diagnostic = capsys.readouterr()
        assert diagnostic == err
        if code:
            assert printed == ""
        else:
            assert out in printed


class TestParse:
    def test_normalizes_layout(self, tmp_path, capsys):
        path = write_program(
            tmp_path, "% comment\n  b|c :-   count {  b ,  1 : a  } >= 1 .\n"
        )
        code = main(["parse", path])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "b | c :- count{a, b} >= 1.\n"

    def test_golden_is_canonical(self, golden_file, capsys):
        code = main(["parse", golden_file])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == GOLDEN_TEXT

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "stdin", SimpleNamespace(buffer=io.BytesIO(b"q.\np :- q.\n"))
        )
        code = main(["parse", "-"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "q.\np :- q.\n"

    def test_syntax_error(self, tmp_path, capsys):
        path = write_program(tmp_path, "p :- |.\n")
        code = main(["parse", path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["parse", str(tmp_path / "absent.lp")])
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error:")


class TestParserFuzz:
    def test_parse_and_stats_give_one_error_line(self, tmp_path, capsys):
        # a crash in the parser (an IndexError, say) would read `error: internal`
        rng = random.Random(2024)
        path = tmp_path / "fuzz.lp"
        answered = 0
        for _ in range(2000):
            text = gen.fuzz_text(rng)
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            for command in ("parse", "stats"):
                code = main([command, str(path)])
                out, err = capsys.readouterr()
                if code == 0:
                    assert err == ""
                    answered += 1
                    continue
                assert code == 2, (command, text)
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, (command, text, err)
                assert err.endswith("\n") and not err.startswith("error: internal"), err
        assert answered > 200


class TestOracleDifferential:
    """Generated programs through every solving command, answers checked
    against the naive oracles. Every run exits 0, 1 or 2, and an error is
    one diagnostic line, never a traceback or an internal error. Each
    command runs with every block's candidates checked together after the
    first model, and with none checked together (CROSSOVERS)."""

    PROGRAMS = 50  # per family
    WEIGHTED = 120

    @staticmethod
    def oracle_models(program, sem: str) -> tuple[list, str]:
        """The oracle's stable models in the CLI's order, and their text."""
        models = sorted(
            oracles.naive_stable_models(program, sem),
            key=lambda model: (len(model), sorted(model)),
        )
        shown = "".join(
            "{" + ",".join(atom.name for atom in sorted(model)) + "}\n" for model in models
        )
        return models, shown

    @pytest.mark.parametrize("family", sorted(gen.FAMILIES))
    def test_models_and_queries_match_the_oracles(self, family, tmp_path, capsys, monkeypatch):
        rng = random.Random(f"cli differential {family}")
        path = tmp_path / "program.lp"

        def run(argv: list, expected_out: str, expected_code: int) -> None:
            for crossover in CROSSOVERS:
                monkeypatch.setattr(semantics, "_CROSSOVER", crossover)
                code = main([argv[0], str(path), *argv[1:]])
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (argv, text)
                assert "Traceback" not in err and "error: internal" not in err, (argv, err)
                # these programs are within every guard, so each run is answered
                assert (code, out, err) == (expected_code, expected_out, ""), (argv, text)

        for _ in range(self.PROGRAMS):
            program = gen.FAMILIES[family](rng)
            text = render(program)
            path.write_text(text)
            universe = sorted(atoms_of(program))
            for sem in ("g", "f"):
                models, shown = self.oracle_models(program, sem)
                vias = ("direct", "rew", "str") if sem == "g" else ("direct",)
                for via in vias:
                    run(["models", "--semantics", sem, "--via", via], shown, 0 if models else 1)
                queries = [(["--mode", "coherent"], bool(models))]
                if universe:
                    atom = rng.choice(universe)
                    holds = [atom in model for model in models]
                    queries.append((["--mode", "brave", "--atom", atom.name], any(holds)))
                    queries.append((["--mode", "cautious", "--atom", atom.name], all(holds)))
                for argv, answer in queries:
                    shown = "true\n" if answer else "false\n"
                    run(["query", "--semantics", sem, *argv], shown, 0 if answer else 1)

    @classmethod
    def weighted_programs(cls) -> Iterator[Program]:
        """The weighted corpus: programs with one aggregate literal whose
        weights and bound lie at the 64-bit edge."""
        rng = random.Random("cli differential weighted")
        pool = gen.POOL[:5]
        for _ in range(cls.WEIGHTED):
            program = gen.random_program(rng, pool=pool, max_rules=6)
            func, comparator = rng.choice(gen.AGGREGATE_CASES)
            body = [gen.random_weighted_aggregate(rng, func, comparator, pool, max_dom=4)]
            if rng.random() < 0.5:
                body.insert(rng.randint(0, 1), AtomLiteral(rng.choice(pool), rng.randint(0, 2)))
            rule = Rule(frozenset({rng.choice(pool)}), tuple(body))
            yield Program(program.rules + (rule,))

    def test_weighted_aggregates_match_the_oracles(self, tmp_path, capsys, monkeypatch):
        # one aggregate literal, its weights and bound at the 64-bit edge among
        # them: where the oracle overflows every run refuses with one error
        # line. The engine may also refuse where the oracle answers, since its
        # column builds an aggregate behind any body prefix that holds on some
        # subset; a refusal is exit 2, never an answer
        path = tmp_path / "program.lp"
        overflowing = answered = 0
        for program in self.weighted_programs():
            text = render(program)
            path.write_text(text)
            for sem in ("g", "f"):
                try:
                    models, shown = self.oracle_models(program, sem)
                except AggregateOverflowError:
                    models = shown = None
                    overflowing += 1
                coherent = "true\n" if models else "false\n"
                vias = ("direct", "rew", "str") if sem == "g" else ("direct",)
                runs = [(["models", "--semantics", sem, "--via", via], shown) for via in vias]
                runs.append((["query", "--semantics", sem, "--mode", "coherent"], coherent))
                for (argv, expected), crossover in itertools.product(runs, CROSSOVERS):
                    monkeypatch.setattr(semantics, "_CROSSOVER", crossover)
                    code = main([argv[0], str(path), *argv[1:]])
                    out, err = capsys.readouterr()
                    assert code in (0, 1, 2), (argv, text)
                    assert "Traceback" not in err and "error: internal" not in err, (argv, err)
                    if code == 2:
                        assert out == "" and err.count("\n") == 1, (argv, text, err)
                        assert err.startswith("error: ") and "64-bit" in err, (argv, text, err)
                        continue
                    assert models is not None, (argv, text)
                    assert (code, out, err) == (0 if models else 1, expected, ""), (argv, text)
                    answered += 1
        assert overflowing > 10 and answered > 500

    def test_weighted_aggregates_checked_together(self, tmp_path, capsys, monkeypatch):
        # counted: the weighted corpus with a free choice over every other
        # atom (helpers.half_chosen) hands _accepted 492 candidates in 173
        # batches, and 16 of its 240 solves raise an overflow error. Each
        # solve prints the same models, or the same one error line, with
        # every block's candidates checked together and with none, and no
        # overflow error leaves _accepted: an aggregate whose sum can leave
        # the range is built there only behind a body prefix that holds at
        # a candidate, where the pass before the first block has raised
        path = tmp_path / "program.lp"
        accepted = semantics._accepted
        batches: list = []  # each batch's size
        leaked: list = []  # each overflow error raised inside _accepted

        def wrapped(rules, batch, *args):
            batches.append(len(batch))
            try:
                return accepted(rules, batch, *args)
            except AggregateOverflowError as error:
                leaked.append(error)
                raise

        monkeypatch.setattr(semantics, "_accepted", wrapped)
        refused = 0
        for program in map(half_chosen, self.weighted_programs()):
            path.write_text(text := render(program))
            for sem in ("g", "f"):
                seen = []
                for crossover in CROSSOVERS:
                    monkeypatch.setattr(semantics, "_CROSSOVER", crossover)
                    code = main(["models", str(path), "--semantics", sem])
                    seen.append((code, *capsys.readouterr()))
                assert seen[0] == seen[1], (sem, text)
                code, out, err = seen[0]
                if code == 2:
                    assert out == "" and err.startswith("error: ") and "64-bit" in err, err
                    refused += 1
                else:
                    assert (code, out, err) == (
                        0 if out else 1, self.oracle_models(program, sem)[1], ""
                    ), (sem, text)
        assert not leaked
        assert sum(batches) > 400 and len(batches) > 150 and refused > 10


class TestBlockDifferential:
    """The enumerator's blocks, atom classes and batched checks change no
    byte: with blocks of 2**2 and 2**4 subsets, with no atom classes, and
    with every block's candidates checked together after the first model or
    none (CROSSOVERS), every solving command gives the exit code, stdout
    and stderr it gives with one block (_BLOCK_ATOMS exceeds every program
    here), its classes and the default crossover, on every generated family
    and on aggregates with weights at the 64-bit edge, whose overflow errors
    must name the same subset."""

    PROGRAMS = 40  # per family
    WEIGHTED = 60

    @staticmethod
    def outputs(argv: list, capsys, monkeypatch, blocks: dict | None = None) -> list:
        """(code, stdout, stderr) of one command under one block, then
        under blocks of 2**4 and 2**2 subsets, first with atom classes and
        then without, then under one block and blocks of 2**2 at each of
        CROSSOVERS. Given `blocks`, each block built in the first six runs
        is appended to blocks[True] with classes and to blocks[False]
        without, as helpers.program_blocks records it."""
        seen = []
        one = semantics._BLOCK_ATOMS
        for classes in (True, False):
            if not classes:
                without_classes(monkeypatch)
            if blocks is not None:
                program_blocks(monkeypatch, blocks[classes])
            for block in (one, 4, 2):
                monkeypatch.setattr(semantics, "_BLOCK_ATOMS", block)
                code = main(argv)
                seen.append((code, *capsys.readouterr()))
            monkeypatch.undo()  # one block and the classes again
        for crossover, block in itertools.product(CROSSOVERS, (one, 2)):
            monkeypatch.setattr(semantics, "_CROSSOVER", crossover)
            monkeypatch.setattr(semantics, "_BLOCK_ATOMS", block)
            code = main(argv)
            seen.append((code, *capsys.readouterr()))
        monkeypatch.undo()
        return seen

    # per family, a floor on the blocks stopped at a top-decided rule, with
    # no atom column read, in the runs without --atom and without classes,
    # where no query leads: those rules lead each block. Read in program
    # order, the rules stopped 7,548 / 1,724 / 444 / 517 / 585 blocks there.
    # With classes the str and rew programs span a block or a few, so the
    # floors count the runs over every atom
    TOP_DECIDED = {
        "large_monotone": 20_000,
        "mixed": 14_000,
        "monotone": 7_000,
        "normal": 5_000,
        "random": 6_000,
    }

    @pytest.mark.parametrize("family", sorted(gen.FAMILIES))
    def test_models_and_queries(self, family, tmp_path, capsys, monkeypatch):
        rng = random.Random(f"blocks {family}")
        path = tmp_path / "program.lp"
        blocks: dict = {True: [], False: []}  # of the runs without --atom, by classes
        for _ in range(self.PROGRAMS):
            program = gen.FAMILIES[family](rng)
            path.write_text(render(program))
            universe = sorted(atoms_of(program))
            # str triples the atoms: at 6 atoms it spans 2**16 blocks of 2**2
            rewrite = len(universe) <= 4
            for sem in ("g", "f"):
                vias = ("direct", "rew", "str") if sem == "g" and rewrite else ("direct",)
                runs = [["models", str(path), "--semantics", sem, "--via", via] for via in vias]
                runs.append(["query", str(path), "--semantics", sem, "--mode", "coherent"])
                if universe:
                    atom = rng.choice(universe).name
                    for mode in ("brave", "cautious"):
                        runs.append(
                            ["query", str(path), "--semantics", sem, "--mode", mode, "--atom", atom]
                        )
                for argv in runs:
                    counted = None if "--atom" in argv else blocks
                    first, *blocked = self.outputs(argv, capsys, monkeypatch, counted)
                    assert first[0] in (0, 1) and first[2] == "", (argv, first)
                    assert blocked == [first] * 9, argv
        for classes, built in blocks.items():
            assert not any(found or reads for _, decided, found, reads in built if decided), classes
        assert sum(decided for _, decided, _, _ in blocks[False]) > self.TOP_DECIDED[family]

    @classmethod
    def weighted_runs(cls, path) -> Iterator[list]:
        """The commands of the weighted corpus: programs with one aggregate
        literal whose weights and bound lie at the 64-bit edge, each written
        to `path` before its commands are given."""
        rng = random.Random("blocks weighted")
        pool = gen.POOL[:5]
        for _ in range(cls.WEIGHTED):
            program = gen.random_program(rng, pool=pool, max_rules=6)
            func, comparator = rng.choice(gen.AGGREGATE_CASES)
            body = [gen.random_weighted_aggregate(rng, func, comparator, pool, max_dom=4)]
            if rng.random() < 0.5:
                body.insert(rng.randint(0, 1), AtomLiteral(rng.choice(pool), rng.randint(0, 2)))
            rule = Rule(frozenset({rng.choice(pool)}), tuple(body))
            program = Program(program.rules + (rule,))
            path.write_text(render(program))
            rewrite = len(atoms_of(program)) <= 4
            for sem in ("g", "f"):
                vias = ("direct", "rew", "str") if sem == "g" and rewrite else ("direct",)
                runs = [["models", str(path), "--semantics", sem, "--via", via] for via in vias]
                for mode in ("coherent", "brave", "cautious"):
                    atom = [] if mode == "coherent" else ["--atom", rng.choice(pool).name]
                    runs.append(["query", str(path), "--semantics", sem, "--mode", mode, *atom])
                yield from runs

    def test_weighted_aggregates_raise_the_same_messages(self, tmp_path, capsys, monkeypatch):
        refused = 0
        for argv in self.weighted_runs(tmp_path / "program.lp"):
            first, *blocked = self.outputs(argv, capsys, monkeypatch)
            assert blocked == [first] * 9, argv
            refused += first[0] == 2
        assert refused > 20

    def test_no_block_builds_a_flagged_aggregate(self, tmp_path, capsys, monkeypatch):
        # counted: with a domain atom fixed true the extremes test can flag
        # an aggregate that overflows on no subset of the block, and the
        # walk to the first overflowing subset would count the fixed atom as
        # optional. Overflow errors are decided before the first block, so
        # no block build reaches such a call; the errors come from
        # _first_overflow calls that raise
        calls = []  # (whether some column is full, whether the aggregate is flagged)
        raised = []  # each _first_overflow call that raises
        aggregate_column, first_overflow = semantics._aggregate_column, semantics._first_overflow

        def checked(spec, columns, full):
            terms = [(w, c) for (w, _), c in zip(spec.elements, columns) if c]
            calls.append((full in columns, semantics._overflows(spec, terms)))
            return aggregate_column(spec, columns, full)

        def located(spec, elements):
            try:
                first_overflow(spec, elements)
            except AggregateOverflowError:
                raised.append(spec)
                raise

        monkeypatch.setattr(semantics, "_aggregate_column", checked)
        monkeypatch.setattr(semantics, "_first_overflow", located)
        for argv in self.weighted_runs(tmp_path / "program.lp"):
            for block in (4, 2):
                monkeypatch.setattr(semantics, "_BLOCK_ATOMS", block)
                main(argv)
                capsys.readouterr()
        assert (True, True) not in calls
        assert calls.count((True, False)) > 1000 and len(raised) > 20

    # the column before the sum's rule is nonempty only where t is false,
    # and the sum's prefix t holds only where t is true: the two hold in
    # different blocks, and the whole space's column still builds the sum
    SPLIT_REACH = (
        "a :- not not a. b :- not not b. t :- not not t.\n"
        ":- t.\n"
        "p :- t, sum{9223372036854775807 : a, 1 : b} >= 0.\n"
    )
    # the sum's prefix holds everywhere, but every block is empty before its
    # rule: the whole space's column stops there and never builds the sum
    EMPTY_BEFORE = (
        "a :- not not a. b :- not not b.\n"
        ":- a. :- not a.\n"
        "p :- sum{9223372036854775807 : a, 1 : b} >= 0.\n"
    )

    @staticmethod
    def in_blocks(path: str, capsys, monkeypatch) -> Iterator[tuple]:
        """(mode, argv, (code, stdout, stderr)) of models and every query on
        a, b and p, under G and F, with blocks of 2**18, 2**2 and 2**1."""
        queries = [("coherent", [])] + [
            (mode, ["--atom", atom]) for mode in ("brave", "cautious") for atom in "abp"
        ]
        for block in (18, 2, 1):
            monkeypatch.setattr(semantics, "_BLOCK_ATOMS", block)
            for sem in ("g", "f"):
                runs = [("models", ["models", path])]
                runs += [(mode, ["query", path, "--mode", mode, *atom]) for mode, atom in queries]
                for mode, argv in runs:
                    code = main([*argv, "--semantics", sem])
                    yield mode, [block, *argv], (code, *capsys.readouterr())

    def test_an_overflow_reached_across_blocks_is_raised(self, tmp_path, capsys, monkeypatch):
        path = write_program(tmp_path, self.SPLIT_REACH)
        error = "error: sum 9223372036854775808 exceeds the 64-bit integer range\n"
        for _, argv, seen in self.in_blocks(path, capsys, monkeypatch):
            assert seen == (2, "", error), argv

    def test_an_overflow_behind_empty_blocks_never_raises(self, tmp_path, capsys, monkeypatch):
        # incoherent: no model, nothing is brave and everything is cautious
        path = write_program(tmp_path, self.EMPTY_BEFORE)
        expected = {
            "models": (1, "", ""),
            "coherent": (1, "false\n", ""),
            "brave": (1, "false\n", ""),
            "cautious": (0, "true\n", ""),
        }
        for mode, argv, seen in self.in_blocks(path, capsys, monkeypatch):
            assert seen == expected[mode], argv


def readme_transcript() -> list:
    """(command, output) for each `$ gzasp ...` line of the README's code
    blocks, the command without its `gzasp` prefix and as the test id."""
    transcript = []
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        for entry in block.split("\n$ gzasp ")[1:]:
            command, _, output = entry.partition("\n")
            transcript.append(pytest.param(command, output.rstrip("\n") + "\n", id=command))
    return transcript


class TestReadme:
    """The README's command-line transcript, run on the program it shows
    as demo.lp."""

    def test_demo_is_the_golden_program(self):
        assert "```\n" + GOLDEN_TEXT + "```" in README.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command,output", readme_transcript())
    def test_transcript(self, command, output, golden_file, capsys):
        argv = [golden_file if word == "demo.lp" else word for word in command.split()]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        digest = hashlib.sha256(GOLDEN_TEXT.encode()).hexdigest()
        # the README abbreviates the digest and wraps the --json line
        out = out.replace(digest, f"{digest[:4]}…{digest[-4:]}")
        if "--json" in argv:
            output = output.replace("\n ", " ")
        assert (out.encode(), err) == (output.encode(), "")


class TestCachedParser:
    """main builds its argparse parser once per process; no call may see
    the options or the failure of the one before."""

    def test_built_once(self):
        assert gzasp.cli._build_parser() is gzasp.cli._build_parser()

    def test_flags_do_not_carry_over(self, golden_file, capsys):
        assert main(["models", golden_file, "--json", "--timing"]) == 0
        assert capsys.readouterr().out.startswith("{")
        assert main(["models", golden_file]) == 0
        assert capsys.readouterr().out == "{}\n{a,c}\n"

    def test_atom_does_not_carry_over(self, golden_file, capsys):
        assert main(["query", golden_file, "--mode", "brave", "--atom", "a"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["query", golden_file, "--mode", "coherent"]) == 0
        assert capsys.readouterr() == ("true\n", "")

    def test_rejected_call_leaves_no_trace(self, golden_file, capsys):
        with pytest.raises(SystemExit) as rejected:
            main(["query", golden_file, "--mode", "sideways"])
        assert rejected.value.code == 2
        capsys.readouterr()
        assert main(["parse", golden_file]) == 0
        assert capsys.readouterr() == (GOLDEN_TEXT, "")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["models", "--json"],
            ["rewrite", "--method", "str"],
            ["stats"],
        ],
    )
    def test_repeat_runs_are_identical(self, golden_file, capsys, argv):
        command, rest = argv[0], argv[1:]
        assert main([command, golden_file] + rest) == 0
        first, _ = capsys.readouterr()
        assert main([command, golden_file] + rest) == 0
        second, _ = capsys.readouterr()
        assert first == second


class TestCrashes:
    """Exit 1 means false/incoherent, so an unexpected exception must exit
    2 with one diagnostic line instead of a traceback."""

    @pytest.mark.parametrize(
        "error", [RuntimeError("engine broke\nsecond line"), MemoryError()]
    )
    def test_unexpected_exception_exits_two(self, golden_file, monkeypatch, capsys, error):
        def crash(*args, **kwargs):
            raise error

        monkeypatch.setattr(gzasp.cli, "stable_models", crash)
        code = main(["models", golden_file])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert type(error).__name__ in err
        assert "Traceback" not in err

    def test_keyboard_interrupt_propagates(self, golden_file, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(gzasp.cli, "stable_models", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["models", golden_file])


class TestEntryPoint:
    def test_module_invocation(self, golden_file):
        # the child imports gzasp from wherever this process did
        source = str(Path(gzasp.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, inherited))))
        proc = subprocess.run(
            [sys.executable, "-m", "gzasp.cli", "models", golden_file],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{}\n{a,c}\n"
