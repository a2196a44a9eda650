"""End-to-end command-line tests, driving main() in process.

Every positive case freezes exact stdout bytes; errors assert the exit code
and a stderr diagnostic. One subprocess test checks the module entry point.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gzasp
import gzasp.cli
from gzasp.cli import main
from gzasp.core import AtomLiteral, Program, Rule, atoms_of
from gzasp.errors import AggregateOverflowError
from gzasp.parser import render

import gen
import oracles
from helpers import GOLDEN_REW_TEXT, GOLDEN_STR_TEXT, GOLDEN_TEXT

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
        # 21 atoms are within the classification cap, which is the atom guard
        wide = ", ".join(f"a{i}" for i in range(21))
        path = write_program(tmp_path, f"p :- count{{{wide}}} >= 1.\n")
        code = main(["stats", path])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        shown = ", ".join(sorted(f"a{i}" for i in range(21)))  # in name order
        assert f"aggregate count{{{shown}}} >= 1 MONOTONE" in out.splitlines()

    def test_equal_aggregates_are_classified_once(self, tmp_path, monkeypatch, capsys):
        # one classification, and still one aggregate line per occurrence
        tables = []
        table = gzasp.semantics._table

        def counted(spec):
            tables.append(spec)
            return table(spec)

        monkeypatch.setattr(gzasp.semantics, "_table", counted)
        text = "q. p :- count{q, r} >= 1. s :- count{q, r} >= 1. t :- count{q, r} >= 1.\n"
        assert main(["stats", write_program(tmp_path, text)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2:6] == [
            "fragment {} × M",
            *["aggregate count{q, r} >= 1 MONOTONE"] * 3,
        ]
        assert len(tables) == 1

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
    one diagnostic line, never a traceback or an internal error."""

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
    def test_models_and_queries_match_the_oracles(self, family, tmp_path, capsys):
        rng = random.Random(f"cli differential {family}")
        path = tmp_path / "program.lp"

        def run(argv: list, expected_out: str, expected_code: int) -> None:
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

    def test_weighted_aggregates_match_the_oracles(self, tmp_path, capsys):
        # one aggregate literal, its weights and bound at the 64-bit edge among
        # them: where the oracle overflows every run refuses with one error
        # line. The engine may also refuse where the oracle answers, since its
        # column builds an aggregate behind any body prefix that holds on some
        # subset; a refusal is exit 2, never an answer
        rng = random.Random("cli differential weighted")
        path = tmp_path / "program.lp"
        pool = gen.POOL[:5]
        overflowing = answered = 0
        for _ in range(self.WEIGHTED):
            program = gen.random_program(rng, pool=pool, max_rules=6)
            func, comparator = rng.choice(gen.AGGREGATE_CASES)
            body = [gen.random_weighted_aggregate(rng, func, comparator, pool, max_dom=4)]
            if rng.random() < 0.5:
                body.insert(rng.randint(0, 1), AtomLiteral(rng.choice(pool), rng.randint(0, 2)))
            rule = Rule(frozenset({rng.choice(pool)}), tuple(body))
            program = Program(program.rules + (rule,))
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
                for argv, expected in runs:
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
