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

import gen
from helpers import GOLDEN_REW_TEXT, GOLDEN_STR_TEXT, GOLDEN_TEXT

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
