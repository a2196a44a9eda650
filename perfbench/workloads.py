"""The four workloads: which CLI calls each makes, on which programs, and
how each output is checked.

Every operation is one ``gzasp.cli.main([...])`` call on a program file
written before timing starts. A builder takes two generators. ``rng``
picks the order of the operations and, for query, the modes and atoms.
``program_rng`` picks, for every stored pool program, a fresh renaming of
its atoms (gzasp orders atoms by name, so a renaming changes the work), and
for asp-m it generates the programs outright. Builders called with the same
``rng`` seed and different ``program_rng`` seeds give variants of one
corpus: the same operations in the same order on different programs. The
same seed gives the same inputs. Why each workload was chosen is recorded
with it in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
import reference

# Under F, a wide aggregate in a rule body stays in every reduct whose rule
# fires, and each such candidate rebuilds the 2**|dom| truth table for its
# subspace: at n=16 one call takes 1.2 s at domain 8 and 10-240 s at domain
# 12-16, longer than a run. F therefore runs every constraint form and the
# rule forms up to this domain; G runs all of them.
WIDE_F_RULE_MAX_DOMAIN = 8
# str at n = 8 enumerates 24 atoms over 2**24-bit (2 MiB) columns. That
# call is memory-bound: when the shared machine slows, it slows far less
# than interpreted code and than the calibration loop, so scaling it to the
# reference speed over-corrects it, and with it in the corpus the enum tail
# spread 0.31 across runs (0.05 without). rew runs at every size, str up to
# this one.
VIA_STR_MAX_N = 7
QUERY_MODES = ("coherent", "brave", "cautious")
ASP_M_SIZES = tuple(range(200, 401, 20))


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[int, str], bool]


def _models_check(expected: set) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        lines = out.splitlines()
        printed = {frozenset(filter(None, line[1:-1].split(","))) for line in lines}
        return (
            code == (0 if expected else 1)
            and len(printed) == len(lines)
            and printed == expected
        )

    return check


def _answer_check(answer: bool) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        return code == (0 if answer else 1) and out == ("true\n" if answer else "false\n")

    return check


def _text_check(text: str) -> Callable[[int, str], bool]:
    return lambda code, out: code == 0 and out == text


def _renamed(rng: random.Random, entry: dict) -> tuple:
    """The entry's program under a seeded permutation of x0..x{n-1}, and its
    stored models decoded into the new names."""
    n = entry["n"]
    targets = [f"x{i}" for i in range(n)]
    rng.shuffle(targets)
    mapping = {f"x{i}": target for i, target in enumerate(targets)}
    program = corpus.rename(entry["program"], mapping)
    models = {
        sem: reference.models_from_masks(entry[sem], targets)
        for sem in ("g", "f")
        if sem in entry
    }
    return program, models


def _write(workdir: Path, name: str, program: list) -> str:
    path = workdir / f"{name}.lp"
    path.write_text(corpus.render(program))
    return str(path)


def enum(rng: random.Random, program_rng: random.Random, workdir: Path) -> list:
    ops = []
    for entry in reference.load_pool("enum"):
        program, models = _renamed(program_rng, entry)
        path = _write(workdir, f"enum-{entry['seed']}", program)
        for sem in ("g", "f"):
            ops.append(
                Op(f"models {sem} n={entry['n']}", ["models", path, "--semantics", sem], _models_check(models[sem]))
            )
    for entry in reference.load_pool("via"):
        program, models = _renamed(program_rng, entry)
        path = _write(workdir, f"via-{entry['seed']}", program)
        for via in ("rew", "str") if entry["n"] <= VIA_STR_MAX_N else ("rew",):
            # the paper's equivalence: G-stable models of the input
            ops.append(
                Op(f"models via {via} n={entry['n']}", ["models", path, "--via", via], _models_check(models["g"]))
            )
    rng.shuffle(ops)
    return ops


def query(rng: random.Random, program_rng: random.Random, workdir: Path) -> list:
    ops = []
    for entry in reference.load_pool("query"):
        program, models = _renamed(program_rng, entry)
        path = _write(workdir, f"query-{entry['seed']}", program)
        atoms = sorted(corpus.atoms_in(program))
        for sem in ("g", "f"):
            for mode in rng.sample(QUERY_MODES, 2):
                argv = ["query", path, "--mode", mode, "--semantics", sem]
                if mode == "coherent":
                    answer = bool(models[sem])
                else:
                    atom = rng.choice(atoms)
                    argv += ["--atom", atom]
                    holds = [atom in model for model in models[sem]]
                    answer = any(holds) if mode == "brave" else all(holds)
                ops.append(Op(f"query {mode} {sem} n={entry['n']}", argv, _answer_check(answer)))
    rng.shuffle(ops)
    return ops


def agg_wide(rng: random.Random, program_rng: random.Random, workdir: Path) -> list:
    ops = []
    for entry in reference.load_pool("agg-wide"):
        program, models = _renamed(program_rng, entry)
        path = _write(workdir, f"wide-{entry['seed']}", program)
        sems = ["g"]
        if entry["form"] == "constraint" or entry["domain"] <= WIDE_F_RULE_MAX_DOMAIN:
            sems.append("f")
        for sem in sems:
            label = f"models {sem} {entry['form']} dom={entry['domain']}"
            ops.append(Op(label, ["models", path, "--semantics", sem], _models_check(models[sem])))
    rng.shuffle(ops)
    return ops


def asp_m(rng: random.Random, program_rng: random.Random, workdir: Path) -> list:
    ops = []
    for index, size in enumerate(ASP_M_SIZES):
        program = corpus.monotone(program_rng, size, cyclic=index % 2 == 1)
        path = _write(workdir, f"monotone-{size}", program)
        ops.append(
            Op(f"query coherent size={size}", ["query", path, "--mode", "coherent"], _answer_check(reference.monotone_g_coherent(program)))
        )
        ops.append(Op(f"stats size={size}", ["stats", path], _text_check(reference.monotone_stats(program))))
    rng.shuffle(ops)
    return ops


BUILDERS = {"enum": enum, "query": query, "agg-wide": agg_wide, "asp-m": asp_m}
