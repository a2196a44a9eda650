"""Regenerate perfbench/refs.json: the stored program pools and their answers.

    python3 perfbench/make_refs.py [pool ...]    # enum via query agg-wide

Every answer comes from ``naive_stable_models`` in ``tests/oracles.py``,
which walks subsets with itertools and shares no code with
``gzasp.reasoner``. It takes about 25 s per program and reduct at n = 18
on a 2-vCPU shared machine, which is why the answers are stored instead of
computed per run. The whole file takes about ten minutes on one core.

Pools are the first generator seeds of each size whose program has a
candidate. For agg-wide the seed search also alternates between G-coherent
and G-incoherent programs, so that both answers occur in every domain band.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import corpus  # noqa: E402
from gzasp.parser import parse  # noqa: E402
from oracles import naive_models, naive_stable_models  # noqa: E402

# (n, programs) per size. Seeds count up from 1000 * n for enum and via,
# and from 50000 + 1000 * n for query, so query never sees an enum program.
ENUM_SIZES = ((14, 4), (15, 4), (16, 3), (17, 2), (18, 1))
VIA_SIZES = ((6, 3), (7, 3), (8, 2))
QUERY_SIZES = ((14, 2), (15, 2), (16, 2), (17, 1), (18, 1))
QUERY_SEED_BASE = 50000
# (domain, form, wanted G-coherence) at n = 16: each domain has both
# forms and both answers, and each form has both answers.
WIDE_N = 16
WIDE_SHAPES = tuple(
    (d, form, (i + j) % 2 == 0)
    for i, d in enumerate((4, 6, 8, 10, 12, 13, 14, 16))
    for j, form in enumerate(("rule", "constraint"))
)
WIDE_SEED_BASE = 90000


def _masks(models, n: int) -> list:
    index = {f"x{i}": i for i in range(n)}
    return sorted(sum(1 << index[atom.name] for atom in model) for model in models)


def _candidates(program: list) -> int:
    return len(naive_models(parse(corpus.render(program))))


def _solve(entry: dict, program: list, semantics: str) -> list:
    started = time.perf_counter()
    models = naive_stable_models(parse(corpus.render(program)), semantics)
    entry[semantics] = _masks(models, entry["n"])
    print(
        f"  {entry['family']} n={entry['n']} seed={entry['seed']} {semantics}: "
        f"{len(models)} of {entry['candidates']} in {time.perf_counter() - started:.1f}s",
        flush=True,
    )
    return entry[semantics]


def half_guessed_pool(sizes, seed_base: int, semantics: str) -> list:
    """The first seeds of each size whose program has at least one
    candidate (classical model); a program without one is refused by the
    first column operations and exercises nothing."""
    pool = []
    for n, count in sizes:
        seed = seed_base + 1000 * n
        for _ in range(count):
            while True:
                program = corpus.half_guessed(random.Random(seed), n)
                seed += 1
                candidates = _candidates(program)
                if candidates:
                    break
            entry = {
                "family": "half-guessed",
                "seed": seed - 1,
                "n": n,
                "sha256": _digest(program),
                "candidates": candidates,
            }
            for sem in semantics:
                _solve(entry, program, sem)
            pool.append(entry)
    return pool


def wide_pool() -> list:
    """Seeds whose half-guessed base has a candidate, so the wide aggregate
    column is built, and whose G-coherence is the wanted one."""
    pool = []
    seed = WIDE_SEED_BASE
    for domain, form, wanted in WIDE_SHAPES:
        while True:
            seed += 1
            if not _candidates(corpus.half_guessed(random.Random(seed), WIDE_N)):
                continue
            program = corpus.wide_aggregate(random.Random(seed), WIDE_N, domain, form)
            entry = {
                "family": "wide-aggregate",
                "seed": seed,
                "n": WIDE_N,
                "domain": domain,
                "form": form,
                "sha256": _digest(program),
                "candidates": _candidates(program),
            }
            if bool(_solve(entry, program, "g")) == wanted:
                break
        _solve(entry, program, "f")
        pool.append(entry)
    return pool


def _digest(program: list) -> str:
    return hashlib.sha256(corpus.render(program).encode()).hexdigest()


POOLS = {
    "enum": lambda: half_guessed_pool(ENUM_SIZES, 0, "gf"),
    "via": lambda: half_guessed_pool(VIA_SIZES, 0, "g"),
    "query": lambda: half_guessed_pool(QUERY_SIZES, QUERY_SEED_BASE, "gf"),
    "agg-wide": wide_pool,
}


def main(names: list) -> None:
    """Rebuild the named pools (all when none are named) and keep the
    others as stored."""
    out = HERE / "refs.json"
    refs = json.loads(out.read_text()) if names and out.exists() else {}
    for name in names or POOLS:
        refs[name] = POOLS[name]()
    out.write_text(json.dumps({name: refs[name] for name in POOLS}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
