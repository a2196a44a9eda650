"""Expected answers that never come from ``gzasp.reasoner``.

Two sources:

* ``refs.json`` holds the stable models of every stored pool program under
  both reducts, computed once by ``make_refs.py`` with the naive oracle of
  the test suite (``tests/oracles.py``), which is too slow to run per
  operation at n = 18.
* For the monotone family, the G answer and the ``stats`` report are
  computed here from the benchmark's own program structures: a least
  fixpoint of the immediate-consequence operator, the G-reduct by its
  definition, and the symbol counts by the definitions of size and of the
  rew/str rewritings.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import corpus

REFS_PATH = Path(__file__).with_name("refs.json")


def load_pool(workload: str) -> list:
    """The stored pool of one workload, each entry with its regenerated
    program. Raises RuntimeError when the generator no longer reproduces
    the stored text, because the stored answers would then be wrong."""
    with REFS_PATH.open() as handle:
        entries = json.load(handle)[workload]
    for entry in entries:
        program = build(entry)
        digest = hashlib.sha256(corpus.render(program).encode()).hexdigest()
        if digest != entry["sha256"]:
            raise RuntimeError(
                f"refs.json is stale for {workload} seed {entry['seed']}; "
                "rerun perfbench/make_refs.py"
            )
        entry["program"] = program
    return entries


def build(entry: dict) -> list:
    rng = random.Random(entry["seed"])
    if entry["family"] == "half-guessed":
        return corpus.half_guessed(rng, entry["n"])
    return corpus.wide_aggregate(rng, entry["n"], entry["domain"], entry["form"])


def models_from_masks(masks: list, atoms: list) -> set:
    """Decode stored models: bit i of a mask is atom ``atoms[i]``."""
    return {
        frozenset(atom for i, atom in enumerate(atoms) if mask >> i & 1)
        for mask in masks
    }


def _holds(lit, interp) -> bool:
    if lit[0] == "lit":
        return (lit[1] in interp) != (lit[2] % 2 == 1)
    _, func, elements, comparator, bound = lit
    selected = [weight for weight, atom in elements if atom in interp]
    if func == "count":
        value = len(selected)
    elif func == "sum":
        value = sum(selected)
    elif not selected:
        return False
    else:
        value = max(selected)
    if comparator != ">=":
        raise ValueError(f"the monotone family compares with >= only, not {comparator}")
    return value >= bound


def _least_fixpoint(program: list) -> frozenset:
    current: frozenset = frozenset()
    while True:
        step = frozenset(
            head[0] for head, body in program if all(_holds(lit, current) for lit in body)
        )
        if step == current:
            return current
        current = step


def monotone_g_coherent(program: list) -> bool:
    """A monotone program is G-coherent iff its least fixpoint M is the
    least fixpoint of its G-reduct with respect to M: the rules whose body
    M satisfies, each aggregate replaced by its domain atoms true in M."""
    fixpoint = _least_fixpoint(program)
    reduct = []
    for head, body in program:
        if not all(_holds(lit, fixpoint) for lit in body):
            continue
        kept = []
        for lit in body:
            if lit[0] == "lit":
                kept.append(lit)
            else:
                kept.extend(("lit", atom, 0) for _, atom in lit[2] if atom in fixpoint)
        reduct.append((head, kept))
    return _least_fixpoint(reduct) == fixpoint


def monotone_stats(program: list) -> str:
    """The exact ``stats`` report of a monotone program.

    Size counts one per head atom and body literal and |dom| per aggregate.
    rew adds, per rule, the true copies of the atoms in its aggregate
    domains, and two one-literal rules per atom (4 symbols); str adds the
    same padding and 10 symbols per atom (two copy rules, one guess, two
    two-literal constraints)."""
    atoms = len(corpus.atoms_in(program))
    size = 0
    padding = 0
    aggregates = []
    for head, body in program:
        size += len(head)
        domain = set()
        for lit in body:
            if lit[0] == "lit":
                size += 1
            else:
                size += len(lit[2])
                domain.update(atom for _, atom in lit[2])
                aggregates.append(lit)
        padding += len(domain)
    size_rew = size + padding + 4 * atoms
    size_str = size + padding + 10 * atoms
    bound_rew = 4 * atoms + 2 * size
    bound_str = 10 * atoms + 2 * size
    lines = [
        f"atoms {atoms}",
        f"size {size}",
        "fragment {} × " + ("M" if aggregates else "∅"),
    ]
    lines += [f"aggregate {corpus.render_literal(lit)} MONOTONE" for lit in aggregates]
    lines += [
        f"size_rew {size_rew}",
        f"size_str {size_str}",
        f"bound_rew {bound_rew} {'ok' if size_rew <= bound_rew else 'exceeded'}",
        f"bound_str {bound_str} {'ok' if size_str <= bound_str else 'exceeded'}",
    ]
    return "\n".join(lines) + "\n"
