"""Stable-model enumeration, the monotone fast path, and the three queries.

The enumeration engine packs truth tables into big integers; every frozen
expectation here was derived by hand, and the engine is additionally checked
against the subset-walking oracles on random programs.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import random
import sys
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp.core import (
    COMPARATORS,
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
)
from gzasp import reasoner, semantics
from gzasp.errors import (
    AggregateOverflowError,
    DomainTooLargeError,
    GzaspError,
    NotAspMError,
    PreconditionError,
    TooManyAtomsError,
)
from gzasp.parser import parse
from gzasp.reasoner import (
    ModelSet,
    Semantics,
    brave,
    cautious,
    check_coherence,
    gsm_asp_m,
    is_stable,
    solve_via_rewriting,
    stable_models,
)
from gzasp.rewriter import rewrite_rew, rewrite_str
from gzasp.semantics import aggregate_truth_table

import gen
import oracles
from helpers import (
    GOLDEN_F_STABLE,
    GOLDEN_G_STABLE,
    GOLDEN_REW_F_STABLE,
    GOLDEN_STR_F_STABLE,
    atoms,
    golden_program,
    minimality_columns,
    program_blocks,
    without_classes,
)

GADGET = "p :- count{p} >= 0."


class TestModelSet:
    def test_canonical_order(self):
        models = ModelSet([atoms("b"), atoms("ac"), atoms(""), atoms("a")])
        assert list(models) == [atoms(""), atoms("a"), atoms("b"), atoms("ac")]

    def test_cardinality_sorts_before_names(self):
        models = ModelSet([atoms("ab"), atoms("c")])
        assert list(models) == [atoms("c"), atoms("ab")]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ModelSet([atoms("a"), atoms("a")])

    def test_container_protocol(self):
        models = ModelSet([atoms("a"), atoms("")])
        assert len(models) == 2
        assert atoms("a") in models
        assert atoms("b") not in models
        assert models == ModelSet([atoms(""), atoms("a")])
        assert models != ModelSet([atoms("")])

    def test_other_types_and_repr(self):
        models = ModelSet([atoms("ba"), atoms("")])
        assert models.__eq__([atoms(""), atoms("ab")]) is NotImplemented
        assert models != [atoms(""), atoms("ab")]
        assert repr(models) == "ModelSet([{}, {a, b}])"
        assert repr(ModelSet()) == "ModelSet([])"


def _refuse_column(*args):
    raise AssertionError("a column was built for a minimality check")


class TestIsStable:
    GOLDEN = [
        ("", Semantics.G, True),
        ("ac", Semantics.G, True),
        ("ab", Semantics.G, False),
        ("", Semantics.F, True),
        ("ab", Semantics.F, True),
        ("ac", Semantics.F, True),
        ("c", Semantics.G, False),
        ("c", Semantics.F, False),
        ("abc", Semantics.F, False),
        ("a", Semantics.G, False),  # not even a model
    ]

    @pytest.mark.parametrize("interp,sem,expected", GOLDEN)
    def test_golden(self, interp, sem, expected):
        assert is_stable(golden_program(), atoms(interp), sem) is expected

    def test_rejects_foreign_atoms(self):
        with pytest.raises(PreconditionError):
            is_stable(golden_program(), frozenset({Atom("d")}), Semantics.G)

    def test_builds_no_reduct_program(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a reduct Program was built")

        for module in (reasoner, semantics):
            monkeypatch.setattr(module, "f_reduct", refuse)
            monkeypatch.setattr(module, "g_reduct", refuse)
        for interp, sem, expected in self.GOLDEN:
            assert is_stable(golden_program(), atoms(interp), sem) is expected

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_one_head_atom_inside_takes_the_least_model(self, sem, monkeypatch):
        # the reduct at {a, c} or {b, c} keeps one head atom of a | b
        program = parse("a | b :- c. c.")
        monkeypatch.setattr(semantics, "_column", _refuse_column)
        for interp in oracles.subsets(atoms_of(program)):
            if len(interp & atoms("ab")) < 2:
                expected = interp in oracles.naive_stable_models(program, sem.value)
                assert is_stable(program, interp, sem) is expected, interp
        assert is_stable(program, atoms("ac"), sem)

    def test_grounded_aggregate_takes_the_least_model(self, monkeypatch):
        # under G the count becomes c, and the reduct at {a, c} is Horn
        program = parse("a | b :- count{c} >= 1. c.")
        monkeypatch.setattr(semantics, "_column", _refuse_column)
        assert is_stable(program, atoms("ac"), Semantics.G)
        assert not is_stable(program, atoms("c"), Semantics.G)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_cut_heads_do_not_need_the_column(self, sem, monkeypatch):
        # at {c, a0..a29} a column would have 2**31 bits; never run unpatched
        program = parse("c.\n" + "".join(f"a{i} | b{i} :- c.\n" for i in range(30)))
        monkeypatch.setattr(semantics, "_column", _refuse_column)
        interp = frozenset(Atom(f"a{i}") for i in range(30)) | {Atom("c")}
        assert is_stable(program, interp, sem)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_two_head_atoms_inside_reach_the_column(self, sem, monkeypatch):
        program = parse("a | b. a :- b. b :- a.")
        built = []
        column = semantics._column

        def counted(*args):
            built.append(args[0])
            return column(*args)

        monkeypatch.setattr(semantics, "_column", counted)
        assert is_stable(program, atoms("ab"), sem)
        assert built == [0b11]
        assert list(stable_models(program, sem)) == [atoms("ab")]
        # read as the facts a and b, a | b would pass {a, b} as minimal
        del built[:]
        assert not is_stable(parse("a | b."), atoms("ab"), sem)
        assert built == [0b11]

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_least_model_rounds_decide_both_ways(self, sem, monkeypatch):
        # a | b drops out of the rounds, which reach {a, b, c} in the first
        # reduct and stop at {a}, a model of every rule, in the second
        monkeypatch.setattr(semantics, "_column", _refuse_column)
        assert is_stable(parse("c. a | b :- c. a :- c. b :- c."), atoms("abc"), sem)
        assert not is_stable(parse("a | b. a."), atoms("ab"), sem)

    def test_rounds_through_a_nonconvex_aggregate_reach_the_column(self, monkeypatch):
        # under F the rounds fire a while count{a, b} != 1 holds at {} and
        # so reach {a, b}, but {b} is a smaller model: the count is 1 there
        program = parse("a :- count{a, b} != 1. b.")
        built = minimality_columns(monkeypatch)
        assert not is_stable(program, atoms("ab"), Semantics.F)
        assert built == [0b11]
        assert set(stable_models(program, Semantics.F)) == oracles.naive_stable_models(
            program, "f"
        )

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_column_is_refused_above_the_guard(self, sem, monkeypatch):
        # the reduct at all atoms keeps every disjunction, which neither
        # test decides; no column is built here, and the double's nonzero
        # column (a smaller model) refutes
        def pairs(n):
            return parse("".join(f"a{i} | b{i}.\n" for i in range(n)))

        built = []
        monkeypatch.setattr(
            semantics, "_column", lambda index, *args: built.append(index.bit_count()) or 1
        )
        assert not is_stable(pairs(12), atoms_of(pairs(12)), sem)
        assert built == [24]
        with pytest.raises(TooManyAtomsError) as info:
            is_stable(pairs(13), atoms_of(pairs(13)), sem)
        assert str(info.value) == "interpretation has 26 atoms; the minimality guard allows 24"

    def test_one_check_builds_each_atom_column_once(self, monkeypatch):
        # counted, not timed: at all 16 atoms of the pairs neither test
        # decides, and the column reads each atom twice, in `:- M.` and in
        # a head; without a cache per check it builds 32 atom columns
        program = parse("".join(f"a{i} | b{i}.\n" for i in range(8)))
        built = []
        pattern = semantics._pattern
        monkeypatch.setattr(
            semantics, "_pattern", lambda *args: built.append(args) or pattern(*args)
        )
        assert not semantics.is_minimal_model(atoms_of(program), program)
        assert len(built) == 16 == len(set(built))
        del built[:]
        assert not is_stable(program, atoms_of(program), Semantics.F)
        assert len(built) == 16 == len(set(built))

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_enumerator_checks_follow_its_own_guard(self, sem, monkeypatch):
        # the enumerator's own guard, not DEFAULT_MAX_ATOMS, bounds its
        # checks: at max_atoms=26 a 26-atom candidate reaches its column. The
        # patched columns keep it the only candidate, and minimal
        program = parse("".join(f"a{i} | b{i}.\n" for i in range(13)))
        built = []

        def column(index, rules, pattern, supported=None, fixed=0, aliases=None):
            if supported:  # the program column: only the last block's top bit
                return 1 << index if index | fixed == (1 << 26) - 1 else 0
            built.append(index)
            return 0  # no smaller model: minimal

        monkeypatch.setattr(semantics, "_column", column)
        assert list(stable_models(program, sem, max_atoms=26)) == [atoms_of(program)]
        assert built == [(1 << 26) - 1]

    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_every_interpretation_against_oracles(self, family):
        # is_stable and is_minimal_model share the enumerator's compiled
        # check; a queried atom outside the program is in no stable model
        rng = random.Random(f"interpretations-{family}")
        outside = Atom("z")
        for _ in range(80):
            program = gen.FAMILIES[family](rng)
            universe = atoms_of(program)
            for sem in Semantics:
                models = oracles.naive_stable_models(program, sem.value)
                for interp in oracles.subsets(universe):
                    assert is_stable(program, interp, sem) is (interp in models), interp
                assert not brave(program, outside, sem)
                assert cautious(program, outside, sem) is (not models)
            for interp in oracles.subsets(universe | {outside}):
                assert semantics.is_minimal_model(interp, program) is (
                    oracles.naive_is_minimal_model(interp, program)
                ), interp

    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_column_alone_against_oracles(self, family, monkeypatch):
        # the minimality rounds derive nothing, so neither polynomial test
        # decides: the column of the reduct plus `:- M.` does (or the empty
        # set, a model of every rule, refutes). The fixpoint route, which
        # passes no stop, keeps the real rounds. The interval pass runs only
        # after rounds that reach the candidate, so never here
        least_model = semantics._least_model

        def no_rounds(rules, stop=-1, fires=None):
            assert fires is None, "the interval pass ran"
            return 0 if stop != -1 else least_model(rules)

        monkeypatch.setattr(semantics, "_least_model", no_rounds)
        rng = random.Random(f"column alone-{family}")
        for _ in range(40):
            program = gen.FAMILIES[family](rng)
            universe = atoms_of(program)
            for sem in Semantics:
                models = oracles.naive_stable_models(program, sem.value)
                assert set(stable_models(program, sem)) == models
                for interp in oracles.subsets(universe):
                    assert is_stable(program, interp, sem) is (interp in models), interp
                    assert semantics.is_minimal_model(interp, program) is (
                        oracles.naive_is_minimal_model(interp, program)
                    ), interp


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_modules() -> tuple:
    """perfbench's reference and corpus modules, imported without writing
    anything under perfbench/ and dropped from sys.modules again."""
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("reference"), importlib.import_module("corpus")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        for name in ("reference", "corpus"):
            sys.modules.pop(name, None)


def _benchmark_pool(workload: str) -> list:
    """(program, F-stable models) for each stored program of a benchmark
    pool, regenerated by perfbench/reference.py and checked against its
    stored digest."""
    reference, corpus = _perfbench_modules()
    entries = reference.load_pool(workload)
    return [
        (
            parse(corpus.render(entry["program"])),
            reference.models_from_masks(entry["f"], [Atom(f"x{i}") for i in range(entry["n"])]),
        )
        for entry in entries
    ]


def _disjunctive_programs() -> list[Program]:
    """150 seeded programs, each with a rule of two or more head atoms."""
    rng = random.Random("disjunctive minimality")
    programs = []
    while len(programs) < 150:
        program = gen.random_program(rng)
        if any(len(rule.head) > 1 for rule in program):
            programs.append(program)
    return programs


class TestStableModels:
    def test_golden_g(self):
        models = stable_models(golden_program(), Semantics.G)
        assert set(models) == GOLDEN_G_STABLE
        assert list(models) == [atoms(""), atoms("ac")]

    def test_golden_f(self):
        assert set(stable_models(golden_program(), Semantics.F)) == GOLDEN_F_STABLE

    def test_golden_rewritten(self):
        rew_models = stable_models(rewrite_rew(golden_program()), Semantics.F)
        assert set(rew_models) == GOLDEN_REW_F_STABLE
        str_models = stable_models(rewrite_str(golden_program()), Semantics.F)
        assert set(str_models) == GOLDEN_STR_F_STABLE

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_empty_program(self, sem):
        assert list(stable_models(Program(), sem)) == [frozenset()]

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_two_cycle(self, sem):
        models = stable_models(parse("p :- not q. q :- not p."), sem)
        assert set(models) == {atoms("p"), atoms("q")}

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_double_negation_choice(self, sem):
        models = stable_models(parse("a :- not not a."), sem)
        assert set(models) == {atoms(""), atoms("a")}

    def test_gadget_f_but_not_g(self):
        program = parse(GADGET)
        assert list(stable_models(program, Semantics.G)) == []
        assert set(stable_models(program, Semantics.F)) == {atoms("p")}

    def test_most_minimality_checks_build_no_column(self, monkeypatch):
        # counted, not timed: at all 1,208 models of 150 seeded programs with
        # a disjunctive rule, the least-model rounds leave 151 (G) and 183
        # (F) checks to the column; a test on Horn reducts alone left 454
        # and 572. Every model is checked here, not only the supported ones
        # the enumerator passes on
        checks = []
        minimal, column = semantics._minimal, semantics._column
        monkeypatch.setattr(
            semantics, "_minimal", lambda *args: checks.append(1) or minimal(*args)
        )
        columns = minimality_columns(monkeypatch)
        programs = _disjunctive_programs()
        for sem in Semantics:
            del checks[:], columns[:]
            for program in programs:
                universe, rules, _ = semantics._compile_at(program)
                pattern = cache(semantics._pattern)
                models = column((1 << len(universe)) - 1, rules, pattern)
                rules = semantics._reduct_needs(rules, sem is Semantics.G)
                for index in semantics._set_bits(models):
                    semantics._stable_at(
                        rules, index, sem is Semantics.G, pattern, semantics.DEFAULT_MAX_ATOMS
                    )
            assert len(checks) > 1000
            assert len(columns) * 5 <= len(checks), sem

    def test_aggregate_columns_built_under_f(self, monkeypatch):
        # counted, not timed, by where each aggregate column is built. The
        # program columns build 343 and 257 (366 and 278 before the rules
        # over top atoms alone, here `:- .`, led each block; 344 and 257
        # before atom classes: `a :- a.` and `a :- not a.` fix a in random
        # seed 86, so `a :- not a, odd{a}, ...` stops before its odd{a}).
        # The interval checks build 5 and 2, one circuit per distinct
        # sub-cube in a solve of an aggregate that no chain makes convex
        # (12 and 15 while chain-convex ones also got a sub-cube below the
        # guard), and leave no minimality column to build one (before
        # them: 28 and 28); the fixpoint route's
        # classification builds 2 and 3 truth tables, for the avg and sum
        # aggregates its chains leave to the table (9 and 23 before them)
        where = ["table"]  # the builder running, innermost last
        built: dict = {}
        holds_between, aggregate_column = semantics._holds_between, semantics._aggregate_column
        minimality_columns(monkeypatch, where)

        def counted_interval(*args):
            where.append("interval")
            try:
                return holds_between(*args)
            finally:
                where.pop()

        def counted(*args):
            built[where[-1]] = built.get(where[-1], 0) + 1
            return aggregate_column(*args)

        monkeypatch.setattr(semantics, "_holds_between", counted_interval)
        monkeypatch.setattr(semantics, "_aggregate_column", counted)
        for family, expected in (
            ("random", {"program": 343, "interval": 5, "table": 2}),
            ("mixed", {"program": 257, "interval": 2, "table": 3}),
        ):
            built.clear()
            for seed in range(200):
                stable_models(gen.FAMILIES[family](random.Random(seed)), Semantics.F)
            assert built == expected, family

    def test_enum_pool_builds_no_minimality_column_under_f(self, monkeypatch):
        # counted, not timed: on the benchmark's enum pool every F check that
        # the rounds do not refute is decided by the interval test (723
        # minimality columns before it), and the answers are the stored ones
        pool = _benchmark_pool("enum")
        built = minimality_columns(monkeypatch)
        assert len(pool) == 14
        for program, models in pool:
            assert set(stable_models(program, Semantics.F)) == models
        assert built == []

    def test_interval_circuits_are_built_once_per_solve(self, monkeypatch):
        # counted, not timed: one F solve of each enum-pool program builds
        # 45 distinct sub-cube circuits in the interval test, and each once
        # (355 when every check built its own)
        pool = _benchmark_pool("enum")
        inside = []
        circuits = []
        holds_between, aggregate_column = semantics._holds_between, semantics._aggregate_column

        def interval(*args):
            inside.append(1)
            try:
                return holds_between(*args)
            finally:
                inside.pop()

        def counted(*args):
            if inside:
                circuits.append(args[0])
            return aggregate_column(*args)

        monkeypatch.setattr(semantics, "_holds_between", interval)
        monkeypatch.setattr(semantics, "_aggregate_column", counted)
        for program, models in pool:
            assert set(stable_models(program, Semantics.F)) == models
        assert len(circuits) <= 45

    def test_atom_guard(self):
        # the guard limits enumeration; monotone programs are answered by
        # their least fixpoint at any size, so these inputs lie outside ASP^M
        guessed = parse("".join(f"p{i} :- not not p{i}.\n" for i in range(25)))
        with pytest.raises(TooManyAtomsError) as info:
            stable_models(guessed, Semantics.G)
        assert "24" in str(info.value)
        five = parse("a. b. c. d. e. :- not a.")
        with pytest.raises(TooManyAtomsError):
            stable_models(five, Semantics.G, max_atoms=4)
        assert list(stable_models(five, Semantics.G, max_atoms=5)) == [atoms("abcde")]

    def test_atom_guard_refuses_before_compiling(self, monkeypatch):
        # compiling 20,000 atoms builds bitmasks of 20,000 bits per literal
        def refuse(*args):
            raise AssertionError("compiled before the guard")

        monkeypatch.setattr(semantics, "_compile_at", refuse)
        # the one negated literal puts the chain outside ASP^M
        chain = parse("".join(f"p{i + 1} :- p{i}.\n" for i in range(19998)) + "p19999 :- not p19998.")
        with pytest.raises(TooManyAtomsError) as info:
            stable_models(chain, Semantics.G)
        assert str(info.value) == "program has 20000 atoms; the enumeration guard allows 24"

    @pytest.mark.parametrize("sem_name", ["g", "f"])
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_subset_oracle(self, sem_name, seed):
        program = gen.random_program(random.Random(seed), max_atoms=4, max_rules=5)
        sem = Semantics.G if sem_name == "g" else Semantics.F
        assert set(stable_models(program, sem)) == oracles.naive_stable_models(
            program, sem_name
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_models_model_the_program_over_its_atoms(self, seed):
        from gzasp.semantics import satisfies

        program = gen.random_program(random.Random(seed), max_atoms=5)
        universe = atoms_of(program)
        for sem in (Semantics.G, Semantics.F):
            for model in stable_models(program, sem):
                assert model <= universe
                assert satisfies(model, program)


class TestGsmAspM:
    def test_datalog(self):
        assert list(gsm_asp_m(parse("p. q :- p."))) == [atoms("pq")]

    def test_gadget_incoherent(self):
        assert list(gsm_asp_m(parse(GADGET))) == []

    def test_fact_supports_gadget(self):
        assert list(gsm_asp_m(parse("p. " + GADGET))) == [atoms("p")]

    def test_rejects_negation(self):
        with pytest.raises(NotAspMError):
            gsm_asp_m(parse("p :- not q."))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, seed):
        program = gen.random_monotone_program(random.Random(seed))
        assert gsm_asp_m(program) == stable_models(program, Semantics.G)

    def test_large_programs_against_definition(self):
        # 200-400 atoms, rules out of dependency order; the cyclic family
        # supports atoms through their own aggregates
        rng = random.Random(17)
        outcomes = {(cyclic, coherent): 0 for cyclic in (False, True) for coherent in (False, True)}
        for index in range(24):
            cyclic = index % 2 == 1
            program = gen.random_large_monotone_program(rng, rng.randint(200, 400), cyclic)
            expected = oracles.fixpoint_g_stable_models(program)
            assert list(gsm_asp_m(program)) == expected, index
            outcomes[cyclic, bool(expected)] += 1
        assert outcomes[False, True] and outcomes[True, True] and outcomes[True, False]

    @pytest.mark.parametrize("grounded", [True, False])
    def test_reverse_ordered_chain(self, grounded):
        # x199 :- x198. ... x1 :- x0. listed top down: one new atom per
        # naive round; without the fact x0, a gadget supports x0 itself
        bottom = "x0." if grounded else "x0 :- count{x0} >= 0."
        chain = "".join(f"x{i + 1} :- x{i}.\n" for i in reversed(range(199)))
        program = parse(chain + bottom)
        expected = oracles.fixpoint_g_stable_models(program)
        assert list(gsm_asp_m(program)) == expected
        assert bool(expected) is grounded

    def test_errors_match_definition(self):
        m = [Atom(f"m{i}") for i in range(25)]
        defects = [
            Rule({m[0]}, (AtomLiteral(m[1], 1),)),
            Rule(frozenset(), (AtomLiteral(m[1]),)),
            Rule({m[2], m[3]}, ()),
            Rule({m[4]}, (AggregateSpec(AggregateFunc.SUM, tuple((1, a) for a in m), "=", 1),)),
            Rule({m[5]}, (AggregateSpec(AggregateFunc.SUM, ((2**62, m[0]), (2**62, m[1])), ">=", 0),)),
            Rule({m[6]}, (AggregateSpec(AggregateFunc.COUNT, ((1, m[7]),), "<=", 0),)),
        ]
        rng = random.Random(23)
        seen = set()
        for index in range(30):
            program = gen.random_large_monotone_program(rng, 200, index % 2 == 1)
            rules = list(program.rules)
            for defect in rng.sample(defects, rng.randint(1, 3)):
                rules.insert(rng.randrange(len(rules) + 1), defect)
            broken = Program(tuple(rules))
            with pytest.raises(GzaspError) as expected:
                oracles.fixpoint_g_stable_models(broken)
            with pytest.raises(GzaspError) as raised:
                gsm_asp_m(broken)
            assert type(raised.value) is type(expected.value)
            assert str(raised.value) == str(expected.value)
            with pytest.raises(GzaspError) as raised:
                semantics.tp_least_fixpoint(broken)
            assert (type(raised.value), str(raised.value)) == (type(expected.value), str(expected.value))
            seen.add(type(raised.value))
        assert seen == {NotAspMError, DomainTooLargeError, AggregateOverflowError}


class TestCheckCoherence:
    def test_golden(self):
        assert check_coherence(golden_program(), Semantics.G)
        assert check_coherence(golden_program(), Semantics.F)

    def test_gadget(self):
        assert not check_coherence(parse(GADGET), Semantics.G)
        assert check_coherence(parse(GADGET), Semantics.F)

    def test_plain_contradiction(self):
        program = parse("a. :- a.")
        assert not check_coherence(program, Semantics.G)
        assert not check_coherence(program, Semantics.F)

    def test_empty_program(self):
        assert check_coherence(Program(), Semantics.F)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_equal_aggregates_are_classified_once(self, sem, monkeypatch):
        program = parse(
            "q. p :- count{q, r} >= 1. s :- count{q, r} >= 1. t :- count{q, r} >= 1."
        )
        classified = []
        classify = semantics.classify_aggregate

        def counted(spec):
            classified.append(spec)
            return classify(spec)

        monkeypatch.setattr(semantics, "classify_aggregate", counted)
        assert check_coherence(program, sem)
        assert len(classified) == 1

    def test_wide_count_is_refused_without_a_table(self, monkeypatch):
        # the count classifies nonconvex off its chain of counts, so the
        # guard refuses the 25-atom program with no 2**24-bit table built
        def refuse(spec):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(semantics, "_table", refuse)
        wide = ", ".join(f"a{i}" for i in range(24))
        with pytest.raises(TooManyAtomsError):
            check_coherence(parse(f"p :- count{{{wide}}} != 1."), Semantics.G)

    def test_fast_path_errors_propagate_under_g(self):
        # the 21-atom count classifies monotone, so the 22-atom program is
        # answered from its least fixpoint, the empty set, as models is; an
        # overflow is raised by the enumerator's own column
        wide = ", ".join(f"a{i}" for i in range(21))
        assert check_coherence(parse(f"p :- count{{{wide}}} >= 1."), Semantics.G)
        overflow = "p :- sum{9223372036854775807 : a, 1 : p} >= 0. a."
        with pytest.raises(AggregateOverflowError):
            check_coherence(parse(overflow), Semantics.G)

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_negation_beside_a_wide_aggregate_enumerates(self, wide_first):
        # the negation puts the program outside the fragment before its
        # 21-atom aggregate is classified, so it is enumerated in either
        # order; the constraints keep that enumeration to two candidates
        wide = ", ".join(f"a{i}" for i in range(21))
        rules = [f"p :- count{{{wide}}} >= 1.", "a0 :- not p."]
        if not wide_first:
            rules.reverse()
        pins = "".join(f":- a{i}." for i in range(1, 21))
        assert not check_coherence(parse("\n".join(rules) + pins), Semantics.G)

    def test_outside_the_fragment_enumerates(self):
        assert check_coherence(parse("a :- not b. b :- not a."), Semantics.G)
        assert not check_coherence(parse("a :- not a."), Semantics.G)


def _answers(program: Program, sem: Semantics) -> list:
    """Every answer the four modes give, or the type and message of what
    each raises: models, coherence, and brave and cautious for every atom
    and for one atom outside the program."""
    def answer(query, *args):
        try:
            return query(program, *args, sem)
        except GzaspError as err:
            return type(err), str(err)

    outside = Atom("outside")
    found = [answer(stable_models), answer(check_coherence)]
    for atom in sorted(atoms_of(program)) + [outside]:
        found += [answer(brave, atom), answer(cautious, atom)]
    return found


def _no_fixpoint(program, grounding):
    raise NotAspMError("enumerate")


def _no_column(*args):
    raise AssertionError("enumerated a monotone program")


def _no_table(spec):
    raise AssertionError("built a truth table")


class TestMonotoneRoute:
    """semantics._stable_models answers ASP^M programs by their least
    fixpoint, in all four modes under both reducts, and enumerates
    everything else."""

    @pytest.mark.parametrize("family", sorted(gen.FAMILIES))
    def test_agrees_with_enumeration_on_every_family(self, family, monkeypatch):
        rng = random.Random(f"route-{family}")
        programs = [gen.FAMILIES[family](rng) for _ in range(25)]
        routed = [_answers(p, sem) for p in programs for sem in Semantics]
        monkeypatch.setattr(semantics, "_fixpoint_models", _no_fixpoint)
        assert routed == [_answers(p, sem) for p in programs for sem in Semantics]

    def test_long_chain_in_every_mode_without_enumerating(self, monkeypatch):
        monkeypatch.setattr(semantics, "_column", _no_column)
        chain = parse("p0.\n" + "".join(f"p{i + 1} :- p{i}.\n" for i in range(19999)))
        top, outside = Atom("p19999"), Atom("outside")
        for sem in Semantics:
            assert stable_models(chain, sem) == ModelSet([atoms_of(chain)])
            assert check_coherence(chain, sem)
            assert brave(chain, top, sem) and cautious(chain, top, sem)
            assert not brave(chain, outside, sem) and not cautious(chain, outside, sem)

    def test_above_the_guard_against_definition(self, monkeypatch):
        monkeypatch.setattr(semantics, "_column", _no_column)
        rng = random.Random(41)
        for index in range(12):
            size = rng.choice((25, rng.randint(26, 400)))
            program = gen.random_large_monotone_program(rng, size, index % 2 == 1)
            lfp = oracles.reference_least_fixpoint(program)
            assert semantics.tp_least_fixpoint(program) == lfp, index
            inside, outside = Atom(f"m{size - 1}"), Atom("outside")
            expected = {
                Semantics.G: oracles.fixpoint_g_stable_models(program),
                Semantics.F: [lfp],
            }
            for sem, models in expected.items():
                assert list(stable_models(program, sem)) == models, index
                assert check_coherence(program, sem) is bool(models)
                for atom in (inside, outside):
                    assert brave(program, atom, sem) is any(atom in m for m in models)
                    assert cautious(program, atom, sem) is all(atom in m for m in models)

    def test_wide_monotone_aggregate_takes_the_fixpoint(self, monkeypatch):
        # a 21-atom count classifies as monotone, so the 22-atom program is
        # answered without enumerating its 2**22 candidates
        monkeypatch.setattr(semantics, "_column", _no_column)
        wide = ", ".join(f"a{i}" for i in range(21))
        program = parse(f"p :- count{{{wide}}} >= 1.")
        for sem in Semantics:
            assert list(stable_models(program, sem)) == [frozenset()]

    def test_aggregate_wider_than_the_guard_takes_the_fixpoint(self, monkeypatch):
        # a 25-atom count is classified along its chain, with no truth
        # table, so the 26-atom program is answered by its least fixpoint
        monkeypatch.setattr(semantics, "_table", _no_table)
        monkeypatch.setattr(semantics, "_column", _no_column)
        wide = ", ".join(f"a{i}" for i in range(25))
        program = parse(f"p :- count{{{wide}}} >= 1.")
        for sem in Semantics:
            assert list(stable_models(program, sem)) == [frozenset()]

    def test_hundred_atom_count_in_every_route(self, monkeypatch):
        monkeypatch.setattr(semantics, "_table", _no_table)
        monkeypatch.setattr(semantics, "_column", _no_column)
        wide = ", ".join(f"a{i}" for i in range(100))
        program = parse(f"p :- count{{{wide}}} >= 1.")
        p = Atom("p")
        for sem in Semantics:
            assert list(stable_models(program, sem)) == [frozenset()]
            assert check_coherence(program, sem)
            assert not brave(program, p, sem) and not cautious(program, p, sem)
        assert list(gsm_asp_m(program)) == [frozenset()]
        assert semantics.tp_least_fixpoint(program) == frozenset()

    def test_is_stable_agrees_above_the_guard(self, monkeypatch):
        # the count's 30 free atoms exceed the minimality guard, but along
        # its chain it is monotone, so the interval test decides it from
        # its ends: is_stable accepts the one F-stable model. It declined,
        # and the column refused the 30 atoms with TooManyAtomsError
        monkeypatch.setattr(semantics, "_table", _no_table)
        monkeypatch.setattr(semantics, "_column", _no_column)
        wide = ", ".join(f"a{i}" for i in range(30))
        chain = "".join(f"a{i} :- a{i - 1}.\n" for i in range(1, 30))
        program = parse(f"a0 :- count{{{wide}}} >= 0.\n{chain}")
        assert stable_models(program, Semantics.F) == ModelSet([atoms_of(program)])
        assert is_stable(program, atoms_of(program), Semantics.F)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_outside_the_fragment_is_refused_above_the_guard(self, sem):
        program = parse("".join(f"p{i} :- not not p{i}.\n" for i in range(25)))
        p0 = Atom("p0")
        for query, args in (
            (stable_models, ()),
            (check_coherence, ()),
            (brave, (p0,)),
            (cautious, (p0,)),
        ):
            with pytest.raises(TooManyAtomsError):
                query(program, *args, sem)


class TestSupportFilter:
    """The enumerator passes to _stable_at only the models supported under
    the reduct, the set bits of the program column built with `supported`."""

    @pytest.mark.parametrize("family", sorted(gen.FAMILIES))
    def test_candidates_are_the_supported_models(self, family, monkeypatch):
        # the fixpoint route is refused, so every program is enumerated
        monkeypatch.setattr(semantics, "_fixpoint_models", _no_fixpoint)
        checked = []
        stable_at = semantics._stable_at
        monkeypatch.setattr(
            semantics,
            "_stable_at",
            lambda rules, index, *args: checked.append(index) or stable_at(rules, index, *args),
        )
        rng = random.Random(f"supported-{family}")
        for _ in range(80):
            program = gen.FAMILIES[family](rng)
            universe = sorted(atoms_of(program))
            for sem in Semantics:
                supported = sorted(
                    oracles.naive_supported_models(program, sem.value),
                    key=lambda model: sum(1 << universe.index(atom) for atom in model),
                )
                del checked[:]
                list(stable_models(program, sem))
                assert [semantics._atoms_at(universe, index) for index in checked] == supported
                assert oracles.naive_stable_models(program, sem.value) <= set(supported)

    def test_checks_at_supported_models_only(self, monkeypatch):
        # counted, not timed: of the 1,208 models of the programs of
        # test_most_minimality_checks_build_no_column, 180 are supported by
        # Clark's completion, and of those 162 under F and 149 under G
        checks = []
        minimal = semantics._minimal
        monkeypatch.setattr(
            semantics, "_minimal", lambda *args: checks.append(1) or minimal(*args)
        )
        programs = _disjunctive_programs()
        for sem in Semantics:
            del checks[:]
            for program in programs:
                stable_models(program, sem)
            assert len(checks) == {Semantics.F: 162, Semantics.G: 149}[sem]

    def test_a_rule_never_supports_what_its_reduct_body_needs(self, monkeypatch):
        # counted: in `p :- count{p} >= 0.` the G-reduct body holds p, so no
        # candidate holding p reaches a check under G, and there is no
        # stable model; under F the aggregate stays, p supports itself, and
        # {p, q} and {p, r} are stable. A positive self-loop, `p :- p, not
        # q.`, supports p under neither reduct. Atoms p, q, r are bits 1, 2, 4
        checked = []
        stable_at = semantics._stable_at
        monkeypatch.setattr(
            semantics,
            "_stable_at",
            lambda rules, index, *args: checked.append(index) or stable_at(rules, index, *args),
        )
        choice = "q :- not r.\nr :- not q.\n"
        for text, sem, candidates in (
            ("p :- count{p} >= 0.\n" + choice, Semantics.G, []),
            ("p :- count{p} >= 0.\n" + choice, Semantics.F, [0b011, 0b101]),
            ("p :- p, not q.\nq :- not p.\n", Semantics.G, [0b010]),
            ("p :- p, not q.\nq :- not p.\n", Semantics.F, [0b010]),
        ):
            del checked[:]
            program = parse(text)
            models = stable_models(program, sem)
            assert checked == candidates, (text, sem)
            assert set(models) == oracles.naive_stable_models(program, sem.value)
            assert len(models) == len(candidates)

    def test_reduct_needs_is_one_mask_per_rule(self):
        # the golden program's atoms a, b, c are bits 1, 2, 4: under G
        # `b | c :- count{a, b} >= 1.` needs a and b, what its reduct puts in
        # place of the count; `a :- not not a.` has no aggregate and is kept
        # as it is, as every rule is under F
        _, rules, _ = semantics._compile_at(golden_program())
        widened = semantics._reduct_needs(rules, True)
        assert widened[0] is rules[0]
        assert widened[1][3] == 0b011 and rules[1][3] == 0
        assert widened[1][:3] == rules[1][:3] and widened[1][4] == rules[1][4]
        assert semantics._reduct_needs(rules, False) == rules

    def test_one_atom_walk_per_enumerated_solve(self, monkeypatch):
        # counted: the guard's atom set is the one the compile orders, so an
        # enumerated solve walks the program's atoms once (twice when the
        # compile walked them again), also where atom classes recompile it
        monkeypatch.setattr(semantics, "_fixpoint_models", _no_fixpoint)
        walks = []
        atoms_of_ = semantics.atoms_of
        monkeypatch.setattr(
            semantics, "atoms_of", lambda program: walks.append(1) or atoms_of_(program)
        )
        rng = random.Random("one walk")
        programs = [parse(":- a, not b. :- b, not a. a :- not not a.")]
        programs += [gen.FAMILIES[family](rng) for family in sorted(gen.FAMILIES) * 10]
        for program, sem in itertools.product(programs, Semantics):
            del walks[:]
            stable_models(program, sem)
            assert len(walks) == 1, (program, sem)

    def test_unsupported_models_reach_no_check(self, monkeypatch):
        # p holds in all 2**21 models; its support needs some a{i}, and
        # while p holds no a{i} is supported (a1..a20 are in no head)
        checked = []
        monkeypatch.setattr(semantics, "_stable_at", lambda *args: checked.append(1))
        wide = ", ".join(f"a{i}" for i in range(21))
        program = parse(f"p :- count{{{wide}}} >= 1.\na0 :- not p.")
        for sem in Semantics:
            assert not check_coherence(program, sem)
            assert list(stable_models(program, sem)) == []
        assert checked == []

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_overflow_is_raised_where_no_model_is_supported(self, sem):
        # a is in no head, so no model is supported; the sum is still built
        # over the models of the constraint, and overflows at {a, q}
        program = parse(":- not a.\np :- sum{9223372036854775807 : a, 1 : q} >= 0.")
        for query in (stable_models, check_coherence):
            with pytest.raises(AggregateOverflowError) as info:
                query(program, sem)
            assert str(info.value) == "sum 9223372036854775808 exceeds the 64-bit integer range"


def _half_guessed(seed: int) -> Program:
    """perfbench's 24-atom half-guessed program of `seed`."""
    _, corpus = _perfbench_modules()
    return parse(corpus.render(corpus.half_guessed(random.Random(seed), 24)))


# weights of a sum at the 64-bit edge, and small ones beside them
_EDGE_WEIGHTS = (2**63 - 1, -(2**63), 2**62, -(2**62), 3 * 2**61, 1, -3, 5)


def _flagged_sum(rng: random.Random, pool: tuple) -> AggregateSpec:
    """A sum over two to four atoms of pool that the extremes test flags."""
    while True:
        domain = rng.sample(pool, rng.randint(2, 4))
        elements = tuple((rng.choice(_EDGE_WEIGHTS), atom) for atom in domain)
        spec = AggregateSpec(
            AggregateFunc.SUM, elements, rng.choice(COMPARATORS), rng.randint(-4, 4)
        )
        if semantics._overflows(spec, spec.elements):
            return spec


def _flagged_program(rng: random.Random) -> Program:
    """A random program over at most 8 atoms with two to four more rules,
    each holding a flagged sum behind conflicting literals, an aggregate
    that holds nowhere, a random or a flagged aggregate, a literal or
    nothing, and at times a constraint pair that empties every column from
    its place on."""
    pool = gen.POOL[:4] + gen.ALT_POOL[:4]
    rules = list(gen.random_program(rng, pool=pool, max_atoms=8, max_rules=5).rules)
    for _ in range(rng.randint(2, 4)):
        atom = rng.choice(pool)
        prefix = rng.choice(
            (
                [AtomLiteral(atom), AtomLiteral(atom, 1)],
                [AggregateSpec(AggregateFunc.COUNT, ((1, atom),), ">", 1)],
                [gen.random_aggregate(rng, pool)],
                [_flagged_sum(rng, pool)],
                [AtomLiteral(atom, rng.randint(0, 2))],
                [],
            )
        )
        rest = [AtomLiteral(rng.choice(pool), rng.randint(0, 1))] if rng.random() < 0.3 else []
        head = frozenset() if rng.random() < 0.2 else frozenset({rng.choice(pool)})
        rule = Rule(head, (*prefix, _flagged_sum(rng, pool), *rest))
        rules.insert(rng.randint(0, len(rules)), rule)
    if rng.random() < 0.25:
        place, atom = rng.randint(0, len(rules)), rng.choice(pool)
        rules[place:place] = [Rule(set(), (AtomLiteral(atom, depth),)) for depth in (0, 1)]
    return Program(tuple(rules))


class TestBlocks:
    """The enumerator builds its program column one block at a time: the
    top atoms fixed to each assignment in turn, the low _BLOCK_ATOMS atoms
    spanned by the column."""

    @staticmethod
    def blocks_built(monkeypatch) -> list:
        """The `fixed` mask of each program column built from now on."""
        built = []
        column = semantics._column

        def counted(index, rules, pattern, supported=None, fixed=0, aliases=None):
            if supported:
                built.append(fixed)
            return column(index, rules, pattern, supported, fixed, aliases)

        monkeypatch.setattr(semantics, "_column", counted)
        return built

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_coherence_stops_in_the_block_of_the_first_model(self, sem, monkeypatch):
        # counted, not timed: at 24 atoms a block fixes the top 6 atoms, and
        # the first stable model of seed 24 lies in block 8 (of seed 124 in
        # block 0); seed 224 is incoherent, so all 64 blocks are built
        built = self.blocks_built(monkeypatch)
        for seed, first in ((24, 8), (124, 0), (224, None)):
            program = _half_guessed(seed)
            universe = sorted(atoms_of(program))
            models = stable_models(program, sem)
            indices = [sum(1 << universe.index(atom) for atom in model) for model in models]
            assert (min(indices) >> 18 if indices else None) == first
            del built[:]
            assert check_coherence(program, sem) is (first is not None)
            blocks = 64 if first is None else first + 1
            assert built == [fixed << 18 for fixed in range(blocks)]

    def test_a_solve_holds_one_block_at_a_time(self):
        # one 2**24-bit column is 2 MiB, and the support filter kept up to
        # ten open (about 100 MiB peak RSS); a block's column is 32 KiB
        program = _half_guessed(24)
        gc.collect()
        tracemalloc.start()
        try:
            models = stable_models(program, Semantics.G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(models) == 140
        assert peak < 8 * 1024 * 1024

    def test_an_unreached_overflow_keeps_the_blocks(self, monkeypatch):
        # the sum can leave the 64-bit range, but its prefix x3, not x3 holds
        # nowhere, so no column builds it: the solve keeps its blocks, its
        # models and its early stop. Any aggregate the extremes test flagged
        # once took one 2**24-bit column, about 100 MiB at peak
        rule = parse(
            "x0 :- x3, not x3, sum{4611686018427387904 : x1, 4611686018427387904 : x2} >= 0."
        )
        built = self.blocks_built(monkeypatch)
        for seed, count, blocks in ((24, 140, 9), (124, 24, 1), (224, 0, 64)):
            program = _half_guessed(seed)
            extended = Program(program.rules + rule.rules)
            gc.collect()
            tracemalloc.start()
            try:
                models = stable_models(extended, Semantics.G)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 1024 * 1024, seed
            assert models == stable_models(program, Semantics.G) and len(models) == count
            del built[:]
            assert check_coherence(extended, Semantics.G) is (count > 0)
            assert built == [fixed << 18 for fixed in range(blocks)], seed

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_a_dense_overflow_is_raised_in_little_memory(self, sem):
        # 24 weights of 2**63 // 24 + 1 overflow only all together. The
        # pre-pass walks the extremes test to that subset; an adder network
        # over the sum's 2**24 subsets once peaked at about 222 MiB
        weight = 2**63 // 24 + 1
        elements = ", ".join(f"{weight} : x{i}" for i in range(24))
        rule = parse(f"x0 :- sum{{{elements}}} >= 0.")
        extended = Program(_half_guessed(24).rules + rule.rules)
        for query in (check_coherence, stable_models):
            gc.collect()
            tracemalloc.start()
            try:
                with pytest.raises(AggregateOverflowError) as info:
                    query(extended, sem)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == "sum 9223372036854775824 exceeds the 64-bit integer range"
            assert peak < 8 * 1024 * 1024, query.__name__

    @pytest.mark.parametrize(
        "prefix, most",
        [("x{j}, not x{j}", 0), ("count{{x{j}}} > 1", 2)],
        ids=["conflicting-literals", "count-above-one"],
    )
    def test_the_pre_pass_builds_little_behind_a_prefix_that_holds_nowhere(
        self, prefix, most, monkeypatch
    ):
        # counted: each of the 40 flagged sums sits behind a prefix that
        # holds nowhere. Conflicting literals need no column; count{x{j}} > 1
        # reads x{j} alone, so its column spans x{j} where x{j} is a low
        # atom, and no atom in each of the two blocks that fix x{j} where it
        # is a top atom. The counts once cost 64 columns of 2**18 bits each
        sums = "".join(
            f"x0 :- {prefix.format(j=3 + i % 20)}, sum{{4611686018427387904 : x1, "
            f"4611686018427387904 : x2, {i + 1} : x{3 + (i + 7) % 20}}} >= 0.\n"
            for i in range(40)
        )
        program = _half_guessed(24)
        extended = Program(program.rules + parse(sums).rules)
        passes = []  # of each pre-pass run, the space of each column it builds
        column, raise_overflow = semantics._column, semantics._raise_overflow

        def counted(*args):
            built = []
            passes.append(built)

            def build(index, *rest, **fixed):
                built.append(index)
                return column(index, *rest, **fixed)

            with monkeypatch.context() as inside:
                inside.setattr(semantics, "_column", build)
                raise_overflow(*args)

        monkeypatch.setattr(semantics, "_raise_overflow", counted)
        assert check_coherence(extended, Semantics.G)
        models = stable_models(extended, Semantics.G)
        assert len(models) == 140 and models == stable_models(program, Semantics.G)
        assert len(passes) == 3 and passes[2] == []
        assert all(len(built) <= 40 * most for built in passes)
        assert all(index.bit_count() <= 1 for built in passes for index in built)

    def test_the_pre_pass_raises_what_the_whole_space_raises(self, monkeypatch):
        # the definition: the error, if any, of one program column over all
        # 2**n subsets; every block width, query and semantics raises it
        rng = random.Random("flagged sums")
        outcomes = []
        for _ in range(120):
            program = _flagged_program(rng)
            universe, rules, _ = semantics._compile_at(program)
            every = (1 << len(universe)) - 1
            rules = semantics._reduct_needs(rules, True)
            try:
                semantics._column(every, rules, cache(semantics._pattern), True)
                whole = None
            except GzaspError as error:
                whole = type(error), str(error)
            outcomes.append(whole is None)
            for block, sem in itertools.product((1, 2, semantics._BLOCK_ATOMS), Semantics):
                with monkeypatch.context() as blocked:
                    blocked.setattr(semantics, "_BLOCK_ATOMS", block)
                    answers = _answers(program, sem)
                if whole is None:
                    assert not any(isinstance(a, tuple) for a in answers), (program, block)
                else:
                    assert answers == [whole] * len(answers), (program, block)
        assert outcomes.count(True) > 20 and outcomes.count(False) > 20

    def test_candidates_are_the_supported_models(self, monkeypatch):
        # the support filter holds per block: a fixed atom in no head, or
        # with no rule whose body holds in the block, empties the block
        monkeypatch.setattr(semantics, "_BLOCK_ATOMS", 2)
        monkeypatch.setattr(semantics, "_fixpoint_models", _no_fixpoint)
        checked = []
        monkeypatch.setattr(
            semantics, "_stable_at", lambda rules, index, *args: checked.append(index)
        )
        rng = random.Random("supported in blocks")
        for _ in range(150):
            program = gen.random_program(rng)
            universe = sorted(atoms_of(program))
            del checked[:]
            list(stable_models(program, Semantics.F))
            assert [semantics._atoms_at(universe, index) for index in checked] == sorted(
                oracles.naive_supported_models(program, "f"),
                key=lambda model: sum(1 << universe.index(atom) for atom in model),
            )

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_top_atom_queries_skip_the_other_blocks(self, sem, monkeypatch):
        # with blocks of 2**2 subsets every atom above the lowest two is a
        # top atom. A query is a constraint before the rules, so a block
        # that fixes the queried atom against it is empty at rule 1 and
        # reads no atom column; brave on an atom outside the program leads
        # with `:- .`, which does so in every block. Each answer is the
        # oracle's
        monkeypatch.setattr(semantics, "_BLOCK_ATOMS", 2)
        monkeypatch.setattr(semantics, "_fixpoint_models", _no_fixpoint)
        built = []  # (fixed, first rule, column, atom columns read) of each block
        column = semantics._column

        def counted(index, rules, pattern, supported=None, fixed=0, aliases=None):
            if not supported:
                return column(index, rules, pattern, supported, fixed, aliases)
            reads = []

            def read(*key):
                reads.append(key)
                return pattern(*key)

            found = column(index, rules, read, supported, fixed, aliases)
            built.append((fixed, rules[0], found, len(reads)))
            return found

        monkeypatch.setattr(semantics, "_column", counted)
        rng = random.Random(f"top atom queries-{sem.value}")
        outside = Atom("outside")
        asked = 0
        while asked < 60:
            program = gen.random_program(rng)
            universe = sorted(atoms_of(program))
            if len(universe) < 3:
                continue
            asked += 1
            top, bit, half = universe[-1], 1 << len(universe) - 1, 1 << len(universe) - 3
            models = oracles.naive_stable_models(program, sem.value)
            for query, against, expected in (
                (brave, 0, any(top in model for model in models)),
                (cautious, bit, all(top in model for model in models)),
            ):
                del built[:]
                assert query(program, top, sem) is expected
                stopped = [block for block in built if block[0] & bit == against]
                # brave reaches the blocks against it first; cautious only
                # when no model without the atom stopped it before them
                assert len(stopped) == (half if query is brave or expected else 0)
                assert all(found == reads == 0 for _, _, found, reads in stopped)
            del built[:]
            assert brave(program, outside, sem) is False
            assert len(built) == 2 * half
            assert all(block[1:] == ((0, 0, 0, 0, ()), 0, 0) for block in built)
            assert cautious(program, outside, sem) is (not models)

    def test_top_decided_rules_stop_their_blocks(self, monkeypatch):
        # counted: without atom classes, `--via str` triples the 7 atoms of
        # the benchmark's via programs, so 21 atoms span 8 blocks with x6,
        # x6__g and x6__t fixed. The aggregate-free rules over those three
        # lead each block, so a block that one of them rules out (the copy
        # rules rule out 6 of the 8 in each program) is empty there and
        # reads no atom column. With classes the 7 representatives span one
        without_classes(monkeypatch)
        built = program_blocks(monkeypatch)
        reference, corpus = _perfbench_modules()
        stopped = 0
        for entry in reference.load_pool("via"):
            if entry["n"] != 7:
                continue
            program = parse(corpus.render(entry["program"]))
            del built[:]
            models = solve_via_rewriting(program, "str")
            assert set(models) == oracles.naive_stable_models(program, "g")
            assert len(built) == 8
            for fixed, decided, found, reads in built:
                if decided:
                    assert found == reads == 0, (entry["seed"], fixed)
                    stopped += 1
        assert stopped == 18


class TestAtomClasses:
    """The enumerator spans one representative per atom class that
    semantics._classes reads off the compiled rules; the others are fixed
    true or read as their representatives."""

    @staticmethod
    def spans(monkeypatch) -> list:
        """(index, fixed) of each program column built from now on."""
        built = []
        column = semantics._column

        def counted(index, rules, pattern, supported=None, fixed=0, aliases=None):
            if supported:
                built.append((index, fixed))
            return column(index, rules, pattern, supported, fixed, aliases)

        monkeypatch.setattr(semantics, "_column", counted)
        return built

    @pytest.mark.parametrize("sem", list(Semantics))
    @pytest.mark.parametrize("sure, other", [("x", "y"), ("y", "x")])
    def test_a_class_with_an_atom_true_throughout_is_true_throughout(
        self, sem, sure, other, monkeypatch
    ):
        # `sure` holds in every model, and the constraints put `other` in its
        # class, so both are fixed true and the column spans q and r alone.
        # With y sure, x is the class's first atom: were x left a
        # representative, y's class mate would not be fixed
        program = parse(
            f"q :- not r. r :- not q. {sure} :- q. {sure} :- not q.\n"
            f":- x, not y. :- y, not x. {other} :- not not {other}."
        )
        universe, rules, _ = semantics._compile_at(program)
        aliases, always = semantics._classes(rules)
        assert aliases == {} and semantics._atoms_at(universe, always) == atoms("xy")
        built = self.spans(monkeypatch)
        models = {atoms("qxy"), atoms("rxy")}
        assert set(stable_models(program, sem)) == models
        assert models == oracles.naive_stable_models(program, sem.value)
        assert built == [(0b11, 0b1100)]
        without_classes(monkeypatch)
        assert set(stable_models(program, sem)) == models

    def test_one_constraint_merges_nothing(self):
        # `:- a, not b.` alone allows {b}; with `:- b, not a.` b joins a
        guesses = "a :- not not a. b :- not not b.\n"
        for constraints, aliases, models in (
            (":- a, not b.", {}, ["", "b", "ab"]),
            (":- a, not b. :- b, not a.", {0b10: 0b01}, ["", "ab"]),
        ):
            program = parse(guesses + constraints)
            assert semantics._classes(semantics._compile_at(program)[1]) == (aliases, 0)
            for sem in Semantics:
                assert set(stable_models(program, sem)) == {atoms(m) for m in models}

    @pytest.mark.parametrize(
        "text",
        [
            # bodies (q, r | not r) and (r | not q, r) differ in q alone,
            # but both are false everywhere: p is in no model
            "p :- q, r, not r. p :- r, not q, not r. q :- not not q.",
            # the constraint pair's analogue: (a, b | not b) and (b | not a, b)
            ":- a, b, not b. :- b, not a, not b. a :- not not a. b :- not not b.",
            # a body of one atom on both sides: p :- q. and p :- not not q.
            "p :- q. p :- not not q. q :- not r. r :- not q.",
        ],
    )
    def test_rules_that_share_an_atom_are_no_twins(self, text, monkeypatch):
        # only `p :- q.` with `p :- not q.`, and `:- a, not b.` with
        # `:- b, not a.`, each literal a single atom, fix or join atoms
        program = parse(text)
        assert semantics._classes(semantics._compile_at(program)[1]) == ({}, 0)
        built = self.spans(monkeypatch)
        for sem in Semantics:
            assert set(stable_models(program, sem)) == oracles.naive_stable_models(
                program, sem.value
            )
        assert all(fixed == 0 for _, fixed in built)

    def test_twin_shaped_programs_match_the_oracle(self):
        # seeded programs over five atoms of short random rules, most with
        # their mirror (each literal's truth negated), so many programs fix
        # or join atoms or nearly do; the G and F models match the oracle
        rng = random.Random("twins")

        def literal(atom: str) -> tuple:
            return atom, rng.choice((0, 0, 1, 2))

        def render(head: str, body: list) -> str:
            lits = ", ".join("not " * depth + atom for atom, depth in body)
            return f"{head} :- {lits}." if lits else f"{head}."

        fixed = joined = 0
        for _ in range(250):
            rules = []
            for _ in range(rng.randint(2, 6)):
                head = rng.choice(("", "", *"abcde"))
                body = [literal(rng.choice("abcde")) for _ in range(rng.randint(1, 3))]
                rules.append(render(head, body))
                if rng.random() < 0.6:  # its mirror: each literal's truth negated
                    mirror = [(a, 1 if d % 2 == 0 else rng.choice((0, 2))) for a, d in body]
                    rules.append(render(head, mirror))
            program = parse("\n".join(rules))
            aliases, always = semantics._classes(semantics._compile_at(program)[1])
            fixed, joined = fixed + bool(always), joined + bool(aliases)
            for sem in Semantics:
                assert set(stable_models(program, sem)) == oracles.naive_stable_models(
                    program, sem.value
                ), ("\n".join(rules), sem)
        assert fixed > 100 and joined > 10  # 116 and 12

    def test_a_column_leaves_no_garbage_cycle(self):
        # counted: each column call's atom reader once referred to itself,
        # so its 2**n-bit columns lived until the cyclic collector ran; the
        # query workload's peak RSS rose 3 MiB
        program = parse(":- a, not b. :- b, not a. a :- not not a. b :- not not b. c :- a.")
        _, rules, _ = semantics._compile_at(program)
        aliases, always = semantics._classes(rules)
        assert aliases == {0b010: 0b001}
        rules = semantics._reduct_needs(rules, True)
        gc.collect()
        gc.disable()
        try:
            for index, alias in ((0b101, aliases), (0b111, {})):
                assert semantics._column(index, rules, cache(semantics._pattern), True, 0, alias)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_an_alias_needs_its_own_support(self, monkeypatch):
        # b is in a's class but in no head, so {a, b} is a model and not a
        # supported one: the empty set is the only candidate
        checked = []
        monkeypatch.setattr(
            semantics, "_stable_at", lambda rules, index, *args: checked.append(index)
        )
        program = parse(":- a, not b. :- b, not a. a :- not not a.")
        for sem in Semantics:
            del checked[:]
            stable_models(program, sem)
            assert checked == [0]

    def test_rewritings_span_the_input_atoms(self, monkeypatch):
        # counted: rew's n copies p__t hold in every model, and str's n
        # guesses p__g mirror their atoms, so each block column of both
        # spans the n input atoms, with the copies fixed; the 12 to 24 atoms
        # of the rewritten programs spanned 1 to 64 blocks of 2**18. The
        # candidates are those checked over every atom: were p__g's own rule
        # read as p's support, p would be supported wherever it holds
        checked = []
        stable_at = semantics._stable_at
        monkeypatch.setattr(
            semantics, "_stable_at", lambda *args: checked.append(1) or stable_at(*args)
        )
        built = self.spans(monkeypatch)
        reference, corpus = _perfbench_modules()
        for entry in reference.load_pool("via"):
            program, n = parse(corpus.render(entry["program"])), entry["n"]
            direct = stable_models(program, Semantics.G)
            for method in ("rew", "str"):
                del built[:], checked[:]
                assert solve_via_rewriting(program, method) == direct, (entry["seed"], method)
                assert built == [((1 << n) - 1, (1 << 2 * n) - (1 << n))], method
                with monkeypatch.context() as spanning:
                    without_classes(spanning)
                    candidates = len(checked)
                    assert solve_via_rewriting(program, method) == direct
                    assert len(checked) == 2 * candidates > 0, method


class TestCautiousBrave:
    def test_golden(self):
        program = golden_program()
        a, b = Atom("a"), Atom("b")
        assert not cautious(program, a, Semantics.G)
        assert brave(program, a, Semantics.G)
        assert not brave(program, b, Semantics.G)
        assert brave(program, b, Semantics.F)

    def test_incoherent_conventions(self):
        program = parse(GADGET)
        p = Atom("p")
        assert cautious(program, p, Semantics.G)
        assert not brave(program, p, Semantics.G)

    def test_single_fact(self):
        program = parse("p.")
        p = Atom("p")
        for sem in (Semantics.G, Semantics.F):
            assert cautious(program, p, sem)
            assert brave(program, p, sem)

    def test_brave_implies_coherent(self):
        rng = random.Random(11)
        for _ in range(30):
            program = gen.random_program(rng, max_atoms=4, max_rules=5)
            for sem in (Semantics.G, Semantics.F):
                if any(
                    brave(program, atom, sem) for atom in sorted(atoms_of(program))
                ):
                    assert check_coherence(program, sem)


class TestQueriesAgainstOracle:
    """The queries stop at the first stable model of a restricted candidate
    set; each answer must still match the full oracle model set."""

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_every_atom_on_seeded_corpus(self, sem):
        incoherent = 0
        for index in range(150):
            rng = random.Random(index)
            if index % 2:
                program = gen.random_program(rng, max_atoms=5, max_rules=6)
            else:
                program = gen.random_mixed_program(rng, index)
            models = oracles.naive_stable_models(program, sem.value)
            incoherent += not models
            assert check_coherence(program, sem) is bool(models)
            for atom in sorted(atoms_of(program)):
                assert brave(program, atom, sem) is any(atom in m for m in models)
                assert cautious(program, atom, sem) is all(atom in m for m in models)
        # incoherent programs occur, so the conventions above were exercised:
        # there every atom is cautious and none is brave
        assert incoherent >= 10

    OVERFLOW = (
        "a :- not b. b :- not a.\n"
        "p :- a, sum{9223372036854775807 : a, 1 : b} >= 0.\n"
    )
    # the overflowing sum sits behind a prefix that no interpretation
    # satisfies, so no evaluation ever reaches it
    GUARDED = (
        "a :- not not a. b :- not not b. c :- not not c.\n"
        "p :- count{a} >= 1, not a, sum{9223372036854775807 : b, 1 : c} >= 0.\n"
    )

    # with blocks of 2**1 subsets the first model, {a}, is in block 0, and
    # the sum's prefix c, count{b} >= 1 holds only in a later block: a
    # prefix reads its literals' atoms as well as its aggregates' domains
    OVERFLOW_AFTER_A_LITERAL = (
        "a :- not b. b :- not a. c :- not not c.\n"
        "p :- c, count{b} >= 1, sum{9223372036854775807 : a, 1 : b} >= 0.\n"
    )

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_overflow_is_not_skipped_by_early_exit(self, sem, monkeypatch):
        a = Atom("a")
        for text, block in ((self.OVERFLOW, None), (self.OVERFLOW_AFTER_A_LITERAL, 1)):
            if block:
                monkeypatch.setattr(semantics, "_BLOCK_ATOMS", block)
            program = parse(text)
            with pytest.raises(AggregateOverflowError):
                stable_models(program, sem)
            with pytest.raises(AggregateOverflowError):
                check_coherence(program, sem)
            with pytest.raises(AggregateOverflowError):
                brave(program, a, sem)
            with pytest.raises(AggregateOverflowError):
                cautious(program, a, sem)

    # the sum overflows on {b, c}; in body order it follows count{b} >= 1,
    # which holds somewhere, so its column is built whatever comes after it
    BODY_ORDER_RAISES = (
        "b :- not not b. c :- not not c.\n"
        "a :- count{b} >= 1, sum{4611686018427387904 : b, 4611686018427387904 : c} > 0, not b.\n"
    )
    # behind count{b} >= 2, which holds nowhere, it never is
    BODY_ORDER_GUARDED = (
        "b :- not not b. c :- not not c.\n"
        "a :- count{b} >= 2, sum{4611686018427387904 : b, 4611686018427387904 : c} > 0.\n"
    )

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_body_order_decides_errors(self, sem):
        with pytest.raises(AggregateOverflowError):
            stable_models(parse(self.BODY_ORDER_RAISES), sem)
        assert len(stable_models(parse(self.BODY_ORDER_GUARDED), sem)) == 4

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_unreachable_overflow_never_raises(self, sem):
        program = parse(self.GUARDED)
        models = stable_models(program, sem)
        assert set(models) == oracles.naive_stable_models(program, sem.value)
        assert check_coherence(program, sem)
        for atom in sorted(atoms_of(program)):
            assert brave(program, atom, sem) is any(atom in m for m in models)
            assert cautious(program, atom, sem) is all(atom in m for m in models)


def table_column(spec: AggregateSpec, universe: list) -> int:
    """The aggregate's column over the subsets of `universe`, read from its
    truth table: bit s is the entry for the domain atoms true at s."""
    table = oracles.reference_truth_table(spec)
    column = 0
    for index in range(1 << len(universe)):
        entry = sum(
            1 << i
            for i, atom in enumerate(spec.domain)
            if atom in universe and index >> universe.index(atom) & 1
        )
        column |= table[entry] << index
    return column


def circuit_column(spec: AggregateSpec, universe: list) -> int:
    """The aggregate's column over the subsets of the sorted `universe`,
    from the column builder: the complement of the column of `:- spec.`,
    with the domain atoms outside `universe` false."""
    _, rules, index = semantics._compile_at(Program((Rule(frozenset(), (spec,)),)), universe)
    full = (1 << (1 << len(universe))) - 1
    return semantics._column(index, rules, semantics._pattern) ^ full


def outcome(build, *args):
    try:
        return build(*args)
    except AggregateOverflowError as err:
        return type(err), str(err)


POOL = tuple(Atom(name) for name in ("d0", "d1", "d2", "d3", "d4"))
EXTRA = tuple(Atom(name) for name in ("e0", "e1"))


class TestAggregateColumn:
    """The circuit column against the truth table, on the full space and on
    spaces that leave some domain atoms out (the subspace check); and the
    circuit's own truth table against the walk over the subsets."""

    @pytest.mark.parametrize("func,comparator", gen.AGGREGATE_CASES)
    def test_matches_truth_table(self, func, comparator):
        rng = random.Random(f"{func.value}{comparator}")
        overflowing = 0
        for _ in range(120):
            spec = gen.random_weighted_aggregate(rng, func, comparator, POOL, max_dom=5)
            universe = sorted(set(spec.domain) | set(rng.sample(EXTRA, rng.randint(0, 2))))
            assert outcome(aggregate_truth_table, spec) == outcome(
                oracles.reference_truth_table, spec
            ), spec
            expected = outcome(table_column, spec, universe)
            overflowing += isinstance(expected, tuple)
            assert outcome(circuit_column, spec, universe) == expected, spec
            if isinstance(expected, tuple):
                continue  # the subspace check never meets an overflowing aggregate
            subspace = [atom for atom in universe if rng.random() < 0.6]
            assert circuit_column(spec, subspace) == table_column(spec, subspace), spec
        if func in (AggregateFunc.SUM, AggregateFunc.AVG):
            assert overflowing  # the error path was exercised

    @pytest.mark.parametrize(
        "text",
        [
            "count{} >= 0", "count{} > 0", "sum{} = 0", "sum{} != 0", "sum{} < -1",
            "sum{0 : a, 0 : b} = 0", "sum{-2 : a, 3 : b, -1 : c} = 0",
            "sum{-5 : a, -7 : b} > -6", "avg{0 : a, 4 : b} = 2", "avg{-3 : a, 3 : b} >= 0",
            "min{2 : a, -1 : b} <= -1", "max{2 : a, 2 : b} != 2", "sum{1 : a, 2 : b} <= 99",
        ],
    )
    def test_edge_cases(self, text):
        spec = parse(f":- {text}.").rules[0].body[0]
        assert aggregate_truth_table(spec) == oracles.reference_truth_table(spec)
        for universe in (sorted(spec.domain), sorted(set(spec.domain) | {Atom("z")}), []):
            assert circuit_column(spec, universe) == table_column(spec, universe)

    def test_no_truth_table_under_f(self, monkeypatch):
        program = parse(
            "a :- not not a. b :- not not b. c :- not not c. d :- not not d.\n"
            "p :- count{a, b, c, d} >= 1.\n"
            "q :- count{a, b, c, d} >= 1.\n"
            "r :- sum{1 : a, 2 : b, -1 : c} != 0.\n"
        )
        built = []
        original = semantics._table

        def counting(spec):
            built.append(spec)
            return original(spec)

        # the one builder of truth tables, for classification too; the
        # negation keeps the program from the fixpoint route unclassified
        monkeypatch.setattr(semantics, "_table", counting)
        models = stable_models(program, Semantics.F)
        # under F the count stays in the reduct of every model with p, and
        # each such reduct needs the subspace check
        assert sum(Atom("p") in model for model in models) == 15
        assert built == []

    def test_wide_sum_makes_no_scalar_evaluations(self, monkeypatch):
        domain = [Atom(f"w{i:02}") for i in range(16)]
        spec = AggregateSpec(
            AggregateFunc.SUM, tuple((i - 5, atom) for i, atom in enumerate(domain)), ">=", 7
        )
        program = Program((Rule({domain[0]}, (spec,)),))
        evaluated = []
        for module in (reasoner, semantics):
            original = module.eval_aggregate
            monkeypatch.setattr(
                module, "eval_aggregate", lambda *args, f=original: evaluated.append(1) or f(*args)
            )
        _, rules, index = semantics._compile_at(program, domain)
        column = semantics._column(index, rules, semantics._pattern)
        assert evaluated == []
        monkeypatch.undo()
        full = (1 << (1 << len(domain))) - 1
        rule_column = (table_column(spec, domain) ^ full) | semantics._pattern(0, len(domain))
        assert column == rule_column

    def test_overflow_is_found_with_one_evaluation(self, monkeypatch):
        # only the whole domain of 12 weights of 2**63 // 12 + 1 overflows;
        # the enumerator raises what a walk over the truth table raises, after
        # evaluating that one subset
        weight = 2**63 // 12 + 1
        guesses = "".join(f"a{i:02} :- not not a{i:02}.\n" for i in range(12))
        elements = ", ".join(f"{weight} : a{i:02}" for i in range(12))
        program = parse(f"{guesses}p :- sum{{{elements}}} >= 0.\n")
        spec = program.rules[-1].body[0]
        with pytest.raises(AggregateOverflowError) as walked:
            oracles.reference_truth_table(spec)
        evaluated = []
        original = semantics.eval_aggregate
        monkeypatch.setattr(
            semantics, "eval_aggregate", lambda *args: evaluated.append(args[1]) or original(*args)
        )
        for sem in Semantics:
            with pytest.raises(AggregateOverflowError) as raised:
                stable_models(program, sem)
            assert str(raised.value) == str(walked.value)
        assert evaluated == [frozenset(spec.domain)] * 2

    def test_no_column_outlives_a_solve(self):
        # 20 atoms: one column, and one cached atom pattern, is 128 KiB
        chain = "".join(f"x{i} :- x{i - 1}.\n" for i in range(1, 19))
        program = parse("x0 :- not not x0.\n" + chain + "x19 :- count{x0, x18} >= 1.\n")
        assert len(atoms_of(program)) == 20
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            models = stable_models(program, Semantics.F)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(models) == 2
        assert kept < 512 * 1024


class TestSolveViaRewriting:
    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_golden(self, method):
        assert solve_via_rewriting(golden_program(), method) == stable_models(
            golden_program(), Semantics.G
        )

    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_minimal_copies_agree(self, method):
        program = golden_program()
        rewriting = {"rew": rewrite_rew, "str": rewrite_str}[method]
        rewritten = rewriting(program, minimal_copies=True)
        projected = [model & atoms_of(program) for model in stable_models(rewritten, Semantics.F)]
        assert ModelSet(projected) == stable_models(program, Semantics.G)

    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_empty_program(self, method):
        assert list(solve_via_rewriting(Program(), method)) == [frozenset()]

    def test_unknown_method(self):
        with pytest.raises(ValueError) as info:
            solve_via_rewriting(golden_program(), "xyz")
        assert str(info.value) == "unknown rewriting 'xyz'; expected 'rew' or 'str'"

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_direct_search(self, seed):
        program = gen.random_program(random.Random(seed), max_atoms=4, max_rules=5)
        direct = stable_models(program, Semantics.G)
        assert solve_via_rewriting(program, "rew") == direct
        assert solve_via_rewriting(program, "str") == direct
