"""Stable-model enumeration, the monotone fast path, and the three queries.

The enumeration engine packs truth tables into big integers; every frozen
expectation here was derived by hand, and the engine is additionally checked
against the subset-walking oracles on random programs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp.core import (
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
        built = []
        column = semantics._column

        def counted(*args):
            built.append(args[0])
            return column(*args)

        monkeypatch.setattr(semantics, "_column", counted)
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

        def column(index, rules, pattern, supported=False):
            if supported:  # the program column
                return 1 << index
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
                assert cautious(program, outside, sem) is not models
            for interp in oracles.subsets(universe | {outside}):
                assert semantics.is_minimal_model(interp, program) is (
                    oracles.naive_is_minimal_model(interp, program)
                ), interp

    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_column_alone_against_oracles(self, family, monkeypatch):
        # the minimality rounds derive nothing, so neither polynomial test
        # decides: the column of the reduct plus `:- M.` does (or the empty
        # set, a model of every rule, refutes). The fixpoint route, which
        # passes no stop, keeps the real rounds
        least_model = semantics._least_model

        def no_rounds(rules, stop=-1):
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
        columns = []
        minimal, column = semantics._minimal, semantics._column
        monkeypatch.setattr(
            semantics, "_minimal", lambda *args: checks.append(1) or minimal(*args)
        )
        monkeypatch.setattr(semantics, "_column", lambda *args: columns.append(1) or column(*args))
        programs = _disjunctive_programs()
        for sem in Semantics:
            del checks[:], columns[:]
            for program in programs:
                universe, rules, _ = semantics._compile_at(program)
                pattern = cache(semantics._pattern)
                models = column((1 << len(universe)) - 1, rules, pattern)
                for index in semantics._set_bits(models):
                    semantics._stable_at(
                        rules, index, sem is Semantics.G, pattern, semantics.DEFAULT_MAX_ATOMS
                    )
            assert len(checks) > 1000
            assert len(columns) * 5 <= len(checks), sem

    def test_aggregate_columns_built_under_f(self, monkeypatch):
        # counted, not timed: `:- M.` goes first in a minimality column and
        # clears only M's own bit, so the column empties after the same rule
        # as one that stops at that bit, and builds the same aggregate
        # columns; put last, it would build 418 and 334
        built = []
        aggregate_column = semantics._aggregate_column
        monkeypatch.setattr(
            semantics, "_aggregate_column", lambda *args: built.append(1) or aggregate_column(*args)
        )
        for family, expected in (("random", 403), ("mixed", 329)):
            del built[:]
            for seed in range(200):
                stable_models(gen.FAMILIES[family](random.Random(seed)), Semantics.F)
            assert len(built) == expected, family

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
            Rule({m[4]}, (AggregateSpec(AggregateFunc.COUNT, tuple((1, a) for a in m), ">=", 1),)),
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
        tables = []
        table = semantics._table

        def counted(spec):
            tables.append(spec)
            return table(spec)

        monkeypatch.setattr(semantics, "_table", counted)
        assert check_coherence(program, sem)
        assert len(tables) == 1

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

    def test_aggregate_wider_than_the_guard_is_enumerated(self, monkeypatch):
        # a 25-atom domain is not classified, so the program is enumerated,
        # and its 26 atoms are refused before compiling
        def refuse(*args):
            raise AssertionError("compiled before the guard")

        monkeypatch.setattr(semantics, "_compile_at", refuse)
        wide = ", ".join(f"a{i}" for i in range(25))
        program = parse(f"p :- count{{{wide}}} >= 1.")
        for sem in Semantics:
            with pytest.raises(TooManyAtomsError) as info:
                stable_models(program, sem)
            assert str(info.value) == "program has 26 atoms; the enumeration guard allows 24"

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
    """The enumerator passes to _stable_at only the supported models, the
    set bits of the program column built with `supported`."""

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
            supported = sorted(
                oracles.naive_supported_models(program),
                key=lambda model: sum(1 << universe.index(atom) for atom in model),
            )
            for sem in Semantics:
                del checked[:]
                list(stable_models(program, sem))
                assert [semantics._atoms_at(universe, index) for index in checked] == supported
                assert oracles.naive_stable_models(program, sem.value) <= set(supported)

    def test_checks_at_supported_models_only(self, monkeypatch):
        # counted, not timed: of the 1,208 models of the programs of
        # test_most_minimality_checks_build_no_column, 180 are supported
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
            assert len(checks) == 180, sem

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

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_overflow_is_not_skipped_by_early_exit(self, sem):
        program = parse(self.OVERFLOW)
        a = Atom("a")
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
