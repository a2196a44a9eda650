"""Stable-model enumeration, the monotone fast path, and the three queries.

The enumeration engine packs truth tables into big integers; every frozen
expectation here was derived by hand, and the engine is additionally checked
against the subset-walking oracles on random programs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp.core import Atom, Program, atoms_of
from gzasp import reasoner
from gzasp.errors import (
    AggregateOverflowError,
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


class TestIsStable:
    @pytest.mark.parametrize(
        "interp,sem,expected",
        [
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
        ],
    )
    def test_golden(self, interp, sem, expected):
        assert is_stable(golden_program(), atoms(interp), sem) is expected

    def test_rejects_foreign_atoms(self):
        with pytest.raises(PreconditionError):
            is_stable(golden_program(), frozenset({Atom("d")}), Semantics.G)


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

    def test_atom_guard(self):
        facts = parse("".join(f"p{i}.\n" for i in range(25)))
        with pytest.raises(TooManyAtomsError) as info:
            stable_models(facts, Semantics.G)
        assert "24" in str(info.value)
        five = parse("a. b. c. d. e.")
        with pytest.raises(TooManyAtomsError):
            stable_models(five, Semantics.G, max_atoms=4)
        assert list(stable_models(five, Semantics.G, max_atoms=5)) == [atoms("abcde")]

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

    @pytest.mark.parametrize("sem", [Semantics.G, Semantics.F])
    def test_unreachable_overflow_never_raises(self, sem):
        program = parse(self.GUARDED)
        models = stable_models(program, sem)
        assert set(models) == oracles.naive_stable_models(program, sem.value)
        assert check_coherence(program, sem)
        for atom in sorted(atoms_of(program)):
            assert brave(program, atom, sem) is any(atom in m for m in models)
            assert cautious(program, atom, sem) is all(atom in m for m in models)


class TestTruthTableReuse:
    def test_one_table_per_distinct_aggregate(self, monkeypatch):
        program = parse(
            "a :- not not a. b :- not not b. c :- not not c. d :- not not d.\n"
            "p :- count{a, b, c, d} >= 1.\n"
            "q :- count{a, b, c, d} >= 1.\n"
            "r :- sum{1 : a, 2 : b, -1 : c} != 0.\n"
        )
        built = []
        original = reasoner.aggregate_truth_table

        def counting(spec, **kwargs):
            built.append(spec)
            return original(spec, **kwargs)

        monkeypatch.setattr(reasoner, "aggregate_truth_table", counting)
        models = stable_models(program, Semantics.F)
        # under F the count stays in the reduct of every model with p, and
        # each such reduct needs the subspace check
        assert sum(Atom("p") in model for model in models) == 15
        assert len(built) == len(set(built)) <= 2


class TestSolveViaRewriting:
    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_golden(self, method):
        assert solve_via_rewriting(golden_program(), method) == stable_models(
            golden_program(), Semantics.G
        )

    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_minimal_copies_agree(self, method):
        assert solve_via_rewriting(
            golden_program(), method, minimal_copies=True
        ) == stable_models(golden_program(), Semantics.G)

    @pytest.mark.parametrize("method", ["rew", "str"])
    def test_empty_program(self, method):
        assert list(solve_via_rewriting(Program(), method)) == [frozenset()]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_via_rewriting(golden_program(), "xyz")

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_direct_search(self, seed):
        program = gen.random_program(random.Random(seed), max_atoms=4, max_rules=5)
        direct = stable_models(program, Semantics.G)
        assert solve_via_rewriting(program, "rew") == direct
        assert solve_via_rewriting(program, "str") == direct
