"""Stable-model enumeration, the monotone fast path, and the three queries.

The enumeration engine packs truth tables into big integers; every frozen
expectation here was derived by hand, and the engine is additionally checked
against the subset-walking oracles on random programs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

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
        m = [Atom(f"m{i}") for i in range(21)]
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

    def test_fast_path_errors_propagate_under_g(self):
        # classification refuses domains over 20 atoms; the fast path must
        # not turn that, or an overflow, into a fall-back to enumeration
        wide = ", ".join(f"a{i}" for i in range(21))
        with pytest.raises(DomainTooLargeError):
            check_coherence(parse(f"p :- count{{{wide}}} >= 1."), Semantics.G)
        overflow = "p :- sum{9223372036854775807 : a, 1 : p} >= 0. a."
        with pytest.raises(AggregateOverflowError):
            check_coherence(parse(overflow), Semantics.G)

    def test_outside_the_fragment_enumerates(self):
        assert check_coherence(parse("a :- not b. b :- not a."), Semantics.G)
        assert not check_coherence(parse("a :- not a."), Semantics.G)


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


def table_column(spec: AggregateSpec, universe: list) -> int:
    """The aggregate's column over the subsets of `universe`, read from its
    truth table: bit s is the entry for the domain atoms true at s."""
    table = aggregate_truth_table(spec, max_domain=len(spec.domain))
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
    space = reasoner._Space(universe)
    columns = [space.atom_column(atom) for atom in spec.domain]
    return reasoner._aggregate_column(spec, columns, space.full)


def outcome(build, spec, universe):
    try:
        return build(spec, universe)
    except AggregateOverflowError as err:
        return type(err), str(err)


POOL = tuple(Atom(name) for name in ("d0", "d1", "d2", "d3", "d4"))
EXTRA = tuple(Atom(name) for name in ("e0", "e1"))


class TestAggregateColumn:
    """The circuit column against the truth table, on the full space and on
    spaces that leave some domain atoms out (the subspace check)."""

    @pytest.mark.parametrize("func,comparator", gen.AGGREGATE_CASES)
    def test_matches_truth_table(self, func, comparator):
        rng = random.Random(f"{func.value}{comparator}")
        overflowing = 0
        for _ in range(120):
            spec = gen.random_weighted_aggregate(rng, func, comparator, POOL, max_dom=5)
            universe = sorted(set(spec.domain) | set(rng.sample(EXTRA, rng.randint(0, 2))))
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
        original = semantics.aggregate_truth_table

        def counting(spec, **kwargs):
            built.append(spec)
            return original(spec, **kwargs)

        # the circuit, semantics._aggregate_column, looks the table up here
        monkeypatch.setattr(semantics, "aggregate_truth_table", counting)
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
        space = reasoner._Space(domain)
        column = space.program_column(program)
        assert evaluated == []
        monkeypatch.undo()
        rule_column = (table_column(spec, domain) ^ space.full) | space.atom_column(domain[0])
        assert column == rule_column

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
