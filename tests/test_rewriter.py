"""Source-to-source rewritings, dependency graph, stratification, size bounds.

Expected output texts are frozen by hand application of the definitions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp.core import (
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
    program_size,
)
from gzasp.errors import PreconditionError
from gzasp.parser import parse, render
from gzasp.rewriter import (
    BOTTOM,
    check_size_bounds,
    dependency_graph,
    false_copy,
    guess_copy,
    is_aggregate_stratified,
    rewrite_c,
    rewrite_m,
    rewrite_n,
    rewrite_rew,
    rewrite_str,
    strongly_connected_components,
    true_copy,
)
from gzasp.semantics import AggregateClass, classify_aggregate

import gen
from helpers import (
    A,
    B,
    C,
    GOLDEN_REW_SIZE,
    GOLDEN_REW_TEXT,
    GOLDEN_SIZE,
    GOLDEN_STR_SIZE,
    GOLDEN_STR_TEXT,
    golden_program,
)

TWO_CYCLE = "p :- not q.\nq :- not p.\n"


class TestFreshNames:
    def test_copies(self):
        assert true_copy(A) == Atom("a__t")
        assert guess_copy(A) == Atom("a__g")
        assert false_copy(A) == Atom("a__f")
        assert BOTTOM == Atom("__bot")

    def test_copies_of_generated_names_nest(self):
        assert true_copy(Atom("a__t")) == Atom("a__t__t")


class TestRewriteC:
    def test_two_cycle(self):
        assert render(rewrite_c(parse(TWO_CYCLE))) == (
            "p :- count{q} <= 0.\nq :- count{p} <= 0.\n"
        )

    def test_negation_free_unchanged(self):
        program = parse("a. b :- a, c.")
        assert rewrite_c(program) == program

    def test_replacement_is_convex(self):
        spec = rewrite_c(parse("p :- not q.")).rules[0].body[0]
        assert classify_aggregate(spec) is AggregateClass.CONVEX

    @pytest.mark.parametrize("rewriting", [rewrite_c, rewrite_n, rewrite_m])
    def test_rejects_nested_negation(self, rewriting):
        with pytest.raises(PreconditionError) as info:
            rewriting(parse("a :- not not a."))
        assert "not not a" in str(info.value)

    @pytest.mark.parametrize("rewriting", [rewrite_c, rewrite_n, rewrite_m])
    def test_rejects_aggregates(self, rewriting):
        with pytest.raises(PreconditionError) as info:
            rewriting(parse("p :- count{q} >= 1."))
        assert "count" in str(info.value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_output_negation_free_and_atoms_preserved(self, seed):
        program = gen.random_normal_program(random.Random(seed))
        out = rewrite_c(program)
        assert atoms_of(out) == atoms_of(program)
        assert all(
            not isinstance(lit, AtomLiteral) or not lit.negation_depth
            for rule in out
            for lit in rule.body
        )


class TestRewriteN:
    def test_single_negation(self):
        assert render(rewrite_n(parse("p :- not q."))) == (
            "p :- count{__bot, q} != 1.\n"
        )

    def test_negation_free_unchanged(self):
        program = parse("a. b :- a, c.")
        assert rewrite_n(program) == program

    def test_replacement_is_nonconvex(self):
        spec = rewrite_n(parse("p :- not q.")).rules[0].body[0]
        assert classify_aggregate(spec) is AggregateClass.NONCONVEX

    def test_bottom_collision(self):
        program = Program(
            (Rule({BOTTOM}, ()), Rule({A}, (AtomLiteral(B, 1),)))
        )
        with pytest.raises(PreconditionError) as info:
            rewrite_n(program)
        assert "__bot" in str(info.value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_bottom_never_heads_a_rule(self, seed):
        out = rewrite_n(gen.random_normal_program(random.Random(seed)))
        assert all(BOTTOM not in rule.head for rule in out)
        assert all(
            not isinstance(lit, AtomLiteral) or not lit.negation_depth
            for rule in out
            for lit in rule.body
        )


class TestRewriteM:
    def test_two_cycle(self):
        assert render(rewrite_m(parse(TWO_CYCLE))) == (
            "p :- q__f.\n"
            "q :- p__f.\n"
            "p | p__f :- count{p} >= 0.\n"
            "q | q__f :- count{q} >= 0.\n"
        )

    def test_single_fact(self):
        assert render(rewrite_m(parse("p."))) == (
            "p.\np | p__f :- count{p} >= 0.\n"
        )

    def test_false_copy_collision(self):
        program = Program(
            (Rule({Atom("p__f")}, ()), Rule({A}, (AtomLiteral(Atom("p"), 1),)))
        )
        with pytest.raises(PreconditionError) as info:
            rewrite_m(program)
        assert "p__f" in str(info.value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_output_negation_free_with_monotone_aggregates(self, seed):
        out = rewrite_m(gen.random_normal_program(random.Random(seed)))
        for rule in out:
            for lit in rule.body:
                if isinstance(lit, AggregateSpec):
                    assert classify_aggregate(lit) is AggregateClass.MONOTONE
                else:
                    assert not lit.negation_depth


class TestRewriteRew:
    def test_golden(self):
        assert render(rewrite_rew(golden_program())) == GOLDEN_REW_TEXT

    def test_golden_size(self):
        assert program_size(rewrite_rew(golden_program())) == GOLDEN_REW_SIZE

    def test_minimal_copies_golden(self):
        assert render(rewrite_rew(golden_program(), minimal_copies=True)) == (
            "a :- not not a.\n"
            "b | c :- count{a, b} >= 1, a__t, b__t.\n"
            "a__t :- not a.\n"
            "a__t :- a.\n"
            "b__t :- not b.\n"
            "b__t :- b.\n"
        )

    def test_aggregate_free_only_gains_copy_rules(self):
        assert render(rewrite_rew(parse("p :- not q."))) == (
            "p :- not q.\n"
            "p__t :- not p.\n"
            "p__t :- p.\n"
            "q__t :- not q.\n"
            "q__t :- q.\n"
        )

    def test_empty_program(self):
        assert rewrite_rew(Program()) == Program()

    def test_shared_domain_atoms_appended_once(self):
        text = "p :- count{a} >= 1, count{a, b} >= 1."
        assert render(rewrite_rew(parse(text))) == (
            "p :- count{a} >= 1, count{a, b} >= 1, a__t, b__t.\n"
            "a__t :- not a.\n"
            "a__t :- a.\n"
            "b__t :- not b.\n"
            "b__t :- b.\n"
            "p__t :- not p.\n"
            "p__t :- p.\n"
        )

    def test_true_copy_collision(self):
        program = Program((Rule({Atom("a__t")}, ()), Rule({A}, ())))
        with pytest.raises(PreconditionError) as info:
            rewrite_rew(program)
        assert "a__t" in str(info.value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_aggregates_unchanged_and_disjunction_preserved(self, seed):
        program = gen.random_program(random.Random(seed), disjunction=False)
        out = rewrite_rew(program)
        assert [
            lit
            for rule in out
            for lit in rule.body
            if isinstance(lit, AggregateSpec)
        ] == [
            lit
            for rule in program
            for lit in rule.body
            if isinstance(lit, AggregateSpec)
        ]
        assert all(len(rule.head) <= 1 for rule in out)


class TestRewriteStr:
    def test_golden(self):
        assert render(rewrite_str(golden_program())) == GOLDEN_STR_TEXT

    def test_golden_size(self):
        assert program_size(rewrite_str(golden_program())) == GOLDEN_STR_SIZE

    def test_weighted_aggregate_renamed_in_place(self):
        out = render(rewrite_str(parse("p :- sum{2 : a, -1 : b} < 3.")))
        assert out.startswith("p :- sum{2 : a__g, -1 : b__g} < 3, a__t, b__t.\n")

    def test_minimal_copies_golden(self):
        assert render(rewrite_str(golden_program(), minimal_copies=True)) == (
            "a :- not not a.\n"
            "b | c :- count{a__g, b__g} >= 1, a__t, b__t.\n"
            "a__t :- not a.\n"
            "a__t :- a.\n"
            "a__g :- not not a__g.\n"
            ":- not a__g, a.\n"
            ":- a__g, not a.\n"
            "b__t :- not b.\n"
            "b__t :- b.\n"
            "b__g :- not not b__g.\n"
            ":- not b__g, b.\n"
            ":- b__g, not b.\n"
        )

    def test_guess_copy_collision(self):
        program = Program((Rule({Atom("a__g")}, ()), Rule({A}, ())))
        with pytest.raises(PreconditionError) as info:
            rewrite_str(program)
        assert "a__g" in str(info.value)

    def test_empty_program(self):
        assert rewrite_str(Program()) == Program()

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_disjunction_freeness_preserved(self, seed):
        program = gen.random_program(random.Random(seed), disjunction=False)
        assert all(len(rule.head) <= 1 for rule in rewrite_str(program))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_always_aggregate_stratified(self, seed):
        program = gen.random_program(random.Random(seed))
        assert is_aggregate_stratified(rewrite_str(program))


class TestModularity:
    @pytest.mark.parametrize("rewriting", [rewrite_rew, rewrite_str])
    def test_union_of_disjoint_programs(self, rewriting):
        rng = random.Random(7)
        left = gen.random_program(rng, pool=gen.POOL)
        right = gen.random_program(rng, pool=gen.ALT_POOL)
        union = Program(left.rules + right.rules)
        assert set(rewriting(union).rules) == set(rewriting(left).rules) | set(
            rewriting(right).rules
        )


class TestDependencyGraph:
    def test_golden(self):
        assert dependency_graph(golden_program()) == {
            A: frozenset({A, B, C}),
            B: frozenset({B, C}),
            C: frozenset(),
        }

    def test_empty(self):
        assert dependency_graph(Program()) == {}

    def test_single_arc(self):
        p, q = Atom("p"), Atom("q")
        assert dependency_graph(parse("p :- q.")) == {
            p: frozenset(),
            q: frozenset({p}),
        }

    def test_negated_body_atom_contributes(self):
        p, q = Atom("p"), Atom("q")
        assert dependency_graph(parse("p :- not q."))[q] == frozenset({p})

    def test_constraint_adds_nodes_but_no_arcs(self):
        graph = dependency_graph(parse(":- p, count{q} >= 1."))
        assert graph == {Atom("p"): frozenset(), Atom("q"): frozenset()}


class TestStronglyConnectedComponents:
    def test_two_cycle(self):
        components = strongly_connected_components(
            dependency_graph(parse(TWO_CYCLE))
        )
        assert components == [frozenset({Atom("p"), Atom("q")})]

    def test_chain_is_singletons(self):
        components = strongly_connected_components(
            dependency_graph(parse("b :- a. c :- b."))
        )
        assert sorted(components, key=sorted) == [
            frozenset({Atom("a")}),
            frozenset({Atom("b")}),
            frozenset({Atom("c")}),
        ]

    def test_components_partition_the_nodes(self):
        graph = dependency_graph(golden_program())
        components = strongly_connected_components(graph)
        seen = [atom for component in components for atom in component]
        assert sorted(seen) == sorted(graph)
        assert len(seen) == len(set(seen))


class TestAggregateStratified:
    def test_golden_is_not_stratified(self):
        # rule 2 derives b while b sits in its own aggregate domain
        assert not is_aggregate_stratified(golden_program())

    def test_str_of_golden_is_stratified(self):
        assert is_aggregate_stratified(rewrite_str(golden_program()))

    def test_self_support_gadget(self):
        assert not is_aggregate_stratified(parse("p :- count{p} >= 0."))

    def test_mutual_recursion_through_domain(self):
        assert not is_aggregate_stratified(parse("p :- count{q} >= 1. q :- p."))

    def test_acyclic_use_is_stratified(self):
        assert is_aggregate_stratified(parse("p :- count{q} >= 1. q :- r."))

    def test_aggregate_free_is_stratified(self):
        assert is_aggregate_stratified(parse("p :- not p. q :- p."))

    def test_constraint_aggregates_never_violate(self):
        assert is_aggregate_stratified(parse("p. :- count{p} >= 1."))


class TestCheckSizeBounds:
    def test_golden(self):
        report = check_size_bounds(golden_program())
        assert report.size_in == GOLDEN_SIZE
        assert report.atoms == 3
        assert report.size_rew == GOLDEN_REW_SIZE
        assert report.size_str == GOLDEN_STR_SIZE
        assert report.rew_ok and report.str_ok

    def test_bounds_are_carried(self):
        report = check_size_bounds(golden_program())
        assert report.rew_bound == 4 * 3 + 2 * GOLDEN_SIZE
        assert report.str_bound == 10 * 3 + 2 * GOLDEN_SIZE

    def test_empty(self):
        report = check_size_bounds(Program())
        assert (report.size_in, report.size_rew, report.size_str, report.atoms) == (
            0,
            0,
            0,
            0,
        )
        assert report.rew_ok and report.str_ok

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_bounds_hold_on_random_programs(self, seed):
        program = gen.random_program(random.Random(seed))
        report = check_size_bounds(program)
        assert report.size_rew <= 4 * report.atoms + 2 * report.size_in
        assert report.size_str <= 10 * report.atoms + 2 * report.size_in
        assert report.rew_ok and report.str_ok

    def test_sizes_match_the_rewritten_programs(self):
        # check_size_bounds counts by arithmetic; the rewritings are the
        # definition. Shared domain atoms are padded once per rule.
        shared = parse(
            "p :- count{a, b} >= 1, sum{2 : b, 1 : c} >= 2, a.\n"
            "q :- max{1 : a} > 0, count{a} >= 1.\n"
            ":- count{p, q} != 1.\n"
        )
        rng = random.Random(5)
        families = [
            (60, lambda: gen.random_program(rng)),
            (60, lambda: gen.random_mixed_program(rng, rng.randrange(84))),
            (60, lambda: gen.random_normal_program(rng)),
            (60, lambda: gen.random_monotone_program(rng)),
            (12, lambda: gen.random_large_monotone_program(rng, 200, rng.random() < 0.5)),
        ]
        programs = [Program(), shared] + [make() for count, make in families for _ in range(count)]
        for program in programs:
            report = check_size_bounds(program)
            assert report.size_rew == program_size(rewrite_rew(program)), render(program)
            assert report.size_str == program_size(rewrite_str(program)), render(program)
            assert report.size_in == program_size(program)
            assert report.atoms == len(atoms_of(program))

    @pytest.mark.parametrize(
        "text",
        [
            "a. a__t.",
            "a. a__g.",
            "a. b. a__g. b__t.",
            "b__g. a. b. a__t.",
            "p :- count{a, a__g} >= 1.",
            "a__t__g :- a__t, a__g, a.",
        ],
    )
    def test_freshness_errors_match_the_rewritings(self, text):
        # the parent's order: rew's true copies, then str's guess copies
        program = parse(text)
        with pytest.raises(PreconditionError) as expected:
            rewrite_rew(program)
            rewrite_str(program)
        with pytest.raises(PreconditionError) as raised:
            check_size_bounds(program)
        assert str(raised.value) == str(expected.value)

