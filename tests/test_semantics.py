"""Aggregate evaluation, satisfaction, reducts, fixpoints, classification.

Expected values are hand-derived from the definitions (see helpers.py) or
checked against the naive oracles in oracles.py.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp.core import (
    COMPARATORS,
    EMPTY_DOMAIN_FUNCS,
    INT64_MAX,
    INT64_MIN,
    PARITY_FUNCS,
    UNWEIGHTED_FUNCS,
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
)
from gzasp.errors import (
    AggregateOverflowError,
    DomainTooLargeError,
    NotAspMError,
    TooManyAtomsError,
)
from gzasp import semantics
from gzasp.parser import parse, render
from gzasp.reasoner import Semantics, is_stable, stable_models
from gzasp.semantics import (
    AggregateClass,
    aggregate_truth_table,
    classify_aggregate,
    eval_aggregate,
    f_reduct,
    g_reduct,
    is_asp_m,
    is_horn,
    is_minimal_model,
    satisfies,
    tp_least_fixpoint,
)

import gen
import oracles
from oracles import tp_step
from helpers import (
    A,
    B,
    GOLDEN_F_REDUCT_AB,
    GOLDEN_G_REDUCT_AB,
    GOLDEN_G_REDUCT_AC,
    GOLDEN_MODELS,
    atoms,
    golden_program,
    minimality_columns,
)


def agg(text: str) -> AggregateSpec:
    """Parse a single aggregate literal via a scratch constraint."""
    return parse(f":- {text}.").rules[0].body[0]


class TestEvalAggregate:
    @pytest.mark.parametrize(
        "text,interp,expected",
        [
            ("count{a, b} >= 1", "b", True),
            ("count{a, b} >= 1", "", False),
            ("count{a, b} <= 0", "c", True),
            ("sum{2 : a, 3 : b} = 5", "ab", True),
            ("sum{2 : a, 3 : b} = 5", "a", False),
            ("sum{-2 : a, 3 : b} < 0", "a", True),
            ("sum{} >= 0", "", True),
            ("sum{} > 0", "abc", False),
            ("odd{a, b}", "a", True),
            ("odd{a, b}", "ab", False),
            ("even{a, b}", "", True),
            ("odd{a, b}", "", False),
            ("min{1 : a, 5 : b} >= 4", "b", True),
            ("min{1 : a, 5 : b} >= 4", "ab", False),
            ("max{1 : a, 5 : b} > 3", "ab", True),
            ("max{1 : a, -5 : b} > 3", "b", False),
        ],
    )
    def test_basic(self, text, interp, expected):
        assert eval_aggregate(agg(text), atoms(interp)) is expected

    @pytest.mark.parametrize("text", ["avg{1 : a} >= 0", "min{1 : a} <= 9", "max{1 : a} != 3"])
    def test_empty_selection_is_false(self, text):
        assert eval_aggregate(agg(text), frozenset()) is False
        assert eval_aggregate(agg(text), atoms("bc")) is False

    @pytest.mark.parametrize(
        "text,interp,expected",
        [
            # exact rational mean: 3/2 is neither 1 nor 2
            ("avg{1 : a, 2 : b} = 1", "ab", False),
            ("avg{1 : a, 2 : b} = 2", "ab", False),
            ("avg{1 : a, 2 : b} > 1", "ab", True),
            ("avg{1 : a, 2 : b} < 2", "ab", True),
            ("avg{-3 : a, 2 : b} < 0", "ab", True),
            ("avg{-3 : a, 2 : b} = 0", "ab", False),
            ("avg{3 : a, 3 : b} = 3", "ab", True),
            ("avg{-1 : a, -2 : b} >= -2", "ab", True),
        ],
    )
    def test_exact_average(self, text, interp, expected):
        assert eval_aggregate(agg(text), atoms(interp)) is expected

    def test_only_domain_atoms_matter(self):
        spec = agg("count{a, b} >= 2")
        assert eval_aggregate(spec, atoms("ab")) is True
        assert eval_aggregate(spec, atoms("ab") | {Atom("z")}) is True

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_restriction_to_domain_invariant(self, seed):
        rng = random.Random(seed)
        spec = gen.random_aggregate(rng)
        interp = frozenset(x for x in gen.POOL if rng.random() < 0.5)
        assert eval_aggregate(spec, interp) == eval_aggregate(
            spec, interp & frozenset(spec.domain)
        )

    def test_sum_overflow_reported(self):
        big = 2**62
        spec = AggregateSpec(AggregateFunc.SUM, ((big, A), (big, B)), ">=", 0)
        with pytest.raises(AggregateOverflowError):
            eval_aggregate(spec, atoms("ab"))
        # a single in-range weight is fine
        assert eval_aggregate(spec, atoms("a")) is True

    def test_avg_product_overflow_reported(self):
        spec = AggregateSpec(AggregateFunc.AVG, ((1, A), (1, B)), ">=", 2**62)
        with pytest.raises(AggregateOverflowError):
            eval_aggregate(spec, atoms("ab"))


class TestSatisfies:
    @pytest.mark.parametrize(
        "depth,member,expected",
        [(0, True, True), (0, False, False), (1, True, False), (1, False, True),
         (2, True, True), (2, False, False), (3, True, False), (3, False, True)],
    )
    def test_negation_parity(self, depth, member, expected):
        interp = atoms("a") if member else frozenset()
        assert satisfies(interp, AtomLiteral(A, depth)) is expected

    def test_rule(self):
        rule = golden_program().rules[1]  # b | c :- count{a, b} >= 1.
        assert satisfies(atoms("b"), rule) is True  # body true, b in head
        assert satisfies(atoms("a"), rule) is False  # body true, head missed
        assert satisfies(frozenset(), rule) is True  # body false

    def test_constraint(self):
        constraint = parse(":- a.").rules[0]
        assert satisfies(atoms("a"), constraint) is False
        assert satisfies(atoms("b"), constraint) is True

    def test_golden_classical_models(self):
        program = golden_program()
        found = {
            interp for interp in oracles.subsets(atoms("abc")) if satisfies(interp, program)
        }
        assert found == GOLDEN_MODELS

    def test_program_with_fact(self):
        program = parse("a. b :- a.")
        assert satisfies(atoms("ab"), program) is True
        assert satisfies(atoms("a"), program) is False
        assert satisfies(frozenset(), program) is False

    def test_unknown_object(self):
        with pytest.raises(TypeError) as info:
            satisfies(frozenset(), A)
        assert str(info.value) == "cannot evaluate satisfaction of Atom"


class TestReducts:
    def test_f_reduct_golden(self):
        assert render(f_reduct(golden_program(), atoms("ab"))) == GOLDEN_F_REDUCT_AB

    def test_g_reduct_golden(self):
        program = golden_program()
        assert render(g_reduct(program, atoms("ac"))) == GOLDEN_G_REDUCT_AC
        assert render(g_reduct(program, atoms("ab"))) == GOLDEN_G_REDUCT_AB

    def test_unsatisfied_bodies_dropped(self):
        program = golden_program()
        assert f_reduct(program, frozenset()) == Program()
        assert g_reduct(program, atoms("c")) == Program()

    def test_g_reduct_empty_replacement(self):
        # count{a} <= 0 holds under {b}; its domain intersection is empty
        program = parse("b. p :- count{a} <= 0, b.")
        assert render(g_reduct(program, atoms("bp"))) == "b.\np :- b.\n"

    def test_f_reduct_keeps_aggregates_in_place(self):
        program = parse("p :- not q, count{a} >= 1, a.")
        reduct = f_reduct(program, atoms("ap"))
        assert render(reduct) == "p :- count{a} >= 1, a.\n"

    def test_negative_literals_of_any_depth_dropped(self):
        program = parse("p :- not not p, not q.")
        assert render(f_reduct(program, atoms("p"))) == "p.\n"
        assert render(g_reduct(program, atoms("p"))) == "p.\n"

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_reducts_negation_free_and_g_aggregate_free(self, seed):
        rng = random.Random(seed)
        program = gen.random_program(rng)
        interp = frozenset(x for x in atoms_of(program) if rng.random() < 0.5)
        for reduct in (f_reduct(program, interp), g_reduct(program, interp)):
            assert len(reduct) <= len(program)
            for rule in reduct:
                assert all(
                    not isinstance(lit, AtomLiteral) or lit.negation_depth == 0
                    for lit in rule.body
                )
        assert all(
            isinstance(lit, AtomLiteral)
            for rule in g_reduct(program, interp)
            for lit in rule.body
        )


class TestTpOperator:
    def test_step_collects_fired_heads(self):
        program = parse("p :- q. q. r :- s.")
        assert tp_step(program, frozenset()) == atoms("q")
        assert tp_step(program, atoms("q")) == atoms("pq")

    def test_step_disjunctive_heads_contribute_all_atoms(self):
        program = parse("a | b :- c.")
        assert tp_step(program, atoms("c")) == atoms("ab")

    def test_least_fixpoint_chain(self):
        assert tp_least_fixpoint(parse("q. p :- q. r :- p, q.")) == atoms("pqr")

    def test_least_fixpoint_self_support(self):
        assert tp_least_fixpoint(parse("p :- count{p} >= 0.")) == atoms("p")

    def test_least_fixpoint_empty(self):
        assert tp_least_fixpoint(Program()) == frozenset()
        assert tp_least_fixpoint(parse("p :- q.")) == frozenset()

    def test_accepts_aggregates_that_classify_monotone(self):
        # odd over a singleton domain is upward closed, so it is admitted
        assert tp_least_fixpoint(parse("q. p :- odd{q}.")) == atoms("pq")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p :- not q.", "negation"),
            ("p | q.", "head"),
            (":- p.", "head"),
            ("p :- count{q} <= 0.", "aggregate"),
            ("p :- odd{q, r}.", "aggregate"),
        ],
    )
    def test_rejects_non_monotone_fragment(self, text, fragment):
        with pytest.raises(NotAspMError) as info:
            tp_least_fixpoint(parse(text))
        assert fragment in str(info.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            # the syntax of every rule is checked before any classification
            ("p :- count{q} <= 0. r :- not s.", "rule 2 uses negation: r :- not s."),
            ("p :- count{q} <= 0, not s.", "rule 1 uses negation: p :- count{q} <= 0, not s."),
            ("p :- count{q} <= 0. r | s.", "rule 2 has a disjunctive head: r | s."),
            ("p :- count{q} <= 0. r :- odd{q, s}.", "rule 1 uses a non-monotone aggregate"),
        ],
    )
    def test_syntax_is_refused_before_classification(self, text, message):
        with pytest.raises(NotAspMError) as info:
            tp_least_fixpoint(parse(text))
        assert str(info.value).startswith(message)

    def test_repeated_aggregate_is_refused_at_its_first_rule(self):
        # equal aggregates are classified once; the error names the first use
        program = parse("q. p :- count{q} >= 1. r :- count{q, s} != 1. t :- count{q, s} != 1.")
        with pytest.raises(NotAspMError) as info:
            tp_least_fixpoint(program)
        assert str(info.value) == (
            "rule 3 uses a non-monotone aggregate: r :- count{q, s} != 1."
        )

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_wide_aggregate_never_hides_negation(self, wide_first):
        # the syntax of every rule is checked before the 25-atom count is
        # classified, so its negation is named whichever rule is first
        wide = ", ".join(f"a{i}" for i in range(25))
        rules = [f"p :- count{{{wide}}} >= 1.", "a0 :- not p."]
        if not wide_first:
            rules.reverse()
        with pytest.raises(NotAspMError) as info:
            tp_least_fixpoint(parse("\n".join(rules)))
        assert str(info.value) == f"rule {1 + wide_first} uses negation: a0 :- not p."

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_fixpoint_models_program(self, seed):
        program = gen.random_monotone_program(random.Random(seed))
        fixpoint = tp_least_fixpoint(program)
        assert satisfies(fixpoint, program)
        assert fixpoint == oracles.reference_least_fixpoint(program)


class TestIsAspM:
    def test_monotone_program(self):
        assert is_asp_m(parse("q. p :- q, count{q, r} >= 1. r :- sum{2 : p} > 1."))
        assert is_asp_m(Program())

    @pytest.mark.parametrize(
        "text",
        ["p :- not q.", "p :- not not q.", "p | q.", ":- p.", "p :- odd{q, r}."],
    )
    def test_outside_the_fragment(self, text):
        assert not is_asp_m(parse(text))

    def test_only_a_wide_table_is_refused(self):
        # a wide count is classified along its chain at any width; only an
        # aggregate whose class needs its truth table is refused
        wide = ", ".join(f"a{i}" for i in range(25))
        assert is_asp_m(parse(f"p :- count{{{wide}}} >= 1."))
        with pytest.raises(DomainTooLargeError) as info:
            is_asp_m(parse(f"p :- avg{{{wide}}} >= 1."))
        assert str(info.value) == (
            "aggregate domain has 25 atoms; exhaustive evaluation is capped at 24"
        )


def refuse_column(*args):
    raise AssertionError("a column was built")


class TestIsMinimalModel:
    def test_facts(self):
        assert is_minimal_model(atoms("a"), parse("a."))
        assert not is_minimal_model(atoms("ab"), parse("a."))
        assert is_minimal_model(frozenset(), Program())

    def test_non_model_is_not_minimal(self):
        assert not is_minimal_model(frozenset(), parse("a."))

    def test_horn_chain(self):
        program = parse("a. b :- a.")
        assert is_minimal_model(atoms("ab"), program)

    def test_disjunctive(self):
        program = parse("a | b.")
        assert is_minimal_model(atoms("a"), program)
        assert is_minimal_model(atoms("b"), program)
        assert not is_minimal_model(atoms("ab"), program)

    def test_constraint_blocks_smaller_model(self):
        # {} satisfies p :- q, but the constraint needs p without q
        program = parse("p :- q. :- not p.")
        assert is_minimal_model(atoms("p"), program)

    def test_overflow_outside_interp_is_never_evaluated(self):
        # the sum overflows only on {b, c}, and no subset of {a} holds them
        program = parse("a :- sum{4611686018427387904 : b, 4611686018427387904 : c} >= 0.")
        assert is_minimal_model(frozenset({Atom("a")}), program)

    def test_overflow_names_a_subset_of_interp(self):
        # over {b, c, d} the first overflowing subset is {b, c}; over the
        # whole domain it would be {a, b}, whose sum no subset of interp has
        program = parse(
            "b. c. d. a :- not b.\n"
            "p :- sum{4611686018427387909 : a, 4611686018427387904 : b, "
            "4611686018427387904 : c, -4611686018427387904 : d} >= 0."
        )
        interp = atoms("bcdp")
        message = f"sum {2**63} exceeds the 64-bit integer range"
        with pytest.raises(AggregateOverflowError, match=f"^{message}$"):
            is_minimal_model(interp, program)
        with pytest.raises(AggregateOverflowError, match=f"^{message}$"):
            is_stable(program, interp, Semantics.F)

    def test_horn_chain_builds_no_column(self, monkeypatch):
        # 200 atoms: a column over the subsets would have 2**200 bits
        chain = "".join(f"x{i} :- x{i - 1}.\n" for i in range(1, 200))
        program = parse("x0.\n" + chain)

        def refuse(*args):
            raise AssertionError("a column was built")

        monkeypatch.setattr(semantics, "_column", refuse)
        assert is_minimal_model(atoms_of(program), program)
        assert not is_minimal_model(atoms_of(program) | {Atom("y")}, program)

    def test_repeated_double_negation_takes_the_horn_path(self, monkeypatch):
        # beside q, not not q changes no model: the rule reads p :- q
        program = parse("q :- r. r. p :- q, not not q.")

        def refuse(*args):
            raise AssertionError("a column was built")

        monkeypatch.setattr(semantics, "_column", refuse)
        for interp in oracles.subsets(atoms_of(program)):
            assert is_minimal_model(interp, program) == oracles.naive_is_minimal_model(
                interp, program
            ), interp

    def test_one_head_atom_inside_takes_the_least_model(self, monkeypatch):
        # cut to {a, c} or {b, c}, the disjunction keeps one head atom
        program = parse("a | b :- c. c.")
        monkeypatch.setattr(semantics, "_column", refuse_column)
        assert is_minimal_model(atoms("ac"), program)
        assert is_minimal_model(atoms("bc"), program)
        assert not is_minimal_model(atoms("c"), program)

    def test_cut_heads_do_not_need_the_column(self, monkeypatch):
        # at {c, a0..a29} a column would have 2**31 bits; never run unpatched
        program = parse("c.\n" + "".join(f"a{i} | b{i} :- c.\n" for i in range(30)))
        monkeypatch.setattr(semantics, "_column", refuse_column)
        interp = frozenset(Atom(f"a{i}") for i in range(30)) | {Atom("c")}
        assert is_minimal_model(interp, program)
        assert not is_minimal_model(interp - {Atom("a0")}, program)

    def test_two_head_atoms_inside_reach_the_column(self, monkeypatch):
        # a | b stays out of the least-model rounds at {a, b}: read as the
        # facts a and b it would pass {a, b} as minimal
        built = []
        column = semantics._column

        def counted(*args):
            built.append(args[0])
            return column(*args)

        monkeypatch.setattr(semantics, "_column", counted)
        for text in ("a | b. a :- b. b :- a.", "a | b."):
            program = parse(text)
            del built[:]
            for interp in oracles.subsets(atoms("ab")):
                expected = oracles.naive_is_minimal_model(interp, program)
                assert is_minimal_model(interp, program) is expected, interp
            assert built == [0b11]  # only at {a, b} are both heads inside

    def test_least_model_rounds_decide_both_ways(self, monkeypatch):
        # a | b keeps two head atoms and drops out of the rounds: in the
        # first program they still reach {a, b, c}, so it is minimal; in
        # the second they stop at {a}, a model of every rule, so it is not
        monkeypatch.setattr(semantics, "_column", refuse_column)
        assert is_minimal_model(atoms("abc"), parse("c. a | b :- c. a :- c. b :- c."))
        assert not is_minimal_model(atoms("ab"), parse("a | b. a."))

    def test_smaller_model_must_keep_every_rule(self):
        # cut to {a, d} the disjunction's head is empty, and the rounds stop
        # at {d}: odd{a, d} holds there, so {d} breaks that rule and is no
        # smaller model; {a, d} is minimal
        program = parse("b | c :- odd{a, d}, d. d.")
        assert oracles.naive_is_minimal_model(atoms("ad"), program)
        assert is_minimal_model(atoms("ad"), program)

    def test_rules_with_negation_stay_out_of_the_rounds(self, monkeypatch):
        # every rule has negation, so none joins the rounds; they stop at {},
        # which models every rule: no column over the 30 atoms is needed
        program = parse("".join(f"p{i} :- not not p{i}.\n" for i in range(30)))
        monkeypatch.setattr(semantics, "_column", refuse_column)
        assert not is_minimal_model(atoms_of(program), program)

    def test_zero_atom_column_stops_at_the_constraint(self, monkeypatch):
        # the rounds decide nothing at {}: the one horn rule has an
        # aggregate. Over the zero-atom space `:- {}.` already empties the
        # column, before the count's column is built
        columns, aggregates = [], []
        column, aggregate_column = semantics._column, semantics._aggregate_column
        monkeypatch.setattr(
            semantics, "_column", lambda *args: columns.append(args[0]) or column(*args)
        )
        monkeypatch.setattr(
            semantics,
            "_aggregate_column",
            lambda *args: aggregates.append(1) or aggregate_column(*args),
        )
        assert is_minimal_model(frozenset(), parse("p :- count{p} >= 1."))
        assert columns == [0]
        assert aggregates == []

    def test_column_is_refused_above_the_guard(self, monkeypatch):
        # neither test decides n disjunctions at all 2n atoms; a column is
        # allowed over 24 atoms and refused over 26, never built here. The
        # double's nonzero column holds a smaller model
        def pairs(n):
            return parse("".join(f"a{i} | b{i}.\n" for i in range(n)))

        built = []
        monkeypatch.setattr(
            semantics, "_column", lambda index, *args: built.append(index.bit_count()) or 1
        )
        assert not is_minimal_model(atoms_of(pairs(12)), pairs(12))
        assert built == [24]
        with pytest.raises(TooManyAtomsError) as info:
            is_minimal_model(atoms_of(pairs(13)), pairs(13))
        assert str(info.value) == "interpretation has 26 atoms; the minimality guard allows 24"
        assert built == [24]

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_agrees_with_subset_oracle(self, seed):
        rng = random.Random(seed)
        program = gen.random_program(rng, max_atoms=4, max_rules=5)
        universe = sorted(atoms_of(program))
        interp = frozenset(x for x in universe if rng.random() < 0.6)
        assert is_minimal_model(interp, program) == oracles.naive_is_minimal_model(
            interp, program
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_horn_path_agrees_with_subset_oracle(self, seed):
        rng = random.Random(seed)
        program = gen.random_program(
            rng, max_atoms=4, max_rules=5, negation=False, disjunction=False,
            aggregates=False,
        )
        interp = frozenset(x for x in sorted(atoms_of(program)) if rng.random() < 0.6)
        assert is_minimal_model(interp, program) == oracles.naive_is_minimal_model(
            interp, program
        )


def _overflows_somewhere(spec: AggregateSpec, chosen: frozenset) -> bool:
    """Whether eval_aggregate raises on some subset of `chosen`."""
    for subset in oracles.subsets(chosen):
        try:
            eval_aggregate(spec, subset)
        except AggregateOverflowError:
            return True
    return False


class TestIntervalTest:
    """_holds_between: whether an aggregate holds on every atom set from
    the derived set G up to the candidate M, which lets the least-model
    rounds prove minimality through a rule that keeps an aggregate."""

    @staticmethod
    def compiled(spec: AggregateSpec) -> tuple:
        _, rules, _ = semantics._compile_at(Program((Rule((Atom("p"),), (spec,)),)))
        return rules[0][4][0]

    def test_agrees_with_brute_force(self):
        # every function and comparator, domains of 0 to 6 atoms, weights
        # zero, positive, negative, 40-bit or near the 64-bit edge; G and M
        # random, M over the domain and one atom outside it. The test
        # declines wherever a subset of M's domain atoms overflows
        outcomes = {True: 0, False: 0, "declined": 0}
        pattern = cache(semantics._pattern)
        for func, comparator in gen.AGGREGATE_CASES:
            rng = random.Random(f"interval {func.value} {comparator}")
            for _ in range(40):
                spec = gen.random_weighted_aggregate(rng, func, comparator, gen.POOL, max_dom=6)
                aggregate = self.compiled(spec)
                universe = sorted(set(spec.domain) | {Atom("p")})
                high = frozenset(a for a in universe if rng.random() < 0.7)
                low = frozenset(a for a in sorted(high) if rng.random() < 0.4)
                mask = {atom: 1 << i for i, atom in enumerate(universe)}
                result = semantics._holds_between(
                    aggregate,
                    sum(mask[a] for a in low),
                    sum(mask[a] for a in high),
                    pattern,
                    semantics.DEFAULT_MAX_ATOMS,
                )
                if _overflows_somewhere(spec, high & set(spec.domain)):
                    assert result is False, (spec, low, high)
                    outcomes["declined"] += 1
                    continue
                expected = all(
                    eval_aggregate(spec, low | extra) for extra in oracles.subsets(high - low)
                )
                assert result is expected, (spec, low, high)
                outcomes[expected] += 1
        assert min(outcomes.values()) > 50, outcomes

    @staticmethod
    def chain_convex_specs(rng: random.Random):
        """(kind, spec): count under every comparator and bound, odd and
        even, min and max, and sums of one sign under <, <=, >= and >, over
        up to 5 atoms of gen.POOL. Some are nonconvex along their chain."""
        funcs = AggregateFunc
        for size in range(6):
            domain = gen.POOL[:size]
            ones = [(1, a) for a in domain]
            for comparator in COMPARATORS:
                for bound in range(-1, size + 2):
                    yield "count", AggregateSpec(funcs.COUNT, ones, comparator, bound)
            if size:
                for func in PARITY_FUNCS:
                    yield func.value, AggregateSpec(func, ones)
            for _ in range(6):
                weights = [rng.randint(-4, 4) for _ in domain]
                for func in (funcs.MIN, funcs.MAX):
                    if size:
                        comparator, bound = rng.choice(COMPARATORS), rng.randint(-4, 4)
                        spec = AggregateSpec(func, zip(weights, domain), comparator, bound)
                        yield func.value, spec
                sign = rng.choice((1, -1))
                signed = [sign * abs(w) for w in weights]
                comparator, bound = rng.choice(("<", "<=", ">=", ">")), sign * rng.randint(-1, 9)
                yield "sum", AggregateSpec(funcs.SUM, zip(signed, domain), comparator, bound)

    def test_chain_convex_aggregates_need_no_column(self, monkeypatch):
        # counted: an aggregate that its chain makes convex is decided by its
        # truth at both ends, with max_atoms below and above the free-atom
        # count, and no column is built. Each call compiles afresh, so no
        # memo entry of an earlier call answers it
        def refuse(*args, **kwargs):
            raise AssertionError("a sub-cube column was built")

        monkeypatch.setattr(semantics, "_column", refuse)
        pattern = cache(semantics._pattern)
        rng = random.Random("chain-convex intervals")
        decided: dict = {}
        for kind, spec in self.chain_convex_specs(rng):
            truths = semantics._chain(spec)
            if semantics._chain_class(truths) is AggregateClass.NONCONVEX:
                continue
            universe = sorted(set(spec.domain) | {Atom("p")})
            mask = {atom: 1 << i for i, atom in enumerate(universe)}
            for _ in range(24 if kind in ("odd", "even") else 4):
                density = rng.random()
                high = frozenset(a for a in universe if rng.random() < density)
                low = frozenset(a for a in sorted(high) if rng.random() < 0.3)
                expected = all(
                    eval_aggregate(spec, low | extra) for extra in oracles.subsets(high - low)
                )
                free = len((high - low) & set(spec.domain))
                for max_atoms in (free - 1, free + 1):
                    result = semantics._holds_between(
                        self.compiled(spec),
                        sum(mask[a] for a in low),
                        sum(mask[a] for a in high),
                        pattern,
                        max_atoms,
                    )
                    assert result is expected, (spec, low, high, max_atoms)
                    decided[kind, expected] = decided.get((kind, expected), 0) + 1
        kinds = ("count", "odd", "even", "min", "max", "sum")
        counts = [decided.get((kind, truth), 0) for kind in kinds for truth in (True, False)]
        assert min(counts) >= 16, decided

    def test_declines_above_max_atoms(self, monkeypatch):
        # count{a, b, c} != 1 is nonconvex along its chain, and the mixed
        # sum has no chain: each holds on its interval, and declines where
        # the free atoms exceed max_atoms. Along their chains count >= 0 is
        # monotone and count <= 2 convex, so above it their truth at both
        # ends decides, and no truth table is built
        pattern = cache(semantics._pattern)
        every, ab, abp = 0b1111, 0b0011, 0b1011  # over a, b, c, p
        nonconvex = self.compiled(agg("count{a, b, c} != 1"))
        assert semantics._holds_between(nonconvex, ab, every, pattern, 1)
        assert not semantics._holds_between(nonconvex, ab, every, pattern, 0)
        mixed = self.compiled(agg("sum{1 : a, -1 : b, 1 : c} >= -1"))
        assert semantics._holds_between(mixed, 0, every, pattern, 3)
        assert not semantics._holds_between(mixed, 0, every, pattern, 2)

        def refuse(spec):
            raise AssertionError(f"a truth table was built for {spec}")

        monkeypatch.setattr(semantics, "_table", refuse)
        for text, high, expected in (
            ("count{a, b, c} >= 0", every, True),
            ("count{a, b, c} <= 2", abp, True),
            ("count{a, b, c} <= 2", every, False),
        ):
            aggregate = self.compiled(agg(text))
            assert semantics._holds_between(aggregate, 0, high, pattern, 1) is expected, text

    @pytest.mark.parametrize(
        "text",
        [
            # {a} models the reduct at {a, b}: the count is 1 there. The
            # rounds stop at {a}, and the witness test refutes
            "a :- count{a, b} != 1. b :- count{a, b} != 1.",
            # with b :- a the first rounds reach {a, b}; the interval from
            # {} to {a, b} holds a count of 1, so the second pass does not
            "a :- count{a, b} != 1. b :- count{a, b} != 1. b :- a.",
        ],
    )
    def test_a_gap_inside_the_interval_is_not_accepted(self, text):
        # a check of the endpoints G and M alone would pass both at {a, b}
        program = parse(text)
        assert not is_minimal_model(atoms("ab"), program)
        assert not is_stable(program, atoms("ab"), Semantics.F)
        assert set(stable_models(program, Semantics.F)) == oracles.naive_stable_models(
            program, "f"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "b. a :- count{a, b} >= 1.",  # convex: holds on [{b}, {a, b}]
            "b. a :- count{a, b} != 0.",  # nonconvex, its gap at {} is below {b}
            "b. a :- sum{2 : a, -1 : b} < 3, odd{b}.",  # two aggregates, G = {b}
        ],
    )
    def test_rounds_through_an_aggregate_build_no_column(self, text, monkeypatch):
        # the interval test's own sub-cube is a _column call; no minimality
        # column, the reduct plus `:- M.`, is built
        program = parse(text)
        built = minimality_columns(monkeypatch)
        assert is_minimal_model(atoms("ab"), program)
        assert is_stable(program, atoms("ab"), Semantics.F)
        assert built == []

    def test_first_rounds_still_evaluate_a_rule_with_a_derived_head(self):
        # the sum holds at {b, c, d, e, p}, but p is derived before its rule
        # is reached at {b, c, d, p}, where the first rounds evaluate it all
        # the same; only the interval pass skips it. The column would name
        # the first overflowing subset, {b, c}
        program = parse(
            "b. c. d. p :- b.\n"
            "p :- sum{4611686018427387904 : b, 4611686018427387904 : c, "
            "4611686018427387904 : d, -9223372036854775808 : e} >= 0.\n"
            "e."
        )
        message = f"sum {3 * 2**62} exceeds the 64-bit integer range"
        for check in (
            lambda: is_minimal_model(atoms("bcdep"), program),
            lambda: is_stable(program, atoms("bcdep"), Semantics.F),
        ):
            with pytest.raises(AggregateOverflowError, match=f"^{message}$"):
                check()

    def test_a_chain_above_the_guard_is_answered(self, monkeypatch):
        # 31 atoms: x{i+1} fires once x0..x{i} are derived, where its count
        # has no free atom; a column would have 2**31 bits
        chain = "".join(
            f"x{i + 1} :- x{i}, count{{{', '.join(f'x{j}' for j in range(i + 1))}}} >= {i + 1}.\n"
            for i in range(30)
        )
        program = parse("x0.\n" + chain)
        monkeypatch.setattr(semantics, "_column", refuse_column)
        assert is_minimal_model(atoms_of(program), program)
        assert is_stable(program, atoms_of(program), Semantics.F)

    def test_an_undecided_gap_is_still_refused_above_the_guard(self):
        # 25 atoms: the rounds reach them all, but the count's interval
        # from {} holds its gap, so the column decides, and is refused
        program = parse("a :- count{a, b} != 1. b.\n" + "".join(f"c{i}.\n" for i in range(23)))
        message = "interpretation has 25 atoms; the minimality guard allows 24"
        with pytest.raises(TooManyAtomsError, match=f"^{message}$"):
            is_minimal_model(atoms_of(program), program)
        with pytest.raises(TooManyAtomsError, match=f"^{message}$"):
            is_stable(program, atoms_of(program), Semantics.F)


def horn_by_definition(program: Program) -> bool:
    return all(
        len(rule.head) <= 1
        and all(isinstance(lit, AtomLiteral) and not lit.negation_depth for lit in rule.body)
        for rule in program
    )


class TestIsHorn:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", True),
            ("a. b :- a, c.", True),
            (":- a, b.", True),
            ("a | b.", False),
            ("p :- not q.", False),
            ("p :- not not q.", False),
            # the double negation repeats a positive literal, and still counts
            ("p :- q, not not q.", False),
            ("p :- q, not not not q.", False),
            ("p :- count{q} >= 0.", False),
        ],
    )
    def test_cases(self, text, expected):
        assert is_horn(parse(text)) is expected

    def test_reads_the_syntax_alone(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("compiled")

        monkeypatch.setattr(semantics, "_compile_at", refuse)
        assert is_horn(parse("a. b :- a, c. :- a, b."))
        assert not is_horn(parse("p :- q, not not q."))
        assert not is_horn(parse("a | b."))
        assert not is_horn(parse("p :- count{q} >= 0."))

    @pytest.mark.parametrize("family", sorted(gen.FAMILIES))
    def test_matches_definition(self, family):
        rng = random.Random(f"horn {family}")
        seen = set()
        for _ in range(300):
            program = gen.FAMILIES[family](rng)
            # Horn subprograms too, so both answers occur in every family
            horn = Program(tuple(r for r in program if horn_by_definition(Program((r,)))))
            for candidate in (program, horn):
                expected = horn_by_definition(candidate)
                assert is_horn(candidate) is expected, render(candidate)
                seen.add(expected)
        assert seen == {True, False}


def small_specs(max_atoms: int, weights):
    """Every aggregate over up to max_atoms atoms: each function and
    comparator, each multiset of `weights` (count and parity take weight 1),
    and each bound from one below the least value the aggregate takes to
    one above the greatest."""
    for size in range(max_atoms + 1):
        atoms = [Atom(f"a{i}") for i in range(size)]
        for func, comparator in gen.AGGREGATE_CASES:
            if not size and func not in EMPTY_DOMAIN_FUNCS:
                continue
            if func in UNWEIGHTED_FUNCS:
                multisets = [(1,) * size]
            else:
                multisets = combinations_with_replacement(weights, size)
            for ws in multisets:
                elements = tuple(zip(ws, atoms))
                if comparator is None:
                    yield AggregateSpec(func, elements)
                    continue
                if func in (AggregateFunc.COUNT, AggregateFunc.SUM):
                    low, high = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
                else:
                    low, high = min(ws), max(ws)
                for bound in range(low - 1, high + 2):
                    yield AggregateSpec(func, elements, comparator, bound)


def table_classified(spec: AggregateSpec) -> bool:
    """Whether classify_aggregate reads spec's class from its truth table:
    avg, and sum with mixed signs, with = or !=, or with extremes outside
    the 64-bit range."""
    if spec.func is AggregateFunc.AVG:
        return True
    if spec.func is not AggregateFunc.SUM:
        return False
    low = sum(w for w, _ in spec.elements if w < 0)
    high = sum(w for w, _ in spec.elements if w > 0)
    return (low < 0 < high or spec.comparator in ("=", "!=")
            or not INT64_MIN <= low <= high <= INT64_MAX)


class TestClassifyAggregate:
    def test_golden_monotone(self):
        assert classify_aggregate(agg("count{a, b} >= 1")) is AggregateClass.MONOTONE

    def test_upper_bound_count_convex(self):
        assert classify_aggregate(agg("count{a, b} <= 1")) is AggregateClass.CONVEX
        assert classify_aggregate(agg("count{a, b} = 1")) is AggregateClass.CONVEX

    def test_bot_style_count_nonconvex(self):
        assert classify_aggregate(agg("count{a, b} != 1")) is AggregateClass.NONCONVEX

    def test_constant_aggregates_monotone(self):
        assert classify_aggregate(agg("count{a, b} >= 5")) is AggregateClass.MONOTONE
        assert classify_aggregate(agg("count{a, b} <= 5")) is AggregateClass.MONOTONE

    def test_sum_with_mixed_weights(self):
        # sum over {-1, 1}: true at {}, false at {a}, true again at {a, b}
        assert classify_aggregate(agg("sum{-1 : a, 1 : b} >= 0")) is AggregateClass.NONCONVEX

    def test_parity(self):
        assert classify_aggregate(agg("odd{a}")) is AggregateClass.MONOTONE
        assert classify_aggregate(agg("odd{a, b}")) is AggregateClass.CONVEX
        assert classify_aggregate(agg("odd{a, b, c}")) is AggregateClass.NONCONVEX
        assert classify_aggregate(agg("even{a}")) is AggregateClass.CONVEX
        assert classify_aggregate(agg("even{a, b}")) is AggregateClass.NONCONVEX

    def test_domain_bound(self):
        # the cap is the truth table's: the wide count is classified along
        # its chain, and only a table, or a class read off one, is refused
        wide = AggregateSpec(
            AggregateFunc.COUNT,
            tuple((1, Atom(f"x{i}")) for i in range(25)),
            ">=",
            1,
        )
        exact = AggregateSpec(AggregateFunc.SUM, wide.elements, "=", 1)
        assert classify_aggregate(wide) is AggregateClass.MONOTONE
        for refused in (lambda: classify_aggregate(exact), lambda: aggregate_truth_table(wide)):
            with pytest.raises(DomainTooLargeError) as info:
                refused()
            assert str(info.value) == (
                "aggregate domain has 25 atoms; exhaustive evaluation is capped at 24"
            )

    def test_truth_table_order(self):
        # bit i of the index selects the i-th domain atom in canonical order
        table = aggregate_truth_table(agg("sum{1 : a, 2 : b} >= 2"))
        assert table == [False, False, True, True]

    def test_agrees_with_lattice_oracle(self):
        # every function and comparator, domains of 0 to 6 atoms, weights
        # zero, positive, negative, 40-bit or near the 64-bit edge, alone or
        # mixed; an overflowing spec raises what its truth table raises
        overflowing = 0
        for func, comparator in gen.AGGREGATE_CASES:
            rng = random.Random(f"classify {func.value} {comparator}")
            for _ in range(30):
                spec = gen.random_weighted_aggregate(rng, func, comparator, gen.POOL, max_dom=6)
                try:
                    oracles.reference_truth_table(spec)
                except AggregateOverflowError as err:
                    overflowing += 1
                    with pytest.raises(AggregateOverflowError) as info:
                        classify_aggregate(spec)
                    assert str(info.value) == str(err), spec
                    continue
                assert classify_aggregate(spec) is oracles.naive_classify(spec), spec
        assert overflowing > 20

    def test_first_overflow_matches_the_walk(self, monkeypatch):
        # the first subset, in truth-table order, on which eval_aggregate
        # raises: the one subset the truth table evaluates, and the first the
        # walk over the table meets. Each spec is also tried on a random
        # sub-list of its elements, the space is_stable and is_minimal_model
        # pass, whose first overflowing subset _first_overflow names
        evaluated = []
        monkeypatch.setattr(
            semantics,
            "eval_aggregate",
            lambda *args: evaluated.append(args[1]) or eval_aggregate(*args),
        )
        found = {"table": 0, "sub-list": 0}
        for func, comparator in gen.AGGREGATE_CASES:
            if func not in (AggregateFunc.SUM, AggregateFunc.AVG):
                continue
            rng = random.Random(f"first overflow {func.value} {comparator}")
            for _ in range(150):
                spec = gen.random_weighted_aggregate(rng, func, comparator, gen.POOL, max_dom=6)
                inside = [pair for pair in spec.elements if rng.random() < 0.6]
                for space, elements in (("table", spec.elements), ("sub-list", inside)):
                    atoms = [a for _, a in elements]
                    for index in range(1 << len(atoms)):
                        chosen = frozenset(a for i, a in enumerate(atoms) if index >> i & 1)
                        try:
                            eval_aggregate(spec, chosen)
                        except AggregateOverflowError as err:
                            evaluated.clear()
                            with pytest.raises(AggregateOverflowError) as info:
                                if space == "table":
                                    aggregate_truth_table(spec)
                                else:
                                    semantics._first_overflow(spec, inside)
                            assert evaluated == [chosen], (spec, elements)
                            assert str(info.value) == str(err), (spec, elements)
                            found[space] += 1
                            break
                    else:
                        evaluated.clear()
                        semantics._first_overflow(spec, elements)  # raises nothing
                        assert evaluated == [], (spec, elements)
        assert found["table"] > 100 and found["sub-list"] > 50

    def test_overflow_is_found_with_one_evaluation(self, monkeypatch):
        # 20 weights of 2**63 // 20 + 1: only the whole domain overflows, and
        # a walk over the truth table would evaluate 2**20 subsets to find it
        weight = 2**63 // 20 + 1
        spec = AggregateSpec(
            AggregateFunc.SUM, tuple((weight, Atom(f"x{i:02}")) for i in range(20)), ">=", 0
        )
        evaluated = []
        original = semantics.eval_aggregate
        monkeypatch.setattr(
            semantics, "eval_aggregate", lambda *args: evaluated.append(args[1]) or original(*args)
        )
        with pytest.raises(AggregateOverflowError) as info:
            classify_aggregate(spec)
        assert str(info.value) == f"sum {20 * weight} exceeds the 64-bit integer range"
        assert evaluated == [frozenset(spec.domain)]

    @pytest.mark.parametrize("size", [20, 24])
    def test_overflow_is_located_without_an_adder(self, size, monkeypatch):
        # counted: the spec above, and 24 weights of 2**63 // 24 + 1 (an
        # adder network over its 2**24 subsets once took 1.7 s to raise). The
        # extremes test walks to the first overflowing subset, and one
        # evaluation there raises; no adder network is built
        weight = 2**63 // size + 1
        spec = AggregateSpec(
            AggregateFunc.SUM, tuple((weight, Atom(f"x{i:02}")) for i in range(size)), ">=", 0
        )
        calls = {"_compare_sum": 0, "eval_aggregate": 0}
        for name in calls:
            original = getattr(semantics, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(semantics, name, counting)
        with pytest.raises(AggregateOverflowError) as info:
            classify_aggregate(spec)
        assert str(info.value) == f"sum {size * weight} exceeds the 64-bit integer range"
        assert calls == {"_compare_sum": 0, "eval_aggregate": 1}

    def test_chains_equal_the_table(self):
        # counted, not timed: every aggregate up to 5 atoms with weights -3..3
        # is routed as documented, and each one the chains classify gets the
        # class its truth table gives
        chained = 0
        for spec in small_specs(5, range(-3, 4)):
            chain = semantics._chain(spec)
            assert (chain is None) is table_classified(spec), spec
            if chain is not None:
                assert classify_aggregate(spec) is semantics._table_class(spec), spec
                chained += 1
        assert chained == 72628

    def test_chains_equal_the_lattice_oracle(self):
        checked = 0
        for spec in small_specs(4, range(-2, 3)):
            if not table_classified(spec):
                assert classify_aggregate(spec) is oracles.naive_classify(spec), spec
                checked += 1
        assert checked == 9374

    @given(st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_chains_equal_the_table_on_random_specs(self, seed):
        pool = tuple(Atom(f"x{i}") for i in range(8))
        spec = gen.random_aggregate(random.Random(seed), pool, max_dom=8)
        assert classify_aggregate(spec) is semantics._table_class(spec)

    def test_table_only_where_the_chains_do_not_apply(self, monkeypatch):
        tables = []
        table = semantics._table

        def counted(spec):
            tables.append(spec)
            return table(spec)

        monkeypatch.setattr(semantics, "_table", counted)
        routed = set()
        for spec in small_specs(3, range(-3, 4)):
            tables.clear()
            classify_aggregate(spec)
            assert tables == ([spec] if table_classified(spec) else []), spec
            routed.add((spec.func, table_classified(spec)))
        assert len(routed) == 8  # sum both ways, avg by table, the rest by chain
        # a one-sign sum whose extremes overflow raises from the table
        spec = agg(f"sum{{{2**62} : a, {2**62} : b}} >= 0")
        tables.clear()
        with pytest.raises(AggregateOverflowError) as info:
            classify_aggregate(spec)
        assert str(info.value) == f"sum {2**63} exceeds the 64-bit integer range"
        assert tables == [spec]
        # the cap is the table's: a wide count takes its chain, and a wide
        # sum under != is refused where its table would be built
        wide = AggregateSpec(
            AggregateFunc.COUNT, tuple((1, Atom(f"x{i:02}")) for i in range(25)), "!=", 1
        )
        tables.clear()
        assert classify_aggregate(wide) is AggregateClass.NONCONVEX
        assert tables == []
        wide = AggregateSpec(AggregateFunc.SUM, wide.elements, "!=", 1)
        with pytest.raises(DomainTooLargeError) as info:
            classify_aggregate(wide)
        assert str(info.value) == (
            "aggregate domain has 25 atoms; exhaustive evaluation is capped at 24"
        )
        assert tables == [wide]

    @pytest.mark.parametrize("width", [25, 40, 64])
    def test_wide_classes_without_a_table(self, width, monkeypatch):
        # above the table's cap the chains classify at any width: count and
        # parity against their analytic classes; min and max against a spec
        # over one atom per distinct weight, and a one-sign sum against four
        # atoms with its total, each of at most 5 atoms and classified by
        # its table before any table is refused
        rng = random.Random(f"wide classes {width}")
        pool = tuple(Atom(f"x{i:02}") for i in range(width))
        ones = tuple((1, atom) for atom in pool)
        expected = []
        for comparator in COMPARATORS:
            for bound in range(-1, width + 2):
                spec = AggregateSpec(AggregateFunc.COUNT, ones, comparator, bound)
                expected.append((spec, oracles.analytic_count_class(width, comparator, bound)))
        for func in PARITY_FUNCS:
            spec = AggregateSpec(func, ones)
            expected.append((spec, oracles.analytic_parity_class(func.value, width)))
        for func in (AggregateFunc.MIN, AggregateFunc.MAX):
            for _ in range(4):
                values = rng.sample(range(-3, 4), rng.randint(1, 5))
                weights = values + [rng.choice(values) for _ in range(width - len(values))]
                rng.shuffle(weights)
                elements, few = tuple(zip(weights, pool)), tuple(zip(sorted(values), pool))
                for comparator in COMPARATORS:
                    for bound in range(-4, 5):
                        small = AggregateSpec(func, few, comparator, bound)
                        spec = AggregateSpec(func, elements, comparator, bound)
                        expected.append((spec, semantics._table_class(small)))
        for sign in (1, -1):
            weights = [sign * rng.randint(0, 3) for _ in range(width)]
            elements, total = tuple(zip(weights, pool)), sum(weights)
            share, rest = divmod(abs(total), 4)
            few = tuple(zip([sign * share] * 3 + [sign * (share + rest)], pool))
            for comparator in ("<", "<=", ">=", ">"):
                for bound in range(min(0, total) - 1, max(0, total) + 2):
                    small = AggregateSpec(AggregateFunc.SUM, few, comparator, bound)
                    spec = AggregateSpec(AggregateFunc.SUM, elements, comparator, bound)
                    expected.append((spec, semantics._table_class(small)))

        def refuse(spec):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(semantics, "_table", refuse)
        for spec, cls in expected:
            assert classify_aggregate(spec) is cls, spec
        assert {cls for _, cls in expected} == set(AggregateClass)

    def test_domain_bound_comes_before_overflow(self):
        wide = AggregateSpec(
            AggregateFunc.SUM,
            tuple((2**62, Atom(f"x{i:02}")) for i in range(25)),
            ">=",
            1,
        )
        with pytest.raises(DomainTooLargeError) as info:
            classify_aggregate(wide)
        assert str(info.value) == (
            "aggregate domain has 25 atoms; exhaustive evaluation is capped at 24"
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_lower_bounded_positive_count_sum_max_monotone(self, seed):
        rng = random.Random(seed)
        spec = gen.random_aggregate(rng, max_dom=4, monotone_only=True)
        assert classify_aggregate(spec) is AggregateClass.MONOTONE
