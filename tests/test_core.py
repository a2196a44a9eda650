"""Syntax-object behavior: construction invariants, interning, the size
metric, atom collection, and context equivalence."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gzasp.core import (
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
    equivalent_in_context,
    program_size,
)
from gzasp.errors import (
    AggregateOverflowError,
    DuplicateAggregateElementError,
    EmptyAggregateDomainError,
)

from helpers import A, B, C, GOLDEN_ATOMS, GOLDEN_SIZE, atoms, golden_program


class TestAtom:
    def test_interning(self):
        assert Atom("a") is Atom("a")
        assert Atom("a") is not Atom("ab")

    def test_valid_names(self):
        for name in ("a", "p1", "aB_c", "a__t", "count", "__bot"):
            assert Atom(name).name == name

    @pytest.mark.parametrize("name", ["", "A", "1a", "_x", "a-b", "a b", "___x", "__"])
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    def test_ordering_is_lexicographic(self):
        names = ["b", "a", "ab", "a__t", "a0"]
        assert [x.name for x in sorted(Atom(n) for n in names)] == sorted(names)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Atom("a").name = "b"

    def test_pickle_preserves_interning(self):
        assert pickle.loads(pickle.dumps(Atom("a"))) is Atom("a")


class TestAggregateSpec:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DuplicateAggregateElementError):
            AggregateSpec(AggregateFunc.COUNT, ((1, A), (1, A)), ">=", 1)

    def test_count_weights_fixed_to_one(self):
        spec = AggregateSpec(AggregateFunc.COUNT, ((7, A), (-2, B)), ">=", 1)
        assert spec.elements == ((1, A), (1, B))

    def test_parity_weights_fixed_to_one(self):
        spec = AggregateSpec(AggregateFunc.ODD, ((5, A),))
        assert spec.elements == ((1, A),)

    def test_sum_weights_kept(self):
        spec = AggregateSpec(AggregateFunc.SUM, ((2, B), (3, A)), "=", 5)
        assert spec.elements == ((3, A), (2, B))  # sorted by atom

    def test_elements_canonical_order(self):
        spec = AggregateSpec(AggregateFunc.COUNT, ((1, C), (1, A), (1, B)), "<=", 2)
        assert spec.domain == (A, B, C)

    def test_domain_is_built_once_and_changes_no_identity(self):
        spec = AggregateSpec(AggregateFunc.SUM, ((2, C), (3, A)), ">=", 2)
        twin = AggregateSpec(AggregateFunc.SUM, ((3, A), (2, C)), ">=", 2)
        shown = repr(spec)
        assert spec.domain is spec.domain == (A, C)
        assert spec == twin and hash(spec) == hash(twin) and repr(spec) == shown
        assert {spec: 1}[twin] == 1
        for copy in (pickle.loads(pickle.dumps(spec)), pickle.loads(pickle.dumps(twin))):
            assert copy == spec and hash(copy) == hash(spec) and repr(copy) == shown
            assert copy.domain == (A, C)
        with pytest.raises(AttributeError):
            spec.bound = 3

    def test_parity_takes_no_comparator(self):
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunc.EVEN, ((1, A),), ">=", 1)

    def test_bounded_funcs_need_comparator(self):
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunc.SUM, ((1, A),))
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunc.COUNT, ((1, A),), "==", 1)

    def test_bound_must_be_an_integer(self):
        with pytest.raises(ValueError) as info:
            AggregateSpec(AggregateFunc.SUM, ((1, A),), ">=", 1.5)
        assert str(info.value) == "bad bound: 1.5"

    def test_empty_domain_only_for_count_and_sum(self):
        assert AggregateSpec(AggregateFunc.COUNT, (), ">=", 0).elements == ()
        assert AggregateSpec(AggregateFunc.SUM, (), "<", 1).elements == ()
        for func in (AggregateFunc.AVG, AggregateFunc.MIN, AggregateFunc.MAX):
            with pytest.raises(EmptyAggregateDomainError):
                AggregateSpec(func, (), ">=", 0)
        with pytest.raises(EmptyAggregateDomainError):
            AggregateSpec(AggregateFunc.ODD, ())

    def test_weights_and_bounds_are_machine_integers(self):
        with pytest.raises(AggregateOverflowError):
            AggregateSpec(AggregateFunc.SUM, ((2**63, A),), ">=", 0)
        with pytest.raises(AggregateOverflowError):
            AggregateSpec(AggregateFunc.SUM, ((1, A),), ">=", 2**63)
        # the extremes themselves are fine
        AggregateSpec(AggregateFunc.SUM, ((2**63 - 1, A),), ">=", -(2**63))


class TestRuleAndProgram:
    def test_head_is_a_set(self):
        rule = Rule([A, B, A], ())
        assert rule.head == frozenset({A, B})

    def test_body_order_preserved(self):
        rule = Rule({A}, [AtomLiteral(B), AtomLiteral(C)])
        assert rule.body == (AtomLiteral(B), AtomLiteral(C))

    def test_rules_hashable(self):
        assert len({Rule({A}, ()), Rule({A}, ())}) == 1

    def test_bad_members_rejected(self):
        with pytest.raises(TypeError):
            Rule({"a"}, ())
        with pytest.raises(TypeError):
            Rule({A}, ("b",))
        with pytest.raises(TypeError):
            Program(("not a rule",))


class TestAtomLiteral:
    def test_atom_must_be_an_atom(self):
        with pytest.raises(TypeError) as info:
            AtomLiteral("a")
        assert str(info.value) == "not an atom: 'a'"

    @pytest.mark.parametrize("depth", [-1, 1.0, "1"])
    def test_depth_must_be_a_natural_number(self, depth):
        with pytest.raises(ValueError) as info:
            AtomLiteral(A, depth)
        assert str(info.value) == f"bad negation depth: {depth!r}"


class TestAtomsOf:
    def test_golden(self):
        assert atoms_of(golden_program()) == GOLDEN_ATOMS

    def test_empty(self):
        assert atoms_of(Program()) == frozenset()

    def test_aggregate_domain_atoms_count(self):
        # p and q occur only inside the aggregate domain of a constraint
        spec = AggregateSpec(
            AggregateFunc.COUNT, ((1, Atom("p")), (1, Atom("q"))), ">=", 1
        )
        program = Program((Rule((), (spec,)),))
        assert atoms_of(program) == frozenset({Atom("p"), Atom("q")})


class TestProgramSize:
    def test_golden(self):
        assert program_size(golden_program()) == GOLDEN_SIZE

    def test_empty(self):
        assert program_size(Program()) == 0

    def test_negated_literal_counts_one_whatever_its_depth(self):
        # {p :- q, not r.} = 1 head + 1 atom + 1 negated literal
        program = Program(
            (Rule({Atom("p")}, (AtomLiteral(Atom("q")), AtomLiteral(Atom("r"), 1))),)
        )
        assert program_size(program) == 3
        deeper = Program(
            (Rule({Atom("p")}, (AtomLiteral(Atom("q")), AtomLiteral(Atom("r"), 3))),)
        )
        assert program_size(deeper) == 3

    def test_aggregate_counts_domain_size(self):
        spec = AggregateSpec(AggregateFunc.SUM, ((2, A), (3, B), (1, C)), ">=", 4)
        assert program_size(Program((Rule({Atom("p")}, (spec,)),))) == 4

    def test_empty_aggregate_counts_zero(self):
        spec = AggregateSpec(AggregateFunc.COUNT, (), ">=", 0)
        assert program_size(Program((Rule({Atom("p")}, (spec,)),))) == 1

    @given(st.integers(0, 10**6))
    def test_additive_over_rules(self, seed):
        rng = random.Random(seed)
        import gen

        program = gen.random_program(rng)
        assert program_size(program) == sum(
            program_size(Program((rule,))) for rule in program.rules
        )

    @given(st.integers(0, 10**6))
    def test_atoms_of_union(self, seed):
        rng = random.Random(seed)
        import gen

        left = gen.random_program(rng)
        right = gen.random_program(rng)
        union = Program(left.rules + right.rules)
        assert atoms_of(union) == atoms_of(left) | atoms_of(right)


class TestEquivalentInContext:
    def test_projections_agree(self):
        s1 = [atoms("a") | {Atom("x")}]
        s2 = [atoms("a") | {Atom("y")}]
        assert equivalent_in_context(s1, s2, atoms("a"))

    def test_cardinality_mismatch(self):
        s1 = [atoms("a")]
        s2 = [atoms("a"), atoms("a") | {Atom("x")}]
        assert not equivalent_in_context(s1, s2, atoms("a"))

    def test_empty_context(self):
        assert equivalent_in_context([atoms("ab")], [atoms("c")], frozenset())
        assert not equivalent_in_context([], [atoms("")], frozenset())

    def test_projection_mismatch(self):
        assert not equivalent_in_context([atoms("a")], [atoms("b")], atoms("ab"))

    @given(st.integers(0, 10**6))
    def test_is_an_equivalence_relation(self, seed):
        rng = random.Random(seed)
        pool = sorted(atoms("abcdxy"))
        context = atoms("abcd")

        def random_model_set():
            count = rng.randint(0, 4)
            out = set()
            while len(out) < count:
                out.add(frozenset(x for x in pool if rng.random() < 0.5))
            return sorted(out, key=lambda m: sorted(x.name for x in m))

        s1, s2, s3 = random_model_set(), random_model_set(), random_model_set()
        assert equivalent_in_context(s1, s1, context)
        assert equivalent_in_context(s1, s2, context) == equivalent_in_context(
            s2, s1, context
        )
        if equivalent_in_context(s1, s2, context) and equivalent_in_context(
            s2, s3, context
        ):
            assert equivalent_in_context(s1, s3, context)
