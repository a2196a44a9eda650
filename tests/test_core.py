"""Syntax-object behavior: construction invariants, interning, the size
metric, atom collection, and context equivalence."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gzasp
from gzasp.core import (
    PARITY_FUNCS,
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

    def test_a_pickle_finds_its_twin_in_another_process(self):
        # atoms hash by identity, so a hash carried in the pickle would not
        # match a twin built in the loading process
        source = str(Path(gzasp.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, inherited))))
        prelude = "import pickle, sys\nfrom gzasp.core import AggregateFunc, AggregateSpec, Atom\n"
        build = "AggregateSpec(AggregateFunc.SUM, (({}, Atom('{}')), ({}, Atom('{}'))), '>=', 2)"
        dump = prelude + f"sys.stdout.buffer.write(pickle.dumps({build.format(2, 'c', 3, 'a')}))"
        load = prelude + (
            f"twin = {build.format(3, 'a', 2, 'c')}\n"
            "copy = pickle.loads(sys.stdin.buffer.read())\n"
            "print({twin: 'found'}.get(copy, 'missing'), hash(copy) == hash(twin), copy.domain)"
        )

        def run(code: str, seed: str, given: bytes | None = None) -> bytes:
            child = subprocess.run(
                [sys.executable, "-c", code],
                input=given,
                capture_output=True,
                check=True,
                env=dict(env, PYTHONHASHSEED=seed),
            )
            return child.stdout

        assert run(load, "2", run(dump, "1")) == b"found True (Atom('a'), Atom('c'))\n"

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


SUM = AggregateFunc.SUM
TWICE = DuplicateAggregateElementError, "atom '{}' listed twice in sum aggregate"
OUTSIDE = AggregateOverflowError, "{} {} outside the 64-bit range"
COMPARED = TypeError, "'<=' not supported between instances of 'int' and '{}'"
UNPACKED = "not enough values to unpack (expected 2, got 1)"


def _raised(build) -> tuple:
    """(error class, message) of what build() raises."""
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def _error(kind: tuple, *fields) -> tuple:
    """(error class, message) from a (class, message template) pair."""
    return kind[0], kind[1].format(*fields)


class TestConstructorContract:
    """The errors each constructor raises, their order and their messages, and
    the collections it takes in place of tuples."""

    def test_aggregate_takes_lists_sets_and_generators(self):
        spec = AggregateSpec(SUM, ((2, B), (3, A)), ">=", 2)
        for elements in ([[2, B], [3, A]], {(2, B), (3, A)}, (pair for pair in ((2, B), (3, A)))):
            built = AggregateSpec(SUM, elements, ">=", 2)
            assert built == spec and hash(built) == hash(spec)
            assert built.elements == ((3, A), (2, B)) and built.domain == (A, B)
            assert type(built.elements) is tuple
            assert all(type(pair) is tuple for pair in built.elements)

    @pytest.mark.parametrize(
        "elements, error",
        [
            # the first atom seen twice, in input order
            (((1, A), (2, B), (3, B), (4, A)), _error(TWICE, "b")),
            # duplicates are looked for before weights and before later malformed pairs
            ((("x", A), (1, A)), _error(TWICE, "a")),
            (((1, A), (1, A), (1,)), _error(TWICE, "a")),
            (((1,), (1, A), (1, A)), (ValueError, UNPACKED)),
            (((1, [A]),), (TypeError, "unhashable type: 'list'")),
            # the first weight out of range, in input order, not atom order
            (((2**63, C), (-(2**63) - 1, A)), _error(OUTSIDE, "weight", 2**63)),
            (((1, A), (-(2**63) - 1, B), (2**63, C)), _error(OUTSIDE, "weight", -(2**63) - 1)),
            (((2**63, A), ("2", B)), _error(OUTSIDE, "weight", 2**63)),
            # a weight that is no number fails its range comparison
            (((1, A), ("2", B)), _error(COMPARED, "str")),
            (((None, A),), _error(COMPARED, "NoneType")),
        ],
    )
    def test_aggregate_element_errors(self, elements, error):
        assert _raised(lambda: AggregateSpec(SUM, elements, "==", "no bound")) == error

    @pytest.mark.parametrize("func", list(AggregateFunc))
    def test_aggregate_weights_must_be_integers(self, func):
        # a weight that is no int is refused for every function, count and
        # parity too, which drop weights: in input order, each after its
        # range comparison. A float weight once reached _compare_sum and
        # raised AttributeError there
        comparator, bound = (None, None) if func in PARITY_FUNCS else (">=", 2)
        for elements, error in (
            (((1.5, A), (1, B)), (ValueError, "bad weight: 1.5")),
            (((1, A), (2.0, B), ("x", C)), (ValueError, "bad weight: 2.0")),
            (((1.5, A), (2**63, B)), (ValueError, "bad weight: 1.5")),
            (((2**63, A), (1.5, B)), _error(OUTSIDE, "weight", 2**63)),
            (((1e30, A),), _error(OUTSIDE, "weight", 1e30)),
            ((("x", A), (1.5, B)), _error(COMPARED, "str")),
        ):
            assert _raised(lambda: AggregateSpec(func, elements, comparator, bound)) == error
        assert AggregateSpec(func, ((True, A), (1, B)), comparator, bound).domain == (A, B)

    @pytest.mark.parametrize(
        "func, comparator, bound, error",
        [
            (SUM, "==", 1, (ValueError, "bad comparator: '=='")),
            (SUM, None, None, (ValueError, "bad comparator: None")),
            (SUM, ">=", "1", (ValueError, "bad bound: '1'")),
            (SUM, ">=", 1.5, (ValueError, "bad bound: 1.5")),
            (SUM, ">=", None, (ValueError, "bad bound: None")),
            (SUM, ">=", 2**63, _error(OUTSIDE, "bound", 2**63)),
            (AggregateFunc.ODD, ">=", 1, (ValueError, "odd takes no comparator or bound")),
            (AggregateFunc.EVEN, None, 0, (ValueError, "even takes no comparator or bound")),
        ],
    )
    def test_aggregate_comparator_and_bound_errors(self, func, comparator, bound, error):
        assert _raised(lambda: AggregateSpec(func, ((1, A),), comparator, bound)) == error

    def test_aggregate_error_order(self):
        # the domain before the weights, the weights before comparator and bound
        assert _raised(lambda: AggregateSpec(AggregateFunc.AVG, (), "==", "x")) == (
            EmptyAggregateDomainError,
            "avg aggregate needs a nonempty domain",
        )
        overflowing = _raised(lambda: AggregateSpec(SUM, ((2**63, A),), "==", "x"))
        assert overflowing == _error(OUTSIDE, "weight", 2**63)
        bad_comparator = (ValueError, "bad comparator: '=='")
        assert _raised(lambda: AggregateSpec(SUM, ((1, A),), "==", "x")) == bad_comparator

    def test_reordered_twins_hash_alike(self):
        funcs = AggregateFunc
        for func, bound in ((SUM, 2), (funcs.COUNT, 1), (funcs.MAX, 3), (funcs.ODD, None)):
            comparator = None if bound is None else ">="
            spec = AggregateSpec(func, ((2, C), (3, A), (1, B)), comparator, bound)
            twin = AggregateSpec(func, [(1, B), (2, C), (3, A)], comparator, bound)
            assert spec == twin and hash(spec) == hash(twin) and len({spec, twin}) == 1
        # count and parity ignore weights, so weights that differ make twins too
        count = AggregateSpec(AggregateFunc.COUNT, ((5, A), (1, B)), ">=", 1)
        assert hash(count) == hash(AggregateSpec(AggregateFunc.COUNT, ((1, B), (9, A)), ">=", 1))

    def test_rule_takes_lists_sets_and_generators(self):
        rule = Rule(frozenset({A, B}), (AtomLiteral(B), AtomLiteral(C, 1)))
        heads = (lambda: [A, B, A], lambda: {A, B}, lambda: (atom for atom in (B, A)))
        bodies = (lambda: list(rule.body), lambda: (lit for lit in rule.body))
        for head in heads:
            for body in bodies:
                built = Rule(head(), body())
                assert built == rule and hash(built) == hash(rule)
                assert type(built.head) is frozenset and type(built.body) is tuple

    def test_rule_keeps_a_frozenset_head_and_a_tuple_body(self):
        head, body = frozenset({A}), (AtomLiteral(B),)
        rule = Rule(head, body)
        assert rule.head is head and rule.body is body

    def test_rule_errors(self):
        assert _raised(lambda: Rule(["a"], ())) == (TypeError, "head member is not an atom: 'a'")
        assert _raised(lambda: Rule([A], (AtomLiteral(B), "b", 3))) == (
            TypeError,
            "body member is not a literal: 'b'",
        )
        # the head is checked before the body
        assert _raised(lambda: Rule([A, 1], ("b",))) == (TypeError, "head member is not an atom: 1")
        assert _raised(lambda: Rule(A, ())) == (TypeError, "'Atom' object is not iterable")
        assert _raised(lambda: Rule((), 5)) == (TypeError, "'int' object is not iterable")

    def test_atom_literal_errors(self):
        assert _raised(lambda: AtomLiteral([A])) == (TypeError, "not an atom: [Atom('a')]")
        assert _raised(lambda: AtomLiteral({A}, 1.0)) == (TypeError, "not an atom: {Atom('a')}")
        for depth in (-1, 1.0, "1", None, [0]):
            error = (ValueError, f"bad negation depth: {depth!r}")
            assert _raised(lambda: AtomLiteral(A, depth)) == error


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
