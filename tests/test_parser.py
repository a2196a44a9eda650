"""Dialect round trips, canonical rendering, structured errors, core2 emission."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzasp import parser as parser_module
from gzasp.core import (
    AggregateFunc,
    Atom,
    AtomLiteral,
    Program,
    Rule,
    atoms_of,
)
from gzasp.errors import (
    DuplicateAggregateElementError,
    EmptyAggregateDomainError,
    GzaspError,
    NegatedAggregateError,
    ParseError,
    ReservedNameError,
    UnsupportedConstructError,
)
from gzasp.parser import emit_core2, parse, render
from gzasp.rewriter import rewrite_m, rewrite_n, rewrite_rew, rewrite_str

import gen
import oracles
from helpers import A, B, GOLDEN_CORE2_TEXT, GOLDEN_TEXT, golden_program

TWO_CYCLE = "a :- not b.\nb :- not a.\n"


class TestParse:
    def test_golden_program(self):
        assert parse(GOLDEN_TEXT) == golden_program()

    def test_empty_input(self):
        assert parse("") == Program()
        assert parse("  % just a comment\n") == Program()

    def test_fact_and_constraint(self):
        program = parse("a.\n:- a, not b.\n")
        assert program.rules == (
            Rule({A}, ()),
            Rule(frozenset(), (AtomLiteral(A), AtomLiteral(B, 1))),
        )

    def test_fact_with_arrow_and_empty_body(self):
        assert parse("a :- .") == parse("a.")
        assert parse(":-.").rules == (Rule(frozenset(), ()),)

    def test_whitespace_and_comments_ignored(self):
        text = "a %c\n :- % c2\n not  not a ."
        assert parse(text).rules == (Rule({A}, (AtomLiteral(A, 2),)),)

    def test_deep_negation(self):
        rule = parse("p :- not not not q.").rules[0]
        assert rule.body == (AtomLiteral(Atom("q"), 3),)

    def test_aggregate_forms(self):
        program = parse(
            "p :- count{a, b} >= 1, sum{2:a, -3:b} != 0, avg{1 : a} < 2,"
            " min{4:c} <= 4, max{4:c} > 3, odd{a}, even{a, b}."
        )
        body = program.rules[0].body
        assert [lit.func for lit in body] == [
            AggregateFunc.COUNT,
            AggregateFunc.SUM,
            AggregateFunc.AVG,
            AggregateFunc.MIN,
            AggregateFunc.MAX,
            AggregateFunc.ODD,
            AggregateFunc.EVEN,
        ]
        assert body[1].elements == ((2, A), (-3, B))

    def test_empty_aggregate(self):
        spec = parse("p :- count{} >= 0.").rules[0].body[0]
        assert spec.elements == ()

    def test_aggregate_names_are_plain_atoms_without_brace(self):
        program = parse("count :- sum, not avg.")
        assert program.rules[0].head == frozenset({Atom("count")})
        assert program.rules[0].body == (
            AtomLiteral(Atom("sum")),
            AtomLiteral(Atom("avg"), 1),
        )

    def test_suffixed_names_accepted(self):
        assert parse("a__t :- b__g.").rules[0].head == frozenset({Atom("a__t")})

    def test_bottom_atom_accepted(self):
        rule = parse("p :- count{p, __bot} != 1.").rules[0]
        assert Atom("__bot") in rule.body[0].domain

    @pytest.mark.parametrize(
        "text, rewrite, copies",
        [
            (TWO_CYCLE, lambda p: rewrite_rew(rewrite_n(p)), {"__bot__t"}),
            (TWO_CYCLE, lambda p: rewrite_str(rewrite_n(p)), {"__bot__t", "__bot__g"}),
            ("p :- not __bot.", rewrite_m, {"__bot__f"}),
            ("p :- not __bot.", lambda p: rewrite_rew(rewrite_m(p)), {"__bot__f", "__bot__f__t"}),
        ],
        ids=["n-rew", "n-str", "m", "m-rew"],
    )
    def test_rewritings_of_bottom_parse_back(self, text, rewrite, copies):
        # the rewritings copy __bot as they copy any atom; the copies parse
        rewritten = rewrite(parse(text))
        assert copies <= {atom.name for atom in atoms_of(rewritten)}
        assert parse(render(rewritten)) == rewritten
        assert oracles.reference_parse(render(rewritten)) == rewritten

    def test_bytes_input(self):
        assert parse(b"a.") == parse("a.")

    def test_head_duplicates_collapse(self):
        assert parse("a | a.") == parse("a.")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("a :- b", 1, 7),  # missing dot at eof
            ("a |", 1, 4),
            ("| a.", 1, 1),
            (".", 1, 1),
            ("a :- not.", 1, 9),
            ("a ;- b.", 1, 3),
            ("count{a.", 1, 6),  # head atom `count`, then '{' where '.' belongs
            ("p :- count{a} 1.", 1, 15),
            ("p :- count{a} >=.", 1, 17),
            ("p :- odd{a} >= 1.", 1, 13),
            ("p :- sum{2 a}.", 1, 12),
            ("\n\n  ?", 3, 3),
        ],
    )
    def test_syntax_error_positions(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ReservedNameError):
            parse("__x.")
        with pytest.raises(ReservedNameError):
            parse("p :- count{__y} >= 1.")
        for name in ("__bottom", "__bot_t", "__bot__x", "__bot__t_", "__bot__T"):
            with pytest.raises(ReservedNameError):
                parse(f"p :- not {name}.")

    def test_uppercase_start_rejected(self):
        with pytest.raises(ParseError):
            parse("Abc.")

    def test_negated_aggregate(self):
        with pytest.raises(NegatedAggregateError):
            parse("p :- not count{a} >= 1.")
        with pytest.raises(NegatedAggregateError):
            parse("p :- not not even{a}.")

    def test_duplicate_aggregate_element(self):
        with pytest.raises(DuplicateAggregateElementError):
            parse("p :- count{a, a} >= 1.")

    def test_empty_domain_where_forbidden(self):
        with pytest.raises(EmptyAggregateDomainError):
            parse("p :- avg{} >= 1.")
        with pytest.raises(EmptyAggregateDomainError):
            parse("p :- odd{}.")

    def test_invalid_utf8_is_structured(self):
        with pytest.raises(ParseError):
            parse(b"a.\xff\xfe")

    def test_fuzz_smoke(self):
        rng = random.Random(99)
        for _ in range(500):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                parse(blob)
            except GzaspError:
                pass


class TestTokenizer:
    @pytest.mark.parametrize(
        "text,message",
        [
            # a bad character anywhere wins over an earlier syntax error
            ("a :- , b.\n$", "2:1: unexpected character '$'"),
            ("a :- b\n- c.", "2:1: unexpected character '-'"),
            ("a :- -", "1:6: unexpected character '-'"),
            ("p :- a, !b.", "1:9: unexpected character '!'"),
            ("é.", "1:1: unexpected character 'é'"),
            ("a :- bé.", "1:7: unexpected character 'é'"),
            # only \n breaks a line; \r, \t, \f and U+2028 are one column each
            ("a.\r\n\t $", "2:3: unexpected character '$'"),
            ("a.\r$", "1:4: unexpected character '$'"),
            ("a.\f\u2028 $", "1:6: unexpected character '$'"),
            ("a.\r\n\tb c.", "2:4: unexpected 'c' (expected '.')"),
            ("a :- b.\r\n", None),
            ("a. % $ é ! -\nb :- a. %$", None),
        ],
    )
    def test_characters_and_positions(self, text, message):
        assert outcome(parse, text) == outcome(oracles.reference_parse, text)
        if message is None:
            parse(text)
        else:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == message

    def test_valid_input_computes_no_positions(self, monkeypatch):
        def no_positions(text, index):
            raise AssertionError("position computed on valid input")

        monkeypatch.setattr(parser_module, "_position", no_positions)
        assert parse(GOLDEN_TEXT) == golden_program()
        program = gen.random_large_monotone_program(random.Random(3), 300, True)
        assert parse(render(program)) == program

    def test_same_name_at_three_depths(self):
        body = parse("p :- a, not a, not not a, a, not not a.").rules[0].body
        assert body == tuple(AtomLiteral(A, depth) for depth in (0, 1, 2, 0, 2))
        assert len(set(body)) == 3


def outcome(parser, text):
    """The Program, or the error's type, text, position and expectation."""
    try:
        return parser(text)
    except Exception as err:
        fields = (getattr(err, name, None) for name in ("line", "column", "expected"))
        return (type(err), str(err), *fields)


class TestAgainstReferenceParser:
    """parse against oracles.reference_parse: equal Programs, or the same
    error with the same message, line, column and expectation."""

    def test_generated_programs_and_their_rewritings(self):
        families = (
            gen.random_program,
            gen.random_normal_program,
            gen.random_monotone_program,
            lambda rng: gen.random_mixed_program(rng, rng.randrange(12)),
        )
        for seed in range(400):
            rng = random.Random(seed)
            program = families[seed % len(families)](rng)
            for variant in (program, rewrite_rew(program), rewrite_str(program)):
                text = render(variant)
                assert parse(text) == variant
                assert outcome(parse, text) == outcome(oracles.reference_parse, text)

    def test_benchmark_scale_monotone_programs(self):
        # the asp-m shape: hundreds of long rules, with weighted sum and max
        # elements; rendered, with a comment or a newline between random
        # tokens, and with one token dropped or replaced anywhere in the text
        failures = 0
        for seed in range(12):
            rng = random.Random(seed)
            size = rng.randrange(200, 401)
            program = gen.random_large_monotone_program(rng, size, cyclic=seed % 2 == 1)
            words = [word for rule in program for word in gen._rule_words(rule)]
            gaps = [rng.choice(("\n", " % note\n")) if rng.random() < 0.2 else " " for _ in words]
            spaced = "".join(map(str.__add__, words, gaps))
            stray = rng.choice(("", ",", "}", "{", ":", "|", "not", "7", "max", "."))
            words[rng.randrange(len(words))] = stray
            broken = "".join(map(str.__add__, words, gaps))
            for text in (render(program), spaced, broken):
                expected = outcome(oracles.reference_parse, text)
                failures += isinstance(expected, tuple)
                assert outcome(parse, text) == expected
            assert parse(spaced) == program
        assert 3 <= failures <= 12  # a broken text mostly fails, its error deep in the text

    def test_fuzzed_inputs(self):
        rng = random.Random(4)
        kinds = {str: 0, bytes: 0}
        failures = 0
        for _ in range(20_000):
            text = gen.fuzz_text(rng)
            kinds[type(text)] += 1
            expected = outcome(oracles.reference_parse, text)
            failures += isinstance(expected, tuple)
            assert outcome(parse, text) == expected, repr(text)
        assert min(kinds.values()) > 4_000
        assert 2_000 < failures < 19_000  # both outcomes well represented


class TestRender:
    def test_golden_round_trip_text(self):
        assert render(parse(GOLDEN_TEXT)) == GOLDEN_TEXT

    def test_golden_program_renders_canonically(self):
        assert render(golden_program()) == GOLDEN_TEXT

    def test_head_and_elements_sorted(self):
        assert render(parse("c|a|b :- count{b, a} >= 1.")) == (
            "a | b | c :- count{a, b} >= 1.\n"
        )

    def test_weighted_funcs_show_weights(self):
        assert render(parse("p :- sum{1:a} > 0, min{2 : b} < 3.")) == (
            "p :- sum{1 : a} > 0, min{2 : b} < 3.\n"
        )

    def test_parity_and_count_render_bare(self):
        assert render(parse("p :- count{3:a} >= 1, odd{2:b}.")) == (
            "p :- count{a} >= 1, odd{b}.\n"
        )

    def test_constraint_and_fact_shapes(self):
        assert render(parse(":- a. b. :-.")) == ":- a.\nb.\n:-.\n"

    def test_generated_names_render(self):
        # underscores sort before lowercase letters, so __bot leads
        assert render(parse("a__t :- count{p, __bot} != 1.")) == (
            "a__t :- count{__bot, p} != 1.\n"
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_round_trip_random_programs(self, seed):
        import gen

        program = gen.random_program(random.Random(seed))
        assert parse(render(program)) == program

    def test_render_deterministic(self):
        program = golden_program()
        assert render(program) == render(program)


class TestEmitCore2:
    def test_golden(self):
        assert emit_core2(golden_program()) == GOLDEN_CORE2_TEXT

    def test_sum_elements_tagged_with_atom(self):
        text = emit_core2(parse("p :- sum{2:a, 2:b} >= 2."))
        assert text == "p :- #sum{2,a : a; 2,b : b} >= 2.\n"

    def test_constraint_and_fact(self):
        assert emit_core2(parse("a. :- b.")) == "a.\n:- b.\n"

    def test_depth_limit(self):
        emit_core2(parse("a :- not not a."))
        with pytest.raises(UnsupportedConstructError):
            emit_core2(parse("a :- not not not a."))

    @pytest.mark.parametrize("text", ["p :- avg{1:a} >= 1.", "p :- odd{a}.", "p :- min{1:a} < 2."])
    def test_unsupported_aggregates(self, text):
        with pytest.raises(UnsupportedConstructError):
            emit_core2(parse(text))
