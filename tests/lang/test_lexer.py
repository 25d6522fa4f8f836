"""Unit tests for the DiTyCO lexer."""

import sys

import pytest

from repro.lang import LexError, Lexer, TokenKind, parse_program


def lex(src):
    toks = Lexer(src).tokens()
    assert toks[-1].kind is TokenKind.EOF
    return toks[:-1]


class TestBasics:
    def test_empty(self):
        assert lex("") == []

    def test_whitespace_only(self):
        assert lex("  \n\t  ") == []

    def test_identifiers(self):
        (tok,) = lex("appletserver")
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "appletserver"

    def test_classid(self):
        (tok,) = lex("AppletServer")
        assert tok.kind is TokenKind.CLASSID

    def test_primed_ident(self):
        (tok,) = lex("r'")
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "r'"

    def test_underscore_ident(self):
        (tok,) = lex("_tmp")
        assert tok.kind is TokenKind.IDENT

    def test_keywords(self):
        kinds = [t.kind for t in lex("new def in and if then else let export import from")]
        assert all(k is TokenKind.KEYWORD for k in kinds)

    def test_true_false_carry_values(self):
        t, f = lex("true false")
        assert t.value is True and f.value is False


class TestNumbers:
    def test_int(self):
        (tok,) = lex("42")
        assert tok.kind is TokenKind.INT
        assert tok.value == 42

    def test_float(self):
        (tok,) = lex("3.25")
        assert tok.kind is TokenKind.FLOAT
        assert tok.value == 3.25

    def test_scientific(self):
        (tok,) = lex("1e3")
        assert tok.kind is TokenKind.FLOAT
        assert tok.value == 1000.0

    def test_negative_exponent(self):
        (tok,) = lex("2E-2")
        assert tok.value == 0.02

    def test_int_then_dot_method_not_float(self):
        toks = lex("1.x")  # int, dot, ident -- not a float
        assert [t.kind for t in toks] == [TokenKind.INT, TokenKind.PUNCT, TokenKind.IDENT]

    def test_oversized_int_is_a_lex_error(self):
        # int() refuses literals over the interpreter's digit limit;
        # the lexer reports that at the literal, not as a ValueError.
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(LexError) as info:
                lex("x![\n  " + "9" * 4301 + "]")
            assert str(info.value) == "2:3: integer literal too long"
            (tok,) = lex("9" * 4300)
            assert tok.value == int("9" * 4300)
            with pytest.raises(LexError):
                parse_program("print![" + "1" * 100_000 + "]")
        finally:
            sys.set_int_max_str_digits(old_limit)


class TestStrings:
    def test_simple(self):
        (tok,) = lex('"hello"')
        assert tok.kind is TokenKind.STRING
        assert tok.value == "hello"

    def test_escapes(self):
        (tok,) = lex(r'"a\nb\t\"q\\"')
        assert tok.value == 'a\nb\t"q\\'

    def test_unterminated(self):
        with pytest.raises(LexError):
            lex('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            lex('"a\nb"')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            lex(r'"\q"')


class TestPunctuation:
    def test_multichar_greedy(self):
        toks = lex("<= >= == !=")
        assert [t.text for t in toks] == ["<=", ">=", "==", "!="]

    def test_bang_bracket(self):
        toks = lex("x![1]")
        assert [t.text for t in toks] == ["x", "!", "[", "1", "]"]

    def test_neq_vs_bang(self):
        toks = lex("a != b ! c")
        assert [t.text for t in toks] == ["a", "!=", "b", "!", "c"]

    def test_all_punct(self):
        toks = lex("? { } ( ) , = | . + - * / % < >")
        assert all(t.kind is TokenKind.PUNCT for t in toks)

    def test_unknown_char(self):
        with pytest.raises(LexError):
            lex("x @ y")


class TestComments:
    def test_dashdash(self):
        toks = lex("x -- comment here\ny")
        assert [t.text for t in toks] == ["x", "y"]

    def test_slashslash(self):
        toks = lex("x // comment\ny")
        assert [t.text for t in toks] == ["x", "y"]

    def test_comment_at_eof(self):
        assert [t.text for t in lex("x -- trailing")] == ["x"]

    def test_minus_not_comment(self):
        toks = lex("a - b")
        assert [t.text for t in toks] == ["a", "-", "b"]


class TestPositions:
    def test_line_column(self):
        toks = lex("x\n  y")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_error_position(self):
        try:
            lex("ok\n   @")
        except LexError as e:
            assert e.line == 2 and e.column == 4
        else:  # pragma: no cover
            pytest.fail("expected LexError")
