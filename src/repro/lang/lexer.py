"""Lexer for the DiTyCO source language.

The concrete syntax follows the paper's notation as closely as plain
text allows::

    def Cell(self, v) =
      self ? { read(r) = r![v] | Cell[self, v],
               write(u) = Cell[self, u] }
    in new x Cell[x, 9] | new y Cell[y, true]

Tokens:

* lowercase identifiers -- names and labels (``x``, ``read``);
* capitalised identifiers -- class variables (``Cell``);
* integer / float / string literals, ``true`` / ``false``;
* keywords: ``new def in and if then else let export import from not``;
* punctuation: ``! ? [ ] ( ) { } , = | .``  plus the operators
  ``+ - * / % < <= > >= == != or``.

Comments run from ``--`` or ``//`` to end of line.

The whole lexer is one compiled regular expression, :data:`_TOKEN`,
matched at the current position by ``finditer``.  Its alternatives,
tried in order, are trivia (blanks and comments), a word, a number, a
string, a punctuator (two-character operators first) and, last, any
other character, which is an error.  Lines and columns come from the
offset of the current line's start, which only trivia holding a
newline moves.  Identifiers are Unicode: the first character must be
``isalpha()`` or ``_`` (the regex admits a few more, numeric ones, so
it is re-checked), later ones ``isalnum()``, ``_`` or ``'``.  Numbers
are ASCII-only.  A ``LexError`` names the unexpected character, an
unterminated string at its opening quote, or a bad escape at its
backslash.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    IDENT = auto()      # lowercase identifier
    CLASSID = auto()    # Capitalised identifier
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = {
    "new", "def", "in", "and", "if", "then", "else", "let",
    "export", "import", "from", "not", "or", "true", "false",
}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None  # decoded literal value for INT/FLOAT/STRING

    def __str__(self) -> str:
        return f"{self.text!r}@{self.line}:{self.column}"


class LexError(Exception):
    """Malformed input at the character level."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# One group per alternative, numbered for ``match.lastindex``; every
# position matches one, the last being any character the language lacks.
# A string matches up to its first bad character, so an empty group 5
# (no closing quote) sends it to the error path.
_TOKEN = re.compile(
    r"([ \t\r\n]+|--[^\n]*|//[^\n]*)"                # 1 trivia
    r"|([^\W\d][\w']*)"                               # 2 word
    r"|([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"     # 3 number
    r"""|("(?:[^"\\\n]|\\[ntr"\\0])*("?))"""          # 4 string, 5 close
    r"|([<>=!]=|[!?\[\](){},=|.+\-*/%<>])"           # 6 punctuation
    r"|(.)", re.DOTALL)                               # 7 error
_TRIVIA, _WORD, _NUMBER, _STRING, _CLOSE, _PUNCT = 1, 2, 3, 4, 5, 6

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)")

_KEYWORD_VALUES = {**dict.fromkeys(KEYWORDS), "true": True, "false": False}
# Builds a Token without the NamedTuple ``__new__`` wrapper call.
_new = tuple.__new__


class Lexer:
    """Tokenizer for one source text."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> list[Token]:
        """Tokenize the whole input (EOF token included)."""
        src = self.source
        keywords = _KEYWORD_VALUES
        IDENT, CLASSID, KEYWORD, PUNCT = (TokenKind.IDENT, TokenKind.CLASSID,
                                          TokenKind.KEYWORD, TokenKind.PUNCT)
        out: list[Token] = []
        append = out.append
        line, line_start = 1, 0
        for m in _TOKEN.finditer(src):
            group = m.lastindex
            if group == _TRIVIA:
                text = m[_TRIVIA]
                if "\n" in text:
                    line += text.count("\n")
                    line_start = m.start() + text.rindex("\n") + 1
                continue
            column = m.start() - line_start + 1
            if group == _PUNCT:
                append(_new(Token, (PUNCT, m[_PUNCT], line, column, None)))
            elif group == _WORD:
                text = m[_WORD]
                if text in keywords:
                    append(_new(Token, (KEYWORD, text, line, column,
                                        keywords[text])))
                elif text[0].isalpha() or text[0] == "_":
                    kind = CLASSID if text[0].isupper() else IDENT
                    append(_new(Token, (kind, text, line, column, None)))
                else:
                    raise LexError(f"unexpected character {text[0]!r}",
                                   line, column)
            elif group == _NUMBER:
                append(_number_token(m[_NUMBER], line, column))
            elif group == _STRING:
                append(_string_token(m, line, column, line_start))
            else:
                raise LexError(f"unexpected character {m[0]!r}", line, column)
        append(Token(TokenKind.EOF, "", line, len(src) - line_start + 1))
        return out


def _number_token(text: str, line: int, column: int) -> Token:
    if not text.isdigit():
        return Token(TokenKind.FLOAT, text, line, column, float(text))
    try:
        value = int(text)
    except ValueError:  # over the interpreter's integer digit limit
        raise LexError("integer literal too long", line, column) from None
    return Token(TokenKind.INT, text, line, column, value)


def _string_token(m: re.Match, line: int, column: int,
                  line_start: int) -> Token:
    stop = m.end()
    if not m[_CLOSE]:
        src = m.string
        if src.startswith("\\", stop):
            raise LexError(f"bad escape \\{src[stop + 1:stop + 2]}",
                           line, stop - line_start + 1)
        raise LexError("unterminated string literal", line, column)
    body = m[_STRING][1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)
    return Token(TokenKind.STRING, f'"{body}"', line, column, body)
