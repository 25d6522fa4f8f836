"""Golden digests of the front end: tokens, errors and compiled code.

The digests below were recorded from the character-at-a-time lexer
that preceded the single-regex one.  Any change to a token (kind,
text, position or decoded value), to a ``LexError`` or ``ParseError``
message or position, or to a compiled ``Program`` changes a digest.

* (a) the token streams, or the ``LexError``, of 20k seeded strings
  drawn from an alphabet of valid lexemes, ASCII punctuation, string
  escapes, comments, line breaks and Unicode edge cases;
* (b) the outcome of parsing a seeded corpus of keyword soup and of
  generated programs, most with one token mutated: the
  ``ParseError``/``LexError`` message, or the parsed program;
* (c) ``repr(compile_source(src))`` for every source the repo
  launches: the example programs, the workload applications (fabric,
  operations and probes for three seeds) and the chaos scenarios.

Names carry a process-wide serial number, so every ``#<serial>`` in
a repr is renumbered in order of first appearance before hashing.
"""

import hashlib
import random
import re
import string
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.lang import LexError, Lexer, ParseError, TokenKind, parse_program
from repro.runtime.network import DiTyCONetwork
from repro.runtime.shell import TycoShell
from repro.workloads import WORKLOADS, WorkloadSpec, generate_trace
from repro.workloads.runner import APPS

from ..testkit.scenarios import SCENARIOS

REPO = Path(__file__).resolve().parents[2]

LEX_DIGEST = "ec7834b3f7015b43eb895122e2383a2801c2c9d8f8e6d3f30f0569035e1bf2e7"
PARSE_DIGEST = "4210a14bc414f75708ad7a310af6e57e85356dac454a9c5c7559daacd1aeac2d"
COMPILE_DIGEST = "8f00a790d75338d75ae2aa8a6649b674fd09284bf1dd47b70a260ab4ef7cb385"

# -- helpers -----------------------------------------------------------------

_SERIAL = re.compile(r"#(\d+)")


def _normalise_serials(text: str) -> str:
    seen: dict[str, int] = {}
    return _SERIAL.sub(
        lambda m: f"#{seen.setdefault(m[1], len(seen) + 1)}", text)


def _lex_record(source: str) -> tuple:
    try:
        tokens = Lexer(source).tokens()
    except LexError as exc:
        return ("error", exc.args[0], exc.line, exc.column)
    return tuple((t.kind.name, t.text, t.line, t.column, repr(t.value))
                 for t in tokens)


def _parse_record(source: str) -> tuple:
    try:
        parsed = parse_program(source)
    except (ParseError, LexError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", sorted(parsed.free_names),
            _normalise_serials(repr(parsed.program)))


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- (a) lexer corpus --------------------------------------------------------

_VALID = (
    list("abxyzZQ_'eE0123456789")
    + ["new", "def", "in", "and", "or", "not", "true", "false", "Cell",
       "r'", "x_1", "1.5", "2e+3", "7E-2", "1e", "1.", ".5", "3.x",
       '"ab"', '""', '"\\n\\t\\"\\\\\\0\\r"',
       "<=", ">=", "==", "!=", "!", "?", "[", "]", "(", ")", "{", "}",
       ",", "=", "|", ".", "+", "-", "*", "/", "%", "<", ">",
       " ", "  ", "\n", "\t", "\r", "--", "//", "-- c\n", "// c\n"]
)
_HOSTILE = (
    list(string.punctuation)
    + ['"', "\\n", "\\t", '\\"', "\\\\", "\\0", "\\q", "\\", '"\\',
       '"\n', "²", "½", "é", "中", "٠", "É", "\x0b", " ", "𝑥"]
)


def _lex_corpus(count: int = 20_000) -> list[str]:
    rng = random.Random(0)
    out = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(0, 24)):
            pool = _VALID if rng.random() < 0.9 else _HOSTILE
            pieces.append(rng.choice(pool))
        out.append("".join(pieces))
    return out


# -- (b) parser corpus ------------------------------------------------------

_SOUP = ("x y z w print X Y Z new def in and or not if then else let "
         "import export from ! ? [ ] ( ) { } | = , 0 1 2.5 true \"s\" "
         "- + * < ==").split()


def _expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return [rng.choice(["1", "0", "2.5", "true", "\"s\"", "x", "y", "v"])]
    if roll < 0.55:
        return [rng.choice(["not", "-"])] + _expr(rng, depth - 1)
    if roll < 0.65:
        return ["("] + _expr(rng, depth - 1) + [")"]
    op = rng.choice(["+", "-", "*", "/", "%", "<", "<=", "==", "!=",
                     "and", "or"])
    return _expr(rng, depth - 1) + [op] + _expr(rng, depth - 1)


def _commas(items):
    out = []
    for i, item in enumerate(items):
        out += ([","] if i else []) + item
    return out


def _proc(rng, depth):
    x = rng.choice(["x", "y", "print", "v"])
    cls = rng.choice(["X", "Y"])
    args = _commas([_expr(rng, 2) for _ in range(rng.randint(0, 2))])
    params = _commas([[p] for p in rng.sample("vwuy", rng.randint(0, 2))])
    roll = rng.randrange(10 if depth > 0 else 3)
    if roll == 0:
        return ["0"]
    if roll == 1:
        return [x, "!"] + rng.choice([[], ["l"]]) + ["["] + args + ["]"]
    if roll == 2:
        return [cls, "["] + args + ["]"]
    body = _proc(rng, depth - 1)
    if roll == 3:
        return ["new"] + rng.sample(["x", "y", "a"], rng.randint(1, 2)) + body
    if roll == 4:
        return [x, "?", "("] + params + [")", "="] + body
    if roll == 5:
        return ([x, "?", "{", "l", "("] + params + [")", "="] + body
                + [",", "m", "(", ")", "="] + _proc(rng, depth - 1) + ["}"])
    if roll == 6:
        clauses = ["X", "("] + params + [")", "="] + body
        if rng.random() < 0.5:
            clauses += ["and", "Y", "(", ")", "="] + _proc(rng, depth - 1)
        return ["def"] + clauses + ["in"] + _proc(rng, depth - 1)
    if roll == 7:
        return (["if"] + _expr(rng, 2) + ["then"] + body + ["else"]
                + _proc(rng, depth - 1))
    if roll == 8:
        return ["let", "z", "=", x, "!", "l", "["] + args + ["]", "in"] + body
    return ["("] + body + ["|"] + _proc(rng, depth - 1) + [")"]


def _parse_corpus(count: int = 5_000) -> list[str]:
    """Half keyword soup, half generated programs of which most have
    one token deleted, doubled or replaced."""
    rng = random.Random(1)
    out = []
    for i in range(count):
        if i % 2 == 0:
            toks = [rng.choice(_SOUP) for _ in range(rng.randint(1, 20))]
        else:
            toks = _proc(rng, 4)
            if rng.random() < 0.8:
                k = rng.randrange(len(toks))
                mutation = rng.randrange(3)
                if mutation == 0:
                    del toks[k]
                elif mutation == 1:
                    toks.insert(k, toks[k])
                else:
                    toks[k] = rng.choice(_SOUP)
        out.append(" ".join(toks))
    return out


# -- (c) every launched source -----------------------------------------------

class _RecordingNetwork(DiTyCONetwork):
    """A simulated network that remembers every source it launches."""

    def __init__(self) -> None:
        super().__init__()
        self.sources: list[str] = []

    def launch(self, ip, site_name, program):
        self.sources.append(program)
        return super().launch(ip, site_name, program)


def _launched_sources() -> list[str]:
    sources = []
    for path in sorted((REPO / "examples" / "programs").iterdir()):
        text = path.read_text()
        if path.suffix == ".dityco":
            sources.append(text)
            continue
        net = _RecordingNetwork()
        net.add_nodes(["n1", "n2", "n3"])
        TycoShell(net, write=lambda line: None).execute_script(text)
        net.run()
        sources.extend(net.sources)
    for workload in sorted(WORKLOADS):
        app = APPS[workload]
        for seed in (0, 1, 2):
            spec = WorkloadSpec(workload, seed=seed)
            trace = generate_trace(spec)
            phases = (app.setup_phases(spec)
                      + [[app.op_entry(spec, a) for a in trace]]
                      + app.post_phases(spec, trace))
            sources.extend(src for phase in phases for _ip, _n, src in phase)
    for name in sorted(SCENARIOS):
        net = _RecordingNetwork()
        SCENARIOS[name](net)
        net.run()
        sources.extend(net.sources)
    return sources


# -- the digests ---------------------------------------------------------------

def test_lexer_corpus_digest():
    corpus = _lex_corpus()
    records = [_lex_record(src) for src in corpus]
    # The corpus exercises both outcomes.
    assert sum(r[0] == "error" for r in records) > 2_000
    assert sum(r[0] != "error" for r in records) > 10_000
    assert _digest(records) == LEX_DIGEST


def test_parse_corpus_digest():
    records = [_parse_record(src) for src in _parse_corpus()]
    assert sum(r[0] == "ok" for r in records) > 250
    assert sum(r[0] == "error" for r in records) > 2_500
    assert _digest(records) == PARSE_DIGEST


def test_launched_sources_compile_digest():
    sources = _launched_sources()
    assert len(sources) > 500
    records = [_normalise_serials(repr(compile_source(src)))
               for src in sources]
    assert _digest(records) == COMPILE_DIGEST


# -- (d) Unicode edge cases, pinned --------------------------------------------

def lex(src):
    return [(t.kind, t.text, t.line, t.column) for t in Lexer(src).tokens()]


def lex_error(src):
    with pytest.raises(LexError) as info:
        Lexer(src).tokens()
    exc = info.value
    assert str(exc).startswith(f"{exc.line}:{exc.column}: ")
    return str(exc)


class TestUnicodeEdges:
    def test_superscript_digit_continues_an_identifier(self):
        # '²'.isalnum() but not isalpha(): allowed after the first char.
        assert lex("x²")[0] == (TokenKind.IDENT, "x²", 1, 1)

    def test_superscript_digit_cannot_start_one(self):
        assert lex_error("a ²") == "1:3: unexpected character '²'"

    def test_vulgar_fraction(self):
        assert lex("a½")[0] == (TokenKind.IDENT, "a½", 1, 1)
        assert lex_error("½a") == "1:1: unexpected character '½'"

    def test_accented_letters(self):
        assert lex("é")[0] == (TokenKind.IDENT, "é", 1, 1)
        assert lex("École")[0] == (TokenKind.CLASSID, "École", 1, 1)

    def test_cjk_is_a_lowercase_identifier(self):
        # '中'.isupper() is False, so it names a channel, not a class.
        assert lex("中文 x")[:2] == [(TokenKind.IDENT, "中文", 1, 1),
                                    (TokenKind.IDENT, "x", 1, 4)]

    def test_arabic_indic_digit(self):
        # A Unicode decimal digit: neither a letter nor an ASCII digit.
        assert lex_error("٠") == "1:1: unexpected character '٠'"
        assert lex("x٠")[0] == (TokenKind.IDENT, "x٠", 1, 1)

    def test_numbers_stay_ascii(self):
        assert lex("1")[0] == (TokenKind.INT, "1", 1, 1)
        assert lex_error("1٠") == "1:2: unexpected character '٠'"
        assert lex_error("\n ²") == "2:2: unexpected character '²'"

    def test_non_bmp_letter_is_one_column(self):
        assert lex("𝑥 y")[:2] == [(TokenKind.IDENT, "𝑥", 1, 1),
                                  (TokenKind.IDENT, "y", 1, 3)]

    def test_unicode_inside_strings(self):
        (tok, _eof) = Lexer('"é中²"').tokens()
        assert tok.value == "é中²"
        assert tok.text == '"é中²"'

    def test_unicode_whitespace_is_not_trivia(self):
        assert lex_error("x y") == "1:2: unexpected character '\\xa0'"
        assert lex_error("\x0b") == "1:1: unexpected character '\\x0b'"
