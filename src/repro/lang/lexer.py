"""Tokenizer for mini-C."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import LexError

KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed", "const",
    "struct", "union", "typedef", "if", "else", "while", "for", "do",
    "return", "break", "continue", "sizeof", "static", "extern", "NULL",
    "switch", "case", "default",
})

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


@dataclass(frozen=True)
class Token:
    kind: str   #: 'ident' | 'keyword' | 'int' | 'string' | 'op' | 'eof'
    text: str
    value: int = 0      #: numeric value for 'int' tokens
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.col})"


#: One alternation over every token shape, tried left to right at each
#: position; the catch-all ``bad`` arm makes every position match, so the
#: matches tile the source.  The ``*_open`` arms match only where the
#: full literal above them failed and always raise.  Identifiers and
#: digits are ASCII: a non-ASCII character outside a literal or comment
#: is an unexpected character.
_TOKEN_RE = re.compile("|".join([
    r"(?P<skip>[ \t\r]+|//[^\n]*)",
    r"(?P<nl>\n)",
    r"(?P<block_comment>/\*(?s:.*?)\*/)",
    r"(?P<block_open>/\*)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)",
    r"(?P<hex_open>0[xX])",
    r"(?P<dec>[0-9]+[uUlL]*)",
    r"(?P<char>'(?:\\.|[^\\])')",
    r"(?P<char_open>')",
    r'(?P<string>"(?:[^"\\\n]|\\.)*")',
    r'(?P<string_open>")',
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    r"(?P<bad>(?s:.))",
]))


def tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source into a token list ending with an 'eof' token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  #: offset of the current line's first character
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "skip":
            continue
        pos = match.start()
        if kind == "nl":
            line += 1
            line_start = pos + 1
            continue
        text = match.group()
        col = pos - line_start + 1
        if kind == "ident":
            append(Token("keyword" if text in KEYWORDS else "ident", text,
                         0, line, col))
        elif kind == "op":
            append(Token("op", text, 0, line, col))
        elif kind == "dec":
            append(Token("int", text, int(text.rstrip("uUlL")), line, col))
        elif kind == "hex":
            append(Token("int", text, int(text.rstrip("uUlL"), 16),
                         line, col))
        elif kind == "string":
            append(Token("string", _read_string(source, pos, line, col)[0],
                         0, line, col))
        elif kind == "char":
            append(Token("int", text, _read_char(source, pos, line, col)[0],
                         line, col))
        # The full-literal arms did not match, so these readers raise
        # the literal's error.
        elif kind == "char_open":
            _read_char(source, pos, line, col)
        elif kind == "string_open":
            _read_string(source, pos, line, col)
        elif kind == "block_open":
            raise LexError("unterminated block comment", line, col)
        elif kind == "hex_open":
            raise LexError(f"hex literal {text!r} has no digits", line, col)
        elif kind == "bad":
            raise LexError(f"unexpected character {text!r}", line, col)
        # Block comments and character literals may span lines.
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
    append(Token("eof", "", 0, line, len(source) - line_start + 1))
    return tokens


def _read_char(source: str, pos: int, line: int, col: int) -> tuple:
    """Parse a character literal at ``pos``; return (value, chars consumed)."""
    cursor = pos + 1
    if cursor >= len(source):
        raise LexError("unterminated character literal", line, col)
    if source[cursor] == "\\":
        escape = source[cursor + 1] if cursor + 1 < len(source) else ""
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape \\{escape}", line, col)
        value = _ESCAPES[escape]
        cursor += 2
    else:
        value = ord(source[cursor])
        cursor += 1
    if cursor >= len(source) or source[cursor] != "'":
        raise LexError("unterminated character literal", line, col)
    return value, cursor + 1 - pos


def _read_string(source: str, pos: int, line: int, col: int) -> tuple:
    """Parse a string literal; return (decoded text, chars consumed)."""
    cursor = pos + 1
    out: List[str] = []
    while cursor < len(source):
        ch = source[cursor]
        if ch == '"':
            return "".join(out), cursor + 1 - pos
        if ch == "\n":
            break
        if ch == "\\":
            escape = source[cursor + 1] if cursor + 1 < len(source) else ""
            if escape not in _ESCAPES:
                raise LexError(f"unknown escape \\{escape}", line, col)
            out.append(chr(_ESCAPES[escape]))
            cursor += 2
            continue
        out.append(ch)
        cursor += 1
    raise LexError("unterminated string literal", line, col)
