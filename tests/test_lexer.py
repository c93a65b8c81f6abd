"""Golden tokens of the lexer: whitespace, comments, Unicode and symbols.

Each input maps to its ``(kind, value, line, col)`` tokens, eof included,
or to the ``(message, line, col)`` of the ``ParseError`` it raises.  The
table pins what the column rule and the character classes do at their
edges: every whitespace character but ``\n`` takes one column, a comment
takes none (so eof sits at a ``#`` that ends the text), a word starts with
a letter or ``_`` and goes on over letters, digits and ``_``, an integer
is a run of decimal digits in any script, and a two-character symbol wins
over its one-character prefix.
"""

import pytest

from orbitmc.ctl import parse_ctl
from orbitmc.errors import ParseError
from orbitmc.parser import _tokenize

GOLDEN = [
    ('a\tb', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('\ta ;', [('id', 'a', 1, 2), ('sym', ';', 1, 4), ('eof', None, 1, 5)]),
    ('a\r\nb', [('id', 'a', 1, 1), ('id', 'b', 2, 1), ('eof', None, 2, 2)]),
    ('x :=\r\n  1;\r\n', [('id', 'x', 1, 1), ('sym', ':=', 1, 3), ('int', 1, 2, 3), ('sym', ';', 2, 4), ('eof', None, 3, 1)]),
    ('a\x0cb', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('a\x0bb', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('a\xa0b', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('\xa0\xa0pc', [('id', 'pc', 1, 3), ('eof', None, 1, 5)]),
    ('pc {A};\n# a comment\ninit pc=A;', [('id', 'pc', 1, 1), ('sym', '{', 1, 4), ('id', 'A', 1, 5), ('sym', '}', 1, 6), ('sym', ';', 1, 7), ('id', 'init', 3, 1), ('id', 'pc', 3, 6), ('sym', '=', 3, 8), ('id', 'A', 3, 9), ('sym', ';', 3, 10), ('eof', None, 3, 11)]),
    ('a # trailing words\nb', [('id', 'a', 1, 1), ('id', 'b', 2, 1), ('eof', None, 2, 2)]),
    ('AG !bad # a comment', [('id', 'AG', 1, 1), ('sym', '!', 1, 4), ('id', 'bad', 1, 5), ('eof', None, 1, 9)]),
    ('#AG !a', [('eof', None, 1, 1)]),
    ('a\n# last line, no newline', [('id', 'a', 1, 1), ('eof', None, 2, 1)]),
    ('##\n#', [('eof', None, 2, 1)]),
    ('²', ("unexpected character '²'", 1, 1)),
    ('½', ("unexpected character '½'", 1, 1)),
    ('a²', [('id', 'a²', 1, 1), ('eof', None, 1, 3)]),
    ('٣', [('int', 3, 1, 1), ('eof', None, 1, 2)]),
    ('٣٠ 1', [('int', 30, 1, 1), ('int', 1, 1, 4), ('eof', None, 1, 5)]),
    ('x٣', [('id', 'x٣', 1, 1), ('eof', None, 1, 3)]),
    ('é', [('id', 'é', 1, 1), ('eof', None, 1, 2)]),
    ('café = 1', [('id', 'café', 1, 1), ('sym', '=', 1, 6), ('int', 1, 1, 8), ('eof', None, 1, 9)]),
    ('_x', [('id', '_x', 1, 1), ('eof', None, 1, 3)]),
    ('_', [('id', '_', 1, 1), ('eof', None, 1, 2)]),
    ('3abc', [('int', 3, 1, 1), ('id', 'abc', 1, 2), ('eof', None, 1, 5)]),
    ('12²', ("unexpected character '²'", 1, 3)),
    ('->', [('sym', '->', 1, 1), ('eof', None, 1, 3)]),
    ('-', ("unexpected character '-'", 1, 1)),
    ('- >', ("unexpected character '-'", 1, 1)),
    ('-->', ("unexpected character '-'", 1, 1)),
    ('>=', [('sym', '>=', 1, 1), ('eof', None, 1, 3)]),
    ('>', ("unexpected character '>'", 1, 1)),
    ('> =', ("unexpected character '>'", 1, 1)),
    ('>>=', ("unexpected character '>'", 1, 1)),
    (':=', [('sym', ':=', 1, 1), ('eof', None, 1, 3)]),
    (':', [('sym', ':', 1, 1), ('eof', None, 1, 2)]),
    ('::=', [('sym', ':', 1, 1), ('sym', ':=', 1, 2), ('eof', None, 1, 4)]),
    (': =', [('sym', ':', 1, 1), ('sym', '=', 1, 3), ('eof', None, 1, 4)]),
    ('==', [('sym', '==', 1, 1), ('eof', None, 1, 3)]),
    ('=', [('sym', '=', 1, 1), ('eof', None, 1, 2)]),
    ('===', [('sym', '==', 1, 1), ('sym', '=', 1, 3), ('eof', None, 1, 4)]),
    ('!=', [('sym', '!=', 1, 1), ('eof', None, 1, 3)]),
    ('!', [('sym', '!', 1, 1), ('eof', None, 1, 2)]),
    ('!!=', [('sym', '!', 1, 1), ('sym', '!=', 1, 2), ('eof', None, 1, 4)]),
    ('a->b:c:=d>=1', [('id', 'a', 1, 1), ('sym', '->', 1, 2), ('id', 'b', 1, 4), ('sym', ':', 1, 5), ('id', 'c', 1, 6), ('sym', ':=', 1, 7), ('id', 'd', 1, 9), ('sym', '>=', 1, 10), ('int', 1, 1, 12), ('eof', None, 1, 13)]),
    ('', [('eof', None, 1, 1)]),
    ('\n\n  ', [('eof', None, 3, 3)]),
    ('a\u2028b', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('a\x85b', [('id', 'a', 1, 1), ('id', 'b', 1, 3), ('eof', None, 1, 4)]),
    ('a # c\r\nb', [('id', 'a', 1, 1), ('id', 'b', 2, 1), ('eof', None, 2, 2)]),
    ('x = 1 # no newline', [('id', 'x', 1, 1), ('sym', '=', 1, 3), ('int', 1, 1, 5), ('eof', None, 1, 7)]),
    ('Ⅻ', ("unexpected character 'Ⅻ'", 1, 1)),
    ('①', ("unexpected character '①'", 1, 1)),
    ('a\n\t#\tc', [('id', 'a', 1, 1), ('eof', None, 2, 2)]),
]


@pytest.mark.parametrize("text, expected", GOLDEN)
def test_tokens_golden(text, expected):
    try:
        got = [(tok.kind, tok.value, tok.line, tok.col) for tok in _tokenize(text)]
    except ParseError as exc:
        got = (exc.message, exc.line, exc.col)
    assert got == expected


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("#AG !a", "unexpected end of formula", 1, 1),
        ("AG ! # no newline", "unexpected end of formula", 1, 6),
        ("AG # the operand is missing", "unexpected end of formula", 1, 4),
        ("AG\r\n\t!", "unexpected end of formula", 2, 3),
        ("AG !a²", None, None, None),
        ("AG !²", "unexpected character '²'", 1, 5),
        ("AG ٣", "unexpected token '3'", 1, 4),
    ],
)
def test_formula_errors_at_lexer_edges(text, message, line, col):
    if message is None:
        parse_ctl(text)
        return
    with pytest.raises(ParseError) as err:
        parse_ctl(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
