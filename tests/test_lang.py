"""Tests for the mini-C frontend: lexer, parser, types, sema."""

import pytest

from repro.errors import LexError, ParseError, TypeError_
from repro.lang import analyze, parse, tokenize
from repro.lang.ctypes import (
    ArrayType, CHAR, INT, LONG, PointerType, StructType, UINT, ULONG,
    common_int_type, decay,
)


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("int foo while whiley")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword", "ident", "keyword", "ident"]

    def test_numbers(self):
        tokens = tokenize("42 0x2A 10UL 'a' '\\n'")
        assert [t.value for t in tokens[:-1]] == [42, 42, 10, 97, 10]

    def test_strings(self):
        tokens = tokenize(r'"hi\n" "a\"b"')
        assert tokens[0].text == "hi\n"
        assert tokens[1].text == 'a"b'

    def test_maximal_munch(self):
        tokens = tokenize("a<<=b >>= ->")
        assert [t.text for t in tokens[:-1]] == ["a", "<<=", "b", ">>=",
                                                 "->"]

    def test_comments(self):
        tokens = tokenize("a // line\n /* block\n */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int a @ b;")

    def test_line_tracking(self):
        tokens = tokenize("a\nbb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3 and tokens[2].col == 3

    def test_adjacent_string_concatenation(self):
        unit = parse('char *s = "ab" "cd";')
        assert unit.globals[0].init.text == "abcd"

    @pytest.mark.parametrize("source,message,line,col", [
        ("a\n  /* never ends", "unterminated block comment", 2, 3),
        ("int a @ b;", "unexpected character '@'", 1, 7),
        ("\n\n  @", "unexpected character '@'", 3, 3),
        ("x = 'a", "unterminated character literal", 1, 5),
        ("'", "unterminated character literal", 1, 1),
        ("''", "unterminated character literal", 1, 1),
        ("'ab'", "unterminated character literal", 1, 1),
        ("'\\'", "unterminated character literal", 1, 1),
        ("a\tb\n\t/*x\ny*/ 'c", "unterminated character literal", 3, 5),
        ('s = "abc', "unterminated string literal", 1, 5),
        ('"ab\ncd"', "unterminated string literal", 1, 1),
        ("c = '\\q';", "unknown escape \\q", 1, 5),
        ('"a\\qb"', "unknown escape \\q", 1, 1),
        ("'\\", "unknown escape \\", 1, 1),
        ('"abc\\', "unknown escape \\", 1, 1),
        ('"\\\n"', "unknown escape \\\n", 1, 1),
        # mini-C is ASCII outside literals and comments
        ("int x = 0x;", "hex literal '0x' has no digits", 1, 9),
        ("int x = 1²;", "unexpected character '²'", 1, 10),
        ("int é = 1;", "unexpected character 'é'", 1, 5),
        ("int xé;", "unexpected character 'é'", 1, 6),
    ])
    def test_lex_error_position(self, source, message, line, col):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == f"{line}:{col}: {message}"
        assert (info.value.line, info.value.col) == (line, col)

    def test_non_ascii_inside_literals_and_comments(self):
        tokens = tokenize('"é" \'é\' // ²\n/* é */ x')
        assert [(t.kind, t.text, t.value) for t in tokens] == [
            ("string", "é", 0), ("int", "'é'", 0xE9),
            ("ident", "x", 0), ("eof", "", 0)]

    def test_raw_newline_in_char_literal_counts_a_line(self):
        tokens = tokenize("x = '\n' + y;")
        assert [(t.text, t.value, t.line, t.col) for t in tokens] == [
            ("x", 0, 1, 1), ("=", 0, 1, 3), ("'\n'", 10, 1, 5),
            ("+", 0, 2, 3), ("y", 0, 2, 5), (";", 0, 2, 6), ("", 0, 2, 7)]

    def test_literal_edges(self):
        tokens = tokenize("08 0x1g 12abc 1.5 ... .. 10UL 0XffU '''")
        assert [(t.kind, t.text, t.value, t.col) for t in tokens] == [
            ("int", "08", 8, 1), ("int", "0x1", 1, 4), ("ident", "g", 0, 7),
            ("int", "12", 12, 9), ("ident", "abc", 0, 11),
            ("int", "1", 1, 15), ("op", ".", 0, 16), ("int", "5", 5, 17),
            ("op", "...", 0, 19), ("op", ".", 0, 23), ("op", ".", 0, 24),
            ("int", "10UL", 10, 26), ("int", "0XffU", 255, 31),
            ("int", "'''", 39, 37), ("eof", "", 0, 40)]


def _token_corpora():
    """Every source the repository compiles, by family."""
    from repro.fuzz.attacks import TEMPORAL_KINDS, attacks_for
    from repro.fuzz.generator import generate_program, render
    from repro.juliet.cases import generate_cases, generate_temporal_cases
    from repro.workloads import all_workloads

    fuzz = []
    for seed in range(10):
        program = generate_program(seed)
        fuzz.append(program.source)
        for site in program.sites:
            for attack in attacks_for(site, include_temporal=True):
                shape = (attack.sid, attack.index)
                if attack.kind in TEMPORAL_KINDS:
                    shape += (attack.kind,)
                fuzz.append(render(program.spec, shape))
    return {
        "workloads": [w.source(1) for w in all_workloads()],
        "juliet": [case.source for case in generate_cases()],
        "juliet_temporal": [case.source
                            for case in generate_temporal_cases()],
        "fuzz": fuzz,
    }


class TestTokenGolden:
    """The token stream of every shipped source, pinned by digest.

    The digests were taken with the original character-at-a-time lexer;
    any tokenizer must reproduce its ``(kind, text, value, line, col)``
    stream exactly."""

    GOLDEN = {
        "workloads": (18, 9962, "d703e337e8ef83361c2333546edf49c8"
                      "4a2df56adb563c5617e3e638aa7ad043"),
        "juliet": (140, 13784, "9d9543a0fbc15d9a085db1868c774fa0"
                   "17c19a46a011516c535909ddeec1c0fe"),
        "juliet_temporal": (38, 3929, "55faef47b814be7b4106f213839979185"
                            "c965ffc83917ba346c102d8c9366842"),
        "fuzz": (105, 46520, "5ae94b2086645496fa95df30c0b8136252"
                 "da0f5ee0bcb33a41e1c2bbaab7ba4b"),
    }

    def test_token_streams_match(self):
        import hashlib
        for family, sources in _token_corpora().items():
            digest = hashlib.sha256()
            count = 0
            for source in sources:
                tokens = tokenize(source)
                count += len(tokens)
                for t in tokens:
                    digest.update(repr(
                        (t.kind, t.text, t.value, t.line, t.col)).encode())
                digest.update(b"\0")
            assert (len(sources), count, digest.hexdigest()) \
                == self.GOLDEN[family], family


class TestTypes:
    def test_sizes(self):
        assert CHAR.size == 1 and INT.size == 4 and LONG.size == 8
        assert PointerType(INT).size == 8

    def test_struct_layout_alignment(self):
        s = StructType("S").define([
            ("c", CHAR), ("i", INT), ("p", PointerType(CHAR))])
        assert [f.offset for f in s.fields] == [0, 4, 8]
        assert s.size == 16 and s.align == 8

    def test_struct_tail_padding(self):
        s = StructType("S").define([("p", PointerType(CHAR)), ("c", CHAR)])
        assert s.size == 16

    def test_array_type(self):
        a = ArrayType(INT, 5)
        assert a.size == 20 and a.align == 4
        assert decay(a) == PointerType(INT)

    def test_common_int_type(self):
        assert common_int_type(CHAR, CHAR) == INT     # promotion
        assert common_int_type(INT, UINT) == UINT
        assert common_int_type(LONG, UINT) == LONG
        assert common_int_type(INT, ULONG) == ULONG

    def test_int_wrap(self):
        assert INT.wrap(1 << 31) == -(1 << 31)
        assert UINT.wrap(-1) == (1 << 32) - 1

    def test_struct_redefinition_rejected(self):
        s = StructType("S").define([("x", INT)])
        with pytest.raises(ValueError):
            s.define([("y", INT)])


class TestParser:
    def test_struct_and_function(self):
        unit = parse("""
            struct P { int x; int y; };
            int dist(struct P *p) { return p->x + p->y; }
        """)
        assert unit.structs[0].name == "P"
        assert unit.functions[0].name == "dist"

    def test_nested_struct_arrays(self):
        unit = parse("""
            struct Inner { int a; };
            struct Outer { struct Inner grid[3][2]; int tail; };
        """)
        outer = unit.structs[1]
        assert outer.size == 3 * 2 * 4 + 4

    def test_typedef(self):
        unit = parse("""
            typedef unsigned long size_t;
            size_t add(size_t a, size_t b) { return a + b; }
        """)
        assert unit.functions[0].ret == ULONG

    def test_function_pointer_declarator(self):
        unit = parse("int (*handler)(int, int);")
        declared = unit.globals[0].var_type
        assert declared.is_pointer and declared.pointee.is_function
        assert len(declared.pointee.params) == 2

    def test_function_pointer_parameter(self):
        unit = parse("int apply(int (*fn)(int), int x) { return fn(x); }")
        param = unit.functions[0].params[0]
        assert param.type.is_pointer

    def test_array_dimension_constant_folding(self):
        unit = parse("int buf[4 * 8 + sizeof(int)];")
        assert unit.globals[0].var_type.count == 36

    def test_precedence(self):
        unit = parse("int x = 2 + 3 * 4;")
        init = unit.globals[0].init
        assert init.op == "+"
        assert init.right.op == "*"

    def test_do_while(self):
        unit = parse("int f(void) { int i = 0; do { i++; } while (i < 3);"
                     " return i; }")
        assert unit.functions[0].body is not None

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 1 }")

    def test_dangling_else_binds_inner(self):
        unit = parse("int f(int a, int b) {"
                     " if (a) if (b) return 1; else return 2;"
                     " return 3; }")
        outer_if = unit.functions[0].body.body[0]
        assert outer_if.otherwise is None
        assert outer_if.then.otherwise is not None


class TestSema:
    def test_member_offsets_annotated(self):
        program = analyze(parse("""
            struct S { int a; long b; };
            long get(struct S *s) { return s->b; }
        """))
        ret = program.functions["get"].body.body[0]
        assert ret.value.offset == 8

    def test_pointer_arith_types(self):
        program = analyze(parse("""
            long diff(int *a, int *b) { return a - b; }
            int *fwd(int *a, int n) { return a + n; }
        """))
        assert program.functions["diff"].body.body[0].value.ctype == LONG

    def test_string_interning(self):
        program = analyze(parse("""
            char *a = "x";
            char *b = "x";
            char *c = "y";
        """))
        assert len(program.strings) == 2

    def test_undeclared_identifier(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void) { return nope; }"))

    def test_unknown_member(self):
        with pytest.raises(TypeError_):
            analyze(parse("struct S { int a; };"
                          "int f(struct S *s) { return s->b; }"))

    def test_call_arity_checked(self):
        with pytest.raises(TypeError_):
            analyze(parse("int g(int a) { return a; }"
                          "int f(void) { return g(1, 2); }"))

    def test_varargs_allows_extra(self):
        analyze(parse('int f(void) { printf("%d %d", 1, 2); return 0; }'))

    def test_assign_to_rvalue_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(int a) { (a + 1) = 2; return a; }"))

    def test_void_deref_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void *p) { return *p; }"))

    def test_builtin_signatures_available(self):
        program = analyze(parse(
            "int f(void) { void *p = malloc(8); free(p); return 0; }"))
        assert "f" in program.functions

    def test_return_type_mismatch(self):
        # An aggregate cannot be produced from an integer.
        with pytest.raises(TypeError_):
            analyze(parse("struct S { int a; };"
                          "struct S f(struct S *p) { return 5; }"))
        # Integer-to-pointer returns are C-permissive (NULL idiom).
        analyze(parse("struct S { int a; };"
                      "struct S *g(void) { return NULL; }"))

    def test_redefinition_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void) { return 0; }"
                          "int f(void) { return 1; }"))

    def test_break_outside_loop_is_parseable(self):
        # sema leaves loop nesting to codegen; ensure no crash here
        analyze(parse("int f(void) { while (1) { break; } return 0; }"))
