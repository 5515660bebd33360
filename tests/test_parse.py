import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mbsa.faults import EventInfo
from mbsa.sts.check import TypeError_, type_check
from mbsa.sts.model import (
    BinOp, BoolConst, BoolType, EnumType, InSet, IntConst, IntRangeType, IntType, Ite, Name, Next, SymbolicModel,
    UnOp, _Node,
)
from mbsa.sts.parse import ParseError, Token, parse_expr_text, parse_model
from mbsa.tfpg.graph import TfpgEdge
from mbsa.sts.pretty import print_expr, print_model


def test_minimal_model():
    m = parse_model("MODULE m VAR x : boolean; INIT !x; TRANS next(x) = !x;")
    assert len(m.variables) == 1
    assert len(m.init) == 1
    assert len(m.trans) == 1
    assert m.variables[0] == ("x", BoolType())


def test_bounded_integer_model_parses():
    # x+1 at x=3 is an out-of-range next value: rejected at execution, not parse time
    m = parse_model("MODULE m VAR x : 0..3; INIT x = 0; TRANS next(x) = x + 1;")
    assert m.variables[0][1] == IntRangeType(0, 3)
    type_check(m)  # well-typed


def test_sections_accumulate():
    m = parse_model("""MODULE m
VAR x : boolean; y : {A, B};
DEFINE d := x & y = A;
INIT x;
INIT y = A;
TRANS next(x) = x;
INVAR x | y = B;
""")
    assert m.var_names() == ["x", "y"]
    assert [n for n, _ in m.defines] == ["d"]
    assert len(m.init) == 2 and len(m.invar) == 1


def test_comments_and_positions():
    with pytest.raises(ParseError) as err:
        parse_model("MODULE m -- comment\nVAR x : boolean\nINIT x;")
    diag = err.value.diagnostics[0]
    assert diag.line == 3  # the missing ';' is discovered at INIT
    assert "expected" in diag.message


def test_duplicate_declaration():
    with pytest.raises(ParseError) as err:
        parse_model("MODULE m VAR x : boolean; x : 0..1;")
    assert "duplicate" in str(err.value)


def test_literal_clash_is_reported_at_the_literal():
    # the name may be declared before or after the literal, as a variable or a DEFINE
    for text, where in (("MODULE m VAR X : boolean; a : {X, Y};", (1, 32)),
                        ("MODULE m VAR a : {Y, X};\nDEFINE X := TRUE;", (1, 22)),
                        ("MODULE m VAR a : {X, Y};\n  b : {Z, X};\nDEFINE Z := TRUE;\n  X := FALSE;", (1, 19))):
        with pytest.raises(ParseError) as err:
            parse_model(text, "m.smx")
        (diag,) = err.value.diagnostics
        assert (diag.line, diag.col, diag.filename) == (*where, "m.smx")
        assert diag.message.endswith("clashes with a declared name")


def test_repeated_enumeration_literal_is_reported_at_the_repetition():
    with pytest.raises(ParseError) as err:
        parse_model("MODULE m VAR a : {X, Y, Y, X};", "m.smx")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col, diag.message) == (1, 25, "duplicate enumeration literal")


def test_type_check_refuses_a_literal_that_clashes_with_a_declared_name():
    # a model built in code reaches the checker without the parser's check
    model = SymbolicModel("m", (("X", BoolType()), ("a", EnumType(("X", "Y")))), (), (), (), ())
    with pytest.raises(TypeError_) as err:
        type_check(model)
    assert [d.message for d in err.value.diagnostics] == ["enumeration literal 'X' clashes with a declared name"]


def test_unknown_character():
    with pytest.raises(ParseError):
        parse_model("MODULE m VAR x : boolean; INIT x @ 1;")


def test_empty_range_rejected():
    with pytest.raises(ParseError):
        parse_model("MODULE m VAR x : 5..2;")


def test_expression_precedence():
    e = parse_expr_text("a | b & c -> d <-> e")
    # <-> loosest, then ->, then |, then &
    assert isinstance(e, BinOp) and e.op == "<->"
    assert isinstance(e.left, BinOp) and e.left.op == "->"
    assert isinstance(e.left.left, BinOp) and e.left.left.op == "|"
    assert isinstance(e.left.left.right, BinOp) and e.left.left.right.op == "&"


def test_ternary_and_membership():
    e = parse_expr_text("x = 1 ? y : z")
    assert isinstance(e, Ite)
    e2 = parse_expr_text("m in {A, B, C}")
    assert isinstance(e2, InSet) and len(e2.members) == 3


def test_real_literal_rejected_in_expressions():
    with pytest.raises(ParseError):
        parse_expr_text("x + 0.5")


def test_hash_and_dot_identifiers():
    e = parse_expr_text("mode#ev = faulty & sensor1.out")
    names = {n.name for n in [e.left.left, e.left.right, e.right] if isinstance(n, Name)}
    assert "sensor1.out" in names


# -- round trips -------------------------------------------------------------

def test_model_round_trip():
    text = """MODULE demo
VAR
  mode : {P, S1, S2};
  b : 0..3;
DEFINE
  low := b <= 1;
INIT mode = P & b = 3;
TRANS next(b) = (mode = P & b > 0 ? b - 1 : b);
INVAR b >= 0;
"""
    m = parse_model(text)
    assert parse_model(print_model(m)) == m
    # printing is a fixpoint
    assert print_model(parse_model(print_model(m))) == print_model(m)


_names = st.sampled_from(["a", "b", "n", "m", "lit_one", "x#f"])


def _exprs():
    base = st.one_of(
        st.booleans().map(BoolConst),
        st.integers(min_value=0, max_value=9).map(IntConst),
        _names.map(Name),
        _names.map(Next),
    )

    def extend(children):
        binops = st.sampled_from(["&", "|", "->", "<->", "=", "!=", "<", "<=", ">", ">=", "+", "-"])
        return st.one_of(
            st.tuples(st.sampled_from(["!", "-"]), children).map(lambda t: UnOp(*t)),
            st.tuples(binops, children, children).map(lambda t: BinOp(*t)),
            st.tuples(children, children, children).map(lambda t: Ite(*t)),
            st.tuples(children, st.lists(st.one_of(
                st.booleans().map(BoolConst),
                st.integers(min_value=0, max_value=9).map(IntConst),
                _names.map(Name)), min_size=1, max_size=3).map(tuple)).map(lambda t: InSet(*t)),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=150, deadline=None)
def test_expr_print_parse_round_trip(e):
    assert parse_expr_text(print_expr(e)) == e


def test_type_errors_are_reported():
    m = parse_model("MODULE m VAR x : boolean; INIT x = 3;")
    with pytest.raises(TypeError_) as err:
        type_check(m)
    assert "compare" in str(err.value)


def test_next_outside_trans_rejected():
    m = parse_model("MODULE m VAR x : boolean; INIT next(x);")
    with pytest.raises(TypeError_) as err:
        type_check(m)
    assert "next()" in str(err.value)


def test_cyclic_define_rejected():
    m = parse_model("MODULE m VAR x : boolean; DEFINE a := b; b := a; INIT x;")
    with pytest.raises(TypeError_) as err:
        type_check(m)
    assert "cyclic" in str(err.value)


def test_unknown_identifier():
    m = parse_model("MODULE m VAR x : boolean; INIT y;")
    with pytest.raises(TypeError_) as err:
        type_check(m)
    assert "unknown identifier" in str(err.value)


def test_enum_literal_context_resolution():
    m = parse_model("MODULE m VAR s : {A, B}; t : {A, C}; INIT s = A & t = A;")
    type_check(m)  # shared literal resolves against each variable's type


def test_diagnostic_format():
    from mbsa.diagnostics import Diagnostic
    d = Diagnostic("boom", 3, 7, filename="model.smx")
    assert str(d) == "model.smx:3:7: error: boom"


def _event(name):
    return EventInfo(name, f"mode#{name}", Name("x"), Fraction(1, 10), Name("y"))


# (a, b, a == b).  Expression nodes and models compare by structure and are
# unhashable; positions and inferred types never take part.  Types and TFPG
# edges compare and hash by value.  Every other record is hashable.
RECORDS = [
    (Name("x"), Next("x"), False),
    (BoolConst(True), IntConst(1), False),
    (Name("x", line=1, col=2, ty=BoolType()), Name("x", line=3, col=4), True),
    (IntConst(1, ty=IntType()), IntConst(1), True),
    (BinOp("&", Name("a"), Name("b"), line=5), BinOp("&", Name("a", col=9), Name("b")), True),
    (BinOp("&", Name("a"), Name("b")), BinOp("|", Name("a"), Name("b")), False),
    (UnOp("!", Name("a")), UnOp("-", Name("a")), False),
    (Ite(Name("c"), IntConst(1), IntConst(2)), Ite(Name("c", line=2), IntConst(1), IntConst(2)), True),
    (InSet(Name("m"), (Name("A"), Name("B")), line=2), InSet(Name("m"), (Name("A"), Name("B", col=3))), True),
    (InSet(Name("m"), (Name("A"),)), InSet(Name("m"), (Name("B"),)), False),
    (SymbolicModel("m", (("x", BoolType()),), init=(Name("x", line=1),)),
     SymbolicModel("m", (("x", BoolType()),), init=(Name("x", line=2),)), True),
    (SymbolicModel("m", (("x", BoolType()),)), SymbolicModel("n", (("x", BoolType()),)), False),
    (BoolType(), IntType(), False),
    (BoolType(), BoolType(), True),
    (IntType(), IntType(), True),
    (EnumType(("A", "B")), EnumType(("A", "B")), True),
    (EnumType(("A", "B")), EnumType(("B", "A")), False),
    (IntRangeType(0, 3), IntRangeType(0, 3), True),
    (IntRangeType(0, 3), IntRangeType(1, 3), False),
    (TfpgEdge("a", "b", 1, None, frozenset({"P"})), TfpgEdge("a", "b", 1, None, frozenset({"P"})), True),
    (TfpgEdge("a", "b", 1, None, None), TfpgEdge("a", "b", 1, 4, None), False),
    (_event("e"), _event("f"), False),
    (Token("ident", "x", 1, 1), Token("ident", "y", 1, 2), False),
]


@pytest.mark.parametrize("a, b, equal", RECORDS)
def test_record_semantics(a, b, equal):
    assert (a == b) is equal and (a != b) is not equal
    if isinstance(a, (_Node, SymbolicModel)):
        for r in (a, b):
            with pytest.raises(TypeError):
                hash(r)
    else:
        members = {a, b}
        assert a in members and b in members and len(members) == (1 if equal else 2)


@pytest.mark.parametrize("make", [
    lambda: EnumType(()),
    lambda: EnumType(("A", "B", "A")),
    lambda: IntRangeType(3, 1),
])
def test_empty_or_repeated_type_rejected(make):
    with pytest.raises(ValueError):
        make()


# -- the grammar, pinned --------------------------------------------------------
#
# goldens/grammar_cases.json maps each input to the tree it parses to (every
# node's kind, position and fields) and its printed text, or to the parse
# diagnostics.  A change to any operator's level or grouping changes an entry.

GRAMMAR_GOLDEN = Path(__file__).resolve().parent / "goldens" / "grammar_cases.json"

BINARY = ["<->", "->", "|", "&", "=", "!=", "<", "<=", ">", ">=", "+", "-"]
# the 14 operator forms, each with a left and a right operand hole
FORMS = [f"{{}} {op} {{}}" for op in BINARY] + ["{} in {{{}}}", "{} ? p : {}"]
MALFORMED = [
    "a = b = c", "a < b > c", "a in {x} = b", "a = b in {x}", "a in {x} in {y}", "a in {}", "a in {x y}",
    "a in {-1}", "a ? b", "a ? b : c : d", "? a : b", "a ? : b", "a &", "(a", "a)", "next(a", "next(a & b)",
    "--a", "a\n  <-> b\n  <->", "a ->\n  b -> c",
]


def grammar_cases() -> list[str]:
    cases = []
    for outer in FORMS:
        for inner in FORMS:
            cases += [outer.format(inner.format("a", "b"), "c"), outer.format(f"({inner.format('a', 'b')})", "c"),
                      outer.format("a", inner.format("b", "c")), outer.format("a", f"({inner.format('b', 'c')})")]
    cases += [f"a {x} b {y} c {z} d" for x in BINARY for y in BINARY for z in BINARY]
    cases += [form.format(*operands) for form in FORMS for u in "!-" for operands in ((u + "a", "b"), ("a", u + "b"))]
    cases += ["!!a", "- -a", "-!a", "!-a", "!(a & b)", "-(a + b)", "!next(a) = -1"]
    return list(dict.fromkeys(cases + MALFORMED))


def _tree(e) -> str:
    parts = [f"{type(e).__name__}@{e.line}:{e.col}"]
    for field in e._fields:
        v = getattr(e, field)
        parts.append("{" + " ".join(map(_tree, v)) + "}" if isinstance(v, tuple)
                     else _tree(v) if isinstance(v, _Node) else str(v))
    return f"({' '.join(parts)})"


def observe_grammar(text: str) -> dict:
    try:
        e = parse_expr_text(text)
    except ParseError as exc:
        return {"diagnostics": [[d.message, d.line, d.col] for d in exc.diagnostics]}
    return {"tree": _tree(e), "printed": print_expr(e)}


def render_grammar_golden() -> str:
    """The golden's text: one case per line."""
    lines = [f" {json.dumps(text)}: {json.dumps(observe_grammar(text), sort_keys=True)}"
             for text in sorted(grammar_cases())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_grammar_matches_golden():
    golden = json.loads(GRAMMAR_GOLDEN.read_text())
    assert sorted(golden) == sorted(grammar_cases())
    assert {text: observed for text in golden if (observed := observe_grammar(text)) != golden[text]} == {}


if __name__ == "__main__":
    # re-record the grammar golden: PYTHONPATH=src python tests/test_parse.py
    GRAMMAR_GOLDEN.write_text(render_grammar_golden())
