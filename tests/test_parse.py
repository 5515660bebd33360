from fractions import Fraction

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
    assert m.define_names() == ["d"]
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
