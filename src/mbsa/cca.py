"""Common cause events: definition language and model weaving.

A common cause is a latched event that occurs nondeterministically at most
once per mission and triggers its member faults, either the same step
(simultaneous) or within per-member step windows (cascading, forced by each
window's upper bound).  Members keep their independent spontaneous
occurrence; an earlier spontaneous occurrence simply stands.

Weaving also rewrites each member's suppression predicate so that restricted
analyses ("only the events in C may occur") still admit occurrences the
common cause forces: a member outside C may become faulty exactly when a
common cause inside C triggers it.
"""

from __future__ import annotations

from fractions import Fraction

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.faults import EventInfo, ExtendedModel
from mbsa.sts.check import TypeError_, type_check
from mbsa.sts.model import (
    BinOp,
    BoolType,
    IntConst,
    IntRangeType,
    Ite,
    Name,
    Next,
    SymbolicModel,
    UnOp,
)
from mbsa.sts.parse import TokenStream, tokenize


class CcaError(InputError):
    pass


class Simultaneous:
    __slots__ = ()


class Cascading:
    __slots__ = ("windows",)

    def __init__(self, windows: tuple[tuple[str, int, int], ...]):
        self.windows = windows  # (member, lo, hi), sorted by member

    def window(self, member: str) -> tuple[int, int]:
        for m, lo, hi in self.windows:
            if m == member:
                return lo, hi
        return 0, 0  # members without an explicit window trigger immediately


class CommonCauseSpec:
    __slots__ = ("id", "members", "pattern", "probability", "where")

    def __init__(self, id: str, members: frozenset[str], pattern: Simultaneous | Cascading,
                 probability: Fraction, where: tuple[str, int, int] = ("<input>", 0, 0)):
        self.id, self.members, self.pattern, self.probability, self.where = id, members, pattern, probability, where

    def error(self, message: str) -> CcaError:
        filename, line, col = self.where
        return CcaError([Diagnostic(message, line, col, filename=filename)])


def parse_cca(text: str, filename: str = "<cca>") -> list[CommonCauseSpec]:
    """Parse common cause definitions.

    Grammar::

        cc ID : members { EVENT , ... } , pattern simultaneous , prob NUMBER ;
        cc ID : members { EVENT , ... } ,
                pattern cascading ( EVENT : [LO,HI] , ... ) , prob NUMBER ;

    Member resolution against an extended model is deferred to
    :func:`apply_cca`.
    """
    ts = TokenStream(tokenize(text, filename), filename)
    out: list[CommonCauseSpec] = []
    seen: set[str] = set()
    while not ts.at_end():
        ts.expect_word("cc")
        id_tok = ts.expect_ident("common cause id")
        if id_tok.text in seen:
            raise ts.error(id_tok, f"duplicate common cause id {id_tok.text!r}", CcaError)
        seen.add(id_tok.text)
        ts.expect(":")
        ts.expect_word("members")
        ts.expect("{")
        members = ts.items(lambda: ts.expect_ident("member event").text)
        ts.expect("}")
        if len(set(members)) != len(members):
            raise ts.error(id_tok, f"duplicate member in common cause {id_tok.text!r}", CcaError)
        if len(members) < 2:
            raise ts.error(id_tok, f"common cause {id_tok.text!r} needs at least 2 members", CcaError)
        ts.expect(",")
        ts.expect_word("pattern")
        if ts.accept_word("simultaneous"):
            pattern: Simultaneous | Cascading = Simultaneous()
        elif ts.accept_word("cascading"):
            ts.expect("(")
            windows = []
            if not ts.at(")"):
                windows = ts.items(lambda: _parse_window(ts, members))
            ts.expect(")")
            pattern = Cascading(tuple(sorted(windows)))
        else:
            ts.fail(f"expected 'simultaneous' or 'cascading', found {ts.cur.text!r}")
        ts.expect(",")
        ts.expect_word("prob")
        prob = ts.probability(CcaError)
        ts.expect(";")
        out.append(CommonCauseSpec(id_tok.text, frozenset(members), pattern, prob, (filename, id_tok.line, id_tok.col)))
    return out


def _parse_window(ts: TokenStream, members: list[str]) -> tuple[str, int, int]:
    m = ts.expect_ident("member event")
    ts.expect(":")
    ts.expect("[")
    lo = ts.number("expected window lower bound")
    ts.expect(",")
    hi_tok = ts.cur
    hi = ts.number("expected window upper bound")
    ts.expect("]")
    if lo > hi:
        raise ts.error(hi_tok, f"window [{lo},{hi}] has lo > hi", CcaError)
    if m.text not in members:
        raise ts.error(m, f"window names non-member {m.text!r}", CcaError)
    return m.text, lo, hi


# ---------------------------------------------------------------------------
# Weaving

def apply_cca(xm: ExtendedModel, specs: list[CommonCauseSpec]) -> ExtendedModel:
    """Weave common cause events into an extended model.

    Per spec: a boolean latch variable occurs nondeterministically at most
    once and is registered as a basic event; simultaneous members turn faulty
    the same step the latch rises; cascading members turn faulty within their
    window after the latch rises (forced by the upper bound).  Overlapping
    member sets are rejected: their composition is undefined.
    """
    if not specs:
        return xm
    governed: dict[str, str] = {}
    ids: set[str] = set()
    for spec in specs:
        if spec.id in xm.events or spec.id in ids:
            raise spec.error(f"common cause id {spec.id!r} clashes with a registered event")
        ids.add(spec.id)
        for m in sorted(spec.members):
            if m not in xm.events:
                raise spec.error(f"common cause {spec.id!r} references unknown event {m!r}")
            if m in governed:
                raise spec.error(f"event {m!r} is governed by both {governed[m]!r} and {spec.id!r}; "
                                 "overlapping common causes are rejected")
            governed[m] = spec.id

    model = xm.model
    variables = list(model.variables)
    init = list(model.init)
    trans = list(model.trans)
    invar = list(model.invar)
    events: dict[str, EventInfo] = dict(xm.events)

    for spec in specs:
        cc = f"cc#{spec.id}"
        variables.append((cc, BoolType()))
        init.append(UnOp("!", Name(cc)))
        trans.append(BinOp("->", Name(cc), Next(cc)))  # latched: at most one occurrence
        if isinstance(spec.pattern, Cascading):
            # steps since the latch rose, saturating one past the widest window
            cap = max((hi for _, _, hi in spec.pattern.windows), default=0) + 1
            age = f"age#{spec.id}"
            variables.append((age, IntRangeType(0, cap)))
            init.append(BinOp("=", Name(age), IntConst(0)))
            inc = BinOp("+", Name(age), IntConst(1))
            trans.append(BinOp(
                "=", Next(age),
                Ite(Next(cc),
                    Ite(Name(cc), Ite(BinOp(">", inc, IntConst(cap)), IntConst(cap), inc), IntConst(0)),
                    IntConst(0))))

        for m in sorted(spec.members):
            info = events[m]
            if isinstance(spec.pattern, Simultaneous):
                # faulty the step the latch rises
                trans.append(BinOp("->", BinOp("&", UnOp("!", Name(cc)), Next(cc)),
                                   BinOp("=", Next(info.mode_var), Name("faulty"))))
                allowance = Name(cc)
            else:
                lo, hi = spec.pattern.window(m)
                # forced by the window's upper bound
                invar.append(BinOp("->", BinOp("&", Name(cc), BinOp("=", Name(age), IntConst(hi))),
                                   BinOp("=", Name(info.mode_var), Name("faulty"))))
                allowance = BinOp("&", Name(cc), BinOp(">=", Name(age), IntConst(lo)))
            events[m] = EventInfo(info.name, info.mode_var, info.occurrence, info.probability,
                                  BinOp("|", info.suppression, allowance))

        events[spec.id] = EventInfo(
            name=spec.id,
            mode_var=cc,
            occurrence=Name(cc),
            probability=spec.probability,
            suppression=UnOp("!", Name(cc)),
        )

    woven = SymbolicModel(model.name, tuple(variables), model.defines,
                          tuple(init), tuple(trans), tuple(invar))
    try:
        typed = type_check(woven)
    except TypeError_ as exc:
        raise CcaError(exc.diagnostics)
    return ExtendedModel(typed, events)

