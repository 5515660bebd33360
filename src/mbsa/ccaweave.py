"""Common cause events: definition language and model weaving.

A common cause (``mbsa.cca.CommonCauseSpec``) triggers its member faults the
step its latch rises (simultaneous) or within per-member step windows
(cascading).  Members keep their independent spontaneous occurrence; an
earlier spontaneous occurrence simply stands.

Weaving also rewrites each member's suppression predicate so that restricted
analyses ("only the events in C may occur") still admit occurrences the
common cause forces: a member outside C may become faulty exactly when a
common cause inside C triggers it.
"""

from __future__ import annotations

from mbsa.cca import Cascading, CcaError, CommonCauseSpec, Simultaneous
from mbsa.sts.model import (
    BinOp,
    BoolType,
    IntConst,
    IntRangeType,
    Ite,
    Name,
    Next,
    UnOp,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from mbsa.faults import ExtendedModel
    from mbsa.sts.parse import TokenStream


def parse_cca(text: str, filename: str = "<cca>") -> list[CommonCauseSpec]:
    """Parse common cause definitions.

    Grammar::

        cc ID : members { EVENT , ... } , pattern simultaneous , prob NUMBER ;
        cc ID : members { EVENT , ... } ,
                pattern cascading ( EVENT : [LO,HI] , ... ) , prob NUMBER ;

    Member resolution against an extended model is deferred to
    :func:`apply_cca`.
    """
    # the reader, extension and checker are imported on use, not at the top:
    # the layer tracer loads this module into jobs that weave nothing
    from mbsa.sts.parse import TokenStream, tokenize

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
        member_toks = ts.items(lambda: ts.expect_ident("member event"))
        ts.expect("}")
        members = [t.text for t in member_toks]
        for i, t in enumerate(member_toks):
            if t.text in members[:i]:
                raise ts.error(t, f"duplicate member in common cause {id_tok.text!r}", CcaError)
        if len(members) < 2:
            raise ts.error(id_tok, f"common cause {id_tok.text!r} needs at least 2 members", CcaError)
        ts.expect(",")
        ts.expect_word("pattern")
        if ts.accept_word("simultaneous"):
            pattern: Simultaneous | Cascading = Simultaneous()
        elif ts.accept_word("cascading"):
            ts.expect("(")
            windows: dict[str, tuple[int, int]] = {}
            if not ts.at(")"):
                ts.items(lambda: _parse_window(ts, members, windows))
            ts.expect(")")
            pattern = Cascading(windows)
        else:
            ts.fail(f"expected 'simultaneous' or 'cascading', found {ts.cur.text!r}")
        ts.expect(",")
        ts.expect_word("prob")
        prob = ts.probability(CcaError)
        ts.expect(";")
        out.append(CommonCauseSpec(id_tok.text, frozenset(members), pattern, prob, (filename, id_tok.line, id_tok.col)))
    return out


def _parse_window(ts: TokenStream, members: list[str], windows: dict[str, tuple[int, int]]):
    """Read ``EVENT : [LO,HI]`` into ``windows``."""
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
    if m.text in windows:
        raise ts.error(m, f"member {m.text!r} has more than one window", CcaError)
    windows[m.text] = lo, hi


# ---------------------------------------------------------------------------
# Weaving

def apply_cca(xm: ExtendedModel, specs: list[CommonCauseSpec]) -> ExtendedModel:
    """Weave common cause events into an extended model.

    Per spec: a boolean latch variable ``cc#<id>``, which the model must not
    declare, occurs nondeterministically at most once and is registered as a
    basic event; simultaneous members turn faulty the same step the latch
    rises; cascading members turn faulty within their window after the latch
    rises (forced by the upper bound), counted by a fresh ``age#<id>``.
    Overlapping member sets are rejected: their composition is undefined.
    """
    if not specs:
        return xm
    from mbsa.faults import EventInfo, ExtendedModel, ModelBuilder

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

    b = ModelBuilder(xm.model)
    events: dict[str, EventInfo] = dict(xm.events)

    for spec in specs:
        cc = f"cc#{spec.id}"
        if not b.claim(cc):
            raise spec.error(f"{cc!r}, the latch variable of common cause {spec.id!r}, is already declared")
        b.variables.append((cc, BoolType()))
        b.init.append(UnOp("!", Name(cc)))
        b.trans.append(BinOp("->", Name(cc), Next(cc)))  # latched: at most one occurrence
        if isinstance(spec.pattern, Cascading):
            # steps since the latch rose, saturating one past the widest window
            cap = max((hi for _, hi in spec.pattern.windows.values()), default=0) + 1
            age = b.fresh(f"age#{spec.id}")
            b.variables.append((age, IntRangeType(0, cap)))
            b.init.append(BinOp("=", Name(age), IntConst(0)))
            inc = BinOp("+", Name(age), IntConst(1))
            b.trans.append(BinOp(
                "=", Next(age),
                Ite(Next(cc),
                    Ite(Name(cc), Ite(BinOp(">", inc, IntConst(cap)), IntConst(cap), inc), IntConst(0)),
                    IntConst(0))))

        for m in sorted(spec.members):
            info = events[m]
            if isinstance(spec.pattern, Simultaneous):
                # faulty the step the latch rises
                b.trans.append(BinOp("->", BinOp("&", UnOp("!", Name(cc)), Next(cc)),
                                     BinOp("=", Next(info.mode_var), Name("faulty"))))
                allowance = Name(cc)
            else:
                lo, hi = spec.pattern.windows.get(m, (0, 0))
                # forced by the window's upper bound
                b.invar.append(BinOp("->", BinOp("&", Name(cc), BinOp("=", Name(age), IntConst(hi))),
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
    return ExtendedModel(b.check(), events)
