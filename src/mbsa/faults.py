"""Fault library, extension instructions, and automatic model extension.

Extension displaces a target symbol ``t`` to a fresh carrier ``t#nominal``
that keeps the nominal dynamics, adds a per-event mode variable with the
requested temporal dynamics, and redefines ``t`` as the faulty wrap

    t := (mode#event = faulty) ? effect : t#nominal

so every reader of ``t`` (including the nominal model's own current-state
reads) observes the possibly-faulted value, while the constraints that drive
``t`` (its INIT occurrences and ``next(t)`` occurrences in TRANS) keep
driving the displaced nominal carrier.  Multiple instructions on one target
compose in instruction order; later wraps displace earlier ones.
"""

from __future__ import annotations

from fractions import Fraction

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.sts.check import TypeError_, TypedModel, type_check
from mbsa.sts.model import (
    BinOp,
    BoolConst,
    BoolType,
    EnumType,
    Expr,
    IntConst,
    IntRangeType,
    IntType,
    Ite,
    Name,
    Next,
    SymbolicModel,
    TypeSpec,
    UnOp,
    substitute,
    walk,
)
from mbsa.sts.parse import Token, TokenStream, parse_expr, tokenize


class FaultDefinitionError(InputError):
    pass


class ExtensionError(InputError):
    pass


class TemplateParam:
    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str):
        self.name, self.kind = name, kind  # kind: "value" | "expr"


class FaultTemplate:
    """A parameterized fault effect over the reserved symbol ``nominal``."""

    __slots__ = ("name", "params", "applies_to", "effect", "builtin")

    def __init__(self, name: str, params: tuple[TemplateParam, ...], applies_to: str, effect: Expr | None,
                 builtin: bool = False):
        self.name, self.params = name, params
        self.applies_to = applies_to  # "boolean" | "int" | "enum" | "any"
        self.effect = effect  # None for built-ins that need auxiliary state
        self.builtin = builtin


class DynamicsTemplate:
    """How a fault's mode variable may evolve, as a TRANS schema over ``mode``."""

    __slots__ = ("name", "constraint", "builtin")

    def __init__(self, name: str, constraint: Expr, builtin: bool = False):
        self.name, self.constraint, self.builtin = name, constraint, builtin


class FaultLibrary:
    __slots__ = ("templates", "dynamics")

    def __init__(self, templates: dict[str, FaultTemplate], dynamics: dict[str, DynamicsTemplate]):
        self.templates, self.dynamics = templates, dynamics


class ExtensionInstruction:
    __slots__ = ("event", "target", "template", "args", "dynamics", "probability")

    def __init__(self, event: str, target: str, template: str, args: tuple[Expr, ...], dynamics: str,
                 probability: Fraction):
        self.event, self.target, self.template, self.args = event, target, template, args
        self.dynamics, self.probability = dynamics, probability


class EventInfo:
    """Registry entry for one fault event of an extended model.

    ``occurrence`` holds while the fault is active; ``suppression`` is the
    invariant that forbids the event in restricted analyses (it still permits
    occurrences forced by a common cause once the cca module rewrites it).
    """

    __slots__ = ("name", "mode_var", "occurrence", "probability", "suppression")

    def __init__(self, name: str, mode_var: str | None, occurrence: Expr, probability: Fraction,
                 suppression: Expr):
        self.name, self.mode_var, self.occurrence = name, mode_var, occurrence
        self.probability, self.suppression = probability, suppression


class ExtendedModel:
    __slots__ = ("typed", "events")

    def __init__(self, typed: TypedModel, events: dict[str, EventInfo] | None = None):
        self.typed = typed
        self.events = {} if events is None else events

    @property
    def model(self) -> SymbolicModel:
        return self.typed.model


# ---------------------------------------------------------------------------
# Built-in library

def _builtin_library() -> FaultLibrary:
    nominal = Name("nominal")
    templates = {
        "stuck_at": FaultTemplate("stuck_at", (TemplateParam("v", "value"),), "any", Name("v"), builtin=True),
        "inverted": FaultTemplate("inverted", (), "boolean", UnOp("!", nominal), builtin=True),
        "random": FaultTemplate("random", (), "any", None, builtin=True),
        "conditional": FaultTemplate(
            "conditional",
            (TemplateParam("guard", "expr"), TemplateParam("effect", "expr")),
            "any",
            Ite(Name("guard"), Name("effect"), nominal),
            builtin=True,
        ),
        "ramp_down": FaultTemplate("ramp_down", (TemplateParam("step", "value"),), "int", None, builtin=True),
    }
    mode = Name("mode")
    faulty = Name("faulty")
    dynamics = {
        "permanent": DynamicsTemplate(
            "permanent", BinOp("->", BinOp("=", mode, faulty), BinOp("=", Next("mode"), faulty)), builtin=True),
        "sporadic": DynamicsTemplate("sporadic", BoolConst(True), builtin=True),
        "transient": DynamicsTemplate(
            "transient", BinOp("->", BinOp("=", mode, faulty), BinOp("=", Next("mode"), Name("nominal"))),
            builtin=True),
    }
    return FaultLibrary(templates, dynamics)


_KINDS = ("boolean", "int", "enum", "any")


def load_fault_library(text: str = "", filename: str = "<flib>") -> FaultLibrary:
    """Built-in templates and dynamics, merged with user definitions.

    User text declares ``template name(p : value, q : expr) for kind := effect;``
    and ``dynamics name := constraint;`` entries.  Redefining a built-in is an
    error; effects are fully type-checked at instantiation time against the
    concrete target.
    """
    lib = _builtin_library()
    ts = TokenStream(tokenize(text, filename), filename)
    while ts.cur.kind != "eof":
        t = ts.cur
        if t.kind == "ident" and t.text == "template":
            ts.advance()
            name_tok = ts.expect_ident("template name")
            params: list[TemplateParam] = []
            if ts.accept("("):
                if not ts.at(")"):
                    params = ts.items(lambda: _parse_param(ts))
                ts.expect(")")
            if not (ts.cur.kind == "ident" and ts.cur.text == "for"):
                ts.fail("expected 'for <boolean|int|enum|any>'")
            ts.advance()
            kind = ts.cur
            if not ((kind.kind in ("ident", "kw")) and kind.text in _KINDS):
                ts.fail(f"applicability must be one of {_KINDS}")
            ts.advance()
            ts.expect(":=")
            effect = parse_expr(ts)
            ts.expect(";")
            _validate_template(name_tok, params, effect, lib, filename)
            lib.templates[name_tok.text] = FaultTemplate(
                name_tok.text, tuple(params), kind.text, effect)
        elif t.kind == "ident" and t.text == "dynamics":
            ts.advance()
            name_tok = ts.expect_ident("dynamics name")
            ts.expect(":=")
            constraint = parse_expr(ts)
            ts.expect(";")
            if name_tok.text in lib.dynamics and lib.dynamics[name_tok.text].builtin:
                raise FaultDefinitionError([Diagnostic(
                    f"cannot redefine built-in dynamics {name_tok.text!r}",
                    name_tok.line, name_tok.col, filename=filename)])
            for node in walk(constraint):
                if isinstance(node, Name) and node.name not in ("mode", "nominal", "faulty"):
                    raise FaultDefinitionError([Diagnostic(
                        f"dynamics may only reference 'mode' and the literals nominal/faulty, found {node.name!r}",
                        node.line, node.col, filename=filename)])
                if isinstance(node, Next) and node.name != "mode":
                    raise FaultDefinitionError([Diagnostic(
                        "dynamics may only apply next() to 'mode'", node.line, node.col, filename=filename)])
            lib.dynamics[name_tok.text] = DynamicsTemplate(name_tok.text, constraint)
        else:
            ts.fail(f"expected 'template' or 'dynamics', found {t.text!r}")
    return lib


def _parse_param(ts: TokenStream) -> TemplateParam:
    p = ts.expect_ident("parameter name")
    ts.expect(":")
    kind_tok = ts.expect_ident("parameter kind (value or expr)")
    if kind_tok.text not in ("value", "expr"):
        ts.fail(f"parameter kind must be 'value' or 'expr', got {kind_tok.text!r}")
    return TemplateParam(p.text, kind_tok.text)


def _validate_template(name_tok: Token, params: list[TemplateParam], effect: Expr,
                       lib: FaultLibrary, filename: str):
    if name_tok.text in lib.templates and lib.templates[name_tok.text].builtin:
        raise FaultDefinitionError([Diagnostic(
            f"cannot redefine built-in template {name_tok.text!r}", name_tok.line, name_tok.col,
            filename=filename)])
    if len({p.name for p in params}) != len(params):
        raise FaultDefinitionError([Diagnostic(
            "duplicate template parameter", name_tok.line, name_tok.col, filename=filename)])
    for node in walk(effect):
        if isinstance(node, Next):
            raise FaultDefinitionError([Diagnostic(
                "template effects are current-state expressions", node.line, node.col, filename=filename)])


# ---------------------------------------------------------------------------
# Fault extension instructions

def parse_fei(text: str, filename: str = "<fei>") -> list[ExtensionInstruction]:
    """Parse fault extension instructions.

    Grammar (one instruction per ``fault`` clause)::

        fault EVENT : target NAME , template NAME [ ( arg , ... ) ] ,
                      dynamics NAME , prob NUMBER ;

    Name resolution against the model and library happens in
    :func:`extend_model`; only local problems (duplicate event names,
    probabilities outside [0,1]) are rejected here.
    """
    ts = TokenStream(tokenize(text, filename), filename)
    out: list[ExtensionInstruction] = []
    seen: set[str] = set()
    while ts.cur.kind != "eof":
        ts.expect_word("fault")
        ev = ts.expect_ident("event name")
        if ev.text in seen:
            raise FaultDefinitionError([Diagnostic(
                f"duplicate event name {ev.text!r}", ev.line, ev.col, filename=filename)])
        seen.add(ev.text)
        ts.expect(":")
        ts.expect_word("target")
        target = ts.expect_ident("target name").text
        ts.expect(",")
        ts.expect_word("template")
        template = ts.expect_ident("template name").text
        args: list[Expr] = []
        if ts.accept("("):
            if not ts.at(")"):
                args = ts.items(lambda: parse_expr(ts))
            ts.expect(")")
        ts.expect(",")
        ts.expect_word("dynamics")
        dynamics = ts.expect_ident("dynamics name").text
        ts.expect(",")
        ts.expect_word("prob")
        prob_tok = ts.cur
        if prob_tok.kind not in ("num", "real"):
            ts.fail(f"expected probability literal, found {prob_tok.text!r}")
        ts.advance()
        prob = Fraction(prob_tok.text)
        if not (0 <= prob <= 1):
            raise FaultDefinitionError([Diagnostic(
                f"probability {prob_tok.text} outside [0,1]", prob_tok.line, prob_tok.col, filename=filename)])
        ts.expect(";")
        out.append(ExtensionInstruction(ev.text, target, template, tuple(args), dynamics, prob))
    return out


# ---------------------------------------------------------------------------
# Model extension

_MODE_TYPE = EnumType(("nominal", "faulty"))


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _applicable(kind: str, ty) -> bool:
    if kind == "any":
        return True
    if kind == "boolean":
        return isinstance(ty, BoolType)
    if kind == "int":
        return isinstance(ty, IntRangeType)
    if kind == "enum":
        return isinstance(ty, EnumType)
    return False


def extend_model(nominal: TypedModel, library: FaultLibrary,
                 instructions: list[ExtensionInstruction]) -> ExtendedModel:
    """Weave fault events into a nominal model; returns the extended model.

    The result is a conservative extension: restricted to traces where every
    mode variable stays nominal, its projection onto the nominal variables is
    exactly the nominal trace set.
    """
    model = nominal.model
    variables = list(model.variables)
    defines = list(model.defines)
    init = list(model.init)
    trans = list(model.trans)
    invar = list(model.invar)
    events: dict[str, EventInfo] = {}
    # a target keeps the type it had when first resolved: after a wrap a
    # target of a finite integer range is a define of abstract integer type
    target_types: dict[str, TypeSpec] = {}

    for ins in instructions:
        taken = {n for n, _ in variables} | {n for n, _ in defines}
        # resolve target and its type against the evolving model
        current = SymbolicModel(model.name, tuple(variables), tuple(defines),
                                tuple(init), tuple(trans), tuple(invar))
        try:
            cur_tm = type_check(current)
        except TypeError_ as exc:  # pragma: no cover - earlier instruction produced bad model
            raise ExtensionError(exc.diagnostics)

        var_names = {n: i for i, (n, _) in enumerate(variables)}
        define_names = {n: i for i, (n, _) in enumerate(defines)}
        if ins.target in var_names:
            target_ty = variables[var_names[ins.target]][1]
        elif ins.target in define_names:
            target_ty = cur_tm.defines[ins.target].ty
            if target_ty is None:
                target_ty = cur_tm.check_expr(defines[define_names[ins.target]][1]).ty
        else:
            raise ExtensionError([Diagnostic(
                f"unknown extension target {ins.target!r} (event {ins.event})")])
        target_ty = target_types.setdefault(ins.target, target_ty)

        template = library.templates.get(ins.template)
        if template is None:
            raise ExtensionError([Diagnostic(f"unknown fault template {ins.template!r} (event {ins.event})")])
        dyn = library.dynamics.get(ins.dynamics)
        if dyn is None:
            raise ExtensionError([Diagnostic(f"unknown dynamics {ins.dynamics!r} (event {ins.event})")])
        if not _applicable(template.applies_to, target_ty):
            raise ExtensionError([Diagnostic(
                f"template {ins.template!r} does not apply to {ins.target!r} of type {target_ty} "
                f"(event {ins.event})")])
        if len(ins.args) != len(template.params):
            raise ExtensionError([Diagnostic(
                f"template {ins.template!r} takes {len(template.params)} argument(s), "
                f"got {len(ins.args)} (event {ins.event})")])
        for param, arg in zip(template.params, ins.args):
            if param.kind == "value" and not isinstance(arg, (BoolConst, IntConst, Name)):
                raise ExtensionError([Diagnostic(
                    f"argument for value parameter {param.name!r} must be a literal (event {ins.event})")])

        # (a) displace the defining occurrence of the target
        carrier = _fresh(f"{ins.target}#nominal", taken)
        taken.add(carrier)
        if ins.target in var_names:
            idx = var_names[ins.target]
            variables[idx] = (carrier, target_ty)
            ren = {ins.target: Name(carrier)}
            init = [substitute(e, ren) for e in init]
            invar = [substitute(e, ren) for e in invar]
            trans = [substitute(e, {}, {ins.target: carrier}) for e in trans]
        else:
            idx = define_names[ins.target]
            defines[idx] = (carrier, defines[idx][1])

        # (b) mode variable with the requested dynamics
        mode_var = f"mode#{ins.event}"
        if mode_var in taken:
            raise ExtensionError([Diagnostic(f"duplicate event name {ins.event!r}")])
        variables.append((mode_var, _MODE_TYPE))
        init.append(BinOp("=", Name(mode_var), Name("nominal")))
        dyn_constraint = substitute(dyn.constraint, {"mode": Name(mode_var)}, {"mode": mode_var})
        if not isinstance(dyn_constraint, BoolConst) or not dyn_constraint.value:
            trans.append(dyn_constraint)

        # (c) the faulty wrap
        effect = _instantiate_effect(template, ins, carrier, target_ty, variables, init, trans, taken)
        wrap = Ite(BinOp("=", Name(mode_var), Name("faulty")), effect, Name(carrier))
        defines.append((ins.target, wrap))

        # (d) registry
        occurrence = BinOp("=", Name(mode_var), Name("faulty"))
        suppression = BinOp("=", Name(mode_var), Name("nominal"))
        events[ins.event] = EventInfo(ins.event, mode_var, occurrence, ins.probability, suppression)

    extended = SymbolicModel(model.name, tuple(variables), tuple(defines),
                             tuple(init), tuple(trans), tuple(invar))
    try:
        typed = type_check(extended)
    except TypeError_ as exc:
        raise ExtensionError(exc.diagnostics)
    return ExtendedModel(typed, events)


def _instantiate_effect(template: FaultTemplate, ins: ExtensionInstruction, carrier: str,
                        target_ty, variables: list, init: list, trans: list, taken: set[str]) -> Expr:
    if template.name == "random" and template.builtin:
        if isinstance(target_ty, IntType):
            raise ExtensionError([Diagnostic(
                f"random needs a target with a finite domain; {ins.target!r} has type {target_ty} "
                f"(event {ins.event})")])
        rnd = _fresh(f"choice#{ins.event}", taken)
        taken.add(rnd)
        variables.append((rnd, target_ty))  # unconstrained: a fresh value every step
        return Name(rnd)
    if template.name == "ramp_down" and template.builtin:
        if not isinstance(target_ty, IntRangeType):
            raise ExtensionError([Diagnostic(f"ramp_down applies to bounded integers (event {ins.event})")])
        step = ins.args[0]
        if not isinstance(step, IntConst) or step.value <= 0:
            raise ExtensionError([Diagnostic(f"ramp_down step must be a positive integer (event {ins.event})")])
        span = target_ty.hi - target_ty.lo
        drop = _fresh(f"drop#{ins.event}", taken)
        taken.add(drop)
        variables.append((drop, IntRangeType(0, span)))
        init.append(BinOp("=", Name(drop), IntConst(0)))
        mode_var = f"mode#{ins.event}"
        # the drop accumulates while faulty and saturates once it pins the
        # effect to the lower bound; it never resets
        inc = BinOp("+", Name(drop), IntConst(step.value))
        trans.append(BinOp(
            "=", Next(drop),
            Ite(BinOp("=", Next(mode_var), Name("faulty")),
                Ite(BinOp(">", inc, IntConst(span)), IntConst(span), inc),
                Name(drop))))
        diff = BinOp("-", Name(carrier), Name(drop))
        return Ite(BinOp("<", diff, IntConst(target_ty.lo)), IntConst(target_ty.lo), diff)
    binding = {p.name: a for p, a in zip(template.params, ins.args)}
    binding["nominal"] = Name(carrier)
    return substitute(template.effect, binding)
