"""Fault library, extension instructions, and automatic model extension.

The built-in library is library text, :data:`BUILTIN_LIBRARY`, read by the
same reader as a user ``.flib``; only ``random`` and ``ramp_down``, which add
state variables, are built in code (:func:`_instantiate_effect`).  A name the
built-ins define cannot be redefined, and :data:`KINDS` maps each ``for``
kind to the target types it admits.

Extension displaces a target symbol ``t`` to a fresh carrier ``t#nominal``
that keeps the nominal dynamics, adds a per-event mode variable with the
requested temporal dynamics, and redefines ``t`` as the faulty wrap

    t := (mode#event = faulty) ? effect : t#nominal

so every reader of ``t`` (including the nominal model's own current-state
reads) observes the possibly-faulted value, while the constraints that drive
``t`` (its INIT occurrences and ``next(t)`` occurrences in TRANS) keep
driving the displaced nominal carrier.  Multiple instructions on one target
compose in instruction order; later wraps displace earlier ones.

Common-cause weaving (:mod:`mbsa.cca`) builds through the same
:class:`ModelBuilder`, so both add names by one rule.
"""

from __future__ import annotations

from fractions import Fraction

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.sts.check import TypeError_, TypedModel, _compatible, type_check
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
    substitute,
    walk,
)
from mbsa.sts.parse import TokenStream, parse_expr, tokenize


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

    __slots__ = ("name", "params", "applies_to", "effect")

    def __init__(self, name: str, params: tuple[TemplateParam, ...], applies_to: str, effect: Expr | None):
        self.name, self.params = name, params
        self.applies_to = applies_to  # a key of KINDS
        self.effect = effect  # None for the built-ins that add state variables


class DynamicsTemplate:
    """How a fault's mode variable may evolve, as a TRANS schema over ``mode``."""

    __slots__ = ("name", "constraint")

    def __init__(self, name: str, constraint: Expr):
        self.name, self.constraint = name, constraint


class FaultLibrary:
    __slots__ = ("templates", "dynamics")

    def __init__(self, templates: dict[str, FaultTemplate], dynamics: dict[str, DynamicsTemplate]):
        self.templates, self.dynamics = templates, dynamics


class ExtensionInstruction:
    __slots__ = ("event", "target", "template", "args", "dynamics", "probability", "where")

    def __init__(self, event: str, target: str, template: str, args: tuple[Expr, ...], dynamics: str,
                 probability: Fraction, where: tuple[str, int, int]):
        self.event, self.target, self.template, self.args = event, target, template, args
        self.dynamics, self.probability, self.where = dynamics, probability, where

    def error(self, message: str) -> ExtensionError:
        filename, line, col = self.where
        return ExtensionError([Diagnostic(f"{message} (event {self.event})", line, col, filename=filename)])


class EventInfo:
    """Registry entry for one fault event of an extended model.

    ``occurrence`` holds while the fault is active; ``suppression`` is the
    invariant that forbids the event in restricted analyses (it still permits
    occurrences forced by a common cause once the cca module rewrites it).
    """

    __slots__ = ("name", "mode_var", "occurrence", "probability", "suppression")

    def __init__(self, name: str, mode_var: str, occurrence: Expr, probability: Fraction,
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
# Fault library

# a template's `for` kind -> the target types it applies to
KINDS = {"boolean": BoolType, "int": IntRangeType, "enum": EnumType, "any": object}

_MODE_TYPE = EnumType(("nominal", "faulty"))

# the built-in templates with an effect, and the built-in dynamics
BUILTIN_LIBRARY = """\
template stuck_at(v : value) for any := v;
template inverted for boolean := !nominal;
template conditional(guard : expr, effect : expr) for any := guard ? effect : nominal;
dynamics permanent := mode = faulty -> next(mode) = faulty;
dynamics sporadic := TRUE;
dynamics transient := mode = faulty -> next(mode) = nominal;
"""

# the built-in templates that add state variables; _instantiate_effect builds them
_STATE_TEMPLATES = (
    FaultTemplate("random", (), "any", None),
    FaultTemplate("ramp_down", (TemplateParam("step", "value"),), "int", None),
)


def load_fault_library(text: str = "", filename: str = "<flib>") -> FaultLibrary:
    """Built-in templates and dynamics, merged with user definitions.

    User text declares ``template name(p : value, q : expr) for kind := effect;``
    and ``dynamics name := constraint;`` entries.  Redefining a built-in is an
    error.  A dynamics constraint is type-checked here, over
    ``mode : {nominal, faulty}``; an effect is fully type-checked at
    instantiation time against the concrete target.
    """
    lib = FaultLibrary({t.name: t for t in _STATE_TEMPLATES}, {})
    _read_library(lib, BUILTIN_LIBRARY, "<built-in>")  # fresh nodes for every library
    _read_library(lib, text, filename)
    return lib


def _read_library(lib: FaultLibrary, text: str, filename: str):
    """Add the definitions of ``text`` to ``lib``, whose names are the
    built-ins that ``text`` may not redefine."""
    builtin_templates, builtin_dynamics = set(lib.templates), set(lib.dynamics)
    ts = TokenStream(tokenize(text, filename), filename)
    while not ts.at_end():
        if ts.accept_word("template"):
            name_tok = ts.expect_ident("template name")
            params: list[TemplateParam] = []
            if ts.accept("("):
                if not ts.at(")"):
                    params = ts.items(lambda: _parse_param(ts))
                ts.expect(")")
            if not ts.accept_word("for"):
                ts.fail(f"expected 'for <{'|'.join(KINDS)}>'")
            applies_to = ts.word()  # `boolean` is a model keyword, the other kinds identifiers
            if applies_to not in KINDS:
                ts.fail(f"applicability must be one of {tuple(KINDS)}")
            ts.advance()
            ts.expect(":=")
            effect = parse_expr(ts)
            ts.expect(";")
            if name_tok.text in builtin_templates:
                raise ts.error(name_tok, f"cannot redefine built-in template {name_tok.text!r}", FaultDefinitionError)
            if len({p.name for p in params}) != len(params):
                raise ts.error(name_tok, "duplicate template parameter", FaultDefinitionError)
            for node in walk(effect):
                if isinstance(node, Next):
                    raise ts.error(node, "template effects are current-state expressions", FaultDefinitionError)
            lib.templates[name_tok.text] = FaultTemplate(name_tok.text, tuple(params), applies_to, effect)
        elif ts.accept_word("dynamics"):
            name_tok = ts.expect_ident("dynamics name")
            ts.expect(":=")
            constraint = parse_expr(ts)
            ts.expect(";")
            if name_tok.text in builtin_dynamics:
                raise ts.error(name_tok, f"cannot redefine built-in dynamics {name_tok.text!r}", FaultDefinitionError)
            for node in walk(constraint):
                if isinstance(node, Name) and node.name not in ("mode", "nominal", "faulty"):
                    raise ts.error(node, "dynamics may only reference 'mode' and the literals nominal/faulty, "
                                   f"found {node.name!r}", FaultDefinitionError)
                if isinstance(node, Next) and node.name != "mode":
                    raise ts.error(node, "dynamics may only apply next() to 'mode'", FaultDefinitionError)
            try:
                type_check(SymbolicModel("dynamics", (("mode", _MODE_TYPE),), (), (), (constraint,), ()), filename)
            except TypeError_ as exc:
                raise FaultDefinitionError(exc.diagnostics) from None
            lib.dynamics[name_tok.text] = DynamicsTemplate(name_tok.text, constraint)
        else:
            ts.fail(f"expected 'template' or 'dynamics', found {ts.cur.text!r}")


def _parse_param(ts: TokenStream) -> TemplateParam:
    p = ts.expect_ident("parameter name")
    ts.expect(":")
    kind_tok = ts.expect_ident("parameter kind (value or expr)")
    if kind_tok.text not in ("value", "expr"):
        ts.fail(f"parameter kind must be 'value' or 'expr', got {kind_tok.text!r}")
    return TemplateParam(p.text, kind_tok.text)


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
    while not ts.at_end():
        ts.expect_word("fault")
        ev = ts.expect_ident("event name")
        if ev.text in seen:
            raise ts.error(ev, f"duplicate event name {ev.text!r}", FaultDefinitionError)
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
        prob = ts.probability(FaultDefinitionError)
        ts.expect(";")
        where = (filename, ev.line, ev.col)
        out.append(ExtensionInstruction(ev.text, target, template, tuple(args), dynamics, prob, where))
    return out


# ---------------------------------------------------------------------------
# Model extension

class ModelBuilder:
    """A model being woven: its five sections as lists, ``taken`` (every
    declared variable and define name, and the enumeration literals of the
    model it starts from) and :meth:`check` of the result.  Extension and
    common-cause weaving both build through it: a name of fixed form
    (``mode#``, ``cc#``) is claimed, any other made fresh."""

    __slots__ = ("name", "variables", "defines", "init", "trans", "invar", "taken")

    def __init__(self, model: SymbolicModel):
        self.name, self.variables, self.defines = model.name, list(model.variables), list(model.defines)
        self.init, self.trans, self.invar = list(model.init), list(model.trans), list(model.invar)
        self.taken = {n for n, _ in self.variables} | {n for n, _ in self.defines} | {
            lit for _, ty in self.variables if isinstance(ty, EnumType) for lit in ty.literals}

    def claim(self, name: str) -> bool:
        """Take ``name``; False, and nothing taken, if it is already taken."""
        if name in self.taken:
            return False
        self.taken.add(name)
        return True

    def fresh(self, base: str) -> str:
        """Take ``base``, or ``base`` with the first free suffix from 2 on."""
        name, i = base, 2
        while name in self.taken:
            name, i = f"{base}{i}", i + 1
        self.taken.add(name)
        return name

    def check(self) -> TypedModel:
        """The current sections as one model, type-checked."""
        return type_check(SymbolicModel(self.name, tuple(self.variables), tuple(self.defines),
                                        tuple(self.init), tuple(self.trans), tuple(self.invar)))


def extend_model(nominal: TypedModel, library: FaultLibrary,
                 instructions: list[ExtensionInstruction]) -> ExtendedModel:
    """Weave fault events into a nominal model; returns the extended model.

    The result is a conservative extension: restricted to traces where every
    mode variable stays nominal, its projection onto the nominal variables is
    exactly the nominal trace set.
    """
    b = ModelBuilder(nominal.model)
    events: dict[str, EventInfo] = {}
    # a target keeps the type it had when first resolved: after a wrap a
    # target of a finite integer range is a define of abstract integer type
    target_types: dict[str, TypeSpec] = {}
    typed = nominal  # the model as extended so far, checked: its var_index indexes b.variables

    for ins in instructions:
        idx = typed.var_index.get(ins.target)
        if idx is not None:
            target_ty = typed.var_types[idx]
        elif ins.target in typed.defines:
            target_ty = typed.defines[ins.target].ty
        else:
            raise ins.error(f"unknown extension target {ins.target!r}")
        target_ty = target_types.setdefault(ins.target, target_ty)

        template = library.templates.get(ins.template)
        if template is None:
            raise ins.error(f"unknown fault template {ins.template!r}")
        dyn = library.dynamics.get(ins.dynamics)
        if dyn is None:
            raise ins.error(f"unknown dynamics {ins.dynamics!r}")
        if not isinstance(target_ty, KINDS[template.applies_to]):
            raise ins.error(f"template {ins.template!r} does not apply to {ins.target!r} of type {target_ty}")
        if len(ins.args) != len(template.params):
            raise ins.error(f"template {ins.template!r} takes {len(template.params)} argument(s), "
                            f"got {len(ins.args)}")
        for param, arg in zip(template.params, ins.args):
            if param.kind == "value" and not isinstance(arg, (BoolConst, IntConst, Name)):
                raise ins.error(f"argument for value parameter {param.name!r} must be a literal")

        # (a) displace the defining occurrence of the target
        carrier = b.fresh(f"{ins.target}#nominal")
        if idx is not None:
            b.variables[idx] = (carrier, target_ty)
            ren = {ins.target: Name(carrier)}
            b.init = [substitute(e, ren) for e in b.init]
            b.invar = [substitute(e, ren) for e in b.invar]
            b.trans = [substitute(e, {}, {ins.target: carrier}) for e in b.trans]
        else:
            b.defines = [(carrier, e) if n == ins.target else (n, e) for n, e in b.defines]

        # (b) mode variable with the requested dynamics
        mode_var = f"mode#{ins.event}"
        if ins.event in events:
            raise ins.error("duplicate event name")
        if not b.claim(mode_var):
            raise ins.error(f"{mode_var!r}, the mode variable of this event, is already declared")
        b.variables.append((mode_var, _MODE_TYPE))
        b.init.append(BinOp("=", Name(mode_var), Name("nominal")))
        dyn_constraint = substitute(dyn.constraint, {"mode": Name(mode_var)}, {"mode": mode_var})
        if not isinstance(dyn_constraint, BoolConst) or not dyn_constraint.value:
            b.trans.append(dyn_constraint)

        # (c) the faulty wrap
        effect = _instantiate_effect(template, ins, carrier, mode_var, target_ty, b)
        wrap = Ite(BinOp("=", Name(mode_var), Name("faulty")), effect, Name(carrier))
        b.defines.append((ins.target, wrap))

        # (d) registry
        occurrence = BinOp("=", Name(mode_var), Name("faulty"))
        suppression = BinOp("=", Name(mode_var), Name("nominal"))
        events[ins.event] = EventInfo(ins.event, mode_var, occurrence, ins.probability, suppression)

        # the model type-checked before this instruction, so a type error is this one's
        try:
            typed = b.check()
        except TypeError_ as exc:
            if effect.ty is not None and not _compatible(effect.ty, target_ty):
                raise ins.error(f"template {ins.template!r} gives {effect.ty} "
                                f"for {ins.target!r} of type {target_ty}") from None
            raise ins.error(f"template {ins.template!r}: {exc.diagnostics[0].message}") from None
    return ExtendedModel(typed, events)


def _instantiate_effect(template: FaultTemplate, ins: ExtensionInstruction, carrier: str, mode_var: str,
                        target_ty, b: ModelBuilder) -> Expr:
    if template.effect is not None:
        binding = {p.name: a for p, a in zip(template.params, ins.args)}
        binding["nominal"] = Name(carrier)
        return substitute(template.effect, binding)
    if template.name == "random":
        if isinstance(target_ty, IntType):
            raise ins.error(f"random needs a target with a finite domain; {ins.target!r} has type {target_ty}")
        rnd = b.fresh(f"choice#{ins.event}")
        b.variables.append((rnd, target_ty))  # unconstrained: a fresh value every step
        return Name(rnd)
    # ramp_down, on a bounded integer: `for int` admits nothing else
    step = ins.args[0]
    if not isinstance(step, IntConst) or step.value <= 0:
        raise ins.error("ramp_down step must be a positive integer")
    span = target_ty.hi - target_ty.lo
    drop = b.fresh(f"drop#{ins.event}")
    b.variables.append((drop, IntRangeType(0, span)))
    b.init.append(BinOp("=", Name(drop), IntConst(0)))
    # the drop accumulates while faulty and saturates once it pins the
    # effect to the lower bound; it never resets
    inc = BinOp("+", Name(drop), IntConst(step.value))
    b.trans.append(BinOp(
        "=", Next(drop),
        Ite(BinOp("=", Next(mode_var), Name("faulty")),
            Ite(BinOp(">", inc, IntConst(span)), IntConst(span), inc),
            Name(drop))))
    diff = BinOp("-", Name(carrier), Name(drop))
    return Ite(BinOp("<", diff, IntConst(target_ty.lo)), IntConst(target_ty.lo), diff)
