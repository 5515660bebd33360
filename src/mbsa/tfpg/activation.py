"""Node bindings and activation traces.

A binding maps every TFPG node to a boolean activation predicate over an
extended model (failure nodes to fault-event occurrence predicates) and every
mode literal to a predicate; the mode predicates must be mutually exclusive
and exhaustive on reachable states.  An activation trace abstracts a model
trace to first-activation times plus the active mode per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mbsa.diagnostics import Diagnostic, InputError, MbsaError
from mbsa.faults import ExtendedModel
from mbsa.sts.engine import Engine, Trace, _engine
from mbsa.sts.model import Expr
from mbsa.sts.parse import TokenStream, parse_expr, tokenize
from mbsa.tfpg.graph import Tfpg


class BindingError(InputError):
    pass


@dataclass
class NodeBinding:
    kinds: dict[str, str]  # node id -> "failure" | "and" | "or"
    activations: dict[str, Expr]  # node id -> activation predicate
    mode_exprs: dict[str, Expr]  # mode literal -> predicate
    failure_events: dict[str, str] = field(default_factory=dict)  # failure node -> event name

    def mode_literals(self) -> tuple[str, ...]:
        return tuple(self.mode_exprs)


@dataclass
class ActivationTrace:
    """First-activation times per node (None = never) and the active mode per step."""

    length: int
    times: dict[str, int | None]
    modes: tuple[str, ...]


def parse_binding(text: str, xm: ExtendedModel, filename: str = "<bind>") -> NodeBinding:
    """Parse node bindings::

        failure G1_Off : G1_Off;      -- registered fault event
        or G1_DEAD : !gen1;
        and Sys_DEAD : sys_dead;
        mode P : mode = P;
    """
    ts = TokenStream(tokenize(text, filename), filename)
    binding = NodeBinding({}, {}, {})
    while ts.cur.kind != "eof":
        t = ts.cur
        word = t.text if t.kind == "ident" else None
        if word in ("failure", "or", "and"):
            ts.advance()
            node = ts.expect_ident("node id")
            ts.expect(":")
            if node.text in binding.kinds:
                raise BindingError([Diagnostic(f"duplicate binding for node {node.text!r}",
                                               node.line, node.col, filename=filename)])
            if word == "failure":
                ev = ts.expect_ident("fault event name")
                info = xm.events.get(ev.text)
                if info is None:
                    raise BindingError([Diagnostic(f"unknown fault event {ev.text!r}",
                                                   ev.line, ev.col, filename=filename)])
                binding.kinds[node.text] = "failure"
                binding.activations[node.text] = info.occurrence
                binding.failure_events[node.text] = ev.text
            else:
                expr = parse_expr(ts)
                xm.typed.check_expr(expr, filename=filename)
                binding.kinds[node.text] = word
                binding.activations[node.text] = expr
            ts.expect(";")
        elif word == "mode":
            ts.advance()
            lit = ts.expect_ident("mode literal")
            ts.expect(":")
            expr = parse_expr(ts)
            xm.typed.check_expr(expr, filename=filename)
            if lit.text in binding.mode_exprs:
                raise BindingError([Diagnostic(f"duplicate mode binding {lit.text!r}",
                                               lit.line, lit.col, filename=filename)])
            binding.mode_exprs[lit.text] = expr
            ts.expect(";")
        else:
            ts.fail(f"expected 'failure', 'or', 'and', or 'mode', found {t.text!r}")
    return binding


def check_binding_total(tfpg: Tfpg, binding: NodeBinding) -> None:
    """Every TFPG node bound with matching kind; every mode literal bound."""
    problems = []
    for node, kind in tfpg.nodes.items():
        if node not in binding.kinds:
            problems.append(Diagnostic(f"node {node!r} has no binding"))
        elif binding.kinds[node] != kind:
            problems.append(Diagnostic(
                f"node {node!r} bound as {binding.kinds[node]!r} but declared {kind!r}"))
    for m in tfpg.modes:
        if m not in binding.mode_exprs:
            problems.append(Diagnostic(f"mode {m!r} has no binding"))
    if problems:
        raise BindingError(problems)


class BindingEvaluator:
    """Compiled activation/mode predicates over one extended model."""

    def __init__(self, xm: ExtendedModel, binding: NodeBinding, engine: Engine | None = None):
        self.binding = binding
        self.engine = engine if engine is not None else _engine(xm.typed)
        self.node_order = tuple(sorted(binding.kinds))
        self._act_fns = [(n, self.engine.compile(binding.activations[n])) for n in self.node_order]
        self._mode_fns = [(m, self.engine.compile(e)) for m, e in binding.mode_exprs.items()]

    def observe(self, state: tuple) -> tuple[tuple[bool, ...], str]:
        """(activation bits in node_order, active mode literal) for a state."""
        bits = tuple(bool(fn(state, None)) for _, fn in self._act_fns)
        active = [m for m, fn in self._mode_fns if fn(state, None)]
        if len(active) != 1:
            raise MbsaError(
                f"mode predicates must hold for exactly one literal per state; got {active!r}")
        return bits, active[0]


def activation_trace_of(trace: Trace, binding: NodeBinding, xm: ExtendedModel) -> ActivationTrace:
    """Abstract a concrete trace to first-activation times and per-step modes."""
    ev = BindingEvaluator(xm, binding)
    times: dict[str, int | None] = {n: None for n in binding.kinds}
    modes: list[str] = []
    for step, state_dict in enumerate(trace.states):
        state = ev.engine.to_tuple(state_dict)
        bits, mode = ev.observe(state)
        modes.append(mode)
        for n, bit in zip(ev.node_order, bits):
            if bit and times[n] is None:
                times[n] = step
    return ActivationTrace(len(trace.states), times, tuple(modes))
