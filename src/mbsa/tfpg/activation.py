"""Node bindings and activation traces.

A binding maps every TFPG node to a boolean activation predicate over an
extended model (failure nodes to fault-event occurrence predicates) and every
mode literal to a predicate; the mode predicates must be mutually exclusive
and exhaustive on reachable states.  ``BindingEvaluator`` compiles all of
them into one label function of a state (``Engine.compile_mask``, as the
fault labels of :mod:`mbsa.analysis` are), and decodes a label into an
activation mask and a mode.  An activation trace abstracts a model trace to
first-activation times plus the active mode per step.
"""

from __future__ import annotations

from mbsa.diagnostics import Diagnostic, InputError, MbsaError
from mbsa.faults import ExtendedModel
from mbsa.sts.engine import Engine, Trace, _engine
from mbsa.sts.model import Expr
from mbsa.sts.parse import TokenStream, parse_expr, tokenize
from mbsa.tfpg.graph import Tfpg


class BindingError(InputError):
    pass


class NodeBinding:
    __slots__ = ("kinds", "activations", "mode_exprs")

    def __init__(self, kinds: dict[str, str], activations: dict[str, Expr], mode_exprs: dict[str, Expr]):
        self.kinds = kinds  # node id -> "failure" | "and" | "or"
        self.activations = activations  # node id -> activation predicate
        self.mode_exprs = mode_exprs  # mode literal -> predicate

    def mode_literals(self) -> tuple[str, ...]:
        return tuple(self.mode_exprs)


class ActivationTrace:
    """First-activation times per node (None = never) and the active mode per step."""

    __slots__ = ("length", "times", "modes")

    def __init__(self, length: int, times: dict[str, int | None], modes: tuple[str, ...]):
        self.length, self.times, self.modes = length, times, modes


def parse_binding(text: str, xm: ExtendedModel, filename: str = "<bind>") -> NodeBinding:
    """Parse node bindings::

        failure G1_Off : G1_Off;      -- registered fault event
        or G1_DEAD : !gen1;
        and Sys_DEAD : sys_dead;
        mode P : mode = P;
    """
    ts = TokenStream(tokenize(text, filename), filename)
    binding = NodeBinding({}, {}, {})
    while not ts.at_end():
        word = ts.word()
        if word in ("failure", "or", "and"):
            ts.advance()
            node = ts.expect_ident("node id")
            ts.expect(":")
            if node.text in binding.kinds:
                raise ts.error(node, f"duplicate binding for node {node.text!r}", BindingError)
            if word == "failure":
                ev = ts.expect_ident("fault event name")
                info = xm.events.get(ev.text)
                if info is None:
                    raise ts.error(ev, f"unknown fault event {ev.text!r}", BindingError)
                expr = info.occurrence
            else:
                expr = parse_expr(ts)
                xm.typed.check_predicate(expr, filename=filename)
            binding.kinds[node.text] = word
            binding.activations[node.text] = expr
            ts.expect(";")
        elif ts.accept_word("mode"):
            lit = ts.expect_ident("mode literal")
            ts.expect(":")
            expr = parse_expr(ts)
            xm.typed.check_predicate(expr, filename=filename)
            if lit.text in binding.mode_exprs:
                raise ts.error(lit, f"duplicate mode binding {lit.text!r}", BindingError)
            binding.mode_exprs[lit.text] = expr
            ts.expect(";")
        else:
            ts.fail(f"expected 'failure', 'or', 'and', or 'mode', found {ts.cur.text!r}")
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
    """A binding's predicates over one extended model, compiled into one
    label function.

    Bit i of a state's label is the activation of ``node_order[i]``, and bit
    ``len(node_order) + k`` the predicate of the k-th mode literal, in
    declaration order.
    """

    def __init__(self, xm: ExtendedModel, binding: NodeBinding, engine: Engine | None = None):
        self.engine = engine if engine is not None else _engine(xm.typed)
        self.node_order = tuple(sorted(binding.kinds))
        self.modes = binding.mode_literals()
        self._label = self.engine.compile_mask([binding.activations[n] for n in self.node_order]
                                               + list(binding.mode_exprs.values()))

    def observe(self, state: tuple) -> int:
        """The label of a state, in which exactly one mode bit must be set."""
        label = self._label(state)
        held = label >> len(self.node_order)
        if held.bit_count() != 1:
            active = [m for k, m in enumerate(self.modes) if held >> k & 1]
            raise MbsaError(
                f"mode predicates must hold for exactly one literal per state; got {active!r}")
        return label

    def decode(self, label: int) -> tuple[int, str]:
        """(activation mask over node_order, active mode literal) of a label."""
        n = len(self.node_order)
        return label & ((1 << n) - 1), self.modes[(label >> n).bit_length() - 1]


def activation_trace_of(trace: Trace, binding: NodeBinding, xm: ExtendedModel) -> ActivationTrace:
    """Abstract a concrete trace to first-activation times and per-step modes."""
    ev = BindingEvaluator(xm, binding)
    times: dict[str, int | None] = {n: None for n in binding.kinds}
    modes: list[str] = []
    for step, state_dict in enumerate(trace.states):
        mask, mode = ev.decode(ev.observe(ev.engine.to_tuple(state_dict)))
        modes.append(mode)
        for i, n in enumerate(ev.node_order):
            if mask >> i & 1 and times[n] is None:
                times[n] = step
    return ActivationTrace(len(trace.states), times, tuple(modes))
