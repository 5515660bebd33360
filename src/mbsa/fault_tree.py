"""(Dynamic) fault trees: construction from cut sets, exact and symbolic
probability evaluation, script emission hooks, and export formats.

Probability semantics is the mission model: every basic event is a Bernoulli
indicator, independent except for common cause groups, which are handled by
conditioning on each group's occurrence (members are forced when the group
fires, and keep their independent spontaneous probability otherwise).  Gate
probabilities are exact: the tree compiles to one reduced ordered BDD over
the group occurrences and the events, evaluated bottom-up over exact
rationals.  PAND evaluates as AND, since the mission model has no time
distribution over orderings -- ordering affects tree structure only, never
node probabilities.  The rare-event sum is available separately as a
reference value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mbsa import prob_str
from mbsa.analysis import CutSequence, CutSetResult
from mbsa.diagnostics import MbsaError
from mbsa.xmlout import to_xml

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from mbsa.probability import Bdd, ProbabilityExpr


class FaultTreeError(MbsaError):
    pass


class BasicEvent:
    __slots__ = ("event", "probability", "label")

    def __init__(self, event: str, probability: Fraction | None = None, label: str = ""):
        self.event, self.probability, self.label = event, probability, label


class Gate:
    __slots__ = ("kind", "children", "label")

    def __init__(self, kind: str, children: tuple[str, ...], label: str = ""):
        self.kind, self.children, self.label = kind, children, label  # kind: "and" | "or" | "pand"


class FaultTree:
    """Rooted gate DAG; basic events are shared by name across gates."""

    __slots__ = ("root", "nodes")

    def __init__(self, root: str, nodes: dict[str, BasicEvent | Gate]):
        self.root, self.nodes = root, nodes

    def basic_events(self) -> dict[str, BasicEvent]:
        return {i: n for i, n in self.nodes.items() if isinstance(n, BasicEvent)}


class ProbabilityAssignment:
    """Per-event probabilities plus the dependency groups that break independence.

    Group objects need ``id``, ``members`` and ``probability`` attributes (the
    cca module's CommonCauseSpec qualifies).
    """

    __slots__ = ("probabilities", "dependency_groups")

    def __init__(self, probabilities: dict[str, Fraction], dependency_groups: list | None = None):
        self.probabilities = probabilities
        self.dependency_groups = [] if dependency_groups is None else dependency_groups


# ---------------------------------------------------------------------------
# Construction

def build_fault_tree(result: CutSetResult, sequences: list[CutSequence] | None = None,
                     tle_label: str = "TLE", probabilities: dict[str, Fraction] | None = None) -> FaultTree:
    """Two-level tree: an OR root over one child per cut set.

    Size-one cut sets contribute their basic event directly.  Larger cut
    sets contribute an AND gate, unless cut sequences show that not every
    order is admissible: a single admissible order becomes a PAND gate with
    children in that order, several (but not all) admissible orders become an
    OR of PANDs.  The empty cut set of a TLE reachable with no faults is an
    AND gate with no children, which is true.
    """
    order_info: dict[frozenset, tuple[tuple[str, ...], ...]] = {}
    if sequences is not None:
        if {s.base for s in sequences} != set(result.mcs):
            raise FaultTreeError("cut sequences do not match the cut-set result (base sets differ)")
        order_info = {s.base: s.orders for s in sequences}

    nodes: dict[str, BasicEvent | Gate] = {}
    counter = 0

    def gate_id() -> str:
        nonlocal counter
        gid = f"#{counter}"
        counter += 1
        return gid

    root_id = gate_id()

    def event_node(name: str) -> str:
        if name not in nodes:
            prob = None if probabilities is None else probabilities.get(name)
            nodes[name] = BasicEvent(name, prob, label=name)
        return name

    children: list[str] = []
    for cut in result.mcs:
        members = sorted(cut)
        if len(members) == 1:
            children.append(event_node(members[0]))
            continue
        orders = order_info.get(cut)
        label = "cut set {" + ", ".join(members) + "}"
        if not orders or len(orders) == math.factorial(len(members)):
            gid = gate_id()
            nodes[gid] = Gate("and", tuple(event_node(m) for m in members), label)
        else:
            pands = []
            for o in orders:
                gid = gate_id()
                nodes[gid] = Gate("pand", tuple(event_node(m) for m in o), "sequence " + " -> ".join(o))
                pands.append(gid)
            if len(pands) > 1:
                gid = gate_id()
                nodes[gid] = Gate("or", tuple(pands), label + " (admissible orders)")
        children.append(gid)
    nodes[root_id] = Gate("or", tuple(children), tle_label)
    return FaultTree(root_id, nodes)


# ---------------------------------------------------------------------------
# Probability

def _compile(ft: FaultTree, groups) -> tuple[Bdd, dict[str, int], list[str]]:
    """Every tree node as a node of one BDD, plus the variable names in order.

    The order puts the group ids first, sorted, then the other basic events,
    sorted.  A group member's leaf is the member OR each group containing it.
    Raises FaultTreeError when a group references an event that is not a
    basic event of the tree.
    """
    from mbsa.probability import Bdd  # a job that only builds or writes a tree loads no probability core

    events = ft.basic_events()
    groups = sorted(groups, key=lambda g: g.id)
    for g in groups:
        for m in sorted(g.members):
            if m not in events:
                raise FaultTreeError(f"dependency group {g.id!r} references event {m!r} absent from the tree")
    governed = {g.id for g in groups}
    names = [g.id for g in groups] + sorted(n for n in events if n not in governed)
    level = {name: i for i, name in enumerate(names)}
    bdd = Bdd(len(names))
    compiled: dict[str, int] = {}

    def go(nid: str) -> int:
        if nid in compiled:
            return compiled[nid]
        node = ft.nodes[nid]
        if isinstance(node, BasicEvent):
            out = bdd.var(level[nid])
            for g in groups:
                if nid in g.members:
                    out = bdd.apply("or", out, bdd.var(level[g.id]))
        else:
            op = "or" if node.kind == "or" else "and"  # probability ignores PAND ordering
            out = int(op == "and")
            # deepest top variable first: each step then adds a BDD above
            # the accumulated one instead of rebuilding it underneath
            for u in sorted((go(c) for c in node.children), key=lambda u: bdd.nodes[u][0], reverse=True):
                out = bdd.apply(op, out, u)
        compiled[nid] = out
        return out

    for nid in ft.nodes:
        go(nid)
    return bdd, compiled, names


def evaluate_probability(ft: FaultTree, pa: ProbabilityAssignment) -> dict[str, Fraction]:
    """Exact probability of every node (root value is P(TLE)).

    Raises FaultTreeError when a probability is missing or a dependency group
    references an event that is not a basic event of the tree.
    """
    bdd, compiled, names = _compile(ft, pa.dependency_groups)
    # a group id that is also a basic event takes the group occurrence probability
    probs = {g.id: Fraction(g.probability) for g in pa.dependency_groups}
    for name in ft.basic_events():
        if name in probs:
            continue
        if name not in pa.probabilities:
            raise FaultTreeError(f"missing probability for basic event {name!r}")
        p = Fraction(pa.probabilities[name])
        if not 0 <= p <= 1:
            raise FaultTreeError(f"probability of {name!r} outside [0,1]")
        probs[name] = p
    values = bdd.probabilities([probs[n] for n in names])
    return {nid: values[compiled[nid]] for nid in ft.nodes}


def rare_event_approximation(ft: FaultTree, pa: ProbabilityAssignment) -> Fraction:
    """Sum of the root's child probabilities: the classical MCS upper-bound
    approximation, reported for reference only."""
    return rare_event_sum(ft, evaluate_probability(ft, pa))


def rare_event_sum(ft: FaultTree, node_probs: dict[str, Fraction]) -> Fraction:
    """:func:`rare_event_approximation` from the node probabilities that
    :func:`evaluate_probability` already gave."""
    return sum((node_probs[c] for c in ft.nodes[ft.root].children), Fraction(0))


def symbolic_probability(ft: FaultTree, dependency_groups: list | None = None) -> ProbabilityExpr:
    """Closed-form root probability over symbols p_e, one per basic event and
    one per common cause group.

    Canonical form: one Shannon combination per node of the root's BDD
    (group symbols first, then the other events in sorted order), with each
    subterm built once (see :meth:`Bdd.to_pnode`).  Evaluating at any
    assignment equals :func:`evaluate_probability`'s root value exactly.
    """
    from mbsa.probability import ProbabilityExpr

    bdd, compiled, names = _compile(ft, dependency_groups or [])
    return ProbabilityExpr(bdd.to_pnode(compiled[ft.root], names), tuple(sorted(names)))


# ---------------------------------------------------------------------------
# Export / import

_KINDS = {"and", "or", "pand", "event"}


def _node_order(ft: FaultTree) -> list[str]:
    gates = [i for i in ft.nodes if isinstance(ft.nodes[i], Gate) and i != ft.root]
    events = sorted(i for i in ft.nodes if isinstance(ft.nodes[i], BasicEvent))
    return [ft.root] + sorted(gates, key=lambda g: int(g[1:]) if g[1:].isdigit() else 0) + events


def ft_to_tsv(ft: FaultTree, with_probabilities: bool = False) -> str:
    """One row per node: id, kind, children (space-joined) or probability, label."""
    rows = []
    for nid in _node_order(ft):
        node = ft.nodes[nid]
        if isinstance(node, Gate):
            rows.append(f"{nid}\t{node.kind}\t{' '.join(node.children)}\t{node.label}")
        else:
            p = ""
            if with_probabilities:
                if node.probability is None:
                    raise FaultTreeError(f"basic event {nid!r} has no probability to export")
                p = prob_str(node.probability)
            rows.append(f"{nid}\tevent\t{p}\t{node.label}")
    return "\n".join(rows) + "\n"


def ft_to_xml(ft: FaultTree, with_probabilities: bool = False) -> str:
    elements = []
    for nid in _node_order(ft):
        node = ft.nodes[nid]
        gate = isinstance(node, Gate)
        attributes = {"id": nid, "kind": node.kind} if gate else {"id": nid}
        if node.label:
            attributes["label"] = node.label
        if gate:
            elements.append(("gate", attributes, [("child", {"ref": c}, ()) for c in node.children]))
            continue
        if with_probabilities and node.probability is None:
            raise FaultTreeError(f"basic event {nid!r} has no probability to export")
        if node.probability is not None:
            attributes["probability"] = prob_str(node.probability)
        elements.append(("basic-event", attributes, ()))
    return to_xml(("fault-tree", {"root": ft.root}, elements))


# element -> the attributes it may have (any other element is reported as unexpected)
_XML_ATTRIBUTES = {"fault-tree": {"root"}, "gate": {"id", "kind", "label"}, "child": {"ref"},
                   "basic-event": {"id", "probability", "label"}}


def ft_from_xml(text: str) -> FaultTree:
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FaultTreeError(f"malformed XML: {exc}") from None
    if root.tag != "fault-tree":
        raise FaultTreeError(f"expected <fault-tree> document, found <{root.tag}>")
    for el in root.iter():
        allowed = _XML_ATTRIBUTES.get(el.tag)
        extra = None if allowed is None else next((a for a in el.attrib if a not in allowed), None)
        if extra is not None:
            raise FaultTreeError(f"unexpected attribute {extra!r} on <{el.tag}>")

    def attr(el, name: str) -> str:
        if name not in el.attrib:
            raise FaultTreeError(f"<{el.tag}> lacks the attribute {name!r}")
        return el.attrib[name]

    nodes: dict[str, BasicEvent | Gate] = {}
    for el in root:
        if el.tag not in ("gate", "basic-event"):
            raise FaultTreeError(f"unexpected element <{el.tag}> in fault tree")
        nid = attr(el, "id")
        if nid in nodes:
            raise FaultTreeError(f"duplicate node {nid!r}")
        if el.tag == "gate":
            kind = attr(el, "kind")
            if kind not in ("and", "or", "pand"):
                raise FaultTreeError(f"unknown gate kind {kind!r}")
            for c in el:
                if c.tag != "child":
                    raise FaultTreeError(f"unexpected element <{c.tag}> in gate {nid!r}")
            nodes[nid] = Gate(kind, tuple(attr(c, "ref") for c in el), el.get("label", ""))
        else:
            p = el.get("probability")
            try:
                probability = None if p is None else Fraction(p)
            except (ValueError, ZeroDivisionError):
                raise FaultTreeError(f"basic event {nid!r} has a malformed probability {p!r}") from None
            if probability is not None and not 0 <= probability <= 1:
                raise FaultTreeError(f"basic event {nid!r} has probability {p} outside [0,1]")
            nodes[nid] = BasicEvent(nid, probability, el.get("label", ""))
    tree = FaultTree(attr(root, "root"), nodes)
    if tree.root not in nodes:
        raise FaultTreeError(f"root node {tree.root!r} is not declared")
    for nid, node in nodes.items():
        if isinstance(node, Gate):
            for c in node.children:
                if c not in nodes:
                    raise FaultTreeError(f"gate {nid!r} references undeclared child {c!r}")
    return tree


_DOT_SHAPE = {"and": "box", "or": "ellipse", "pand": "trapezium"}


def ft_to_dot(ft: FaultTree, with_probabilities: bool = False) -> str:
    """Graphviz rendering; gate shapes are distinct per kind, events are circles."""
    lines = ["digraph fault_tree {", "  rankdir=TB;"]
    for nid in _node_order(ft):
        node = ft.nodes[nid]
        if isinstance(node, Gate):
            label = f"{node.kind.upper()}\\n{node.label}" if node.label else node.kind.upper()
            lines.append(f'  "{nid}" [shape={_DOT_SHAPE[node.kind]}, label="{label}"];')
        else:
            label = node.label or nid
            if with_probabilities and node.probability is not None:
                label += f"\\np={prob_str(node.probability)}"
            lines.append(f'  "{nid}" [shape=circle, label="{label}"];')
    for nid in _node_order(ft):
        node = ft.nodes[nid]
        if isinstance(node, Gate):
            for pos, c in enumerate(node.children):
                attr = f' [label="{pos + 1}"]' if node.kind == "pand" else ""
                lines.append(f'  "{nid}" -> "{c}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_ft(ft: FaultTree, fmt: str, with_probabilities: bool = False) -> str:
    if fmt == "xml":
        return ft_to_xml(ft, with_probabilities)
    if fmt == "tsv":
        return ft_to_tsv(ft, with_probabilities)
    if fmt == "dot":
        return ft_to_dot(ft, with_probabilities)
    raise FaultTreeError(f"unknown fault-tree format {fmt!r} (expected xml, tsv, or dot)")
