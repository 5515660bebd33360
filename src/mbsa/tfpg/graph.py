"""TFPG structure and its three formats: editable text, XML, and DOT.

Failure nodes have no incoming edges; every edge targets a discrepancy and is
labeled with a propagation interval [tmin, tmax] (tmax may be infinite) and
the system modes in which the propagation counts time.  Writers use a fixed
ordering (nodes by id, edges by (src, dst)), so output is byte-stable.
"""

from __future__ import annotations

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.sts.model import Record
from mbsa.sts.parse import TokenStream, tokenize
from mbsa.xmlout import to_xml


class TfpgError(InputError):
    pass


def _err(message: str, filename: str) -> TfpgError:
    return TfpgError([Diagnostic(message, filename=filename)])


class TfpgEdge(Record):
    __slots__ = _fields = ("src", "dst", "tmin", "tmax", "modes")

    def __init__(self, src: str, dst: str, tmin: int, tmax: int | None, modes: frozenset[str] | None):
        self.src, self.dst, self.tmin = src, dst, tmin
        self.tmax = tmax  # None = unbounded
        self.modes = modes  # None = all modes

    def modes_label(self) -> str:
        if self.modes is None:
            return "{*}"
        return "{" + ",".join(sorted(self.modes)) + "}"

    def bounds_label(self) -> str:
        hi = "inf" if self.tmax is None else str(self.tmax)
        return f"[{self.tmin},{hi}]"


class Tfpg:
    __slots__ = ("modes", "nodes", "edges")

    def __init__(self, modes: tuple[str, ...], nodes: dict[str, str], edges: tuple[TfpgEdge, ...]):
        self.modes = modes
        self.nodes = nodes  # id -> "failure" | "and" | "or"
        self.edges = edges

    def failures(self) -> list[str]:
        return [n for n, k in self.nodes.items() if k == "failure"]

    def discrepancies(self) -> list[str]:
        return [n for n, k in self.nodes.items() if k != "failure"]

    def incoming(self, node: str) -> list[TfpgEdge]:
        return [e for e in self.edges if e.dst == node]

    def sorted_edges(self) -> list[TfpgEdge]:
        """The canonical edge order: source, destination, then bounds, unbounded last."""
        return sorted(self.edges, key=lambda e: (e.src, e.dst, e.tmin, e.tmax is None, e.tmax or 0))

    def check(self, filename: str = "<tfpg>") -> None:
        """Structural validation; raises TfpgError on the first problem."""
        mode_set = set(self.modes)
        if len(mode_set) != len(self.modes):
            raise _err("duplicate mode literal", filename=filename)
        for e in self.edges:
            for end in (e.src, e.dst):
                if end not in self.nodes:
                    raise _err(f"edge references undeclared node {end!r}", filename=filename)
            if e.src == e.dst:
                raise _err(f"self-loop on {e.src!r} is not allowed", filename=filename)
            if self.nodes[e.dst] == "failure":
                raise _err(f"edge into failure node {e.dst!r} (failures have no incoming edges)",
                           filename=filename)
            if e.tmax is not None and e.tmin > e.tmax:
                raise _err(f"edge {e.src}->{e.dst} has tmin > tmax", filename=filename)
            if e.tmin < 0:
                raise _err(f"edge {e.src}->{e.dst} has negative tmin", filename=filename)
            if e.modes is not None:
                if not e.modes:
                    raise _err(f"edge {e.src}->{e.dst} has an empty mode set", filename=filename)
                unknown = e.modes - mode_set
                if unknown:
                    raise _err(f"edge {e.src}->{e.dst} uses unknown mode {sorted(unknown)[0]!r}",
                               filename=filename)


# ---------------------------------------------------------------------------
# Textual format

def parse_tfpg(text: str, filename: str = "<tfpg>") -> Tfpg:
    """Parse the editable text form::

        modes P, S1, S2;
        failure G1_Off;
        or G1_DEAD;
        and Sys_DEAD;
        edge G1_Off -> G1_DEAD [0,0] {*};
        edge G1_DEAD -> B1_LOW [0,inf] {P,S1};
    """
    ts = TokenStream(tokenize(text, filename), filename)
    modes: list[str] = []
    nodes: dict[str, str] = {}
    edges: list[TfpgEdge] = []
    while not ts.at_end():
        word = ts.word()
        if ts.accept_word("modes"):
            modes += ts.items(lambda: ts.expect_ident("mode literal").text)
            ts.expect(";")
        elif word in ("failure", "or", "and"):
            ts.advance()
            node = ts.expect_ident("node id")
            if node.text in nodes:
                raise ts.error(node, f"duplicate node {node.text!r}", TfpgError)
            nodes[node.text] = word
            ts.expect(";")
        elif ts.accept_word("edge"):
            src = ts.expect_ident("source node").text
            ts.expect("->")
            dst = ts.expect_ident("destination node").text
            ts.expect("[")
            tmin = ts.number("expected tmin")
            ts.expect(",")
            tmax = None if ts.accept_word("inf") else ts.number("expected tmax or 'inf'")
            ts.expect("]")
            ts.expect("{")
            if ts.accept("*"):
                edge_modes: frozenset[str] | None = None
            else:
                edge_modes = frozenset(ts.items(lambda: ts.expect_ident("mode literal").text))
            ts.expect("}")
            ts.expect(";")
            edges.append(TfpgEdge(src, dst, tmin, tmax, edge_modes))
        else:
            ts.fail(f"expected 'modes', 'failure', 'or', 'and', or 'edge', found {ts.cur.text!r}")
    g = Tfpg(tuple(modes), nodes, tuple(edges))
    g.check(filename)
    return g


def write_tfpg(g: Tfpg) -> str:
    """Canonical text: modes as declared, nodes by id, edges by (src, dst)."""
    lines = []
    if g.modes:
        lines.append("modes " + ", ".join(g.modes) + ";")
    for node in sorted(g.nodes):
        lines.append(f"{g.nodes[node]} {node};")
    for e in g.sorted_edges():
        lines.append(f"edge {e.src} -> {e.dst} {e.bounds_label()} {e.modes_label()};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# XML format

def tfpg_to_xml(g: Tfpg) -> str:
    nodes = [("failure", {"id": n}, ()) if kind == "failure" else ("discrepancy", {"id": n, "semantics": kind}, ())
             for n, kind in sorted(g.nodes.items())]
    edges = [("edge", {"src": e.src, "dst": e.dst, "tmin": str(e.tmin),
                       "tmax": "inf" if e.tmax is None else str(e.tmax),
                       "modes": "*" if e.modes is None else " ".join(sorted(e.modes))}, ())
             for e in g.sorted_edges()]
    return to_xml(("tfpg", {}, [("modes", {}, [("mode", {"name": m}, ()) for m in g.modes]),
                                ("nodes", {}, nodes), ("edges", {}, edges)]))


def tfpg_from_xml(text: str, filename: str = "<tfpg.xml>") -> Tfpg:
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise _err(f"malformed XML: {exc}", filename=filename)
    if root.tag != "tfpg":
        raise _err(f"expected <tfpg> document, found <{root.tag}>", filename=filename)

    def attr(el, name: str) -> str:
        if name not in el.attrib:
            raise _err(f"<{el.tag}> lacks the attribute {name!r}", filename=filename)
        return el.attrib[name]

    sections: dict[str, list] = {}
    for el in root:
        if el.tag not in ("modes", "nodes", "edges") or el.tag in sections:
            raise _err(f"unexpected element <{el.tag}> in <tfpg>", filename=filename)
        sections[el.tag] = list(el)
    for name, tag in (("modes", "mode"), ("edges", "edge")):
        for el in sections.get(name, ()):
            if el.tag != tag:
                raise _err(f"unexpected element <{el.tag}> in <{name}>", filename=filename)
    modes = [attr(m, "name") for m in sections.get("modes", ())]
    nodes: dict[str, str] = {}
    for el in sections.get("nodes", ()):
        nid = attr(el, "id")
        if nid in nodes:
            raise _err(f"duplicate node {nid!r}", filename=filename)
        if el.tag == "failure":
            nodes[nid] = "failure"
        elif el.tag == "discrepancy":
            sem = el.get("semantics", "")
            if sem not in ("and", "or"):
                raise _err(f"discrepancy {nid!r} has unknown semantics {sem!r}", filename=filename)
            nodes[nid] = sem
        else:
            raise _err(f"unexpected node element <{el.tag}>", filename=filename)
    edges: list[TfpgEdge] = []
    for el in sections.get("edges", ()):
        src, dst, tmin_text, tmax_text, modes_text = (attr(el, a) for a in ("src", "dst", "tmin", "tmax", "modes"))
        try:
            tmin = int(tmin_text)
            tmax = None if tmax_text == "inf" else int(tmax_text)
        except ValueError:
            raise _err(f"edge {src}->{dst} has a non-integer bound in [{tmin_text},{tmax_text}]",
                       filename=filename) from None
        edges.append(TfpgEdge(src, dst, tmin, tmax,
                              None if modes_text == "*" else frozenset(modes_text.split())))
    g = Tfpg(tuple(modes), nodes, tuple(edges))
    g.check(filename)
    return g


# ---------------------------------------------------------------------------
# DOT

def tfpg_to_dot(g: Tfpg) -> str:
    """Graphviz view: failures dashed, AND discrepancies boxes, OR circles;
    edges labeled ``[lo,hi] {modes}``."""
    lines = ["digraph tfpg {", "  rankdir=LR;"]
    for node in sorted(g.nodes):
        kind = g.nodes[node]
        if kind == "failure":
            lines.append(f'  "{node}" [shape=box, style=dashed];')
        elif kind == "and":
            lines.append(f'  "{node}" [shape=box];')
        else:
            lines.append(f'  "{node}" [shape=circle];')
    for e in g.sorted_edges():
        label = f"{e.bounds_label()} {e.modes_label()}"
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
