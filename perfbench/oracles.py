"""Output checks for every benchmark job.

Each check reads a job's artifacts as text and compares them with an answer
that does not come from the code under test: a golden file shipped with the
fixture, a hand-derived table, a closed form, or an enumeration over event
assignments.  A check returns a list of problems; an empty list means the
output is correct.  The one exception is the TFPG counterexample, which is
replayed with ``mbsa.sts.replay_ok`` as acceptance criterion 08 does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree as ET

Problems = list[str]


# ---------------------------------------------------------------------------
# artifact digests


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def compare_digests(reference: dict[str, str], other: dict[str, str]) -> Problems:
    problems = [f"artifact {name} missing" for name in sorted(set(reference) - set(other))]
    problems += [f"unexpected artifact {name}" for name in sorted(set(other) - set(reference))]
    problems += [f"artifact {name} differs between repetitions"
                 for name in sorted(set(reference) & set(other)) if reference[name] != other[name]]
    return problems


# ---------------------------------------------------------------------------
# readers


def read_cut_sets(path: Path) -> list[frozenset[str]]:
    """Cut sets in the ``mcs.tsv`` format: one per line, events tab-separated."""
    return [frozenset(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines() if line]


def read_fei_probs(path: Path) -> dict[str, Fraction]:
    """Event name -> probability from ``fault``/``cc`` definitions (.fei, .cca)."""
    text = path.read_text(encoding="utf-8")
    return {m.group(1): Fraction(m.group(2))
            for m in re.finditer(r"^\s*(?:fault|cc)\s+(\w+)\s*:.*?prob\s+([0-9.eE+-]+)\s*;", text, re.M | re.S)}


def read_node_probs(path: Path) -> dict[str, Fraction]:
    """``ft_probabilities.tsv``: node id -> exact value."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        node, _, value = line.partition("\t")
        out[node] = Fraction(value)
    return out


class FaultTreeFile:
    """The gate structure of an ``ft.ftx`` file."""

    def __init__(self, path: Path):
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        self.root = root.get("root", "")
        self.gates: dict[str, tuple[str, list[str]]] = {
            el.get("id", ""): (el.get("kind", ""), [c.get("ref", "") for c in el])
            for el in root if el.tag == "gate"}

    def leaves(self, node: str) -> frozenset[str]:
        if node not in self.gates:
            return frozenset((node,))
        return frozenset().union(*(self.leaves(c) for c in self.gates[node][1]))

    def cut_sets(self) -> list[frozenset[str]]:
        """One leaf set per child of the root gate."""
        return [self.leaves(c) for c in self.gates[self.root][1]]


def expect_sets(what: str, got: list[frozenset[str]], expected: set[frozenset[str]]) -> Problems:
    """``got`` lists exactly the ``expected`` sets, each once."""
    problems = []
    if len(got) != len(set(got)):
        problems.append(f"{what}: duplicate entries")
    for c in sorted(expected - set(got), key=sorted):
        problems.append(f"{what}: missing {{{', '.join(sorted(c))}}}")
    for c in sorted(set(got) - expected, key=sorted):
        problems.append(f"{what}: unexpected {{{', '.join(sorted(c))}}}")
    return problems


def _files(out_dir: Path, names) -> Problems:
    return [f"artifact {n} not written" for n in names if not (out_dir / n).is_file()]


# ---------------------------------------------------------------------------
# reference answers


def minimal_sets(sets) -> set[frozenset[str]]:
    sets = set(sets)
    return {s for s in sets if not any(o < s for o in sets)}


def threshold_cut_sets(covers: dict[str, frozenset[str]], need: int, max_card: int) -> set[frozenset[str]]:
    """Minimal event sets, at most ``max_card`` large, whose covered units
    (``covers[event]``) number at least ``need``: the closed form of a
    k-of-n voter's cut sets, with a common cause covering its members."""
    hits = set()
    for card in range(1, max_card + 1):
        for combo in itertools.combinations(sorted(covers), card):
            if len(frozenset().union(*(covers[e] for e in combo))) >= need:
                hits.add(frozenset(combo))
    return minimal_sets(hits)


def union_probability(free: dict[str, Fraction], groups: dict[str, tuple[Fraction, tuple[str, ...]]],
                      top) -> Fraction:
    """P(top) by enumerating every event assignment.

    ``free`` events are independent Bernoulli variables; each group
    (probability, members) is conditioned on: when it occurs, it and its
    members are true.  ``top`` maps the set of true events to a bool.
    """
    total = Fraction(0)
    for occurred in itertools.product((False, True), repeat=len(groups)):
        weight = Fraction(1)
        forced = set()
        for (gid, (q, members)), occ in zip(sorted(groups.items()), occurred):
            weight *= q if occ else 1 - q
            if occ:
                forced |= {gid, *members}
        names = sorted(set(free) - forced)
        for values in itertools.product((False, True), repeat=len(names)):
            w = weight
            true = set(forced)
            for name, v in zip(names, values):
                w *= free[name] if v else 1 - free[name]
                if v:
                    true.add(name)
            if top(true):
                total += w
    return total


def pair_tree_probabilities(pairs, probs: dict[str, Fraction],
                            groups: dict[str, tuple[str, ...]]) -> tuple[Fraction, dict[tuple, Fraction]]:
    """Root and per-pair probabilities of a disjoint-pair tree whose groups
    are singleton cut sets.

    Conditioning on each combination of group occurrences, the cut sets are
    over disjoint events, so P(root | groups) = 1 - prod(1 - P(cut set | groups)).
    """
    root = Fraction(0)
    per_pair = {p: Fraction(0) for p in pairs}
    gids = sorted(groups)
    for occurred in itertools.product((False, True), repeat=len(gids)):
        weight = Fraction(1)
        forced = set()
        for gid, occ in zip(gids, occurred):
            weight *= probs[gid] if occ else 1 - probs[gid]
            if occ:
                forced |= set(groups[gid])
        miss = Fraction(0 if any(occurred) else 1)  # each group is a singleton cut set
        for a, b in pairs:
            pa = 1 if a in forced else probs[a]
            pb = 1 if b in forced else probs[b]
            per_pair[(a, b)] += weight * pa * pb
            miss *= 1 - pa * pb
        root += weight * (1 - miss)
    return root, per_pair


# ---------------------------------------------------------------------------
# checks shared by several workloads


def check_extend(out_dir: Path, stem: str, expected: dict[str, Fraction]) -> Problems:
    """The event registry names exactly the defined events, with their probabilities."""
    problems = _files(out_dir, (f"{stem}_extended.smx", f"{stem}_events.json"))
    if problems:
        return problems
    if not (out_dir / f"{stem}_extended.smx").read_text(encoding="utf-8").startswith("MODULE"):
        problems.append("extended model does not start with MODULE")
    events = json.loads((out_dir / f"{stem}_events.json").read_text(encoding="utf-8"))["events"]
    got = {e["name"]: Fraction(e["probability"]) for e in events}
    if got != expected:
        problems.append(f"event registry {sorted(got.items())} != {sorted(expected.items())}")
    return problems


def check_mcs(out_dir: Path, expected: set[frozenset[str]]) -> Problems:
    problems = _files(out_dir, ("mcs.tsv", "mcs.xml"))
    if problems:
        return problems
    problems = expect_sets("mcs.tsv", read_cut_sets(out_dir / "mcs.tsv"), expected)
    xml = ET.fromstring((out_dir / "mcs.xml").read_text(encoding="utf-8"))
    xml_sets = [frozenset(e.get("name", "") for e in cs) for cs in xml]
    return problems + expect_sets("mcs.xml", xml_sets, expected)


def check_dynamic_tree(out_dir: Path, expected: set[frozenset[str]]) -> Problems:
    """Every cut set is one AND gate: all orders of its events are admissible."""
    problems = _files(out_dir, ("ft.ftx", "ft.dot"))
    if problems:
        return problems
    ft = FaultTreeFile(out_dir / "ft.ftx")
    problems = expect_sets("ft.ftx", ft.cut_sets(), expected)
    for child in ft.gates[ft.root][1]:
        if child in ft.gates and ft.gates[child][0] != "and":
            problems.append(f"ft.ftx: gate {child} is {ft.gates[child][0]}, expected and")
    return problems


def check_root_probability(out_dir: Path, expected: Fraction, symbol_probs: dict[str, Fraction],
                           cut_sets: set[frozenset[str]]) -> Problems:
    """The tree has the expected cut sets, and its root value and the
    generated Python function's value at exact Fractions both equal the
    reference exactly."""
    names = ("ft_probabilities.tsv", "ft.ftx", "tle_probability.txt", "tle_probability.py",
             "tle_probability.m")
    problems = _files(out_dir, names)
    if problems:
        return problems
    ft = FaultTreeFile(out_dir / "ft.ftx")
    problems += expect_sets("ft.ftx", ft.cut_sets(), cut_sets)
    values = read_node_probs(out_dir / "ft_probabilities.tsv")
    if values.get(ft.root) != expected:
        problems.append(f"root probability {values.get(ft.root)} != {expected}")
    problems += check_script(out_dir / "tle_probability.py", symbol_probs, expected)
    return problems


def check_script(path: Path, symbol_probs: dict[str, Fraction], expected: Fraction) -> Problems:
    namespace: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    fn = namespace.get("tle_probability")
    if fn is None:
        return [f"{path.name} defines no tle_probability"]
    params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    by_param = {"p_" + name: p for name, p in symbol_probs.items()}
    if not set(params) <= set(by_param):
        return [f"{path.name}: unexpected parameters {sorted(set(params) - set(by_param))}"]
    value = fn(*(by_param[p] for p in params))
    if value != expected:
        return [f"{path.name} evaluates to {value} != {expected}"]
    return []


def fmea_rows(candidates, mcs_by_label: dict[str, set[frozenset[str]]], dynamic: bool) -> set[tuple]:
    """Expected FMEA rows, assuming (as holds for the voter and the fixture
    properties checked here) that a fault set violates a property exactly
    when it contains one of that property's cut sets, and, for dynamic
    tables, does so in every order of its faults."""
    rows = set()
    for cand in candidates:
        violated = ",".join(sorted(label for label, mcs in mcs_by_label.items()
                                   if any(m <= cand for m in mcs)))
        if not violated:
            continue
        faults = ",".join(sorted(cand))
        if dynamic:
            rows.update((faults, "->".join(order), violated) for order in itertools.permutations(sorted(cand)))
        else:
            rows.add((faults, violated))
    return rows


def check_fmea(out_dir: Path, mcs_by_label: dict[str, set[frozenset[str]]], dynamic: bool) -> Problems:
    name = "fmea_dynamic.tsv" if dynamic else "fmea.tsv"
    problems = _files(out_dir, (name,))
    if problems:
        return problems
    lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
    header = "faults\tordering\tviolated" if dynamic else "faults\tviolated"
    if not lines or lines[0] != header:
        return [f"{name}: bad header"]
    got = [tuple(line.split("\t")) for line in lines[1:]]
    candidates = set().union(*mcs_by_label.values())
    expected = fmea_rows(candidates, mcs_by_label, dynamic)
    problems = []
    if len(got) != len(set(got)):
        problems.append(f"{name}: duplicate rows")
    problems += [f"{name}: missing row {r}" for r in sorted(expected - set(got))[:5]]
    problems += [f"{name}: unexpected row {r}" for r in sorted(set(got) - expected)[:5]]
    return problems


def check_pair_tree(out_dir: Path, pairs, probs: dict[str, Fraction],
                    groups: dict[str, tuple[str, ...]]) -> Problems:
    """Root, every pair gate and the generated script of a disjoint-pair tree."""
    root, per_pair = pair_tree_probabilities(pairs, probs, groups)
    expected_sets = {frozenset(p) for p in pairs} | {frozenset((g,)) for g in groups}
    problems = check_root_probability(out_dir, root, probs, expected_sets)
    if problems:
        return problems
    ft = FaultTreeFile(out_dir / "ft.ftx")
    values = read_node_probs(out_dir / "ft_probabilities.tsv")
    for gate in ft.gates[ft.root][1]:
        leaves = tuple(sorted(ft.leaves(gate)))
        if len(leaves) == 2 and values.get(gate) != per_pair[leaves]:
            problems.append(f"gate {gate} {leaves}: {values.get(gate)} != {per_pair[leaves]}")
    return problems


# ---------------------------------------------------------------------------
# TFPG


def read_edges(path: Path) -> set[tuple[str, str]]:
    return {(m.group(1), m.group(2))
            for m in re.finditer(r"^edge\s+(\S+)\s*->\s*(\S+)", path.read_text(encoding="utf-8"), re.M)}


def check_tfpg_complete(out_dir: Path) -> Problems:
    problems = _files(out_dir, ("tfpg_check.txt",))
    if not problems and (out_dir / "tfpg_check.txt").read_text(encoding="utf-8") != "complete\n":
        problems.append("tfpg check did not report complete")
    return problems


def check_tfpg_synth(out_dir: Path, expected: set[tuple[str, str]]) -> Problems:
    problems = _files(out_dir, ("synth.tfpg",))
    if problems:
        return problems
    got = read_edges(out_dir / "synth.tfpg")
    if got != expected:
        return [f"synthesized edges differ: missing {sorted(expected - got)}, extra {sorted(got - expected)}"]
    return []


def check_tfpg_refuted(out_dir: Path, typed_model) -> Problems:
    """The verdict is incomplete and the counterexample replays on the model."""
    from mbsa.sts import Trace, replay_ok

    problems = _files(out_dir, ("tfpg_check.txt", "tfpg_counterexample.trace"))
    if problems:
        return problems
    if not (out_dir / "tfpg_check.txt").read_text(encoding="utf-8").startswith("incomplete\t"):
        return ["tfpg check did not report incomplete"]
    rows = [line.split("\t") for line in
            (out_dir / "tfpg_counterexample.trace").read_text(encoding="utf-8").splitlines()]
    names = rows[0][1:]
    if names != typed_model.var_names():
        return ["counterexample columns do not match the model's variables"]
    parse = [{str(v): v for v in typed_model.domains[typed_model.var_index[n]]} for n in names]
    try:
        states = [{n: p[cell] for n, p, cell in zip(names, parse, row[1:])} for row in rows[1:]]
    except KeyError as exc:
        return [f"counterexample value {exc} outside its domain"]
    if not states or not replay_ok(typed_model, Trace(states)):
        problems.append("counterexample does not replay on the model")
    return problems
