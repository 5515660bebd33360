"""Run the stages of ``mbsa ftprob`` on a generated cut-set file.

Usage::

    PYTHONPATH=src python perfbench/trees_job.py setup|ftprob TREE_DIR OUT_DIR

``TREE_DIR`` holds tree.mcs.tsv, tree.prob.tsv and tree.groups.tsv (see
``workloads.generate_tree``).  ``setup`` builds the fault tree and writes
ft.ftx; ``ftprob`` writes the same artifacts as ``mbsa ftprob``, through the
same library calls in the same order.  Dependency groups are read as
simultaneous common causes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from mbsa import __version__
from mbsa.analysis import CutSetResult
from mbsa.cca import CommonCauseSpec, Simultaneous
from mbsa.fault_tree import (
    ProbabilityAssignment,
    build_fault_tree,
    evaluate_probability,
    export_ft,
    rare_event_approximation,
    symbolic_probability,
)
from mbsa.probability import pexpr_to_text, prob_str, render_prob_script
from mbsa.sts.model import Name


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def load(tree_dir: Path):
    """(cut-set result, event probabilities, dependency groups) from a tree directory."""
    cut_sets = [frozenset(row) for row in _rows(tree_dir / "tree.mcs.tsv")]
    probs = {name: Fraction(p) for name, p in _rows(tree_dir / "tree.prob.tsv")}
    groups = [CommonCauseSpec(gid, frozenset(members.split(",")), Simultaneous(), probs[gid])
              for gid, members in _rows(tree_dir / "tree.groups.tsv")]
    cut_sets.sort(key=lambda c: (len(c), tuple(sorted(c))))
    max_card = max(len(c) for c in cut_sets)
    result = CutSetResult(Name("tle"), cut_sets, max_card, None, complete=True)
    return result, probs, groups


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    stage, tree_dir, out = argv[0], Path(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    result, probs, groups = load(tree_dir)
    ft = build_fault_tree(result, None, tle_label="tle", probabilities=probs)
    _write(out / "ft.ftx", export_ft(ft, "xml", with_probabilities=True))
    if stage == "setup":
        return 0
    pa = ProbabilityAssignment(probs, groups)
    node_probs = evaluate_probability(ft, pa)
    symbolic = symbolic_probability(ft, groups)
    lines = [f"{nid}\t{prob_str(node_probs[nid])}" for nid in sorted(node_probs)]
    lines.append(f"rare-event-sum\t{prob_str(rare_event_approximation(ft, pa))}")
    _write(out / "ft_probabilities.tsv", "\n".join(lines) + "\n")
    _write(out / "tle_probability.txt",
           "symbols: " + ", ".join(symbolic.symbols) + "\n" + pexpr_to_text(symbolic) + "\n")
    _write(out / "tle_probability.py", render_prob_script(symbolic, "python", version=__version__))
    _write(out / "tle_probability.m", render_prob_script(symbolic, "matlab", version=__version__))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
