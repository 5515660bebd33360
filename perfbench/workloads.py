"""Seeded input generators for the ``voter`` and ``trees`` workloads.

Every generator is a pure function of its seed: generating the same seed
twice writes byte-identical files.  The seed varies probabilities, sensor
order and common-cause placement, never the sizes, so run time does not
depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# k-of-n voter: n latched sensors, each with one permanent stuck-at fault;
# the top-level event is fewer than k sensors still reporting ok.
VOTER_N = 6
VOTER_K = 3
VOTER_MAX_CARD = 4

# disjoint-pair trees: exact probability is exponential in the pair count
# (on a 2-core x86-64 container: 1.6 s for 9 pairs, 4.5 s for 10; 0.7 s for
# 8 pairs with two dependency groups)
TREE_PAIRS = 9
TREE_CCA_PAIRS = 8

# decimal probabilities keep every exact result a finite decimal
_PROBS = ("0.001", "0.002", "0.003", "0.004", "0.005", "0.0005", "0.0002", "0.0001")
_CAUSE_PROBS = ("0.0001", "0.0002", "0.00005", "0.00001")


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# voter


@dataclass
class VoterSpec:
    """What the voter generator chose; the output checks derive answers from it."""

    n: int
    k: int
    max_card: int
    faults: dict[str, str]  # event -> sensor
    probs: dict[str, str]  # event (and cause) -> decimal probability
    causes: dict[str, tuple[str, ...]]  # cause -> member events
    watched: str  # the sensor the single-sensor property watches


def generate_voter(seed: int, out: Path) -> VoterSpec:
    """Write voter.smx, voter.fei, voter.cca and voter.props into ``out``."""
    n, k = VOTER_N, VOTER_K
    rng = random.Random(f"voter:{seed}")
    sensors = [f"s{i}" for i in range(n)]
    rng.shuffle(sensors)
    faults = {f"f_{s}": s for s in sensors}
    probs = {e: rng.choice(_PROBS) for e in faults}

    lines = [f"-- {k}-of-{n} sensor voter (generated, seed {seed})", "MODULE voter", "VAR"]
    lines += [f"  {s} : boolean;" for s in sensors]
    lines += ["DEFINE", "  ok_count := " + " + ".join(f"({s} ? 1 : 0)" for s in sensors) + ";"]
    lines += ["INIT " + " & ".join(sensors) + ";"]
    lines += [f"TRANS next({s}) = {s};" for s in sensors]
    _write(out / "voter.smx", "\n".join(lines) + "\n")

    fei = [f"fault {e}: target {s}, template stuck_at(FALSE), dynamics permanent, prob {probs[e]};"
           for e, s in faults.items()]
    _write(out / "voter.fei", "\n".join(fei) + "\n")

    # one simultaneous and one cascading cause, each over its own pair
    members = rng.sample(sorted(faults), 4)
    simul, casc = tuple(sorted(members[:2])), tuple(sorted(members[2:]))
    causes = {"cc_burst": simul, "cc_heat": casc}
    for c in causes:
        probs[c] = rng.choice(_CAUSE_PROBS)
    cca = [
        f"cc cc_burst: members {{{', '.join(simul)}}}, pattern simultaneous, prob {probs['cc_burst']};",
        f"cc cc_heat: members {{{', '.join(casc)}}}, "
        f"pattern cascading({casc[0]}: [0,1], {casc[1]}: [1,2]), prob {probs['cc_heat']};",
    ]
    _write(out / "voter.cca", "\n".join(cca) + "\n")

    watched = rng.choice(sensors)
    props = [f"lost : ok_count < {k};", f"degraded : ok_count < {n - 1};", f"watch : !{watched};"]
    _write(out / "voter.props", "\n".join(props) + "\n")
    return VoterSpec(n, k, VOTER_MAX_CARD, faults, probs, causes, watched)


# ---------------------------------------------------------------------------
# trees


@dataclass
class TreeSpec:
    pairs: list[tuple[str, str]]
    probs: dict[str, str]  # event (and group) -> decimal probability
    groups: dict[str, tuple[str, ...]]  # group -> member events


def generate_tree(seed: int, out: Path, pairs: int, groups: int = 0) -> TreeSpec:
    """Write tree.mcs.tsv (the ``mcs.tsv`` format), tree.prob.tsv and
    tree.groups.tsv into ``out``.

    The cut sets are ``pairs`` disjoint two-event sets.  Each dependency
    group is also a singleton cut set; its two members are the first events
    of two different pairs, and no event is in two groups.  Event names keep
    pairs adjacent in sorted order so that the seed cannot change the
    expansion order the exact evaluation follows.
    """
    rng = random.Random(f"tree:{seed}:{pairs}:{groups}")
    pair_list = [(f"e{i:02d}a", f"e{i:02d}b") for i in range(pairs)]
    probs = {e: rng.choice(_PROBS) for pair in pair_list for e in pair}
    chosen = rng.sample(range(pairs), 2 * groups)
    group_map = {}
    for g in range(groups):
        gid = f"g{g}"
        group_map[gid] = tuple(sorted(pair_list[i][0] for i in chosen[2 * g:2 * g + 2]))
        probs[gid] = rng.choice(_CAUSE_PROBS)

    cut_sets = [[g] for g in sorted(group_map)] + [list(p) for p in pair_list]
    _write(out / "tree.mcs.tsv", "".join("\t".join(c) + "\n" for c in cut_sets))
    _write(out / "tree.prob.tsv", "".join(f"{e}\t{p}\n" for e, p in sorted(probs.items())))
    _write(out / "tree.groups.tsv",
           "".join(f"{g}\t{','.join(m)}\n" for g, m in sorted(group_map.items())))
    return TreeSpec(pair_list, probs, group_map)
