"""Seeded random extended models and cut-set results for oracle-equivalence
and golden checks."""

import itertools
import random
from fractions import Fraction

from mbsa.analysis import CutSequence, CutSetResult
from mbsa.cca import CommonCauseSpec, Simultaneous, apply_cca, parse_cca
from mbsa.faults import extend_model, load_fault_library, parse_fei
from mbsa.sts.check import type_check
from mbsa.sts.parse import parse_expr_text, parse_model


def random_extended_model(rng: random.Random):
    """A small random boolean transition system with random fault events.

    Shapes are chosen so state spaces stay well under 10^4 states and cut
    sets are usually nontrivial: latched/combinational/free variables,
    stuck-at and inverted faults with mixed dynamics, and an OR-of-ANDs
    top-level event over the faultable variables.
    """
    nvars = rng.randint(3, 4)
    names = [f"v{i}" for i in range(nvars)]
    lines = [f"MODULE random_model", "VAR"]
    for n in names:
        lines.append(f"  {n} : boolean;")
    for n in names:
        lines.append(f"INIT !{n};")
    for n in names:
        style = rng.random()
        if style < 0.5:
            lines.append(f"TRANS next({n}) = {n};")
        elif style < 0.8:
            other = rng.choice([m for m in names if m != n])
            op = rng.choice(["&", "|"])
            lines.append(f"TRANS next({n}) = ({n} {op} {other});")
        # otherwise free: unconstrained next value
    model = type_check(parse_model("\n".join(lines) + "\n"))

    n_events = rng.randint(3, 5)
    fei_lines = []
    for i in range(n_events):
        target = rng.choice(names)
        template = rng.choice(["stuck_at(TRUE)", "stuck_at(FALSE)", "inverted"])
        dynamics = rng.choice(["permanent", "permanent", "sporadic", "transient"])
        fei_lines.append(f"fault e{i}: target {target}, template {template}, "
                         f"dynamics {dynamics}, prob 0.01;")
    xm = extend_model(model, load_fault_library(), parse_fei("\n".join(fei_lines)))

    literals = [rng.choice([n, f"!{n}"]) for n in names]
    terms = []
    for _ in range(rng.randint(1, 2)):
        picked = rng.sample(literals, rng.randint(1, min(2, len(literals))))
        terms.append("(" + " & ".join(picked) + ")")
    tle = parse_expr_text(" | ".join(terms))
    xm.typed.check_expr(tle)
    return xm, tle


def random_cca_model(rng: random.Random):
    """``random_extended_model`` with one common cause woven over two of its
    events: simultaneous, or cascading with random windows.  Returns
    ``(xm, tle)``."""
    xm, tle = random_extended_model(rng)
    return _weave_one_cause(xm, rng)[0], tle


def _weave_one_cause(xm, rng: random.Random):
    """``(woven model, [its one common cause])``."""
    members = rng.sample(sorted(xm.events), 2)
    if rng.random() < 0.5:
        pattern = "simultaneous"
    else:
        windows = []
        for m in members:
            lo = rng.randint(0, 1)
            windows.append(f"{m}: [{lo},{lo + rng.randint(0, 1)}]")
        pattern = f"cascading({', '.join(windows)})"
    specs = parse_cca(f"cc cause: members {{{', '.join(members)}}}, pattern {pattern}, prob 0.01;")
    return apply_cca(xm, specs), specs


# the built-in templates that apply to each variable of random_typed_extended_model
TYPED_TEMPLATES = {
    "n": ("stuck_at(3)", "random", "conditional(b, 3)", "ramp_down(1)"),
    "c": ("stuck_at(C)", "random", "conditional(n > 1, B)"),
    "b": ("stuck_at(TRUE)", "inverted", "random", "conditional(c != A, TRUE)"),
}


def random_typed_extended_model(rng: random.Random):
    """A small random model over ``n : 0..3``, ``c : {A, B, C}`` and a
    boolean with two to four fault events, each of a built-in template that
    applies to its target, at most one of them ``random`` and never a
    ``conditional`` on each of the three variables, and in about
    half of the models one common cause woven over two of them.  An event
    is named after its template (``ramp_down2``).  The top-level event is an
    OR of ANDs of comparisons and ``in`` tests.  Returns ``(xm, tle, specs)``,
    ``specs`` the woven common causes (none or one)."""
    lines = ["MODULE random_typed_extended", "VAR", "  n : 0..3;", "  c : {A, B, C};", "  b : boolean;",
             "INIT n = 1;", "INIT c = A;", "INIT !b;",
             rng.choice(["TRANS next(n) = n;", "TRANS next(n) = (b ? 0 : n);"]),
             rng.choice(["TRANS next(c) = c;", "TRANS next(c) = (b ? B : c);"]),
             rng.choice(["TRANS next(b) = b;", "TRANS next(b) = b | (n = 3);"])]
    model = type_check(parse_model("\n".join(lines) + "\n"))
    faults = []  # [target, template, dynamics]
    for _ in range(rng.randint(2, 4)):
        target = rng.choice(sorted(TYPED_TEMPLATES))
        # one random at most: its free choice variable multiplies every step's successors
        template = rng.choice([t for t in TYPED_TEMPLATES[target]
                               if t != "random" or not any(f[1] == "random" for f in faults)])
        faults.append([target, template, rng.choice(["permanent", "permanent", "sporadic", "transient"])])
    # the guard of a conditional on n reads b's faulty value, on b c's and on c
    # n's: conditionals on all three close a cyclic DEFINE, so every one on the
    # last one's target becomes its stuck_at (after the draw, which stays the same)
    conditionals = [f for f in faults if f[1].startswith("conditional")]
    if {f[0] for f in conditionals} == set(TYPED_TEMPLATES):
        last = conditionals[-1][0]
        for f in conditionals:
            if f[0] == last:
                f[1] = TYPED_TEMPLATES[last][0]
    fei = [f"fault {template.split('(')[0]}{i}: target {target}, template {template}, dynamics {dynamics}, "
           "prob 0.01;" for i, (target, template, dynamics) in enumerate(faults)]
    xm = extend_model(model, load_fault_library(), parse_fei("\n".join(fei)))
    specs = []
    if rng.random() < 0.5:
        xm, specs = _weave_one_cause(xm, rng)
    atoms = [f"n >= {rng.randint(2, 3)}", f"n {rng.choice(['<', '!='])} 1", "n = 2",
             rng.choice(["c in {B, C}", "c in {C}", "!(c in {A, B})"]), "c = B", "b = (c = A)"]
    terms = ["(" + " & ".join(rng.sample(atoms, rng.randint(1, 2))) + ")" for _ in range(rng.randint(1, 2))]
    tle = parse_expr_text(" | ".join(terms))
    xm.typed.check_expr(tle)
    return xm, tle, specs


def random_extend_cases():
    """The 20 seeded extended models of the ``extend`` golden checks:
    ``random_extended_model`` in even cases, ``random_cca_model`` in odd
    ones, five of them simultaneous and five cascading."""
    rng = random.Random(18)
    for i in range(20):
        yield (random_cca_model if i % 2 else random_extended_model)(rng)[0]


def random_typed_model(rng: random.Random):
    """A small random model over integer ranges, an enum and booleans.

    Every variable picks one TRANS shape from a menu that covers what the
    successor generator schedules differently: functional assignments that
    leave their range, assignments reading other next-state values
    (``next(a) = next(b)``), cyclic assignments (demoted to checks, a
    self-cycle included), free variables under residual checks, INVARs and
    defines nested three deep.  Products stay at most 576 states.
    """
    hi = rng.randint(2, 3)
    lit = rng.choice(["A", "B", "C"])
    lines = ["MODULE random_typed", "VAR",
             f"  x : 0..{hi};", "  y : -1..2;", "  m : {A, B, C};",
             "  p : boolean;", "  q : boolean;", "  r : boolean;",
             "DEFINE",
             f"  low := x <= {rng.randint(0, hi)};",
             f"  hot := low & p | m = {lit};",
             "  level := (hot ? x + y : x - 1);",
             "  twice := level + level;"]
    init = {
        "x": ["x = 0", "x = y + 1", None],
        "y": ["y = 0", "y = level", "y in {0, 2}", None],  # level reads y: a self-cycle
        "m": ["m = A", "m != C", None],
        "p": ["!p", "p = q", None],
        "q": ["q", None],
        "r": ["r = hot", "r <-> !p", None],
    }
    trans = {
        "x": ["next(x) = x + 1", "next(x) = (hot ? x : x + 1)", "next(x) = level",
              "next(x) <= x + 1", None],
        "y": ["next(y) = next(x) - 1", "next(y) = twice - y", "next(y) != y", None],
        "m": ["next(m) = (p ? B : m)", "next(m) = C -> next(r)", "next(m) in {A, C}", None],
        "p": ["next(p) = next(q)", "next(p) = next(q) & r", "!next(p)", None],
        "q": ["next(q) = !q", "next(q) = next(p) | hot", "next(q) = next(r) & p", None],
        "r": ["next(r) = next(r) & p", "next(r) = (next(m) = A)", "next(r)", None],
    }
    invar = ["x != 2 | p", "hot -> m != B", "twice >= -2", "y < 2 | !r"]
    for table, section in ((init, "INIT"), (trans, "TRANS")):
        for choices in table.values():
            text = rng.choice(choices)
            if text is not None:
                lines.append(f"{section} {text};")
    for text in invar:
        if rng.random() < 0.35:
            lines.append(f"INVAR {text};")
    return type_check(parse_model("\n".join(lines) + "\n"))


def random_stutter_model(rng: random.Random):
    """A latched model with a TFPG whose finite deadlines it may miss.

    Nominal variables only keep or spread their value, so once the faults
    that will occur have occurred, a run can repeat its state forever.
    Discrepancies are bound to literals or to ``never`` (always false); each
    has incoming edges with a finite ``tmax`` from a failure node and
    sometimes from another node, some gated by the mode.  A failure can thus
    be followed by a discrepancy that stays inactive while the model
    stutters, and the deadline passes on a self-loop.  Returns
    ``(xm, graph, binding)``.
    """
    from mbsa.tfpg import Tfpg, TfpgEdge
    from mbsa.tfpg.activation import NodeBinding

    names = [f"v{i}" for i in range(rng.randint(2, 3))]
    lines = ["MODULE stutter", "VAR", *(f"  {n} : boolean;" for n in names),
             "DEFINE", "  never := v0 & !v0;"]
    for n in names:
        lines.append(f"INIT {rng.choice([n, '!' + n])};")
        other = rng.choice([m for m in names if m != n])
        lines.append(rng.choice([f"TRANS next({n}) = {n};", f"TRANS next({n}) = ({n} | {other});"]))
    model = type_check(parse_model("\n".join(lines) + "\n"))
    fei = [f"fault e{i}: target {rng.choice(names)}, template "
           f"{rng.choice(['stuck_at(TRUE)', 'stuck_at(FALSE)', 'inverted'])}, "
           f"dynamics {rng.choice(['permanent', 'permanent', 'sporadic'])}, prob 0.01;"
           for i in range(rng.randint(1, 2))]
    xm = extend_model(model, load_fault_library(), parse_fei("\n".join(fei)))

    def checked(text):
        expr = parse_expr_text(text)
        xm.typed.check_expr(expr)
        return expr

    kinds, activations = {}, {}
    for e in sorted(xm.events):
        kinds[f"F_{e}"] = "failure"
        activations[f"F_{e}"] = xm.events[e].occurrence
    failures = sorted(kinds)
    discrepancies = [f"D{i}" for i in range(rng.randint(1, 2))]
    for d in discrepancies:
        kinds[d] = rng.choice(["or", "or", "and"])
        activations[d] = checked(rng.choice(["never", "never", *names, *(f"!{n}" for n in names)]))
    modes = {"UP": checked("v0"), "DOWN": checked("!v0")} if rng.random() < 0.5 else {"ON": checked("TRUE")}
    binding = NodeBinding(kinds, activations, modes)

    edges = []
    for d in discrepancies:
        sources = [rng.choice(failures)]
        others = [n for n in kinds if n != d and n not in sources]
        if others and rng.random() < 0.4:
            sources.append(rng.choice(others))
        for src in sources:
            tmin = rng.randint(0, 1)
            tmax = rng.choice([tmin, tmin + 1, tmin + 2, None] if src in failures else [tmin + 1, None])
            gate = None if len(modes) == 1 or rng.random() < 0.5 else frozenset({rng.choice(sorted(modes))})
            edges.append(TfpgEdge(src, d, tmin, tmax, gate))
    graph = Tfpg(tuple(modes), kinds, tuple(edges))
    graph.check()
    return xm, graph, binding


def random_binding_and_graph(xm, rng: random.Random):
    """A random graph over the model's fault events plus derived discrepancies."""
    from mbsa.tfpg import Tfpg, TfpgEdge
    from mbsa.tfpg.activation import NodeBinding

    def checked(text):
        expr = parse_expr_text(text)
        xm.typed.check_expr(expr)
        return expr

    kinds, activations = {}, {}
    for e in sorted(xm.events):
        kinds[f"F_{e}"] = "failure"
        activations[f"F_{e}"] = xm.events[e].occurrence
    nominal_vars = [n for n, _ in xm.model.variables if "#" not in n]
    disc_names = []
    for i, v in enumerate(rng.sample(nominal_vars, min(2, len(nominal_vars)))):
        name = f"D{i}"
        kinds[name] = rng.choice(["or", "and"])
        activations[name] = checked(v if rng.random() < 0.5 else f"!{v}")
        disc_names.append(name)
    binding = NodeBinding(kinds, activations, {"ON": checked("TRUE")})

    edges = []
    for dst in disc_names:
        for src in rng.sample(sorted(kinds), rng.randint(0, 2)):
            if src == dst:
                continue
            tmin = rng.randint(0, 1)
            tmax = rng.choice([None, tmin, tmin + 2])
            edges.append(TfpgEdge(src, dst, tmin, tmax, None))
    graph = Tfpg(("ON",), kinds, tuple(edges))
    graph.check()
    return graph, binding


def random_synthesis_cases():
    """The 24 seeded ``(xm, binding, step_bound)`` inputs of the synthesis
    checks: random extended models with a random binding, alternating with
    stuttering models, each at a bound of 1 to 3 steps."""
    rng = random.Random(11)
    for i in range(24):
        if i % 2:
            xm, _, binding = random_stutter_model(rng)
        else:
            xm, _ = random_extended_model(rng)
            _, binding = random_binding_and_graph(xm, rng)
        yield xm, binding, rng.randint(1, 3)


def random_cut_set_cases():
    """The 20 seeded ``(result, sequences, probabilities, groups)`` inputs of
    the ``ftprob`` golden checks.

    Case 0 has no cut set, so its top-level probability is the constant 0.
    Odd cases have one to three simultaneous dependency groups.  In every
    fourth case the first group id may also be a basic event of the tree; it
    is in cases 5 and 17.  Every third case has cut sequences, so PAND and
    OR-of-PAND gates appear.
    """
    rng = random.Random(13)
    for i in range(20):
        group_ids = [f"g{j}" for j in range(rng.randint(1, 3))] if i % 2 else []
        plain = [f"e{j:02d}" for j in range(rng.randint(2, 12))]
        pool = plain + group_ids[:1] if i % 4 == 1 else plain
        cuts: set[frozenset[str]] = set()
        for _ in range(rng.randint(1, 10) if i else 0):
            cuts.add(frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
        mcs = sorted((c for c in cuts if not any(d < c for d in cuts)), key=lambda c: (len(c), tuple(sorted(c))))
        sequences = None
        if i % 3 == 2:
            sequences = []
            for cut in mcs:
                orders = list(itertools.permutations(sorted(cut)))
                sequences.append(CutSequence(cut, tuple(sorted(rng.sample(orders, rng.randint(1, len(orders)))))))
        events = sorted({e for c in mcs for e in c} - set(group_ids))
        probs = {e: Fraction(rng.randint(0, 1000), 1000) if rng.random() < 0.8 else Fraction(1, rng.randint(3, 9))
                 for e in plain + group_ids}
        groups = [CommonCauseSpec(g, frozenset(rng.sample(events, rng.randint(1, min(3, len(events))))),
                                  Simultaneous(), probs[g]) for g in group_ids if events]
        yield CutSetResult(parse_expr_text("tle"), mcs, 4, None, True), sequences, probs, groups
