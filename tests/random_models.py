"""Seeded random extended models for oracle-equivalence checks."""

import random

from mbsa.cca import apply_cca, parse_cca
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
    members = rng.sample(sorted(xm.events), 2)
    if rng.random() < 0.5:
        pattern = "simultaneous"
    else:
        windows = []
        for m in members:
            lo = rng.randint(0, 1)
            windows.append(f"{m}: [{lo},{lo + rng.randint(0, 1)}]")
        pattern = f"cascading({', '.join(windows)})"
    spec = f"cc cause: members {{{', '.join(members)}}}, pattern {pattern}, prob 0.01;"
    return apply_cca(xm, parse_cca(spec)), tle


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

    kinds, activations, failure_events = {}, {}, {}
    for e in sorted(xm.events):
        kinds[f"F_{e}"] = "failure"
        activations[f"F_{e}"] = xm.events[e].occurrence
        failure_events[f"F_{e}"] = e
    failures = sorted(kinds)
    discrepancies = [f"D{i}" for i in range(rng.randint(1, 2))]
    for d in discrepancies:
        kinds[d] = rng.choice(["or", "or", "and"])
        activations[d] = checked(rng.choice(["never", "never", *names, *(f"!{n}" for n in names)]))
    modes = {"UP": checked("v0"), "DOWN": checked("!v0")} if rng.random() < 0.5 else {"ON": checked("TRUE")}
    binding = NodeBinding(kinds, activations, modes, failure_events)

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
