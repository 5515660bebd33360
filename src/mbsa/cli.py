"""Batch command-line front end.

Subcommands wire the pipeline: extend a nominal model, compute minimal cut
sets, build and evaluate fault trees, generate FMEA tables, and check,
convert, or synthesize timed failure propagation graphs.  Identical inputs
and options produce byte-identical artifacts.

Exit codes: 0 success, 1 negative analysis verdict (an incomplete TFPG),
2 usage, input or file-system error, 3 resource cap exceeded (the state cap,
or expression nesting beyond the interpreter's recursion limit).
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from mbsa import __version__, prob_str, register_lazily
from mbsa.diagnostics import Diagnostic, InputError, MbsaError, ResourceCapError

# Each subcommand imports what it calls inside its body, so a job runs only
# the layers it uses.  The layers are registered all the same, unrun, for the
# benchmark's tracer: it wraps the functions of the modules it finds in
# sys.modules, and its lookups run them first.
register_lazily("mbsa.analysis", "mbsa.cca", "mbsa.ccaweave", "mbsa.cutsets", "mbsa.fault_tree", "mbsa.faults",
                "mbsa.fmea", "mbsa.probability", "mbsa.sts.check", "mbsa.sts.engine", "mbsa.sts.parse",
                "mbsa.sts.pretty", "mbsa.tfpg.activation", "mbsa.tfpg.admit", "mbsa.tfpg.graph",
                "mbsa.tfpg.synth", "mbsa.tfpg.validate")

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read_named(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputError([Diagnostic(f"{what} file not found: {path}", filename=path)])
    return p.read_text(encoding="utf-8")


def _load_extended(args):
    from mbsa.faults import extend_model, load_fault_library, parse_fei
    from mbsa.sts.check import type_check
    from mbsa.sts.parse import parse_model

    model = parse_model(_read_named(args.model, "model"), args.model)
    typed = type_check(model, args.model)
    library = load_fault_library(_read_named(args.flib, "fault library") if args.flib else "",
                                 args.flib or "<flib>")
    instructions = parse_fei(_read_named(args.fei, "fault extension") if args.fei else "",
                             args.fei or "<fei>")
    xm = extend_model(typed, library, instructions)
    specs = []
    if getattr(args, "cca", None):
        from mbsa.ccaweave import apply_cca, parse_cca

        specs = parse_cca(_read_named(args.cca, "common causes"), args.cca)
        xm = apply_cca(xm, specs)
    return xm, specs


def _parse_tle(args, xm):
    from mbsa.sts.parse import parse_expr_text

    if not args.tle:
        raise InputError([Diagnostic("a top-level event is required (--tle)")])
    expr = parse_expr_text(args.tle, "<tle>")
    xm.typed.check_predicate(expr, filename="<tle>")
    return expr


def _step_bound(args) -> int | None:
    return None if args.step_bound == 0 else args.step_bound


def _write(path: Path, text: str):
    """Write any artifact, ``--outfile`` too, making its directory first; print its path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(str(path))


def _registry_json(xm) -> str:
    import json

    from mbsa.sts.pretty import print_expr

    payload = {
        "model": xm.model.name,
        "events": [
            {
                "name": info.name,
                "mode_variable": info.mode_var,
                "occurrence": print_expr(info.occurrence),
                "probability": prob_str(info.probability),
                "suppression": print_expr(info.suppression),
            }
            for info in xm.events.values()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _formats(args, allowed: tuple[str, ...]) -> list[str]:
    formats = list(dict.fromkeys(f.strip() for f in args.formats.split(",") if f.strip()))  # each once, in order
    if not formats:
        raise InputError([Diagnostic(f"no format given (expected one or more of {', '.join(allowed)})")])
    for f in formats:
        if f not in allowed:
            raise InputError([Diagnostic(f"unknown format {f!r} (expected one of {', '.join(allowed)})")])
    return formats


# ---------------------------------------------------------------------------
# Subcommands

def cmd_extend(args) -> int:
    from mbsa.sts.pretty import print_model

    xm, _ = _load_extended(args)
    out = Path(args.out_dir)
    stem = Path(args.model).stem
    _write(out / f"{stem}_extended.smx", print_model(xm.model))
    _write(out / f"{stem}_events.json", _registry_json(xm))
    return EXIT_OK


def _cut_sets(args, xm, tle):
    from mbsa.cutsets import compute_mcs

    result = compute_mcs(xm, tle, args.max_card, _step_bound(args), args.cap)
    if result.nominal_warning:
        print("warning: top-level event is reachable with no faults", file=sys.stderr)
    return result


def cmd_mcs(args) -> int:
    from mbsa.cutsets import cutsets_to_tsv, cutsets_to_xml

    formats = _formats(args, ("tsv", "xml"))
    xm, _ = _load_extended(args)
    result = _cut_sets(args, xm, _parse_tle(args, xm))
    out = Path(args.out_dir)
    for fmt in formats:
        text = cutsets_to_tsv(result) if fmt == "tsv" else cutsets_to_xml(result)
        _write(out / f"mcs.{fmt}", text)
    return EXIT_OK


def _build_tree(args, xm):
    from mbsa.cutsets import compute_cut_sequences
    from mbsa.fault_tree import build_fault_tree
    from mbsa.sts.pretty import print_expr

    tle = _parse_tle(args, xm)
    result = _cut_sets(args, xm, tle)
    sequences = None
    if args.dynamic:
        sequences = compute_cut_sequences(xm, tle, result, _step_bound(args), args.cap)
    probabilities = {name: info.probability for name, info in xm.events.items()}
    return build_fault_tree(result, sequences, tle_label=print_expr(tle), probabilities=probabilities)


def cmd_ft(args) -> int:
    from mbsa.fault_tree import export_ft

    formats = _formats(args, ("xml", "tsv", "dot"))
    xm, _ = _load_extended(args)
    ft = _build_tree(args, xm)
    out = Path(args.out_dir)
    ext = {"xml": "ftx", "tsv": "fttsv", "dot": "dot"}
    for fmt in formats:
        _write(out / f"ft.{ext[fmt]}", export_ft(ft, fmt, with_probabilities=args.with_probabilities))
    return EXIT_OK


def cmd_ftprob(args) -> int:
    from mbsa.fault_tree import (
        ProbabilityAssignment,
        _compile,
        evaluate_probability,
        export_ft,
        rare_event_sum,
        symbolic_probability,
    )
    from mbsa.probability import render_prob_script, tle_probability_text

    xm, specs = _load_extended(args)
    ft = _build_tree(args, xm)
    groups = []
    if specs:  # a member outside the tree cannot change any node's probability
        from mbsa.cca import CommonCauseSpec

        events = ft.basic_events()
        groups = [CommonCauseSpec(g.id, g.members.intersection(events), g.pattern, g.probability, g.where)
                  for g in specs]
    pa = ProbabilityAssignment({n: i.probability for n, i in xm.events.items()}, groups)
    compiled = _compile(ft, groups)  # one BDD serves the values and the closed form
    node_probs = evaluate_probability(ft, pa, compiled)
    symbolic = symbolic_probability(ft, groups, compiled)
    out = Path(args.out_dir)
    lines = [f"{nid}\t{prob_str(node_probs[nid])}" for nid in sorted(node_probs)]
    lines.append(f"rare-event-sum\t{prob_str(rare_event_sum(ft, node_probs))}")
    _write(out / "ft_probabilities.tsv", "\n".join(lines) + "\n")
    _write(out / "ft.ftx", export_ft(ft, "xml", with_probabilities=True))
    _write(out / "tle_probability.txt", tle_probability_text(symbolic))
    _write(out / "tle_probability.py", render_prob_script(symbolic, "python"))
    _write(out / "tle_probability.m", render_prob_script(symbolic, "matlab"))
    return EXIT_OK


def cmd_fmea(args) -> int:
    from mbsa.fmea import export_fmea, generate_dynamic_fmea, generate_fmea
    from mbsa.sts.parse import TokenStream, parse_expr, tokenize

    formats = _formats(args, ("xml", "tsv"))
    xm, _ = _load_extended(args)
    if not args.props:
        raise InputError([Diagnostic("a property file is required (--props)")])
    properties = []
    for lineno, raw in enumerate(_read_named(args.props, "properties").splitlines(), 1):
        # a label is one identifier, lexed as in the model, so that it cannot
        # make a TSV cell ambiguous; every diagnostic gives its real line and column
        ts = TokenStream(tokenize(raw, args.props, lineno), args.props)
        if ts.at_end():
            continue  # a blank or comment line
        if ts.at(":"):
            ts.fail("empty property label")
        label = ts.expect_ident("property label")
        if label.text in dict(properties):
            raise ts.error(label, f"duplicate property label {label.text!r}", InputError)
        if not ts.accept(":"):
            ts.fail(f"expected ':' after property label {label.text!r}, found {ts.cur.text!r}")
        expr = parse_expr(ts)
        ts.accept(";")
        ts.expect_end()
        xm.typed.check_predicate(expr, filename=args.props)
        properties.append((label.text, expr))
    gen = generate_dynamic_fmea if args.dynamic else generate_fmea
    table = gen(xm, properties, args.max_card, _step_bound(args), args.cap)
    out = Path(args.out_dir)
    suffix = "fmea_dynamic" if args.dynamic else "fmea"
    for fmt in formats:
        _write(out / f"{suffix}.{fmt}", export_fmea(table, fmt))
    return EXIT_OK


def _read_tfpg(path: str):
    from mbsa.tfpg.graph import parse_tfpg, tfpg_from_xml

    text = _read_named(path, "tfpg")
    if path.endswith(".xml"):
        return tfpg_from_xml(text, path)
    return parse_tfpg(text, path)


def _bound_model(args):
    from mbsa.tfpg.activation import parse_binding

    xm, _ = _load_extended(args)
    return xm, parse_binding(_read_named(args.bind, "binding"), xm, args.bind)


def cmd_tfpg_check(args) -> int:
    xm, binding = _bound_model(args)
    from mbsa.tfpg.validate import validate_behavioral

    g = _read_tfpg(args.tfpg)
    report = validate_behavioral(g, binding, xm, _step_bound(args), args.cap)
    out = Path(args.out_dir)
    if report.complete:
        _write(out / "tfpg_check.txt", "complete\n")
        return EXIT_OK
    trace, inc = report.counterexamples[0]
    _write(out / "tfpg_check.txt", f"incomplete\t{inc.node}\t{inc.reason}\tstep {inc.step}\n")
    var_names = xm.typed.var_names()
    rows = ["step\t" + "\t".join(var_names)]
    for i, state in enumerate(trace.states):
        rows.append(f"{i}\t" + "\t".join(str(state[v]) for v in var_names))
    _write(out / "tfpg_counterexample.trace", "\n".join(rows) + "\n")
    print(f"incomplete: {inc.node} {inc.reason} at step {inc.step}", file=sys.stderr)
    return EXIT_VERDICT


def cmd_tfpg_convert(args) -> int:
    from mbsa.tfpg.graph import tfpg_to_dot, tfpg_to_xml, write_tfpg

    g = _read_tfpg(args.infile)
    target = args.to
    if target == "auto":
        target = "xml" if args.outfile.endswith(".xml") else ("dot" if args.outfile.endswith(".dot") else "text")
    text = {"text": write_tfpg, "xml": tfpg_to_xml, "dot": tfpg_to_dot}[target](g)
    _write(Path(args.outfile), text)
    return EXIT_OK


def cmd_tfpg_synth(args) -> int:
    from mbsa.tfpg.graph import write_tfpg

    xm, binding = _bound_model(args)
    from mbsa.tfpg.synth import synthesize_structure

    g = synthesize_structure(xm, binding, _step_bound(args), args.cap)
    _write(Path(args.outfile), write_tfpg(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring

def _at_least(low: int):
    """The argparse type of an integer bound: anything but an integer >=
    ``low`` is a usage error."""

    def bound(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return value

    return bound


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    """A config value for a switch, case-insensitive."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError("expected 1, true, yes, 0, false or no") from None


def _common(sub: argparse.ArgumentParser, *, tle: bool = False, max_card: bool = True,
            step_bound: bool = True, cap: bool = True, out_dir: bool = True):
    sub.add_argument("--config", help="key = value configuration file; flags win")
    sub.add_argument("--model", default="", help="nominal model (.smx)")
    sub.add_argument("--flib", default="", help="fault library (.flib), merged over built-ins")
    sub.add_argument("--fei", default="", help="fault extension instructions (.fei)")
    sub.add_argument("--cca", default="", help="common cause definitions (.cca)")
    if out_dir:
        sub.add_argument("--out-dir", default=".", help="artifact directory")
    if cap:
        sub.add_argument("--cap", type=_at_least(1), default=None, help="state cap (default 10^7)")
    if tle:
        sub.add_argument("--tle", default="", help="top-level event expression")
    if max_card:
        sub.add_argument("--max-card", type=_at_least(1), default=4, help="cut set cardinality bound")
    if step_bound:
        sub.add_argument("--step-bound", type=_at_least(0), default=0, help="step bound (0 = unbounded)")


class _Subcommand(argparse.ArgumentParser):
    """The parser of one subcommand, given its arguments by its wiring
    function ``wire`` on the first parse, and with them the default ``func``
    (its command function, if it has one).  argparse calls the chosen
    subcommand's ``parse_known_args`` only, so a job builds no other
    subcommand's arguments: each ``add_argument`` makes a help formatter,
    which asks for the terminal size.

    A ``--config`` file is a source of flags: its lines go ahead of the
    arguments as ``--key=value``, a true switch as ``--key`` and a false one
    left out, so that one parse lets the command line's flags win, converts
    the file's values and finds a required flag in either.  Each key and
    value is checked first, so that its fault is reported at the file."""

    def __init__(self, *, wire, func, **kwargs):
        super().__init__(**kwargs)
        self._wire, self._func = wire, func

    def parse_known_args(self, args=None, namespace=None):
        if self._wire is not None:
            self._wire(self)
            self._wire = None
            if self._func is not None:
                self.set_defaults(func=self._func)
        path = self._config_path(args)
        if path:
            args = [*self._config_flags(path), *args]
        return super().parse_known_args(args, namespace)

    def _config_path(self, args: list[str]) -> str | None:
        """The ``--config`` value that argparse will take from ``args`` (the
        last one; its name may be abbreviated), or None, also when ``args``
        ask for help: help wins over a faulty file."""
        options = self._option_string_actions
        path = None
        for i, arg in enumerate(args):
            if arg == "--":
                break
            name, eq, value = arg.partition("=")
            if name not in options:  # argparse takes a unique prefix of a long option for it
                prefixed = [o for o in options if name.startswith("--") and o.startswith(name)]
                name = prefixed[0] if len(prefixed) == 1 else None
            dest = options[name].dest if name else None
            if dest == "help":
                return None
            if dest == "config":
                path = value if eq else next(iter(args[i + 1:]), None)
        return path

    def _config_flags(self, path: str) -> list[str]:
        """The ``key = value`` lines of config file ``path`` (# comments) as
        flags, each value checked as its flag's argument would be, a switch's
        as :func:`_boolean`."""
        config: dict[str, str] = {}
        for lineno, raw in enumerate(_read_named(path, "config").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError([Diagnostic("expected 'key = value'", lineno, filename=path)])
            key, _, value = line.partition("=")
            config[key.strip().replace("_", "-")] = value.strip()
        actions = {a.dest: a for a in self._actions if a.option_strings and a.dest not in ("config", "help")}
        flags = []
        for key, value in config.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise InputError([Diagnostic(f"unknown config key {key!r}", filename=path)])
            try:
                if action.nargs != 0:  # a switch has nargs 0
                    (action.type or str)(value)
                    flags.append(f"{action.option_strings[0]}={value}")
                elif _boolean(value):
                    flags.append(action.option_strings[0])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InputError([Diagnostic(f"config key {key!r}: bad value {value!r} ({exc})",
                                             filename=path)]) from None
        return flags


def _subcommands(parser: argparse.ArgumentParser, dest: str, table):
    """One unwired :class:`_Subcommand` per (name, help line, wiring function,
    command function or None) of ``table``."""
    subs = parser.add_subparsers(dest=dest, required=True, parser_class=_Subcommand)
    for name, help_line, wire, func in table:
        subs.add_parser(name, help=help_line, wire=wire, func=func)


def _extend_args(p):
    _common(p, max_card=False, step_bound=False, cap=False)  # extension explores no state


def _mcs_args(p):
    _common(p, tle=True)
    p.add_argument("--formats", default="tsv", help="comma-separated: tsv,xml")


def _ft_args(p):
    _common(p, tle=True)
    p.add_argument("--dynamic", action="store_true", help="detect required event orders (PAND gates)")
    p.add_argument("--with-probabilities", action="store_true")
    p.add_argument("--formats", default="xml", help="comma-separated: xml,tsv,dot")


def _ftprob_args(p):
    _common(p, tle=True)
    p.add_argument("--dynamic", action="store_true")


def _fmea_args(p):
    _common(p)
    p.add_argument("--props", default="", help="property file: 'label : expression;' per line")
    p.add_argument("--dynamic", action="store_true", help="dynamic FMEA (orders per row)")
    p.add_argument("--formats", default="tsv", help="comma-separated: xml,tsv")


def _tfpg_args(p):
    _subcommands(p, "tfpg_command", (
        ("check", "behavioral validation against a model", _check_args, cmd_tfpg_check),
        ("convert", "convert between text, XML, and DOT", _convert_args, cmd_tfpg_convert),
        ("synth", "synthesize graph structure from a model", _synth_args, cmd_tfpg_synth),
    ))


def _check_args(p):
    _common(p, max_card=False)
    p.add_argument("--tfpg", required=True, help="graph file (.tfpg or .xml)")
    p.add_argument("--bind", required=True, help="node bindings (.bind)")


def _convert_args(p):
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--to", default="auto", choices=("auto", "text", "xml", "dot"))


def _synth_args(p):
    _common(p, max_card=False, out_dir=False)  # it writes --outfile
    p.add_argument("--bind", required=True, help="node bindings (.bind)")
    p.add_argument("--outfile", required=True, help="output .tfpg path")


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one unwired subcommand parser per command;
    parsing wires the subcommand it picks."""
    parser = argparse.ArgumentParser(prog="mbsa", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mbsa {__version__}")
    _subcommands(parser, "command", (
        ("extend", "extend a nominal model with faults", _extend_args, cmd_extend),
        ("mcs", "compute minimal cut sets", _mcs_args, cmd_mcs),
        ("ft", "build a (dynamic) fault tree", _ft_args, cmd_ft),
        ("ftprob", "evaluate fault tree probabilities and emit scripts", _ftprob_args, cmd_ftprob),
        ("fmea", "generate an FMEA table", _fmea_args, cmd_fmea),
        ("tfpg", "timed failure propagation graphs", _tfpg_args, None),
    ))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run its subcommand in this process; return its exit
    code (2 for a faulty ``--config`` file too, as for any input error).
    Tests and the benchmark's tracer call it.  It leaves the cyclic collector
    as its caller set it and never freezes the heap, so a calling process
    keeps collecting its garbage."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:  # the checker, printer and code generator walk expressions recursively
        print("resource cap exceeded: expression nesting beyond the interpreter's recursion limit", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_INPUT
    except MbsaError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # an input read or an artifact written: the path is the position
        print(Diagnostic(exc.strerror or str(exc), filename=str(exc.filename or "<input>")), file=sys.stderr)
        return EXIT_INPUT


def run():
    """The ``mbsa`` program (``python -m mbsa.cli``, the installed ``mbsa``
    script): :func:`main` on ``sys.argv``, then ``sys.exit`` with its code.

    The cyclic collector is off for the whole job (``gc.disable``): a job
    leaves a few hundred objects in cycles whatever the size of its search
    (about 50 KiB after a fixture ``tfpg synth``, whose 47 collector passes
    took 6 ms), so collecting frees next to nothing for its cost.  Every way
    out, argparse's ``--help``, ``--version`` and usage errors included, then
    freezes the heap (``gc.freeze``): the interpreter's finalization skips
    the loaded modules and the job's objects in its collections, which cost
    each job 4-5 ms after its last artifact was written (about 8 % of a
    fixture ``extend``).  Exit handlers, stream flushes and profilers still
    run, as they would not after ``os._exit``.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
