"""The import rules of ``mbsa``: the modules each kind of process loads.

Every run of the program is a fresh process, so the modules it loads are part
of its cost.  :func:`loaded` runs a row of :data:`LAYERS` in a fresh process:
Python ``code``, the imports of the file ``imports_of``, or
``mbsa.cli.main(argv)`` on the fixture with its ``exit`` code (paths relative
to the repository, ``{out}`` a scratch directory, ``{refuting}`` the fixture
graph without one edge).  ``tests/test_source.py`` checks each row, naming
modules without the ``mbsa.`` prefix,

* ``ran``: exactly the modules whose body ran, besides the package root;
* ``unrun``: exactly the modules registered in ``sys.modules`` but not run,
  among them every module that the benchmark's tracer (``perfbench/tracer.py``)
  wraps, since it wraps only the modules it finds there;
* ``absent``: standard-library modules that must not load.

A few tests state single rules on the same runs: the start-up libraries, the
probability stage without the model checker, the layers the tracer wraps.
Besides, code in ``src/mbsa`` imports a name from its home module, not through
a re-export, and records are plain ``__slots__`` classes.
"""

import ast
from pathlib import Path

from conftest import ROOT, _refute_tfpg, fresh_python

# Creating dataclasses imports inspect, ast and dis, which cost each run about
# 50 ms; json and ElementTree load only inside the functions that write or
# read their format.
LIBRARIES = frozenset({"dataclasses", "inspect", "json", "xml.etree.ElementTree"})
# A probability literal is kept as its text, checked exactly on its digits:
# only a job that prints or computes a probability reads it as a fraction.
EXACT = frozenset({"fractions", "decimal"})

FIXTURE = ("--model", "fixtures/battery_sensor.smx", "--fei", "fixtures/battery_sensor.fei")
CHECK = ("tfpg", "check", *FIXTURE, "--bind", "fixtures/battery_sensor.bind", "--step-bound", "60")

LAYERS = {
    # the CLI imports no layer: each subcommand imports what it calls
    "cli": dict(code="import mbsa.cli", ran="cli diagnostics sts tfpg",
                unrun="analysis cca ccaweave cutsets fault_tree faults fmea probability sts.check sts.engine "
                      "sts.parse sts.pretty tfpg.activation tfpg.admit tfpg.graph tfpg.synth tfpg.validate",
                absent=LIBRARIES),
    # records load without the code that makes them ...
    "records": dict(code="import mbsa.analysis, mbsa.cca", ran="analysis cca diagnostics", absent=LIBRARIES),
    # ... which a re-exported name loads on first access
    "compute_mcs": dict(code="from mbsa.analysis import compute_mcs", ran="analysis cutsets xmlout",
                        absent=LIBRARIES),
    "apply_cca": dict(code="from mbsa.cca import apply_cca", ran="cca ccaweave diagnostics sts sts.model",
                      absent=LIBRARIES),
    # a probability stage starts from cut sets: it parses, checks, explores and extends no model
    "trees_job": dict(imports_of="perfbench/trees_job.py",
                      ran="analysis cca diagnostics fault_tree probability sts sts.model xmlout", absent=LIBRARIES),
    # extension explores no state; only the event registry writer loads json
    "extend": dict(argv=("extend", *FIXTURE, "--out-dir", "{out}"), exit=0,
                   ran="cli diagnostics faults sts sts.check sts.model sts.parse sts.pretty tfpg",
                   absent=LIBRARIES - {"json"}),
    # the XML writers print through mbsa.xmlout and load no XML library
    "mcs": dict(argv=("mcs", *FIXTURE, "--tle", "sys_dead", "--formats", "tsv,xml", "--out-dir", "{out}"), exit=0,
                ran="analysis cli cutsets diagnostics faults sts sts.check sts.codegen sts.engine sts.model "
                    "sts.parse sts.pretty tfpg xmlout",
                absent=LIBRARIES | EXACT),
    # a tree built and written computes no probability
    "ft_dynamic": dict(argv=("ft", "--dynamic", *FIXTURE, "--tle", "sys_dead", "--out-dir", "{out}"), exit=0,
                       ran="analysis cli cutsets diagnostics fault_tree faults sts sts.check sts.codegen "
                           "sts.engine sts.model sts.parse sts.pretty tfpg xmlout",
                       absent=LIBRARIES),
    # without --cca the probability stage restricts no common cause
    "ftprob": dict(argv=("ftprob", *FIXTURE, "--tle", "sys_dead", "--out-dir", "{out}"), exit=0,
                   ran="analysis cli cutsets diagnostics fault_tree faults probability sts sts.check sts.codegen "
                       "sts.engine sts.model sts.parse sts.pretty tfpg xmlout",
                   absent=LIBRARIES),
    # only the XML table prints an expression
    "fmea": dict(argv=("fmea", *FIXTURE, "--props", "tests/goldens/fixture.props", "--out-dir", "{out}"), exit=0,
                 ran="analysis cli cutsets diagnostics faults fmea sts sts.check sts.codegen sts.engine sts.model "
                     "sts.parse tfpg xmlout",
                 absent=LIBRARIES | EXACT),
    "fmea_dynamic_xml": dict(argv=("fmea", "--dynamic", *FIXTURE, "--props", "tests/goldens/fixture.props",
                                   "--formats", "xml", "--out-dir", "{out}"), exit=0,
                             ran="analysis cli cutsets diagnostics faults fmea sts sts.check sts.codegen sts.engine "
                                 "sts.model sts.parse sts.pretty tfpg xmlout",
                             absent=LIBRARIES | EXACT),
    # admission only recomputes a refutation
    "tfpg_check": dict(argv=(*CHECK, "--tfpg", "fixtures/battery_sensor.tfpg", "--out-dir", "{out}"), exit=0,
                       ran="cli diagnostics faults sts sts.check sts.codegen sts.engine sts.model sts.parse tfpg "
                           "tfpg.activation tfpg.graph tfpg.product tfpg.validate xmlout",
                       absent=LIBRARIES | EXACT),
    "tfpg_refute": dict(argv=(*CHECK, "--tfpg", "{refuting}", "--out-dir", "{out}"), exit=1,
                        ran="cli diagnostics faults sts sts.check sts.codegen sts.engine sts.model sts.parse tfpg "
                            "tfpg.activation tfpg.admit tfpg.graph tfpg.product tfpg.validate xmlout",
                        absent=LIBRARIES | EXACT),
    # synthesis reads no probability either
    "tfpg_synth": dict(argv=("tfpg", "synth", *CHECK[2:], "--outfile", "{out}/synth.tfpg"), exit=0,
                       ran="cli diagnostics faults sts sts.check sts.codegen sts.engine sts.model sts.parse tfpg "
                           "tfpg.activation tfpg.graph tfpg.product tfpg.synth xmlout",
                       absent=LIBRARIES | EXACT),
    "tfpg_convert": dict(argv=("tfpg", "convert", "fixtures/battery_sensor.tfpg", "{out}/g.xml"), exit=0,
                         ran="cli diagnostics sts sts.model sts.parse tfpg tfpg.graph xmlout",
                         absent=LIBRARIES | EXACT),
}


# the last line of output: each loaded module and whether its body ran.  ``type``
# reads no attribute, so the report runs no module that the CLI registered lazily
REPORT = "import sys, types\nprint({n: type(m) is types.ModuleType for n, m in list(sys.modules.items())})"

_LOADED: dict[str, dict[str, bool]] = {}


def _imports_of(path: Path) -> str:
    """The top-level import statements of a module, ``__future__`` aside."""
    return "\n".join(ast.unparse(node) for node in ast.parse(path.read_text(encoding="utf-8")).body
                     if isinstance(node, ast.Import)
                     or isinstance(node, ast.ImportFrom) and node.module != "__future__")


def loaded(name: str, scratch: Path) -> dict[str, bool]:
    """Each module that row ``name`` loads in a fresh process, and whether its
    body ran.  A row runs once per test session; its CLI job writes into
    ``scratch``."""
    if name not in _LOADED:
        row = LAYERS[name]
        if "argv" in row:
            fields = {"out": scratch, "refuting": _refute_tfpg(scratch)}
            argv = [arg.format(**fields) for arg in row["argv"]]
            code = f"from mbsa.cli import main\nassert main({argv!r}) == {row['exit']}"
        else:
            code = row.get("code") or _imports_of(ROOT / row["imports_of"])
        proc = fresh_python("-c", f"{code}\n{REPORT}", cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        _LOADED[name] = ast.literal_eval(proc.stdout.splitlines()[-1])
    return _LOADED[name]
