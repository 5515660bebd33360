"""Model-based safety analysis toolkit for finite-state synchronous transition systems.

The library is organized around a small pipeline:

* ``mbsa.sts`` -- the model language (parser, type checker) and the
  explicit-state engine (initial states, successors, reachability).
* ``mbsa.faults`` -- fault template library, extension instructions, and
  automatic model extension (nominal model -> extended model).
* ``mbsa.analysis`` -- the records of minimal cut sets and cut sequences;
  ``mbsa.cutsets`` -- their search and their writers.
* ``mbsa.fault_tree`` / ``mbsa.probability`` -- (dynamic) fault trees,
  exact and symbolic probability evaluation, evaluation-script emission.
* ``mbsa.fmea`` -- FMEA and dynamic FMEA tables.
* ``mbsa.cca`` -- the records of common causes; ``mbsa.ccaweave`` -- the
  reader of their definitions and their weaving into models.
* ``mbsa.tfpg`` -- timed failure propagation graphs: formats, trace
  admission, behavioral validation, structure synthesis.
* ``mbsa.cli`` -- batch command-line front end.

Every run is a fresh process, so imports are part of every run's cost.
Importing ``mbsa.fault_tree``, ``mbsa.probability``, ``mbsa.analysis``,
``mbsa.cca`` or ``mbsa.sts.model`` loads no model-checking layer (the
``mbsa.sts`` parser, checker, engine and printer, ``mbsa.faults``,
``mbsa.cutsets`` or ``mbsa.ccaweave``): a probability stage that starts from
cut sets never compiles them.  ``analysis`` and ``cca`` re-export the names
whose home is ``cutsets`` or ``ccaweave`` (``compute_mcs``, ``apply_cca``, ...)
on first access, through :func:`reexport` (PEP 562), as ``mbsa.sts`` and
``mbsa.tfpg`` do for their submodules; code in the package imports a name
from its home module.
``cutsets`` and ``ccaweave`` import the engine, parser and ``faults`` inside
the functions that need them.  Importing ``faults`` loads the parser and
checker, and importing ``fmea`` or a ``tfpg`` module but ``graph`` loads the
engine too.  ``mbsa.cli`` imports no layer when it is imported: each
subcommand imports what it calls inside its function, so a job runs only the
layers it uses (``extend`` none of ``cutsets``, ``fault_tree``,
``probability``, ``fmea``, the engine or ``tfpg``).  For that,
:func:`prob_str`, the text of a probability in every artifact, lives here,
and ``mbsa.probability`` re-exports it.  The CLI still registers every layer in
``sys.modules``, unrun, through :func:`register_lazily`.  That is for the
benchmark's layer tracer, which wraps only the functions of the modules it
finds there, running each as it looks it up: a layer missing from
``sys.modules`` would be reported as never called.  The registration can go
once the tracer wraps modules as they are imported.

A format library loads only where it is needed: ``json`` in the CLI's
event-registry writer, ``xml.etree.ElementTree`` inside the two XML readers,
``fault_tree.ft_from_xml`` and ``tfpg.graph.tfpg_from_xml``.  The XML writers
of ``cutsets``, ``fault_tree``, ``fmea`` and ``tfpg.graph`` print their
elements through ``mbsa.xmlout``, which needs no library.  A job that reads no
XML, such as any CLI pipeline but ``tfpg`` on an ``.xml`` graph, then neither
compiles ElementTree nor keeps its memory resident (about 0.7 MiB).
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"


def reexport(namespace: dict, homes: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: each name of ``homes`` is loaded from its home module, the
    value of ``homes``, on first access and kept in ``namespace``, so later
    lookups skip the hook.  Importing the re-exporting module loads no home."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(home), name)
        return value

    return __getattr__


def register_lazily(*names: str):
    """Put each module of ``names`` in ``sys.modules``, and on its parent
    package, without running its body: the body runs on the first access to
    any of its attributes (``importlib.util.LazyLoader``).  A module already
    imported is left as it is."""
    for name in names:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)


def prob_str(v) -> str:
    """Stable textual probability: exact decimal when one exists, else the
    shortest float repr.  Re-parsing with Fraction() and re-rendering is a
    fixpoint, which the export round-trip tests rely on."""
    from fractions import Fraction

    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        k = max(twos, fives)
        digits = v.numerator * 10**k // v.denominator
        text = f"{digits:0{k + 1}d}"
        out = (text[:-k] + "." + text[-k:]).rstrip("0").rstrip(".")
        return out if out else "0"
    return repr(float(v))
