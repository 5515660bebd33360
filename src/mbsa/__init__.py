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
on first access, through :func:`reexport` (PEP 562), as ``mbsa.sts`` does for
its submodules; code in the package imports a name from its home module.
``cutsets`` and ``ccaweave`` import the engine, parser and ``faults`` inside
the functions that need them.  Importing ``faults`` loads the parser and
checker, and importing ``fmea`` or ``tfpg`` loads the engine too.
``mbsa.cli`` still imports every layer when it is imported, because the
benchmark's layer tracer wraps only the functions of modules already loaded
at that point: a layer loaded later would be reported as never called.

A format library loads only where it is needed: ``json`` in the CLI's
event-registry writer, ``xml.etree.ElementTree`` inside the two XML readers,
``fault_tree.ft_from_xml`` and ``tfpg.graph.tfpg_from_xml``.  The XML writers
of ``cutsets``, ``fault_tree``, ``fmea`` and ``tfpg.graph`` print their
elements through ``mbsa.xmlout``, which needs no library.  A job that reads no
XML, such as any CLI pipeline but ``tfpg`` on an ``.xml`` graph, then neither
compiles ElementTree nor keeps its memory resident (about 0.7 MiB).
"""

import importlib

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
