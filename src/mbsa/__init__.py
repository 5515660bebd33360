"""Model-based safety analysis toolkit for finite-state synchronous transition systems.

The library is organized around a small pipeline:

* ``mbsa.sts`` -- the model language (parser, type checker) and the
  explicit-state engine (initial states, successors, reachability).
* ``mbsa.faults`` -- fault template library, extension instructions, and
  automatic model extension (nominal model -> extended model).
* ``mbsa.analysis`` -- minimal cut sets and cut sequences.
* ``mbsa.fault_tree`` / ``mbsa.probability`` -- (dynamic) fault trees,
  exact and symbolic probability evaluation, evaluation-script emission.
* ``mbsa.fmea`` -- FMEA and dynamic FMEA tables.
* ``mbsa.cca`` -- common cause definitions and their weaving into models.
* ``mbsa.tfpg`` -- timed failure propagation graphs: formats, trace
  admission, behavioral validation, structure synthesis.
* ``mbsa.cli`` -- batch command-line front end.

Every run is a fresh process, so imports are part of every run's cost.
Importing ``mbsa.fault_tree``, ``mbsa.probability``, ``mbsa.analysis``,
``mbsa.cca`` or ``mbsa.sts.model`` loads no model-checking layer (the
``mbsa.sts`` parser, checker, engine and printer, or ``mbsa.faults``): a
probability stage that starts from cut sets never compiles them.  ``analysis``
and ``cca`` import those layers inside the functions that need them.
Importing ``faults`` loads the parser and checker, and importing ``fmea`` or
``tfpg`` loads the engine too.  ``mbsa.cli`` still imports every layer when it
is imported, because the benchmark's layer tracer wraps only the functions of
modules already loaded at that point: a layer loaded later would be reported
as never called.

A format library loads only where it is needed: ``json`` in the CLI's
event-registry writer, ``xml.etree.ElementTree`` inside the two XML readers,
``fault_tree.ft_from_xml`` and ``tfpg.graph.tfpg_from_xml``.  The XML writers
of ``analysis``, ``fault_tree``, ``fmea`` and ``tfpg.graph`` print their
elements through ``mbsa.xmlout``, which needs no library.  A job that reads no
XML, such as any CLI pipeline but ``tfpg`` on an ``.xml`` graph, then neither
compiles ElementTree nor keeps its memory resident (about 0.7 MiB).
"""

__version__ = "0.1.0"
