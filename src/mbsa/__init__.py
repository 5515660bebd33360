"""Model-based safety analysis toolkit for finite-state synchronous transition systems.

The library is organized around a small pipeline:

* ``mbsa.sts`` -- the model language (parser, type checker) and the
  explicit-state engine (initial states, successors, reachability).
* ``mbsa.faults`` -- fault template library, extension instructions, and
  automatic model extension (nominal model -> extended model).
* ``mbsa.analysis`` -- the records of minimal cut sets and cut sequences;
  ``mbsa.cutsets`` -- their searches (one cut-set search, and one
  first-occurrence order search shared by cut sequences and dynamic FMEA)
  and their writers.
* ``mbsa.fault_tree`` / ``mbsa.probability`` -- (dynamic) fault trees,
  exact and symbolic probability evaluation, evaluation-script emission.
* ``mbsa.fmea`` -- FMEA and dynamic FMEA tables.
* ``mbsa.cca`` -- the records of common causes; ``mbsa.ccaweave`` -- the
  reader of their definitions and their weaving into models.
* ``mbsa.tfpg`` -- timed failure propagation graphs: formats, trace
  admission, behavioral validation, structure synthesis.
* ``mbsa.cli`` -- batch command-line front end.

Every run is a fresh process, so imports are part of every run's cost.  The
modules that each import and each CLI job load are stated once, in the layer
table ``tests/layers.py``, which a test checks in fresh processes.
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
    fixpoint, which the export round-trip tests rely on.  It lives here, and
    ``mbsa.probability`` re-exports it, so that a writer loads no probability
    core."""
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
