"""Timed failure propagation graphs: formats, admission, validation, synthesis.

The names below are re-exported from their home submodules on first access
(PEP 562), as ``mbsa.sts`` does, so importing one submodule -- the graph
reader for ``tfpg convert`` -- does not compile validation and synthesis as
well.
"""

from mbsa import reexport

# re-exported name -> its home submodule
_HOME = {name: f"mbsa.tfpg.{module}" for module, names in {
    "graph": ("Tfpg", "TfpgEdge", "TfpgError", "parse_tfpg", "write_tfpg", "tfpg_to_xml", "tfpg_from_xml",
              "tfpg_to_dot"),
    "activation": ("ActivationTrace", "NodeBinding", "parse_binding", "activation_trace_of"),
    "admit": ("AdmitResult", "admits"),
    "validate": ("Inconsistency", "ValidationReport", "validate_behavioral"),
    "synth": ("synthesize_structure",),
}.items() for name in names}

__all__ = list(_HOME)

__getattr__ = reexport(globals(), _HOME)
