"""Timed failure propagation graphs: formats, admission, validation, synthesis."""

from mbsa.tfpg.graph import Tfpg, TfpgEdge, TfpgError, parse_tfpg, write_tfpg, tfpg_to_xml, tfpg_from_xml, tfpg_to_dot
from mbsa.tfpg.activation import ActivationTrace, NodeBinding, parse_binding, activation_trace_of
from mbsa.tfpg.admit import AdmitResult, admits
from mbsa.tfpg.validate import Inconsistency, ValidationReport, validate_behavioral
from mbsa.tfpg.synth import synthesize_structure

__all__ = [
    "Tfpg",
    "TfpgEdge",
    "TfpgError",
    "parse_tfpg",
    "write_tfpg",
    "tfpg_to_xml",
    "tfpg_from_xml",
    "tfpg_to_dot",
    "ActivationTrace",
    "NodeBinding",
    "parse_binding",
    "activation_trace_of",
    "AdmitResult",
    "admits",
    "Inconsistency",
    "ValidationReport",
    "validate_behavioral",
    "synthesize_structure",
]
