"""Diagnostics shared by all text front-ends (model, FEI, library, CCA, TFPG)."""

from __future__ import annotations


class Diagnostic:
    """One reported problem, formatted as ``file:line:col: severity: message``."""

    __slots__ = ("message", "line", "col", "severity", "filename")

    def __init__(self, message: str, line: int = 0, col: int = 0, severity: str = "error",
                 filename: str = "<input>"):
        self.message, self.line, self.col = message, line, col
        self.severity, self.filename = severity, filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


class MbsaError(Exception):
    """Base class for all toolkit errors."""


class InputError(MbsaError):
    """A syntactic or semantic problem in user-provided text.

    Carries the full diagnostic list; ``str()`` renders one per line.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class ResourceCapError(MbsaError):
    """An enumeration exceeded the configured state cap, or an artifact its size cap."""
