"""Common cause events: their records.

A common cause is a latched event that occurs nondeterministically at most
once per mission and triggers its member faults, either the same step
(simultaneous) or within per-member step windows (cascading, forced by each
window's upper bound).  The reader of their definitions and their weaving
into a model live in ``mbsa.ccaweave``; ``parse_cca`` and ``apply_cca`` are
re-exported from there on first access (PEP 562), so the probability stage,
which imports this module for its records, does not compile them as well.
"""

from __future__ import annotations

from mbsa import reexport
from mbsa.diagnostics import Diagnostic, InputError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from fractions import Fraction

# re-exported name -> its home module
_HOME = dict.fromkeys(("parse_cca", "apply_cca"), "mbsa.ccaweave")

__all__ = ["CcaError", "Simultaneous", "Cascading", "CommonCauseSpec", *_HOME]

__getattr__ = reexport(globals(), _HOME)


class CcaError(InputError):
    pass


class Simultaneous:
    __slots__ = ()


class Cascading:
    __slots__ = ("windows",)

    def __init__(self, windows: dict[str, tuple[int, int]]):
        self.windows = windows  # member -> (lo, hi); a member without one triggers at once


class CommonCauseSpec:
    __slots__ = ("id", "members", "pattern", "probability", "where")

    def __init__(self, id: str, members: frozenset[str], pattern: Simultaneous | Cascading,
                 probability: str | Fraction, where: tuple[str, int, int] = ("<input>", 0, 0)):
        self.id, self.members, self.pattern, self.probability, self.where = id, members, pattern, probability, where

    def error(self, message: str) -> CcaError:
        filename, line, col = self.where
        return CcaError([Diagnostic(message, line, col, filename=filename)])
