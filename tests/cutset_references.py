"""An unpruned cut-set search, for oracle checks.

``compute_mcs`` skips the supersets of the cut sets it has found.  The
reference here tests every subset, the empty one included, and keeps the
minimal explaining ones: it checks that pruning, not the guarded engine
that both searches call through ``Analyzer.explains``.
"""

import itertools

from mbsa.analysis import Analyzer, CutSetResult


def brute_force_mcs(xm, tle, max_card: int, step_bound: int | None = None, cap: int | None = None) -> CutSetResult:
    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_predicate(tle))
    explaining = [frozenset(combo) for card in range(min(max_card, len(ana.events)) + 1)
                  for combo in itertools.combinations(ana.events, card)
                  if ana.explains(frozenset(combo), target_fn, step_bound) is not None]
    minimal = sorted((c for c in explaining if not any(o < c for o in explaining)),
                     key=lambda c: (len(c), sorted(c)))
    nominal = minimal == [frozenset()]
    complete = step_bound is None and (nominal or max_card >= len(ana.events))
    return CutSetResult(tle, minimal, max_card, step_bound, complete, nominal_warning=nominal)
