"""Finite-state synchronous transition systems: language, checker, engine.

The names below are re-exported from their home submodules on first access
(PEP 562), so importing one submodule -- ``mbsa.sts.model`` for the fault-tree
and probability layers -- does not compile the parser, checker, engine and
printer as well.
"""

from mbsa import reexport

# re-exported name -> its home submodule
_HOME = {name: f"mbsa.sts.{module}" for module, names in {
    "model": ("BoolType", "EnumType", "IntRangeType", "Expr", "BoolConst", "IntConst", "Name", "Next", "UnOp",
              "BinOp", "Ite", "InSet", "SymbolicModel"),
    "parse": ("parse_model", "parse_expr_text", "ParseError"),
    "check": ("type_check", "TypedModel", "TypeError_"),
    "engine": ("initial_states", "successors", "reach", "Trace", "replay_ok"),
    "pretty": ("print_model", "print_expr"),
}.items() for name in names}

__all__ = list(_HOME)

__getattr__ = reexport(globals(), _HOME)
