"""surdlab: exact continued fractions, Pell equations and power-sum forms.

Everything computes with exact integer/rational arithmetic; floating
point appears only in observational statistics, and every reported
inequality that matters is certified with exact integer bounds.

The names here are the ones the README documents; everything else is
imported from its module (``surdlab.forms``, ``surdlab.surd``, ...).
``import surdlab`` loads no submodule: a name imports its module on first
use (PEP 562), so ``surdlab.cli`` starts only what its command runs.
"""

__version__ = "0.1.0"

# README name -> the module that defines it.
_HOMES = {name: module for module, names in (
    ("forms", "eval_int parse_form"),
    ("surd", "cf_sqrt cf_stream fundamental_pell pell_value_stream period_length"),
    ("expansion", "decide_hypothesis sqrt_approximation"),
    ("growth", "min_solution_growth"),
) for name in names.split()}
__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        # Also what ``from surdlab import surd`` asks before importing the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals()[name] = value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) - {"_HOMES"} | set(_HOMES))
