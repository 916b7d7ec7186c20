"""surdlab: exact continued fractions, Pell equations and power-sum forms.

Everything computes with exact integer/rational arithmetic; floating
point appears only in observational statistics, and every reported
inequality that matters is certified with exact integer bounds.

The names here are the ones the README documents; everything else is
imported from its module (``surdlab.forms``, ``surdlab.surd``, ...).
"""

from .forms import eval_int, parse_form
from .surd import cf_sqrt, cf_stream, fundamental_pell, pell_value_stream, period_length
from .expansion import decide_hypothesis, sqrt_approximation
from .growth import min_solution_growth

__version__ = "0.1.0"
