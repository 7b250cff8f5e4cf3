"""Rank-choose-rank experiments: exact expected spreads and simulations.

A subject ranks n objects, chooses between two of them, and ranks again;
the spread measures how much the chosen object rose and the rejected
object fell between the two rankings. This package computes expected
spreads exactly under a ranking-noise null model (and a two-weight
deliberation model), simulates the classic design and its variants under
pluggable subject models, and estimates design power.
"""

from . import core, designs, exact, noise, stats, verify
# republished: each module's __all__ is the one list of its public names
from .core import *  # noqa: F401,F403
from .designs import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

# README's "module only" names: package attributes, but not exports
_MODULE_ONLY = {"LEVELS", "REFERENCE_TABLE_N12_P08", "TWO_PARAM_DESIGNS", "as_exact_weight",
                "mix_apply", "sample_choice", "sample_noisy_ranking", "state_positions",
                "swap_process_distribution"}

__all__ = sorted({name for module in (core, designs, exact, noise, stats, verify)
                  for name in module.__all__} - _MODULE_ONLY) + ["__version__"]
