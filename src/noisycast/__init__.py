"""Sequential binary hypothesis testing over unreliable broadcast channels.

Nodes decide in a fixed order from a private signal plus a window of
earlier, channel-corrupted decisions.  The package computes the resulting
error probabilities three ways (exact window recursion, deterministic rate
recursion, Monte Carlo) and fits the observed decay laws.
"""

import types

__version__ = "0.1.0"  # set before the submodules load: presets records it in every verdict

from .analysis import (
    FitResult,
    SeriesResult,
    config_hash,
    default_grid,
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    series_from_csv,
    theta_sandwich,
    write_series_csv,
)
from .belief_model import BeliefModel, tail_constants
from .channels import (
    Channel,
    ErasureSchedule,
    FlipSchedule,
    erasure_levels,
    flip_probs,
    target_informativeness,
)
from .exact_dp import (
    MAX_CAPACITY,
    MartingaleReport,
    exact_error_series,
    martingale_check,
    scan_error_series,
)
from .montecarlo import (
    ExperimentConfig,
    HerdingReport,
    HerdingRow,
    TrialRecord,
    estimate_error_series,
    herding_stats,
    run_trial,
)
from .recursions import (
    LimitClassification,
    RecursionSpec,
    SandwichResult,
    StepSizeError,
    iterate_recursion,
    lemma3_sandwich,
    lemma4_classify,
    rate_recursion,
    type1_lower_bound,
)
from .strategy import (
    clamp_belief,
    conditional_decision_probs,
    public_belief_step,
)
from .topology import (
    MemorySchedule,
    backward_search_depth,
    chain_success_probability,
    memory_size,
)

# the preset registry loads on first use of one of these names: no engine run needs it
_PRESET_NAMES = ("Overrides", "PRESET_INFO", "PresetError", "UnknownPresetError", "list_presets", "run_preset")


def __getattr__(name: str):
    if name in _PRESET_NAMES:
        from . import presets

        return getattr(presets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the public API is every name imported above and the preset names; deriving it keeps them from drifting apart
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + list(_PRESET_NAMES)
)
