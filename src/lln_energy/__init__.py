"""Energy cost of reliable TCP bulk transfer over multi-hop lossy low-power links.

Closed-form expected-bits/energy model, an independent Monte Carlo
simulator for validating it, and sweep/frontier tools for locating
energy-optimal segment sizes and FEC redundancy ratios.
"""

from .framing import (
    FrameLayout,
    LayoutError,
    ResolvedFrames,
    default_fragment_count,
    resolve_frames,
)
from .hopmodel import (
    HopParams,
    attempt_probs,
    expected_success_bits,
    frame_error_prob,
    hop_model,
)
from .pathmodel import (
    EnergyParams,
    ModelBatch,
    PathScenario,
    fragment_failure_sum,
    segment_model,
    segment_models,
    uniform_path,
)

__version__ = "0.1.0"
