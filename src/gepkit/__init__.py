"""Error-exponent bounds and typicality-threshold decoder simulation for
distributed channel coding with collision detection."""

from .channel import (
    CodeSpec,
    Dmc,
    MarginalChannel,
    SystemModel,
    binary_entropy,
    make_compound_bsc,
    make_dmc,
    marginalize_out,
    output_marginal,
)
from .decoder import (
    DecodeOutcome,
    ThresholdParams,
    ThresholdTable,
    build_thresholds,
    decode_margin,
    decode_receiver,
    decode_subset,
    decode_with_detection,
    detect_region,
    typicality_threshold,
)
from .ensemble import (
    CodebookRealization,
    ensemble_log_expectation,
    message_count,
    sample_codebook,
)
from .exponents import (
    BoundReport,
    ExponentCache,
    ExponentResult,
    RegionPartition,
    WeightFunction,
    detection_bound,
    exponent_Ec,
    exponent_EiD,
    exponent_EmD,
    gep_bound_D,
    gep_bound_margin,
    gep_bound_partitioned,
    validate_region,
)
from .montecarlo import (
    GepEstimate,
    TrialRecord,
    Verdict,
    classify_error,
    compare_bound,
    empirical_gep,
    run_detection_trials,
    run_trials,
)
from .optimize import DEFAULT_SETTINGS, SearchSettings
from .scenario import Scenario, emit, load_scenario

__version__ = "0.1.0"
