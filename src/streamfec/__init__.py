"""Delay-constrained streaming codes for packet erasures and packet
errors over adversarial sliding-window channels."""

from .block_code import (
    SystematicCode,
    build_mds,
    build_multi_burst,
    check_full_rank_property,
    check_window_rank_properties,
    delay_tau_star,
    verify_delay_decodable,
    verify_delay_decodable_general,
)
from .bounds import (
    RateBound,
    causal_code_exists,
    de_achievable,
    rate_bound,
)
from .channel import (
    ChannelModel,
    ErasurePattern,
    ErrorPattern,
    burst_supports,
    enumerate_admissible,
    erasure_to_error_split,
    error_to_erasure,
    is_admissible_mbsw,
    is_admissible_sw,
    min_burst_cover,
    periodic_mbsw_pattern,
)
from .galois import GF, Field
from .matrix import (
    FieldMatrix,
    in_span,
    punctured_parity,
    rank,
)
from .search import (
    brute_force_decodable,
    enumerate_codebook,
    search_nonexistence,
)
from .streaming import (
    DecodeReport,
    apply_erasures,
    apply_errors,
    de_encode,
    decode_erasures,
    decode_errors,
    equivalence_sweep,
    simulate,
)

__version__ = "0.1.0"
