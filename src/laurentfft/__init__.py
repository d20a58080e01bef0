"""DFT/DHT transform engine on a trigonometric-weighted ternary matrix
decomposition, with bit-exact fixed-point arithmetic and a device memory
model for golden-model testbenches."""

from .engine import (
    FixedConfig,
    QuantizationReport,
    TransformResult,
    TransformSelect,
    execute,
    quantization_report,
)
from .fixed import (
    Fixed,
    OverflowFlag,
    QFormat,
    ROUND_HALF_AWAY,
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    fx_add,
    fx_mul,
    fx_sub,
    quantize,
    widen,
)
from .memory import (
    MemoryImage,
    StimulusFormatError,
    load_stimulus,
    pack_output,
    read_output_words,
    run_device,
    unpack_output,
    write_output_words,
    write_stimulus,
)
from .plan import (
    FactoredTernary,
    LaurentPlan,
    OpCount,
    PlanConstructionError,
    Stream,
    UnsupportedLengthError,
    build_M,
    build_plan,
    chi,
    congruence_class,
    count_ops,
    echelon_factor,
    exponent_matrix,
    format_plan,
    reconstruct,
)
from .reference import dft_direct, dft_matrix, dht_direct

__version__ = "0.1.0"

__all__ = [
    "FixedConfig", "QuantizationReport", "TransformResult",
    "TransformSelect", "execute", "quantization_report",
    "Fixed", "OverflowFlag", "QFormat",
    "ROUND_HALF_AWAY", "ROUND_HALF_EVEN", "ROUND_TRUNCATE",
    "fx_add", "fx_mul", "fx_sub", "quantize", "widen",
    "MemoryImage", "StimulusFormatError", "load_stimulus", "pack_output",
    "read_output_words", "run_device", "unpack_output", "write_output_words",
    "write_stimulus",
    "FactoredTernary", "LaurentPlan", "OpCount",
    "PlanConstructionError", "Stream", "UnsupportedLengthError",
    "build_M", "build_plan", "chi", "congruence_class", "count_ops", "echelon_factor",
    "exponent_matrix", "format_plan", "reconstruct",
    "dft_direct", "dft_matrix", "dht_direct",
]
