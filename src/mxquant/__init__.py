"""MX block floating-point quantization with learnable block-wise affine transforms."""

from .calib import (
    CalibConfig,
    FusedLayer,
    Theta,
    adamw_step,
    backward,
    calibrate_layer,
    cosine_lr,
    fuse,
    fused_forward,
    quantized_forward,
)
from .clipping import ClipParams, clip_gradients
from .errors import (
    DataError,
    DivergenceError,
    FileFormatError,
    MxQuantError,
    NonFiniteError,
    NumericalError,
    ShapeError,
    SingularTransformError,
)
from .formats import (
    BLOCK,
    E2M1,
    E4M3,
    FormatConfig,
    MxFormat,
    MxTensor,
    dequantize_block,
    format_for_bits,
    quantize_block,
    quantize_dequantize,
    quantize_dequantize_with_mask,
    quantize_tensor,
)
from .transform import (
    DecompositionKind,
    GpkTransform,
    block_hadamard,
    gpk_forward,
    gpk_inverse_forward,
    param_count,
)

__version__ = "0.1.0"
BACKEND = "numpy"  # the block codec is pure numpy
