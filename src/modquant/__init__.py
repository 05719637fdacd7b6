"""Channel-splitting post-training fake quantization for linear layers fed
by modality-heterogeneous (text + vision) activations."""

from .calibrate import (
    CalibConfig,
    LossTrace,
    NonFiniteLossError,
    calibrate,
    stability_report,
)
from .layer import (
    SplitLayer,
    build_layer,
    forward,
    forward_reference,
    load_layer,
    save_layer,
)
from .lowrank import LowRankBranch, SvdFactors, build_branch, truncated_svd
from .mocd import (
    ChannelPartition,
    MocdConfig,
    build_partition,
    jaccard,
    percentile_rank,
    select_topk,
    text_score,
    trivial_partition,
    vision_score,
)
from .synth import SynthConfig, generate, generate_weight
from .tensor import (
    ActivationBatch,
    ModalityTag,
    TensorFormatError,
    load_tensor,
    save_tensor,
    split_columns,
)

__version__ = "0.1.0"
