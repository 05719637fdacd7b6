"""Channel-splitting post-training fake quantization for linear layers fed
by modality-heterogeneous (text + vision) activations.

The package exports the entry points, which check their input, and the
types they take or return.  The steps behind them (the selection scores,
the SVD and branch construction, the column split, the quantizers) trust
their callers and stay in their modules.
"""

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
from .lowrank import LowRankBranch
from .mocd import ChannelPartition, MocdConfig, build_partition, trivial_partition
from .synth import SynthConfig, generate, generate_weight
from .tensor import (
    ActivationBatch,
    ModalityTag,
    TensorFormatError,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"
