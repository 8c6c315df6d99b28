"""Body-machine interface toolkit: IMU recordings to device commands.

Fuses multi-sensor 9-axis streams into calibrated orientation angles,
slices them into overlapping windows, extracts feature vectors,
classifies motion with a linear discriminant model, and maps predictions
to joystick-style commands with proportional speed.
"""

from .dataset_io import (
    SensorInfo,
    Sequence,
    SessionRecording,
    SplitSpec,
    load_recording,
    save_recording,
    split_session,
    synth_session,
)
from .features import (
    AmplitudeRange,
    FeatureLayout,
    Window,
    Windows,
    feature_dim,
    learn_ranges,
    make_windows,
    prop_output,
)
from .fusion import (
    ComplementaryFilter,
    FusionConfig,
    OrientationFrame,
    accel_angles,
    calibrate_neutral,
    mag_yaw,
)
from .lda import LdaModel, deserialize, fit, predict, predict_scores, serialize
from .pipeline import (
    Command,
    CommandMapping,
    CommandOutput,
    StreamingPipeline,
    StreamStats,
    VirtualDevice,
    replay,
)
from .experiments import (
    ConfusionMatrix,
    EvalResult,
    evaluate,
    misclassification_structure,
    run_amplitude_experiment,
    run_fv_comparison,
    run_multiday_experiment,
    train_session,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeRange",
    "Command",
    "CommandMapping",
    "CommandOutput",
    "ComplementaryFilter",
    "ConfusionMatrix",
    "EvalResult",
    "FeatureLayout",
    "FusionConfig",
    "LdaModel",
    "OrientationFrame",
    "SensorInfo",
    "Sequence",
    "SessionRecording",
    "SplitSpec",
    "StreamStats",
    "StreamingPipeline",
    "VirtualDevice",
    "Window",
    "Windows",
    "accel_angles",
    "calibrate_neutral",
    "deserialize",
    "evaluate",
    "feature_dim",
    "fit",
    "learn_ranges",
    "load_recording",
    "mag_yaw",
    "make_windows",
    "misclassification_structure",
    "predict",
    "predict_scores",
    "prop_output",
    "replay",
    "run_amplitude_experiment",
    "run_fv_comparison",
    "run_multiday_experiment",
    "save_recording",
    "serialize",
    "split_session",
    "synth_session",
    "train_session",
]
