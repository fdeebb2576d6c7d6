"""Streaming gesture detection and classification for 4-channel capacitive sensors."""

from .classifier import (
    ClassifierModel,
    FrameGeometry,
    Prediction,
    TrainConfig,
    evaluate,
    frame_to_tensor,
    load_model,
    save_model,
    train,
)
from .dataset import dataset_tensors, truth_frames
from .detector import (
    AdaptiveThresholdDetector,
    DetectorConfig,
    GestureFrame,
    detect_frames,
    initialize_offsets,
    run_detector,
    update_threshold,
)
from .dsp import (
    DspConfig,
    StreamingConditioner,
    band_statistics,
    fft,
    sequential_difference,
    weighted_smoothed_difference,
)
from .errors import (
    CapacityError,
    CapstreamError,
    ConfigError,
    InsufficientDataError,
    InvalidParameterError,
    ModelError,
    OrderingError,
    ProtocolError,
    TrainingDivergedError,
)
from .metrics import (
    CommandScore,
    DetectionReport,
    ExtractionReport,
    command_score,
    detection_rate,
    extraction_rate,
)
from .protocol import (
    COMMANDS,
    GESTURE_LABELS,
    CommandMessage,
    decode_message,
    encode_message,
    map_class_to_command,
)
from .runtime import (
    FileReplaySource,
    LiveByteSource,
    PipelineConfig,
    PipelineResult,
    consume,
    run_pipeline,
)
from .signals import (
    GestureEvent,
    LabeledRecording,
    ProcessedStream,
    RawStream,
    SENSOR_IDS,
)
from .simulate import (
    GestureTrajectory,
    PhysicsParams,
    generate_dataset,
    generate_gesture,
    generate_idle,
    generate_session,
    plan_trajectory,
    pulse_amplitude,
)

__version__ = "0.1.0"
