"""Frame dataset preparation from labeled recordings.

Training frames are cut from the conditioned stream around the ground-truth
event spans with the same pre/post padding and the same offsets the detector
applies, so frames seen in training match what the detector emits at
inference time. A model records the pads and conditioning its tensors were
cut with (classifier.FrameGeometry), and geometry.configs() gives the
settings that cut frames the same way again.
"""
from __future__ import annotations

import numpy as np

from .classifier import DEFAULT_FRAME_LENGTH, frame_to_tensor
from .detector import DetectorConfig, GestureFrame, initialize_offsets
from .dsp import DspConfig, weighted_smoothed_difference
from .signals import LabeledRecording


def truth_frames(
    rec: LabeledRecording,
    dsp_cfg: DspConfig | None = None,
    det_cfg: DetectorConfig | None = None,
) -> list[GestureFrame]:
    """Offset-subtracted frames sliced at the labeled spans plus detector padding."""
    dsp_cfg = dsp_cfg or DspConfig()
    det_cfg = det_cfg or DetectorConfig()
    processed = weighted_smoothed_difference(rec.stream, dsp_cfg)
    offsets = initialize_offsets(processed, det_cfg.init_period)
    base = processed.start_index
    last = base + len(processed) - 1
    frames = []
    for k, ev in enumerate(rec.events, start=1):
        start = max(ev.start - det_cfg.pre_pad, base)
        end = min(ev.end + det_cfg.post_pad, last)
        channels = processed.values[:, start - base : end - base + 1] - offsets[:, None]
        frames.append(GestureFrame(k=k, start=start, end=end, channels=channels))
    return frames


def dataset_tensors(
    recordings: list[LabeledRecording],
    dsp_cfg: DspConfig | None = None,
    det_cfg: DetectorConfig | None = None,
    length: int = DEFAULT_FRAME_LENGTH,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack (N, length, 4) tensors and class-id labels from truth frames."""
    tensors = []
    labels = []
    for rec in recordings:
        frames = truth_frames(rec, dsp_cfg, det_cfg)
        for frame, ev in zip(frames, rec.events):
            tensors.append(frame_to_tensor(frame, length))
            labels.append(ev.class_id)
    return np.stack(tensors), np.asarray(labels, dtype=np.int64)
