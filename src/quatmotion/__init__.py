"""Quaternion rotary attention for music-conditioned motion prediction.

The package is plain numpy end to end: a small reverse-mode tape
(autograd), quaternion algebra and rotation conversions (quaternion),
rotary position embeddings (spe), quaternion rotary attention (qra), the
encoder/decoder model with checkpoint I/O (model), the training loop
(training), the forked worker both use on a second core (forked),
synthetic beat-locked data plus stream files (features), distribution
and rhythm metrics (metrics), and executable invariant suites
(verification) behind the `quatmotion` command line.
"""

from .errors import QuatMotionError
from .quaternion import hamilton, q_conj, q_norm, quat_to_rotmat, rotmat_to_quat, unit_exp
from .spe import angle_tables, theta_schedule
from .qra import qra_attention, random_head, rotary_logits
from .model import ModelConfig, autoregressive_generate, load_checkpoint, save_checkpoint
from .training import TrainConfig, train
from .features import StreamMeta, load_stream, save_stream, synth_pair
from .metrics import beat_align, diversity, fid, motion_beats, music_beats

__version__ = "0.1.0"

__all__ = [
    "QuatMotionError",
    "hamilton", "q_conj", "q_norm", "quat_to_rotmat", "rotmat_to_quat", "unit_exp",
    "angle_tables", "theta_schedule",
    "qra_attention", "random_head", "rotary_logits",
    "ModelConfig", "autoregressive_generate", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "train",
    "StreamMeta", "load_stream", "save_stream", "synth_pair",
    "beat_align", "diversity", "fid", "motion_beats", "music_beats",
    "__version__",
]
