"""Exception types shared across the library.

Every contract violation raises one of these rather than a bare ValueError,
so callers (and the CLI exit-code mapping) can tell usage errors, runtime
preconditions and metric preconditions apart.
"""


class QuatMotionError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QuatMotionError):
    """Operand shapes are incompatible."""


class NotSymmetric(QuatMotionError):
    """Matrix expected to be symmetric is not (within tolerance)."""


class NonFiniteLoss(QuatMotionError):
    """Objective evaluated to NaN or infinity during a gradient check."""


class NonFiniteGradient(QuatMotionError):
    """A gradient handed to the optimizer contains NaN or infinity."""


class NotUnit(QuatMotionError):
    """Quaternion expected to have unit norm does not."""


class NotRotation(QuatMotionError):
    """Matrix expected to be a proper rotation (orthonormal, det +1) is not."""


class HeadDimNotQuaternion(QuatMotionError):
    """Per-head attention width is not divisible by 4."""


class ChannelMismatch(QuatMotionError):
    """Feature stream has the wrong channel count for its kind."""


class AudioTooShort(QuatMotionError):
    """Audio stream cannot cover the requested generation window."""


class MalformedFile(QuatMotionError):
    """Stream or checkpoint file failed to parse."""


class MetaMismatch(QuatMotionError):
    """Stream data disagrees with its metadata sidecar."""


class TooFewFrames(QuatMotionError):
    """Motion sequence too short for the requested feature."""


class TooFewItems(QuatMotionError):
    """Feature set too small for a distributional metric."""


class EmptyMotionBeats(QuatMotionError):
    """Beat alignment is undefined without at least one motion beat."""


class EmptyMusicBeats(QuatMotionError):
    """Beat alignment is undefined without at least one music beat."""
