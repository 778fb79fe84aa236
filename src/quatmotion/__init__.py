"""Quaternion rotary attention for music-conditioned motion prediction.

The package is plain numpy end to end: a small reverse-mode tape
(autograd), quaternion algebra and rotation conversions (quaternion),
rotary position embeddings (spe), quaternion rotary attention (qra), the
encoder/decoder model with checkpoint I/O (model), the training loop
(training), the forked worker both use on a second core (forked),
synthetic beat-locked data plus stream files (features), distribution
and rhythm metrics (metrics), and executable invariant suites
(verification) behind the `quatmotion` command line (cli).

Callers import those submodules; this module imports nothing, so the
command can pin BLAS to one thread before numpy loads.
"""

__version__ = "0.1.0"
