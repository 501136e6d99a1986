"""Sub-Nyquist acquisition and FRI recovery of beamformed ultrasound lines.

The pipeline: synthesize per-element channel signals from a point-scatterer
scene (``sim``), optionally beamform them at the full rate for reference
(``beamform``), sample them with the warped low-rate kernel bank
(``xample``), recover the line's pulse-stream parameters (``recover``), and
render images (``imaging``).  ``costs`` models the sample and operation
counts of both paths; ``cli`` wires everything into subcommands.
"""

from .beamform import BeamformedLine, beamform_line, envelope_detect
from .costs import cost_table, sample_counts, standard_ops, standard_samples, xampled_ops
from .errors import (AllZero, ConditioningFailure, GridTooCoarse, GridTooShort,
                     IllConditioned, InvariantViolation, OffBand, OrderOverflow,
                     ParseError, XampusError)
from .geometry import ArrayGeometry, arrival_time, tau_hat
from .imaging import ImageGrid, assemble_image, read_pgm, render_line, write_pgm
from .pulse import PulseModel, build_H, pulse_spectrum
from .recover import (FourierCoeffs, LineEstimate, annihilating_filter,
                      estimate_order, least_squares_amplitudes, matrix_pencil,
                      pencil_split, recover_fourier, recover_line)
from .scenefile import SceneFile, load_scene
from .sim import (ChannelSet, NoiseSpec, Scatterer, Scene, add_interference,
                  simulation_grid_step, synthesize_channels)
from .urf import read_channels, write_channels
from .xample import (MixingMatrix, XampleConfig, XampleOutput, build_S,
                     select_kappa, xample_beamformed_oracle, xample_channels)

__version__ = "0.1.0"
