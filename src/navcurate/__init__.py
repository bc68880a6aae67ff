"""navcurate: curation and offline evaluation for egocentric navigation trajectories.

Turns raw visual-odometry pose streams plus external detection/landmark
annotations into filtered, robot-compatible, instruction-grounded
training samples, and scores waypoint predictions with orientation,
displacement and discrete-Frechet metrics plus reference loss kernels.
"""

__version__ = "0.1.0"

from .errors import EmptyResult, NavcurateError, ParseError, SchemaError, ValidationError
from .geometry import DEFAULT_CONVENTION, AxisConvention, normalize_angle_deg
from .io import (
    Detection,
    DetectionFrame,
    DetectionTable,
    LandmarkAnnotation,
    PredictionRecord,
    RawTrajectory,
    TrainingSample,
)
from .segmentation import segment
from .filters import FilterConfig, FilterVerdict, run_filters
from .sampling import SamplerConfig, draw_start
from .metrics import MetricReport, evaluate
from .losses import LossWeights, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .synth import SynthSpec, generate, generate_detections, generate_landmarks
