"""navcurate: curation and offline evaluation for egocentric navigation trajectories.

Turns raw visual-odometry pose streams plus external detection/landmark
annotations into filtered, robot-compatible, instruction-grounded
training samples, and scores waypoint predictions with orientation,
displacement and discrete-Frechet metrics plus reference loss kernels.
"""

__version__ = "0.1.0"

from .errors import (
    AllUndefined,
    EmptyInput,
    EmptyResult,
    GimbalDegenerate,
    Infeasible,
    InvalidSpec,
    LengthMismatch,
    NavcurateError,
    OutOfBounds,
    ParseError,
    SchemaError,
    ShapeMismatch,
    TooShort,
    ValidationError,
)
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
from .segmentation import Clip, segment
from .filters import FilterConfig, FilterVerdict, run_filters
from .sampling import SamplerConfig, build_corpus, draw_start
from .metrics import MetricReport, ade, aoe, discrete_frechet, evaluate, maoe
from .losses import LossComponents, LossWeights, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .synth import SynthSpec, generate, generate_detections, generate_landmarks
