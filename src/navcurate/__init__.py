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
from .geometry import (
    AxisConvention,
    DEFAULT_CONVENTION,
    EgoWaypoint,
    Pose,
    normalize_angle_deg,
    pitch_of,
    relative_pose,
    to_ego_waypoint,
    yaw_of,
)
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
from .sampling import SamplerConfig, build_corpus, build_sample, draw_start
from .metrics import MetricReport, SampleMetrics, ade, aoe, discrete_frechet, evaluate, maoe
from .losses import LossComponents, LossWeights, loss_arr, loss_hall, loss_ori, loss_reg, loss_total
from .synth import SynthSpec, generate, generate_detections, generate_landmarks
