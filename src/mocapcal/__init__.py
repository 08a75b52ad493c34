"""MoCap-to-world extrinsic calibration from 3D-2D joint correspondences.

Estimates the rigid transform aligning a motion-capture coordinate frame
with the world frame of calibrated RGB cameras: a RANSAC search over
minimal three-point samples initializes the pose, and analytic-gradient
Adam refinement polishes it against the reprojection error.
"""

from .errors import (
    CalibrationError,
    DegenerateConfigurationError,
    DimensionMismatchError,
    EmptyActiveSetError,
    InfeasibleRigError,
    InsufficientConsensusError,
    NonFiniteValueError,
    NoValidSampleError,
    ParseError,
    UnsupportedVersionError,
)
from .geometry import (
    CameraModel,
    DistortionCoeffs,
    EulerPose,
    RigidTransform,
    distort_normalized,
    nearest_rotation,
    project_points,
    rotation_geodesic_deg,
    rotation_to_euler,
    rotation_zyx,
    undistort_normalized,
)
from .p3p import MinimalProblem, recover_mocap_pose, solve_p3p
from .pipeline import (
    CalibrationReport,
    CorrespondenceCounts,
    Timing,
    calibrate,
    compute_mpjpe,
)
from .ransac import (
    CorrespondenceSet,
    Hypothesis,
    InlierCount,
    RansacConfig,
    count_inliers,
    run_ransac,
)
from .refine import (
    AdamState,
    LossReport,
    RefineConfig,
    adam_step,
    cosine_lr,
    loss_and_gradient,
    refine_pose,
)
from .session_io import (
    SessionData,
    load_report,
    load_session,
    report_from_dict,
    report_to_dict,
    save_report,
    save_session,
)
from .synth import (
    CLEAN,
    CORRUPTION_LABELS,
    GAUSSIAN,
    INVALID,
    OUTLIER,
    SynthConfig,
    SynthSession,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CLEAN",
    "CORRUPTION_LABELS",
    "CalibrationError",
    "CalibrationReport",
    "CameraModel",
    "CorrespondenceCounts",
    "CorrespondenceSet",
    "DegenerateConfigurationError",
    "DimensionMismatchError",
    "DistortionCoeffs",
    "EmptyActiveSetError",
    "EulerPose",
    "GAUSSIAN",
    "Hypothesis",
    "INVALID",
    "InfeasibleRigError",
    "InlierCount",
    "InsufficientConsensusError",
    "LossReport",
    "MinimalProblem",
    "NoValidSampleError",
    "NonFiniteValueError",
    "OUTLIER",
    "ParseError",
    "RansacConfig",
    "RefineConfig",
    "RigidTransform",
    "SessionData",
    "SynthConfig",
    "SynthSession",
    "Timing",
    "UnsupportedVersionError",
    "adam_step",
    "calibrate",
    "compute_mpjpe",
    "cosine_lr",
    "count_inliers",
    "distort_normalized",
    "generate",
    "load_report",
    "load_session",
    "loss_and_gradient",
    "nearest_rotation",
    "project_points",
    "recover_mocap_pose",
    "refine_pose",
    "report_from_dict",
    "report_to_dict",
    "rotation_geodesic_deg",
    "rotation_to_euler",
    "rotation_zyx",
    "run_ransac",
    "save_report",
    "save_session",
    "solve_p3p",
    "undistort_normalized",
]
