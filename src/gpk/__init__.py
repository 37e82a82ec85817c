"""gpk: ground-plane priors for roadside monocular 3D detection.

Closed-form pinhole/plane geometry, per-pixel ground representations
(depth map, global and annotation-refined plane-equation maps), KITTI-style
file I/O with a deterministic synthetic scene generator, pose-perturbation
robustness analyses, and forward-only reference attention blocks + losses.
"""

from .analysis import (
    Histogram,
    ScatterSeries,
    attitude_histograms,
    depth_histogram,
    map_attitudes,
    overlap_coefficient,
    v_correlation_series,
)
from .attention import (
    AttentionMap,
    BlockWeights,
    DecoderWeights,
    FeatureSequence,
    QuerySet,
    decoder_block,
    decoder_stack,
    ffn,
    ground_cross_attention,
    positional_encoding,
    self_attention,
    visual_cross_attention,
)
from .dataio import (
    BOX3D_DTYPE,
    CameraRig,
    FrameRecord,
    SceneConfig,
    label_table,
    parse_calibration,
    parse_ground_plane,
    parse_labels,
    serialize_calibration,
    serialize_ground_plane,
    serialize_labels,
    synthesize_scene,
)
from .errors import (
    AllDegenerate,
    BehindCamera,
    CollinearPoints,
    ConfigError,
    DegeneratePlane,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    GpkError,
    HorizonRay,
    InsufficientPoints,
    NonPositiveDepth,
    ParseError,
    QuantityMismatch,
    ShapeMismatch,
    SingularIntrinsics,
)
from .geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    Pixel,
    apply_homography,
    attitude_to_plane,
    back_project,
    bottom_center,
    ground_depth_at_pixel,
    ground_homography,
    perturbation_rotation,
    plane_from_three_points,
    plane_to_attitude,
    project_point,
    rotate_plane,
    rotation_pitch,
    rotation_roll,
)
from .losses import (
    LossWeights,
    angle_loss,
    focal_loss,
    giou_loss_2d,
    l1_loss,
    laplace_depth_loss,
    total_loss,
)
from .mapfile import (
    load_denorm_map,
    load_depth_map,
    pack_map,
    unpack_map,
)
from .maps import (
    DenormMap,
    GroundDepthMap,
    TriangleRegion,
    build_global_denorm_map,
    build_ground_depth_map,
    denorm_l1_loss,
    refine_map,
    triangulate_ground_points,
)

__version__ = "0.1.0"
