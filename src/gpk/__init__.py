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
    cross_attention,
    decoder_block,
    decoder_stack,
    ffn,
    positional_encoding,
    self_attention,
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
    CollinearPoints,
    ConfigError,
    DegeneratePlane,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    GpkError,
    InsufficientPoints,
    ParseError,
    QuantityMismatch,
    ShapeMismatch,
    SingularIntrinsics,
)
from .geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    bottom_center,
    ground_homography,
    perturbation_rotation,
    plane_to_attitude,
    rotation_pitch,
    rotation_roll,
)
from .losses import (
    angle_loss,
    denorm_l1,
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
    refine_map,
    triangulate_ground_points,
)

__version__ = "0.1.0"
