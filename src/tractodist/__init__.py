"""Streamline distances, dissimilarity embeddings, and NN bundle segmentation.

The pipeline: pick a streamline distance, embed every streamline as its
vector of distances to a fixed prototype set, index the embedded target
with an exact k-d tree, and predict a bundle in the target as the nearest
neighbors of an example bundle from another subject. Benchmarks compare
eight distance kinds on accuracy (voxel DSC), speed, and NN agreement.
"""

from .distances import (
    LC,
    MC,
    SC,
    DistanceKind,
    d_lc,
    d_mc,
    d_mdf,
    d_pdm,
    d_sc,
    d_varifolds,
    default_kinds,
    distance,
    distance_matrix,
    mdf,
    parse_kind,
    pdm,
    varifolds,
)
from .embedding import (
    EmbeddedTractogram,
    PrototypeSet,
    embed_tractogram,
    select_prototypes_sff,
)
from .ann import KdTree
from .errors import TractodistError
from .io import (
    TrgxFile,
    read_bundle,
    read_embedding,
    read_tractogram,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from .model import (
    BundleRef,
    Streamline,
    Tractogram,
    build_streamline,
    flip,
    resample,
    streamline_length,
)
from .segmentation import (
    SegmentationResult,
    VoxelGrid,
    dsc,
    prepare_target,
    segment,
    voxelize,
)
from .synth import BundleSpec, SyntheticSubject, generate_subject, perturb_subject

__version__ = "0.1.0"

__all__ = [
    "BundleRef",
    "BundleSpec",
    "DistanceKind",
    "EmbeddedTractogram",
    "KdTree",
    "LC",
    "MC",
    "PrototypeSet",
    "SC",
    "SegmentationResult",
    "Streamline",
    "SyntheticSubject",
    "Tractogram",
    "TractodistError",
    "TrgxFile",
    "VoxelGrid",
    "build_streamline",
    "d_lc",
    "d_mc",
    "d_mdf",
    "d_pdm",
    "d_sc",
    "d_varifolds",
    "default_kinds",
    "distance",
    "distance_matrix",
    "dsc",
    "embed_tractogram",
    "flip",
    "generate_subject",
    "mdf",
    "parse_kind",
    "pdm",
    "perturb_subject",
    "prepare_target",
    "read_bundle",
    "read_embedding",
    "read_tractogram",
    "resample",
    "segment",
    "select_prototypes_sff",
    "streamline_length",
    "varifolds",
    "voxelize",
    "write_bundle",
    "write_embedding",
    "write_tractogram",
    "__version__",
]
