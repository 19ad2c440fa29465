"""Streamline distances, dissimilarity embeddings, and NN bundle segmentation.

The pipeline: pick a streamline distance, embed every streamline as its
vector of distances to a fixed prototype set, index the embedded target
with an exact k-d tree, and predict a bundle in the target as the nearest
neighbors of an example bundle from another subject. Benchmarks compare
eight distance kinds on accuracy (voxel DSC), speed, and NN agreement.
Import names from the submodules (``tractodist.distances``,
``tractodist.embedding``, ``tractodist.segmentation``, ...).
"""

__version__ = "0.1.0"
