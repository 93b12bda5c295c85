"""Spectral analysis: decomposition, frequency response, visualization."""

from .guidelines import (
    CATEGORY_COST,
    Recommendation,
    label_spectral_energy,
    recommend_filters,
)
from .decomposition import (
    MAX_DENSE_NODES,
    extremal_eigenvalues,
    laplacian_eigendecomposition,
    spectral_density,
)
from .response import (
    low_frequency_mass,
    response_alignment,
    response_on_grid,
    response_on_spectrum,
)
from .tsne import cluster_separation, tsne

__all__ = [
    "laplacian_eigendecomposition",
    "extremal_eigenvalues",
    "spectral_density",
    "MAX_DENSE_NODES",
    "response_on_grid",
    "response_on_spectrum",
    "low_frequency_mass",
    "response_alignment",
    "tsne",
    "recommend_filters",
    "Recommendation",
    "label_spectral_energy",
    "CATEGORY_COST",
    "cluster_separation",
]
