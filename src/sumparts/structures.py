"""Structure labeling for map-like inputs.

Groups over an intensity map are labeled by their mean intensity relative
to the map's standard deviation: concentrated bright regions (mean at or
above ``cluster_sigma`` standard deviations) are clusters, under-dense
regions (mean below zero) are voids, everything else is "other".  Maps are
mean-subtracted at ingestion so the void cut is literally "mean intensity
below zero".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import GroupedAttribution, Segmentation

__all__ = [
    "IntensityMap",
    "StructureLabel",
    "group_intensity",
    "label_group",
    "score_mass_by_label",
    "load_map_csv",
    "load_map_binary",
    "write_map_binary",
    "load_segmentation_csv",
]

MAP_MAGIC = b"SOPM"
LABEL_KINDS = ("void", "cluster", "other")

# group means within rounding dust of zero count as zero for the void cut
# (a group covering the whole mean-subtracted map has mean exactly 0)
INTENSITY_EPS = 1e-12


@dataclass(frozen=True)
class IntensityMap:
    """Row-major intensity grid with its cached standard deviation."""

    values: np.ndarray
    sigma: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("map values must form a non-empty 2-D grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("map contains non-finite intensities")
        if abs(self.sigma - float(values.std())) > 1e-9:
            raise ValueError("cached sigma disagrees with the recomputed deviation")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    @classmethod
    def from_array(cls, values) -> "IntensityMap":
        """Ingest a grid, subtracting its mean (population sigma cached)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("map values must form a non-empty 2-D grid")
        centered = values - values.mean()
        return cls(values=centered, sigma=float(centered.std()))


@dataclass(frozen=True)
class StructureLabel:
    kind: str
    threshold_sigma: float

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"kind must be one of {LABEL_KINDS}, got {self.kind!r}")


def group_intensity(imap: IntensityMap, mask) -> float:
    """Mean map intensity over the mask's support (entries > 0)."""
    mask = np.asarray(mask, dtype=np.float64)
    flat = imap.flat
    if mask.shape != flat.shape:
        raise ValueError(
            f"mask length {mask.shape} does not match map size {flat.shape}"
        )
    support = mask > 0
    if not support.any():
        raise ValueError("mask selects no pixels")
    return float(flat[support].mean())


def label_group(imap: IntensityMap, mask, cluster_sigma: float = 3.0) -> StructureLabel:
    """Classify one group as cluster, void, or other.

    Cluster wins at or above ``cluster_sigma`` deviations (only on maps
    with spread; a flat map has no overdensities), void below zero.
    """
    # a negative threshold would make clusters of under-dense groups
    if not 0 <= cluster_sigma < np.inf:
        raise ValueError(f"cluster_sigma must be finite and non-negative, got {cluster_sigma}")
    intensity = group_intensity(imap, mask)
    if abs(intensity) <= INTENSITY_EPS * max(1.0, imap.sigma):
        intensity = 0.0
    if imap.sigma > 0 and intensity >= cluster_sigma * imap.sigma:
        kind = "cluster"
    elif intensity < 0:
        kind = "void"
    else:
        kind = "other"
    return StructureLabel(kind=kind, threshold_sigma=float(cluster_sigma))


def score_mass_by_label(maps, attributions, cluster_sigma: float = 3.0) -> dict:
    """Aggregate attribution score mass per structure label, per target.

    ``maps`` and ``attributions`` pair up one grouped attribution per map.
    For each target class the scores of each map's groups are summed by
    label and normalized by the map's total score mass, so the per-map
    masses sum to 1.  Returns per-label per-map mass lists plus their means
    under ``{"targets": {class: {label: {"per_map": [...], "mean": ...}}}}``.
    """
    maps = list(maps)
    attributions = list(attributions)
    if not maps or len(maps) != len(attributions):
        raise ValueError("need one attribution per map, at least one pair")
    n_classes = attributions[0].n_classes
    masses = {
        k: {kind: [] for kind in LABEL_KINDS} for k in range(n_classes)
    }
    for imap, attribution in zip(maps, attributions):
        if not isinstance(attribution, GroupedAttribution):
            raise ValueError("attributions must be GroupedAttribution instances")
        labels = [
            label_group(imap, mask, cluster_sigma).kind for mask in attribution.groups
        ]
        for k in range(n_classes):
            scores = attribution.scores[:, k]
            total = scores.sum()
            if total <= 0:
                raise ValueError("scores for a map sum to zero; cannot normalize")
            for kind in LABEL_KINDS:
                mass = sum(
                    float(s) for s, lab in zip(scores, labels) if lab == kind
                )
                masses[k][kind].append(mass / total)
    return {
        "cluster_sigma": float(cluster_sigma),
        "targets": {
            str(k): {
                kind: {
                    "per_map": masses[k][kind],
                    "mean": float(np.mean(masses[k][kind])),
                }
                for kind in LABEL_KINDS
            }
            for k in range(n_classes)
        },
    }


def load_map_csv(path) -> IntensityMap:
    """Comma-separated grid of intensities, one map row per line."""
    values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return IntensityMap.from_array(values)


def load_map_binary(path) -> IntensityMap:
    """Little-endian float32 grid with a 16-byte header
    (magic ``SOPM``, u32 height, u32 width, u32 reserved)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAP_MAGIC:
        raise ValueError(f"{path} is not a map file (bad magic or truncated header)")
    height, width, _reserved = struct.unpack_from("<III", raw, 4)
    expected = 16 + 4 * height * width
    if len(raw) != expected:
        raise ValueError(
            f"{path} holds {len(raw)} bytes, expected {expected} for {height}x{width}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=16).reshape(height, width)
    return IntensityMap.from_array(values.astype(np.float64))


def write_map_binary(path, values) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("map values must be 2-D")
    header = MAP_MAGIC + struct.pack("<III", values.shape[0], values.shape[1], 0)
    Path(path).write_bytes(header + values.astype("<f4").tobytes())


def load_segmentation_csv(path) -> Segmentation:
    """Grid of per-pixel segment ids matching the map shape; ids are
    compacted to 0..n-1 in sorted id order."""
    ids = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2).ravel()
    unique, assignment = np.unique(ids, return_inverse=True)
    return Segmentation(assignment=assignment, n_segments=unique.size)
