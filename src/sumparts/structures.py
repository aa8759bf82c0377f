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
from types import SimpleNamespace

import numpy as np

from .model import GroupedAttribution, Segmentation

__all__ = [
    "IntensityMap",
    "label_groups",
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
    """Row-major intensity grid."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("map values must form a non-empty 2-D grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("map contains non-finite intensities")
        object.__setattr__(self, "values", values)

    @property
    def sigma(self) -> float:
        """Population standard deviation of the intensities."""
        return float(self.values.std())

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
        """Ingest a grid, subtracting its mean."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("map values must form a non-empty 2-D grid")
        # finite entries near the float maximum can sum, or lie from their
        # mean, past it; a non-finite entry is refused on construction
        with np.errstate(over="ignore", invalid="ignore"):
            mean = values.mean()
            centred = values - mean
        if np.all(np.isfinite(values)):
            if not np.isfinite(mean):
                raise ValueError("the map's mean intensity overflows float64")
            if not np.all(np.isfinite(centred)):
                raise ValueError("the map's mean-subtracted intensities overflow float64")
        return cls(values=centred)


def label_groups(imap: IntensityMap, groups, cluster_sigma: float = 3.0):
    """Mean intensity and kind of each group over the map.

    A group's intensity is the mean map value over its mask's support
    (entries > 0).  Cluster wins at or above ``cluster_sigma`` deviations
    (only on maps with spread; a flat map has no overdensities), void below
    zero, and anything else is other.  Returns the intensities and the
    kinds as two lists in group order.
    """
    # a negative threshold would make clusters of under-dense groups
    if not 0 <= cluster_sigma < np.inf:
        raise ValueError(f"cluster_sigma must be finite and non-negative, got {cluster_sigma}")
    support = np.asarray(groups, dtype=np.float64) > 0
    flat, sigma = imap.flat, imap.sigma
    if support.ndim != 2 or support.shape[1] != flat.size:
        raise ValueError(f"groups of shape {support.shape} do not match map size {flat.size}")
    if not support.any(axis=1).all():
        raise ValueError("a group selects no pixels")
    intensities, kinds = [], []
    for row in support:
        intensity = float(flat[row].mean())
        intensities.append(intensity)
        if abs(intensity) <= INTENSITY_EPS * max(1.0, sigma):
            intensity = 0.0
        if sigma > 0 and intensity >= cluster_sigma * sigma:
            kinds.append("cluster")
        elif intensity < 0:
            kinds.append("void")
        else:
            kinds.append("other")
    return intensities, kinds


def label_group(imap: IntensityMap, mask, cluster_sigma: float = 3.0):
    """One group's label as an object with ``kind``: the one-group form of
    :func:`label_groups` that the benchmark's own tests call."""
    _, (kind,) = label_groups(imap, [mask], cluster_sigma)
    return SimpleNamespace(kind=kind)


def score_mass_by_label(kinds, attribution) -> dict:
    """Share of each class's score mass on each structure label of one map.

    ``kinds`` holds the map's group kinds (from :func:`label_groups`) and
    ``attribution`` the grouped attribution over the map.  For each class k
    the scores of the groups of each label are summed and divided by the
    class's total score mass, so the masses of a class sum to 1.  Returns
    ``{k: {label: mass}}``.
    """
    if not isinstance(attribution, GroupedAttribution):
        raise ValueError("attribution must be a GroupedAttribution")
    if len(kinds) != len(attribution.scores) or not set(kinds) <= set(LABEL_KINDS):
        raise ValueError(f"need one label in {LABEL_KINDS} per group, got {kinds!r}")
    masses = {}
    for k, scores in enumerate(attribution.scores.T):
        total = float(scores.sum())
        masses[k] = {kind: sum(float(s) for s, lab in zip(scores, kinds) if lab == kind) / total
                     for kind in LABEL_KINDS}
    return masses


def load_map_csv(path) -> IntensityMap:
    """Comma-separated grid of intensities, one map row per line."""
    values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return IntensityMap.from_array(values)


def load_map_binary(path) -> IntensityMap:
    """Little-endian float32 grid with a 16-byte header
    (magic ``SOPM``, u32 height, u32 width, u32 reserved)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAP_MAGIC:
        raise ValueError("not a map file (bad magic or truncated header)")
    height, width, _reserved = struct.unpack_from("<III", raw, 4)
    expected = 16 + 4 * height * width
    if len(raw) != expected:
        raise ValueError(f"holds {len(raw)} bytes, expected {expected} for {height}x{width}")
    values = np.frombuffer(raw, dtype="<f4", offset=16).reshape(height, width)
    return IntensityMap.from_array(values.astype(np.float64))


def write_map_binary(path, values) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("map values must be 2-D")
    header = MAP_MAGIC + struct.pack("<III", values.shape[0], values.shape[1], 0)
    Path(path).write_bytes(header + values.astype("<f4").tobytes())


def load_segmentation_csv(path, shape) -> Segmentation:
    """Grid of per-pixel segment ids of the map's ``shape``, (height,
    width); ids are compacted to 0..n-1 in sorted id order."""
    ids = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    if ids.shape != tuple(shape):
        raise ValueError("grid is {}x{}, not the map's {}x{}".format(*ids.shape, *shape))
    unique, assignment = np.unique(ids.ravel(), return_inverse=True)
    return Segmentation(assignment=assignment, n_segments=unique.size)
