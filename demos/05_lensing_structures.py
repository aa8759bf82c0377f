"""Labeling map structures by group mean intensity.

A map-like input is segmented into regions; groups over those regions are
labeled clusters when their mean intensity reaches a few standard
deviations above the map mean, voids when it falls below zero.  The
attribution's score mass then splits across structure types.
"""

import tempfile
from pathlib import Path

import numpy as np

from sumparts.model import (
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
    sop_forward,
)
from sumparts.structures import (
    IntensityMap,
    label_groups,
    load_map_binary,
    score_mass_by_label,
    write_map_binary,
)

rng = np.random.default_rng(5)

# synthetic 8x8 map: a bright spot on mild background noise
values = rng.normal(0.0, 0.4, size=(8, 8))
values[1, 1] = 12.0
values[1, 2] = 10.0
imap = IntensityMap.from_array(values)
print(f"map {imap.height}x{imap.width}, sigma = {imap.sigma:.3f}")

# hand-crafted groups: the hot pixels, a dark region, a mild region
hot = np.zeros(64); hot[[9, 10]] = 1.0
dark = np.zeros(64)
dark[imap.flat < 0] = 1.0
mild = np.zeros(64)
mild[imap.flat >= 0] = 1.0
intensities, kinds = label_groups(imap, [hot, dark, mild], cluster_sigma=3.0)
for name, intensity, kind in zip(("hot", "dark", "mild"), intensities, kinds):
    print(f"  {name:4s}: intensity {intensity:+7.3f} -> {kind}")

# the binary map format round-trips through a 16-byte header
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "map.sopm"
    write_map_binary(path, values)
    reloaded = load_map_binary(path)
    print("\nbinary round-trip max gap:",
          float(np.abs(reloaded.values - imap.values).max()))

# score mass per structure type from a model over the map
seg = Segmentation(assignment=np.arange(64) // 16, n_segments=4)
backbone = identity_backbone(rng.normal(size=(2, 64)))
gen = GroupGenParams.random(4, 2, rng, std=1.0)
sel = GroupSelectParams.random(backbone, rng, std=1.0)
attribution = sop_forward(imap.flat, seg, gen, sel, backbone)
_, kinds = label_groups(imap, attribution.groups, cluster_sigma=2.0)
print("\nscore mass by label (cluster cut at 2 sigma):")
for target, masses in score_mass_by_label(kinds, attribution).items():
    parts = {kind: round(mass, 3) for kind, mass in masses.items()}
    print(f"  target {target}: {parts}")
