"""Map ingestion, group intensity, void/cluster labeling, and score-mass
aggregation."""

import numpy as np
import pytest

from sumparts.model import GroupedAttribution
from sumparts.structures import (
    IntensityMap,
    StructureLabel,
    group_intensity,
    label_group,
    load_map_binary,
    load_map_csv,
    load_segmentation_csv,
    score_mass_by_label,
    write_map_binary,
)


def map_from(values):
    return IntensityMap.from_array(np.asarray(values, dtype=float))


def attribution_with_scores(groups, scores):
    """Build a valid grouped attribution around given masks and scores."""
    groups = np.asarray(groups, dtype=float)
    scores = np.asarray(scores, dtype=float)
    logits = np.ones_like(scores)
    return GroupedAttribution(
        groups=groups,
        scores=scores,
        partial_logits=logits,
        prediction=(scores * logits).sum(axis=0),
    )


class TestIntensityMap:
    def test_ingestion_centers_values(self):
        imap = map_from([[1.0, 3.0], [5.0, 7.0]])
        assert imap.flat.mean() == 0.0
        assert imap.sigma == np.std([1.0, 3.0, 5.0, 7.0])

    def test_sigma_cache_validated(self):
        with pytest.raises(ValueError):
            IntensityMap(values=np.ones((2, 2)), sigma=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IntensityMap.from_array(np.array([[np.nan, 0.0]]))


class TestGroupIntensity:
    def test_two_pixel_mean(self):
        imap = map_from([[5.0, 7.0], [3.0, 3.0]])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        # centered values: 0.5, 2.5 -> mean 1.5
        assert group_intensity(imap, mask) == 1.5

    def test_full_mask_is_global_mean(self):
        imap = map_from(np.random.default_rng(0).normal(size=(3, 3)))
        assert abs(group_intensity(imap, np.ones(9))) <= 1e-12

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(1)
        imap = map_from(rng.normal(size=(4, 5)))
        mask = (rng.uniform(size=20) > 0.4).astype(float) * rng.uniform(size=20)
        if not (mask > 0).any():
            mask[3] = 0.7
        total, count = 0.0, 0
        for value, weight in zip(imap.flat, mask):
            if weight > 0:
                total += value
                count += 1
        np.testing.assert_allclose(group_intensity(imap, mask), total / count)

    def test_scaling_mask_does_not_change_intensity(self):
        imap = map_from(np.arange(6.0).reshape(2, 3))
        mask = np.array([0.2, 0.0, 0.7, 0.0, 0.1, 0.0])
        assert group_intensity(imap, mask) == group_intensity(imap, 5.0 * mask)

    def test_empty_mask_error(self):
        with pytest.raises(ValueError):
            group_intensity(map_from([[1.0, 2.0]]), np.zeros(2))


class TestLabelGroup:
    def bright_blob_map(self):
        values = np.zeros((4, 4))
        values[0, 0] = 40.0  # single hot pixel drives mean and sigma
        return map_from(values)

    def test_cluster_above_threshold(self):
        imap = self.bright_blob_map()
        mask = np.zeros(16)
        mask[0] = 1.0
        intensity = group_intensity(imap, mask)
        assert intensity >= 3.0 * imap.sigma
        assert label_group(imap, mask, 3.0).kind == "cluster"

    def test_void_below_zero(self):
        imap = self.bright_blob_map()
        mask = np.zeros(16)
        mask[5] = 1.0  # background pixel sits below the mean
        assert group_intensity(imap, mask) < 0
        assert label_group(imap, mask).kind == "void"

    def test_other_between_cuts(self):
        imap = map_from([[2.0, -2.0], [1.0, -1.0]])
        mask = np.array([1.0, 0.0, 1.0, 0.0])  # mean +1.5 < 3 sigma
        label = label_group(imap, mask, 3.0)
        assert label.kind == "other"
        assert label.threshold_sigma == 3.0

    def test_flat_map_is_other(self):
        imap = map_from(np.zeros((2, 2)))
        assert label_group(imap, np.ones(4)).kind == "other"

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            imap = map_from(rng.normal(size=(5, 5)))
            mask = np.zeros(25)
            mask[rng.integers(25)] = 1.0
            at3 = label_group(imap, mask, 3.0).kind
            at2 = label_group(imap, mask, 2.0).kind
            if at3 == "cluster":
                assert at2 == "cluster"

    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_non_negative(self, sigma):
        # at cluster_sigma=-1 this under-dense group (mean -1.5) was a cluster
        imap = map_from([[2.0, -2.0], [1.0, -1.0]])
        mask = np.array([0.0, 1.0, 0.0, 1.0])
        assert label_group(imap, mask, 0.0).kind == "void"
        with pytest.raises(ValueError, match="cluster_sigma must be finite and non-negative"):
            label_group(imap, mask, sigma)

    def test_label_kind_validation(self):
        with pytest.raises(ValueError):
            StructureLabel(kind="supercluster", threshold_sigma=3.0)


class TestScoreMass:
    def test_single_void_group_gets_all_mass(self):
        imap = map_from([[3.0, -1.0], [-1.0, -1.0]])
        mask = np.array([0.0, 1.0, 1.0, 1.0])
        attribution = attribution_with_scores(mask[None], np.ones((1, 1)))
        out = score_mass_by_label([imap], [attribution])
        assert out["targets"]["0"]["void"]["per_map"] == [1.0]
        assert out["targets"]["0"]["void"]["mean"] == 1.0
        assert out["targets"]["0"]["cluster"]["mean"] == 0.0

    def test_split_masses(self):
        values = np.zeros((3, 3))
        values[0, 0] = 90.0
        imap = map_from(values)
        hot = np.zeros(9); hot[0] = 1.0
        dark = np.zeros(9); dark[4] = 1.0
        attribution = attribution_with_scores(
            np.vstack([dark, hot]), np.array([[0.6], [0.4]])
        )
        out = score_mass_by_label([imap], [attribution], cluster_sigma=2.0)
        assert out["targets"]["0"]["void"]["per_map"] == [0.6]
        assert out["targets"]["0"]["cluster"]["per_map"] == [0.4]

    def test_masses_sum_to_one_per_map(self):
        rng = np.random.default_rng(3)
        from sumparts.ops import sparsemax

        maps, attributions = [], []
        for _ in range(20):
            imap = map_from(rng.normal(size=(3, 4)))
            groups = (rng.uniform(size=(4, 12)) > 0.5).astype(float)
            groups[groups.sum(axis=1) == 0, 0] = 1.0
            scores = np.column_stack(
                [sparsemax(rng.normal(size=4)) for _ in range(2)]
            )
            maps.append(imap)
            attributions.append(attribution_with_scores(groups, scores))
        out = score_mass_by_label(maps, attributions)
        for target in out["targets"].values():
            per_map = np.array([target[kind]["per_map"] for kind in target])
            np.testing.assert_allclose(
                per_map.sum(axis=0), np.ones(len(maps)), atol=1e-9
            )

    def test_empty_input_error(self):
        with pytest.raises(ValueError):
            score_mass_by_label([], [])


class TestIngestion:
    def test_csv_roundtrip(self, tmp_path):
        values = np.array([[1.5, 2.5, 3.0], [0.0, -1.0, 4.0]])
        path = tmp_path / "map.csv"
        np.savetxt(path, values, delimiter=",")
        imap = load_map_csv(path)
        assert (imap.height, imap.width) == (2, 3)
        np.testing.assert_allclose(imap.values, values - values.mean())

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(5, 7)).astype(np.float32).astype(float)
        path = tmp_path / "map.sopm"
        write_map_binary(path, values)
        imap = load_map_binary(path)
        assert (imap.height, imap.width) == (5, 7)
        np.testing.assert_allclose(imap.values, values - values.mean(), atol=1e-7)

    def test_binary_header_validation(self, tmp_path):
        bad_magic = tmp_path / "bad.sopm"
        bad_magic.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError):
            load_map_binary(bad_magic)
        truncated = tmp_path / "short.sopm"
        truncated.write_bytes(b"SOPM" + b"\x00" * 4)
        with pytest.raises(ValueError):
            load_map_binary(truncated)
        wrong_size = tmp_path / "size.sopm"
        import struct

        wrong_size.write_bytes(b"SOPM" + struct.pack("<III", 2, 2, 0) + b"\x00" * 4)
        with pytest.raises(ValueError):
            load_map_binary(wrong_size)

    def test_segmentation_csv(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("0,0,7\n0,3,7\n")
        seg = load_segmentation_csv(path)
        assert seg.n_segments == 3
        np.testing.assert_array_equal(seg.assignment, [0, 0, 2, 0, 1, 2])
