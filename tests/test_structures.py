"""Map ingestion, group intensity, void/cluster labeling, and score-mass
aggregation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts.model import GroupedAttribution
from sumparts.structures import (
    IntensityMap,
    label_groups,
    load_map_binary,
    load_map_csv,
    load_segmentation_csv,
    score_mass_by_label,
    write_map_binary,
)

from conftest import label_group_oracle


def map_from(values):
    return IntensityMap.from_array(np.asarray(values, dtype=float))


def label_one(imap, mask, cluster_sigma=3.0):
    """The intensity and kind of one group."""
    (intensity,), (kind,) = label_groups(imap, [mask], cluster_sigma)
    return intensity, kind


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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IntensityMap.from_array(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="non-finite intensities"):
            IntensityMap.from_array(np.array([[np.inf, -np.inf]]))

    def test_refuses_finite_maps_that_overflow(self):
        """Finite entries whose mean, or whose distance from it, passes the
        float maximum are refused by name, without a RuntimeWarning."""
        with pytest.raises(ValueError, match="mean intensity overflows float64"):
            IntensityMap.from_array(np.full((2, 2), 1.5e308))
        with pytest.raises(ValueError, match="mean-subtracted intensities overflow float64"):
            IntensityMap.from_array(np.array([[1.79e308, -1.0e308], [-0.5e308, -0.5e308]]))


class TestGroupIntensity:
    def test_two_pixel_mean(self):
        imap = map_from([[5.0, 7.0], [3.0, 3.0]])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        # centered values: 0.5, 2.5 -> mean 1.5
        assert label_one(imap, mask)[0] == 1.5

    def test_full_mask_is_global_mean(self):
        imap = map_from(np.random.default_rng(0).normal(size=(3, 3)))
        assert abs(label_one(imap, np.ones(9))[0]) <= 1e-12

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
        np.testing.assert_allclose(label_one(imap, mask)[0], total / count)

    def test_scaling_mask_does_not_change_intensity(self):
        imap = map_from(np.arange(6.0).reshape(2, 3))
        mask = np.array([0.2, 0.0, 0.7, 0.0, 0.1, 0.0])
        assert label_one(imap, mask) == label_one(imap, 5.0 * mask)

    def test_empty_mask_error(self):
        imap = map_from([[1.0, 2.0]])
        with pytest.raises(ValueError, match="a group selects no pixels"):
            label_groups(imap, [np.ones(2), np.zeros(2)])

    @pytest.mark.parametrize("groups", [np.ones(4), np.ones((1, 3)), np.ones((2, 5))],
                             ids=["one_dimensional", "short", "long"])
    def test_groups_must_match_the_map(self, groups):
        with pytest.raises(ValueError, match="do not match map size 4"):
            label_groups(map_from([[1.0, 2.0], [3.0, 4.0]]), groups)


class TestLabelGroup:
    def bright_blob_map(self):
        values = np.zeros((4, 4))
        values[0, 0] = 40.0  # single hot pixel drives mean and sigma
        return map_from(values)

    def test_cluster_above_threshold(self):
        imap = self.bright_blob_map()
        mask = np.zeros(16)
        mask[0] = 1.0
        intensity, kind = label_one(imap, mask, 3.0)
        assert intensity >= 3.0 * imap.sigma
        assert kind == "cluster"

    def test_void_below_zero(self):
        imap = self.bright_blob_map()
        mask = np.zeros(16)
        mask[5] = 1.0  # background pixel sits below the mean
        intensity, kind = label_one(imap, mask)
        assert intensity < 0
        assert kind == "void"

    def test_other_between_cuts(self):
        imap = map_from([[2.0, -2.0], [1.0, -1.0]])
        mask = np.array([1.0, 0.0, 1.0, 0.0])  # mean +1.5 < 3 sigma
        assert label_one(imap, mask, 3.0)[1] == "other"

    def test_flat_map_is_other(self):
        imap = map_from(np.zeros((2, 2)))
        assert label_one(imap, np.ones(4))[1] == "other"

    def test_whole_map_group_is_other(self):
        """The whole mean-subtracted map has mean 0 up to rounding dust,
        which is snapped to 0 rather than read as a void."""
        imap = map_from([[0.1, 0.2, 0.4]])
        intensity, kind = label_one(imap, np.ones(3))
        assert intensity != 0.0
        assert kind == "other"

    def test_rounding_dust_bound_is_inclusive(self):
        """A mean of exactly ``INTENSITY_EPS`` times max(1, sigma) below zero
        is dust, not a void (here sigma is about 0.207, so the bound is
        1e-12)."""
        imap = IntensityMap(values=[[-1e-12, 0.5], [0.25, 0.0]])
        assert label_one(imap, [1.0, 0.0, 0.0, 0.0]) == (-1e-12, "other")

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            imap = map_from(rng.normal(size=(5, 5)))
            mask = np.zeros(25)
            mask[rng.integers(25)] = 1.0
            at3 = label_one(imap, mask, 3.0)[1]
            at2 = label_one(imap, mask, 2.0)[1]
            if at3 == "cluster":
                assert at2 == "cluster"

    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_non_negative(self, sigma):
        # at cluster_sigma=-1 this under-dense group (mean -1.5) was a cluster
        imap = map_from([[2.0, -2.0], [1.0, -1.0]])
        mask = np.array([0.0, 1.0, 0.0, 1.0])
        assert label_one(imap, mask, 0.0)[1] == "void"
        with pytest.raises(ValueError, match="cluster_sigma must be finite and non-negative"):
            label_one(imap, mask, sigma)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), height=st.integers(1, 4), width=st.integers(1, 4),
           flat=st.booleans(),
           cluster_sigma=st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 5.0))
    def test_matches_per_group_oracle(self, data, height, width, flat, cluster_sigma):
        """Each group's intensity and kind equal the one-group oracle's,
        bit for bit, on flat maps (sigma 0) too; the whole-map group's mean
        is rounding dust around 0, which the snap must treat alike."""
        n = height * width
        finite = st.floats(-50.0, 50.0, allow_nan=False)
        if flat:
            values = np.full(n, data.draw(finite))
        else:
            values = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        masks = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n),
            min_size=1, max_size=5)))
        masks[~(masks > 0).any(axis=1), data.draw(st.integers(0, n - 1))] = 1.0
        masks = np.vstack([masks, np.ones(n)])
        imap = map_from(values.reshape(height, width))
        intensities, kinds = label_groups(imap, masks, cluster_sigma)
        assert list(zip(intensities, kinds)) == \
            [label_group_oracle(imap, mask, cluster_sigma) for mask in masks]


class TestScoreMass:
    def test_single_void_group_gets_all_mass(self):
        imap = map_from([[3.0, -1.0], [-1.0, -1.0]])
        mask = np.array([0.0, 1.0, 1.0, 1.0])
        attribution = attribution_with_scores(mask[None], np.ones((1, 1)))
        out = score_mass_by_label(label_groups(imap, attribution.groups)[1], attribution)
        assert out == {0: {"void": 1.0, "cluster": 0.0, "other": 0.0}}

    def test_split_masses(self):
        values = np.zeros((3, 3))
        values[0, 0] = 90.0
        imap = map_from(values)
        hot = np.zeros(9); hot[0] = 1.0
        dark = np.zeros(9); dark[4] = 1.0
        attribution = attribution_with_scores(
            np.vstack([dark, hot]), np.array([[0.6], [0.4]])
        )
        out = score_mass_by_label(label_groups(imap, attribution.groups, 2.0)[1], attribution)
        assert out[0]["void"] == 0.6
        assert out[0]["cluster"] == 0.4

    def test_masses_sum_to_one_per_map(self):
        rng = np.random.default_rng(3)
        from sumparts.ops import sparsemax

        for _ in range(20):
            imap = map_from(rng.normal(size=(3, 4)))
            groups = (rng.uniform(size=(4, 12)) > 0.5).astype(float)
            groups[groups.sum(axis=1) == 0, 0] = 1.0
            scores = np.column_stack(
                [sparsemax(rng.normal(size=4)) for _ in range(2)]
            )
            attribution = attribution_with_scores(groups, scores)
            out = score_mass_by_label(label_groups(imap, groups)[1], attribution)
            assert list(out) == [0, 1]
            for masses in out.values():
                assert abs(sum(masses.values()) - 1.0) <= 1e-9

    def test_refuses_what_is_not_an_attribution(self):
        with pytest.raises(ValueError, match="attribution must be a GroupedAttribution"):
            score_mass_by_label(["void"], np.ones((1, 1)))

    @pytest.mark.parametrize("kinds", [["void", "supercluster"], ["void"],
                                       ["void", "other", "cluster"]],
                             ids=["unknown_kind", "too_few", "too_many"])
    def test_one_known_label_per_group(self, kinds):
        attribution = attribution_with_scores(np.eye(2), np.full((2, 1), 0.5))
        with pytest.raises(ValueError, match="need one label in"):
            score_mass_by_label(kinds, attribution)


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
        wrong_size.write_bytes(b"SOPM" + struct.pack("<III", 2, 2, 0) + b"\x00" * 4)
        with pytest.raises(ValueError):
            load_map_binary(wrong_size)

    def test_segmentation_csv(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("0,0,7\n0,3,7\n")
        seg = load_segmentation_csv(path, (2, 3))
        assert seg.n_segments == 3
        np.testing.assert_array_equal(seg.assignment, [0, 0, 2, 0, 1, 2])

    @pytest.mark.parametrize("shape", [(3, 2), (1, 6), (2, 4)])
    def test_segmentation_grid_must_have_the_map_shape(self, tmp_path, shape):
        path = tmp_path / "seg.csv"
        path.write_text("0,0,7\n0,3,7\n")
        with pytest.raises(ValueError, match=r"grid is 2x3, not the map's {}x{}".format(*shape)):
            load_segmentation_csv(path, shape)
