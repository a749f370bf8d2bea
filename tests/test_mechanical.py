"""Unit tests for the mechanical timing model."""

import random

import pytest

from repro.core import build_controller
from repro.core.raid5 import Raid5Config
from repro.disk.disk import Disk
from repro.disk.mechanical import MechanicalModel
from repro.disk.models import CHEETAH_15K5, SECTOR_SIZE, ULTRASTAR_36Z15
from repro.sim import Simulator
from tests.conftest import small_config


@pytest.fixture
def model():
    return MechanicalModel(ULTRASTAR_36Z15)


class TestSeekCurve:
    def test_zero_distance_is_free(self, model):
        assert model.seek_time(1000, 1000) == 0.0

    def test_same_cylinder_is_free(self, model):
        # Two sectors within one cylinder.
        assert model.seek_time(0, 1) == 0.0

    def test_full_stroke_matches_spec(self, model):
        last = ULTRASTAR_36Z15.capacity_sectors - 1
        assert model.seek_time(0, last) == pytest.approx(
            ULTRASTAR_36Z15.full_stroke_seek_time, rel=0.01
        )

    def test_monotone_in_distance(self, model):
        sectors = ULTRASTAR_36Z15.capacity_sectors
        times = [
            model.seek_time(0, int(sectors * f))
            for f in (0.1, 0.3, 0.5, 0.8, 0.99)
        ]
        assert times == sorted(times)

    def test_bounded_by_track_and_full_stroke(self, model):
        sectors = ULTRASTAR_36Z15.capacity_sectors
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(sectors)
            b = rng.randrange(sectors)
            t = model.seek_time(a, b)
            if t > 0:
                assert (
                    ULTRASTAR_36Z15.track_to_track_seek_time
                    <= t
                    <= ULTRASTAR_36Z15.full_stroke_seek_time
                )

    def test_mean_random_seek_near_spec_average(self, model):
        """Calibration check: E[seek] over random pairs ~ avg_seek_time."""
        sectors = ULTRASTAR_36Z15.capacity_sectors
        rng = random.Random(11)
        total = 0.0
        n = 3000
        for _ in range(n):
            total += model.seek_time(rng.randrange(sectors), rng.randrange(sectors))
        assert total / n == pytest.approx(
            ULTRASTAR_36Z15.avg_seek_time, rel=0.08
        )

    def test_symmetry(self, model):
        assert model.seek_time(0, 10_000_000) == model.seek_time(
            10_000_000, 0
        )

    def test_negative_sector_rejected(self, model):
        with pytest.raises(ValueError):
            model.cylinder_of(-1)


class TestServiceTime:
    def test_sequential_pays_transfer_only(self, model):
        t = model.service_time(512, 512, 64 * 1024)
        assert t == pytest.approx(ULTRASTAR_36Z15.transfer_time(64 * 1024))

    def test_random_includes_rotation_and_seek(self, model):
        sectors = ULTRASTAR_36Z15.capacity_sectors
        t = model.service_time(0, sectors // 2, 64 * 1024)
        expected = (
            model.seek_time(0, sectors // 2)
            + ULTRASTAR_36Z15.avg_rotational_latency
            + ULTRASTAR_36Z15.transfer_time(64 * 1024)
        )
        assert t == pytest.approx(expected)

    def test_nearby_nonsequential_pays_rotation(self, model):
        # Same cylinder, different sector: no seek but rotational latency.
        t = model.service_time(0, 4, 4096)
        assert t == pytest.approx(
            ULTRASTAR_36Z15.avg_rotational_latency
            + ULTRASTAR_36Z15.transfer_time(4096)
        )

    def test_larger_transfer_takes_longer(self, model):
        t1 = model.service_time(0, 1_000_000, 64 * 1024)
        t2 = model.service_time(0, 1_000_000, 1024 * 1024)
        assert t2 > t1


class TestEndSector:
    def test_exact_multiple(self):
        assert MechanicalModel.end_sector(100, 512 * 8) == 108

    def test_rounds_up_partial_sector(self):
        assert MechanicalModel.end_sector(100, 513) == 102

    def test_cylinder_mapping_monotone(self, model):
        cyls = [
            model.cylinder_of(s)
            for s in range(0, ULTRASTAR_36Z15.capacity_sectors, 1_000_000)
        ]
        assert cyls == sorted(cyls)
        assert max(cyls) <= ULTRASTAR_36Z15.cylinders - 1


class TestSharedModel:
    """A controller's disks share one model, so one seek memo per array."""

    @pytest.mark.parametrize("scheme", ["rolo-r", "raid5"])
    def test_array_disks_share_one_model(self, scheme):
        config = Raid5Config() if scheme == "raid5" else small_config()
        controller = build_controller(scheme, Simulator(), config)
        disks = controller.all_disks()
        assert len(disks) > 1
        assert len({id(disk.mechanics) for disk in disks}) == 1

    def test_rebuild_replacement_shares_the_model(self):
        controller = build_controller("raid10", Simulator(), small_config())
        failed = controller.mirrors[0]
        controller.fail_disk(failed)
        replacement = controller.begin_rebuild(failed).replacement
        assert replacement.mechanics is controller.primaries[0].mechanics

    def test_model_for_another_spec_is_rejected(self):
        with pytest.raises(ValueError):
            Disk(
                Simulator(),
                CHEETAH_15K5,
                "D0",
                mechanics=MechanicalModel(ULTRASTAR_36Z15),
            )
