"""Tests for the multi-context reconfiguration scheduler (repro.reconfig).

The load-bearing invariant throughout: a diff-applied configuration is
bit-identical to a full reconfiguration -- the scheduler's active frame
image after any switch sequence equals the target context's rendered
image, frame for frame.
"""

import random

import pytest
from helpers import fp_adder_circuit, fp_multiplier_circuit

from repro.core.flows import build_context_library
from repro.core.reconfiguration import HWICAP, MICAP, ReconfigurationCostModel
from repro.flopoco.format import FPFormat
from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.bitstream import Bitstream, ConfigurationLayout
from repro.par.cache import PaRCache
from repro.reconfig import (
    Context,
    ContextLibrary,
    ReconfigScheduler,
    apply_delta,
    diff_images,
    popularity_weights,
    replay,
    synthetic_trace,
    union_frames,
)

TINY = FPFormat(we=4, wf=4)


def random_bitstream(layout: ConfigurationLayout, seed: int, tiles: int = 12) -> Bitstream:
    """A reproducible bitstream configuring ``tiles`` random tiles."""
    rng = random.Random(seed)
    bs = Bitstream(layout)
    arch = layout.arch
    for _ in range(tiles):
        x, y = rng.randint(1, arch.width), rng.randint(1, arch.height)
        bs.set_lut_config(x, y, rng.getrandbits(layout.lut_bits))
        bs.set_routing_config(x, y, rng.getrandbits(min(layout.routing_bits, 48)))
    return bs


@pytest.fixture(scope="module")
def layout():
    return ConfigurationLayout(FPGAArchitecture(width=6, height=6, channel_width=8))


@pytest.fixture(scope="module")
def library(layout):
    """12 random contexts with decaying criticality (ctx0 hottest)."""
    lib = ContextLibrary(layout)
    for i in range(12):
        lib.add_bitstream(
            f"ctx{i}", random_bitstream(layout, seed=100 + i), criticality=1.0 / (i + 1)
        )
    return lib


class TestFrameImage:
    def test_image_is_canonical(self, layout):
        image = random_bitstream(layout, seed=1).frame_image()
        assert image, "configured bitstream must render nonzero frames"
        assert all(value != 0 for value in image.values())
        assert all(0 <= f < layout.total_frames for f in image)

    def test_rendering_is_deterministic(self, layout):
        assert (
            random_bitstream(layout, seed=2).frame_image()
            == random_bitstream(layout, seed=2).frame_image()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_diff_apply_equals_full_configuration(self, layout, seed):
        """The tentpole invariant, across seeds and in both directions."""
        a = random_bitstream(layout, seed=seed).frame_image()
        b = random_bitstream(layout, seed=seed + 50).frame_image()
        assert apply_delta(a, diff_images(a, b)) == b
        assert apply_delta(b, diff_images(b, a)) == a
        # from/to the blank configuration too (zero writes clear frames)
        assert apply_delta({}, diff_images({}, a)) == a
        assert apply_delta(a, diff_images(a, {})) == {}

    def test_empty_delta_for_identical_images(self, layout):
        a = random_bitstream(layout, seed=3).frame_image()
        assert not diff_images(a, dict(a))
        assert union_frames(a, a) == len(a)

    def test_content_diff_refines_geometric_diff(self, layout):
        """Content-aware frame diffs never exceed the geometric tile diff."""
        x, y = random_bitstream(layout, seed=4), random_bitstream(layout, seed=5)
        content = {f for f, _ in diff_images(x.frame_image(), y.frame_image()).writes}
        assert content <= y.diff_frames(x)

    def test_delta_is_sorted_and_counts(self, layout):
        a = random_bitstream(layout, seed=6).frame_image()
        delta = diff_images({}, a)
        frames = [f for f, _ in delta.writes]
        assert frames == sorted(frames)
        assert delta.num_frames == len(a)


class TestCostModel:
    def test_resident_switch_is_cheaper(self):
        model = ReconfigurationCostModel(HWICAP)
        assert model.diff_switch_time_ms(10, resident=True) < model.diff_switch_time_ms(
            10, resident=False
        )
        assert model.diff_switch_time_ms(0, resident=False) == 0.0

    def test_nonresident_diff_matches_frame_rmw(self):
        model = ReconfigurationCostModel(MICAP)
        assert model.diff_switch_time_ms(7) == pytest.approx(model.time_from_frames_ms(7))


class TestLibraryLayout:
    def test_bitstream_of_another_channel_width_is_rejected(self):
        # W=10 and W=11 on a 34x34 grid share the frame count and size but
        # not the tile size, so a W=11 tile would land on other bits.
        narrow = ConfigurationLayout(FPGAArchitecture(width=34, height=34, channel_width=10))
        wide = ConfigurationLayout(FPGAArchitecture(width=34, height=34, channel_width=11))
        assert (narrow.total_frames, narrow.frame_bits) == (wide.total_frames, wide.frame_bits)
        assert narrow.tile_bits != wide.tile_bits
        bs = Bitstream(wide)
        bs.set_lut_config(5, 20, 0xBEEF)
        lib = ContextLibrary(narrow)
        with pytest.raises(ValueError, match="different configuration layout"):
            lib.add_bitstream("wide", bs)
        assert "wide" not in lib

    def test_bitstream_of_an_equal_layout_is_accepted(self, layout):
        twin = ConfigurationLayout(layout.arch)
        bs = random_bitstream(twin, seed=7)
        lib = ContextLibrary(layout)
        assert lib.add_bitstream("twin", bs).image == bs.frame_image()


class TestScheduler:
    def test_switch_is_bit_identical_to_full_reconfiguration(self, library):
        sched = ReconfigScheduler(library, budget_frames=40)
        for name in ["ctx0", "ctx5", "ctx2", "ctx5", "ctx11", "ctx0"]:
            sched.switch_to(name)
            assert sched.active_image == library[name].image

    def test_budget_is_never_exceeded(self, library):
        budget = library.total_frames() // 4
        sched = ReconfigScheduler(library, budget_frames=budget)
        for name in synthetic_trace(library.names(), 200, seed=3, skew=1.0):
            sched.switch_to(name)
            assert sched.resident_frames <= budget
            assert sched.resident_frames == sum(
                library[n].num_frames for n in sched._resident
            )

    def test_hit_and_miss_accounting(self, library):
        sched = ReconfigScheduler(library, budget_frames=library.total_frames())
        first = sched.switch_to("ctx1")
        assert not first.resident and first.admitted
        again = sched.switch_to("ctx1")
        assert again.resident and again.frames_written == 0 and again.time_ms == 0.0
        stats = sched.stats()
        assert stats["switches"] == 2 and stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_is_deterministic(self, library):
        """Two fresh schedulers replaying one trace take identical decisions."""
        trace = synthetic_trace(library.names(), 300, seed=7, skew=1.1, repeat=0.2)
        budget = library.total_frames() // 3

        def run():
            sched = ReconfigScheduler(library, budget_frames=budget)
            outcomes = [sched.switch_to(name) for name in trace]
            return outcomes, list(sched._resident), sched.active_image

        history_a, residents_a, image_a = run()
        history_b, residents_b, image_b = run()
        assert history_a == history_b
        assert residents_a == residents_b
        assert image_a == image_b
        assert any(outcome.evicted for outcome in history_a), "trace must exercise eviction"

    def test_lru_evicts_least_recently_used_first(self, layout):
        lib = ContextLibrary(layout)
        for i in range(3):
            lib.add_bitstream(f"c{i}", random_bitstream(layout, seed=200 + i, tiles=6))
        size = max(c.num_frames for c in lib)
        sched = ReconfigScheduler(lib, budget_frames=2 * size)
        sched.switch_to("c0")
        sched.switch_to("c1")
        sched.switch_to("c0")  # c1 is now LRU
        outcome = sched.switch_to("c2")
        assert "c1" in outcome.evicted and "c0" not in outcome.evicted

    def test_criticality_protects_hot_residents(self, layout):
        """A cold candidate cannot evict a hotter resident (admission refused)."""
        lib = ContextLibrary(layout)
        lib.add_bitstream("hot", random_bitstream(layout, seed=300, tiles=8), criticality=5.0)
        lib.add_bitstream("cold", random_bitstream(layout, seed=301, tiles=8), criticality=0.1)
        budget = lib["hot"].num_frames  # room for exactly one of them
        sched = ReconfigScheduler(lib, budget_frames=budget)
        assert sched.switch_to("hot").admitted
        outcome = sched.switch_to("cold")
        assert not outcome.admitted and not outcome.evicted
        assert list(sched._resident) == ["hot"]
        assert sched.stats()["rejected_admissions"] == 1
        # the grid still switched correctly, only residency was refused
        assert sched.active_image == lib["cold"].image

    def test_hot_candidate_evicts_cold_resident(self, layout):
        lib = ContextLibrary(layout)
        lib.add_bitstream("cold", random_bitstream(layout, seed=310, tiles=8), criticality=0.1)
        lib.add_bitstream("hot", random_bitstream(layout, seed=311, tiles=8), criticality=5.0)
        sched = ReconfigScheduler(lib, budget_frames=max(c.num_frames for c in lib))
        sched.switch_to("cold")
        outcome = sched.switch_to("hot")
        assert outcome.admitted and outcome.evicted == ("cold",)

    def test_oversized_context_is_never_admitted(self, library):
        smallest = min(c.num_frames for c in library)
        sched = ReconfigScheduler(library, budget_frames=smallest - 1)
        for name in library.names():
            outcome = sched.switch_to(name)
            assert not outcome.admitted
        assert sched.stats()["resident_contexts"] == 0
        assert sched.stats()["hit_rate"] == 0.0


class TestTrace:
    def test_trace_is_deterministic_per_seed(self):
        names = [f"n{i}" for i in range(8)]
        assert synthetic_trace(names, 100, seed=5) == synthetic_trace(names, 100, seed=5)
        assert synthetic_trace(names, 100, seed=5) != synthetic_trace(names, 100, seed=6)

    def test_skew_orders_popularity(self):
        names = [f"n{i}" for i in range(6)]
        trace = synthetic_trace(names, 4000, seed=1, skew=1.5)
        counts = [trace.count(n) for n in names]
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[-1]

    def test_popularity_weights_normalized_and_decreasing(self):
        w = popularity_weights(10, skew=1.2)
        assert w.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_repeat_injects_batch_locality(self, library):
        names = library.names()
        budget = library.total_frames() // 3
        loose = replay(
            ReconfigScheduler(library, budget),
            synthetic_trace(names, 400, seed=9, repeat=0.0),
        )
        batchy = replay(
            ReconfigScheduler(library, budget),
            synthetic_trace(names, 400, seed=9, repeat=0.9),
        )
        assert batchy.total_time_ms < loose.total_time_ms

    def test_replay_report_accounting(self, library):
        sched = ReconfigScheduler(library, budget_frames=library.total_frames())
        trace = synthetic_trace(library.names(), 150, seed=2, skew=1.3)
        report = replay(sched, trace)
        assert report.requests == 150
        assert 0.0 < report.hit_rate <= 1.0
        assert report.frames_written <= report.frames_full
        assert report.frame_savings == pytest.approx(
            1.0 - report.frames_written / report.frames_full
        )
        assert report.contexts_per_sec == pytest.approx(
            150 / (report.total_time_ms / 1000.0)
        )


class TestLibraryBuild:
    @pytest.fixture(scope="class")
    def circuits(self):
        return {
            "fp_add": fp_adder_circuit(TINY).circuit,
            "fp_mul": fp_multiplier_circuit(TINY).circuit,
        }

    @pytest.fixture(scope="class")
    def built(self, circuits):
        return build_context_library(
            circuits,
            channel_width=10,
            placement_effort=0.3,
            router_iterations=12,
            popularity={"fp_add": 2.0},
        )

    def test_contexts_share_one_grid(self, built):
        assert built.names() == ["fp_add", "fp_mul"]
        for context in built:
            assert context.num_frames > 0
            assert context.metadata["critical_path_ns"] > 0
            assert context.metadata["wirelength"] > 0
        assert built["fp_add"].criticality == 2.0
        assert built["fp_mul"].criticality == 0.0

    def test_contexts_schedule_bit_identically(self, built):
        sched = ReconfigScheduler(built, budget_frames=built.total_frames())
        for name in ["fp_add", "fp_mul", "fp_add"]:
            sched.switch_to(name)
            assert sched.active_image == built[name].image

    def test_warm_cache_build_skips_routing(self, circuits, tmp_path):
        """Second library build re-hydrates every route from the PaR cache."""
        knobs = dict(channel_width=10, placement_effort=0.3, router_iterations=12)
        cold_cache = PaRCache(tmp_path)
        cold = build_context_library(circuits, cache=cold_cache, **knobs)
        assert cold_cache.stats()["hits"] == 0
        assert cold_cache.stats()["misses"] >= len(circuits)

        warm_cache = PaRCache(tmp_path)
        warm = build_context_library(circuits, cache=warm_cache, **knobs)
        stats = warm_cache.stats()
        assert stats["hits"] == len(circuits), "every context route must re-hydrate"
        assert stats["misses"] == 0
        assert stats["read_errors"] == 0
        # a re-hydrated build renders bit-identical contexts
        for name in cold.names():
            assert warm[name].image == cold[name].image

    def test_mean_delta_probe(self, built):
        assert built.mean_delta_frames() > 0
