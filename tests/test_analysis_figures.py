"""Tests for the per-figure data generators (repro.analysis.figures).

Each test checks the *shape* of the paper's result — who wins, how quantities
scale — not absolute numbers, following the reproduction brief.
"""

import pytest

from repro.analysis import figures
from repro.model.config import LLAMA_13B, LLAMA_70B


class TestFigure1:
    def test_slimpipe_activation_scales_inversely_with_p(self):
        result = figures.figure1_memory_footprint()
        rows = {r["pipeline_parallel_size"]: r for r in result.rows}
        assert rows[16]["slimpipe_activation_gib"] < rows[2]["slimpipe_activation_gib"] / 4
        # Classic PP activation memory stays constant.
        assert rows[16]["classic_activation_gib"] == pytest.approx(
            rows[2]["classic_activation_gib"], rel=0.01
        )

    def test_model_states_shrink_with_p(self):
        result = figures.figure1_memory_footprint()
        rows = {r["pipeline_parallel_size"]: r for r in result.rows}
        assert rows[8]["model_state_gib"] < rows[1]["model_state_gib"] / 4

    def test_skips_non_dividing_pipeline_sizes(self):
        result = figures.figure1_memory_footprint(model=LLAMA_13B)
        sizes = [r["pipeline_parallel_size"] for r in result.rows]
        assert 16 not in sizes  # 40 layers do not divide by 16

    def test_to_text_contains_rows(self):
        text = figures.figure1_memory_footprint().to_text()
        assert "Figure 1" in text and "SlimPipe" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return figures.figure2_max_context(max_context_k=768, step_k=8)

    def test_slimpipe_reaches_several_times_longer_context(self, result):
        slim = result.row(scheme="slimpipe")["max_context_k"]
        others = [r["max_context_k"] for r in result.rows if r["scheme"] != "slimpipe"]
        # The paper reports 4.8-8.3x; the analytic model lands in the same band.
        assert slim >= 3 * max(others)

    def test_all_schemes_fit_something(self, result):
        assert all(r["max_context_k"] > 0 for r in result.rows)

    def test_vhalf_beats_zbv(self, result):
        assert (
            result.row(scheme="v-half")["max_context_k"]
            >= result.row(scheme="zb-v")["max_context_k"]
        )

    def test_missing_scheme_raises(self, result):
        with pytest.raises(KeyError):
            result.row(scheme="gpipe")


class TestFigure3:
    def test_slimpipe_near_zero_and_smallest(self):
        result = figures.figure3_bubble_fractions()
        slim = result.row(scheme="slimpipe")["bubble_fraction"]
        assert slim < 0.05
        for row in result.rows:
            if row["scheme"] != "slimpipe":
                assert row["bubble_fraction"] > slim

    def test_interleaved_below_default_1f1b(self):
        result = figures.figure3_bubble_fractions()
        fraction = {r["scheme"]: r["bubble_fraction"] for r in result.rows}
        assert fraction["interleaved-1f1b"] < fraction["1f1b"]


class TestFigures4And5:
    def test_figure4_accumulation_matches_eq1(self):
        result = figures.figure4_schedule_structure()
        # (1 + 2(p-1)/n) / p with p=4, n=8.
        assert result.summary["accumulated_fraction"] == pytest.approx(1.75 / 4)
        assert [r["warmup_units"] for r in result.rows] == [14, 12, 10, 8]
        assert "dev 0" in result.body

    def test_figure5_interleaving_reduces_per_unit_share(self):
        plain = figures.figure4_schedule_structure()
        inter = figures.figure5_interleaved_schedule()
        assert inter.summary["accumulated_fraction"] < plain.summary["accumulated_fraction"]

    def test_to_text(self):
        assert "warm-up" in figures.figure5_interleaved_schedule().to_text()


class TestFigure6:
    def test_activation_monotone_in_slices_and_bounded_by_inverse_p(self):
        rows = figures.figure6a_activation_vs_slices().rows
        by_p = {}
        for r in rows:
            by_p.setdefault(r["pipeline_parallel_size"], []).append(r)
        for p, series in by_p.items():
            fractions = [
                r["activation_fraction"] for r in sorted(series, key=lambda r: r["num_slices"])
            ]
            assert fractions == sorted(fractions, reverse=True)
            assert fractions[-1] > 1.0 / p  # approaches but never reaches 1/p
            assert fractions[0] <= 1.0

    def test_bubble_monotone_in_slices_and_microbatches(self):
        table = figures.figure6b_bubble_vs_slices()
        by_m = {}
        for r in table.rows:
            by_m.setdefault(r["num_microbatches"], []).append(r)
        for m, series in by_m.items():
            fractions = [
                r["bubble_fraction"] for r in sorted(series, key=lambda r: r["num_slices"])
            ]
            assert fractions == sorted(fractions, reverse=True)
        # More microbatches -> smaller bubbles at the same n.
        at_n8 = {m: table.row(num_microbatches=m, num_slices=8) for m in (2, 8)}
        assert at_n8[8]["bubble_fraction"] < at_n8[2]["bubble_fraction"]

    def test_combined_result(self):
        result = figures.figure6_slices_sweep()
        activation, bubble = result.panels
        assert activation.rows and bubble.rows
        assert "Figure 6a" in result.to_text()


class TestFigure7:
    def test_context_exchange_removes_imbalance_bubbles(self):
        result = figures.figure7_imbalance_bubbles(
            sequence_length=64 * 1024, num_slices=8, pipeline_parallel_size=4
        )
        without, with_ = result.row(exchange="without"), result.row(exchange="with")
        assert with_["bubble_fraction"] < without["bubble_fraction"]
        assert with_["iteration_time"] < without["iteration_time"]
        assert without["bubble_fraction"] - with_["bubble_fraction"] > 0.0
        assert "Figure 7" in result.to_text()


class TestFigure8:
    def test_balances_to_within_one_slice(self):
        result = figures.figure8_context_exchange_plan()
        assert result.summary["max_imbalance_before"] > 1.0
        assert result.summary["max_imbalance_after"] <= 1.0 + 1e-9
        assert sum(r["kv_after"] for r in result.rows) == pytest.approx(
            sum(r["kv_before"] for r in result.rows)
        )
        assert result.summary["num_transfers"] > 0


class TestFigure9:
    def test_vocab_parallel_removes_output_layer_bubble(self):
        result = figures.figure9_vocab_parallel_bubble(
            sequence_length=64 * 1024, num_slices=8
        )
        last = result.row(layer="last_device_gemm")
        vocab = result.row(layer="vocab_parallel")
        assert vocab["iteration_time"] < last["iteration_time"]
        assert vocab["bubble_fraction"] <= last["bubble_fraction"]
        assert result.summary["speedup"] > 1.0


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return figures.figure10_memory_scaling(
            sequence_ks=(32, 64), pipeline_sizes=(2, 4, 8), num_microbatches=2
        )

    def test_memory_tracks_theoretical_curve(self, result):
        for row in result.rows:
            assert row["first_device_gib"] == pytest.approx(row["theoretical_gib"], rel=0.25)
            assert row["last_device_gib"] == pytest.approx(row["theoretical_gib"], rel=0.25)

    def test_memory_decreases_with_p(self, result):
        for seq_k in (32, 64):
            rows = [r for r in result.rows if r["sequence_k"] == seq_k]
            peaks = [
                r["first_device_gib"]
                for r in sorted(rows, key=lambda r: r["pipeline_parallel_size"])
            ]
            assert peaks == sorted(peaks, reverse=True)

    def test_longer_context_uses_more_memory(self, result):
        short = result.row(sequence_k=32, pipeline_parallel_size=2)
        long = result.row(sequence_k=64, pipeline_parallel_size=2)
        assert long["first_device_gib"] > short["first_device_gib"]


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return figures.figure11_mfu_vs_slices(
            sequence_ks=(128, 512), slice_multipliers=(1, 2, 4, 8)
        )

    def test_mfu_in_plausible_band(self, result):
        assert all(0.1 < r["mfu"] < 0.6 for r in result.rows)

    def test_short_context_degrades_faster_with_many_slices(self, result):
        """Figure 11: the 128K curve drops off sooner than the 512K curve."""
        short = {r["num_slices"]: r["mfu"] for r in result.rows if r["sequence_k"] == 128}
        long = {r["num_slices"]: r["mfu"] for r in result.rows if r["sequence_k"] == 512}
        short_drop = (max(short.values()) - short[32]) / max(short.values())
        long_drop = (max(long.values()) - long[32]) / max(long.values())
        assert short_drop > long_drop

    def test_transition_point_later_for_longer_context(self, result):
        assert result.summary["s512k.best_slices"] >= result.summary["s128k.best_slices"]


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self):
        return figures.figure12_end_to_end(
            models=(LLAMA_70B,), gpu_counts=(128,), sequence_ks=(64, 256, 512)
        )

    def test_slimpipe_always_feasible_and_fastest(self, result):
        for seq_k in (64, 256, 512):
            slim = result.row(sequence_k=seq_k, system="slimpipe")
            assert slim["feasible"]
            for system in ("deepspeed", "megatron-lm"):
                other = result.row(sequence_k=seq_k, system=system)
                if other["feasible"]:
                    assert slim["mfu"] > other["mfu"]

    def test_speedup_widens_with_context(self, result):
        s64 = result.row(sequence_k=64, system="slimpipe")["speedup_over_megatron"]
        s256 = result.row(sequence_k=256, system="slimpipe")["speedup_over_megatron"]
        assert s64 is not None and s256 is not None
        assert s256 > s64

    def test_baselines_fail_at_512k(self, result):
        assert not result.row(sequence_k=512, system="megatron-lm")["feasible"]
        assert not result.row(sequence_k=512, system="deepspeed")["feasible"]

    def test_labels(self, result):
        label = next(c for c in result.columns if c.header == "MFU").cell
        assert label(result.row(sequence_k=512, system="megatron-lm")) in ("OOM", "no-config")
        assert "%" in label(result.row(sequence_k=64, system="slimpipe"))

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.row(model="llama-70b", num_gpus=512, sequence_k=64, system="slimpipe")

    def test_unregistered_model_config_rejected_loudly(self):
        # Cells travel to the sweep evaluator by registry name, so a modified
        # copy sharing a registered name must not be silently swapped for the
        # registry entry.
        import dataclasses

        tweaked = dataclasses.replace(LLAMA_70B, num_layers=LLAMA_70B.num_layers * 2)
        with pytest.raises(ValueError, match="registered model configs"):
            figures.figure12_end_to_end(
                models=(tweaked,), gpu_counts=(128,), sequence_ks=(64,)
            )


class TestFigures13And14:
    @pytest.fixture(scope="class")
    def sweep(self):
        return figures.figure13_scheme_mfu(sequence_ks=(32, 256, 512))

    def test_slimpipe_highest_mfu_everywhere(self, sweep):
        for seq_k in (32, 256, 512):
            slim = sweep.row(scheme="slimpipe", sequence_k=seq_k)
            assert slim["feasible"]
            for scheme in ("zb-v", "v-half", "1f1b", "interleaved-1f1b"):
                other = sweep.row(scheme=scheme, sequence_k=seq_k)
                if other["feasible"]:
                    assert slim["mfu"] > other["mfu"]

    def test_slimpipe_lowest_memory_everywhere(self, sweep):
        for seq_k in (32, 256):
            slim = sweep.row(scheme="slimpipe", sequence_k=seq_k)
            for scheme in ("zb-v", "v-half", "1f1b", "interleaved-1f1b"):
                other = sweep.row(scheme=scheme, sequence_k=seq_k)
                if other["feasible"]:
                    assert slim["peak_memory_gib"] < other["peak_memory_gib"]

    def test_zero_bubble_schemes_oom_first(self, sweep):
        assert not sweep.row(scheme="zb-v", sequence_k=512)["feasible"]
        assert not sweep.row(scheme="v-half", sequence_k=512)["feasible"]
        assert sweep.row(scheme="slimpipe", sequence_k=512)["feasible"]

    def test_default_1f1b_survives_256k_but_not_512k(self, sweep):
        assert sweep.row(scheme="1f1b", sequence_k=256)["feasible"]
        assert not sweep.row(scheme="1f1b", sequence_k=512)["feasible"]

    def test_figure13_and_14_share_the_sweep(self):
        a = figures.figure13_scheme_mfu(sequence_ks=(32,))
        b = figures.figure14_scheme_memory(sequence_ks=(32,))
        assert {r["scheme"] for r in a.rows} == {r["scheme"] for r in b.rows}
