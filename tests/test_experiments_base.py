"""Tests for experiment infrastructure and the paper-reference data."""

from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cache import result_key
from repro.analysis.config import (
    DEFAULT_CONFIG,
    TASKS,
    LabConfig,
    Task,
    task_config_fields,
    task_config_key,
)
from repro.analysis.parallel import DEFAULT_TASKS
from repro.experiments.base import (
    build_labs,
    experiment_ids,
    experiment_requires,
    register,
)
from repro.experiments.paper_reference import CLAIMS, TABLE2, TABLE3
from repro.workloads.suite import BENCHMARK_NAMES


class TestPaperReference:
    def test_tables_cover_all_benchmarks(self):
        assert set(TABLE2) == set(BENCHMARK_NAMES)
        assert set(TABLE3) == set(BENCHMARK_NAMES)

    def test_table2_combiners_never_lose(self):
        # Internal consistency of the transcribed numbers: "w/ Corr" >=
        # base in every row of the paper's table.
        for gshare, with_corr, if_gshare, if_with_corr in TABLE2.values():
            assert with_corr >= gshare
            assert if_with_corr >= if_gshare

    def test_table3_combiners_never_lose(self):
        for pas, with_loop, if_pas, if_with_loop in TABLE3.values():
            assert with_loop >= pas
            assert if_with_loop >= if_pas

    def test_paper_gcc_go_gain_most_in_table2(self):
        gains = {
            name: row[1] - row[0] for name, row in TABLE2.items()
        }
        ranked = sorted(gains, key=gains.get, reverse=True)
        assert set(ranked[:2]) == {"gcc", "go"}

    def test_every_figure_has_a_claim(self):
        assert set(CLAIMS) == {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}


_ALL_FIELDS = tuple(f.name for f in fields(LabConfig))


class TestProjectionConservatism:
    """Unknown tasks have no projection -- they can never alias."""

    @given(
        st.text(min_size=1, max_size=30).filter(
            lambda name: name not in TASKS
            and not name.startswith("selective_")
        )
    )
    def test_unknown_names_raise_key_error(self, name):
        with pytest.raises(KeyError):
            task_config_fields(name)
        with pytest.raises(KeyError):
            task_config_key(name, DEFAULT_CONFIG)

    @given(st.integers(min_value=1, max_value=64))
    def test_selective_tasks_use_the_selective_projection(self, top_k):
        assert task_config_fields(f"selective_{top_k}_16") == (
            "selective_top_k", "collection_window",
        )

    def test_known_tasks_project_onto_declared_subsets(self):
        for task in TASKS.values():
            assert set(task.fields) <= set(_ALL_FIELDS), task.name


#: Cache keys the default configuration produced before the task table
#: existed; a warm cache from then must still hit.
_GOLDEN_KEYS = {
    "gshare": "gshare|gshare(gshare_history_bits=16, gshare_pht_bits=16)",
    "if_gshare": "if_gshare|if_gshare(if_gshare_history_bits=8)",
    "pas": "pas|pas(pas_history_bits=6, pas_bht_bits=12)",
    "if_pas": "if_pas|if_pas(if_pas_history_bits=6)",
    "loop": "loop|loop()",
    "block": "block|block()",
    "ideal_static": "ideal_static|ideal_static()",
    "fixed_best": "fixed_best|fixed_best()",
    "correlation": "correlation|correlation(collection_window=32)",
    "selective_3_16": (
        "selective_3_16|selective_3_16(selective_top_k=12, "
        "collection_window=32)"
    ),
}


class _RecordingConfig:
    """DEFAULT_CONFIG that records every field read through it."""

    def __init__(self):
        self.reads = []

    def __getattr__(self, name):
        self.reads.append(name)
        return getattr(DEFAULT_CONFIG, name)


class TestTaskTable:
    def test_default_cache_keys_are_unchanged(self):
        assert set(_GOLDEN_KEYS) == set(TASKS) | {"selective_3_16"}
        for task, key in _GOLDEN_KEYS.items():
            assert result_key(task, DEFAULT_CONFIG) == key

    def test_undeclared_field_read_raises(self):
        stale = replace(TASKS["gshare"], fields=("gshare_history_bits",))
        with pytest.raises(RuntimeError, match="'gshare'.*gshare_pht_bits"):
            stale.make(DEFAULT_CONFIG)
        probe = Task("probe", (), lambda c: c.collection_window)
        with pytest.raises(RuntimeError, match="'probe'.*collection_window"):
            probe.make(DEFAULT_CONFIG)

    def test_builds_read_exactly_their_declared_fields(self):
        for task in TASKS.values():
            config = _RecordingConfig()
            task.build(config)
            assert set(config.reads) == set(task.fields), task.name


class TestRegistryRequiresArePlannable:
    """Registry-wide mirror of the static DS003 check."""

    def test_every_registered_requires_resolves(self):
        for experiment_id in experiment_ids():
            for task in experiment_requires(experiment_id):
                assert task in DEFAULT_TASKS, (
                    f"experiment {experiment_id!r} requires "
                    f"unplannable task {task!r}"
                )


class TestInfrastructure:
    def test_duplicate_registration_rejected(self):
        @register("test-dummy-experiment")
        def dummy(labs):
            return None

        with pytest.raises(ValueError, match="duplicate"):
            register("test-dummy-experiment")(dummy)

    def test_build_labs_propagates_config(self):
        config = LabConfig(gshare_history_bits=4, gshare_pht_bits=6)
        labs = build_labs(max_length=2000, config=config)
        assert labs["gcc"].config is config

    def test_build_labs_seed(self):
        a = build_labs(max_length=2000, run_seed=1)
        b = build_labs(max_length=2000, run_seed=2)
        assert a["gcc"].trace != b["gcc"].trace
