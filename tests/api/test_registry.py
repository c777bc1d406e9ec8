"""Tests for the self-registering scheme/benchmark/runtime registries."""

from __future__ import annotations

import pytest

from repro.api import (
    ParamSpec,
    UnknownNameError,
    benchmark_names,
    get_benchmark,
    get_runtime,
    get_scheme,
    register_benchmark,
    register_runtime,
    register_scheme,
    runtime_names,
    scheme_names,
    unregister,
)
from repro.api.registry import _runtimes, _schemes
from repro.bench.workloads import (
    BENCHMARKS,
    MCS_SCHEMES,
    RELATED_MCS_SCHEMES,
    RELATED_RW_SCHEMES,
    RW_SCHEMES,
    SCHEMES,
)


class TestBuiltinCatalogue:
    def test_all_nine_schemes_registered(self):
        for scheme in SCHEMES:
            info = get_scheme(scheme)
            assert info.name == scheme
            assert info.harness

    def test_catalogue_tuples_derive_from_registry(self):
        assert MCS_SCHEMES == scheme_names(category="mcs") == ("fompi-spin", "d-mcs", "rma-mcs")
        assert RW_SCHEMES == scheme_names(category="rw") == ("fompi-rw", "rma-rw")
        assert (
            RELATED_MCS_SCHEMES
            == scheme_names(category="related-mcs")
            == ("ticket", "hbo", "cohort", "alock", "lock-server")
        )
        assert RELATED_RW_SCHEMES == scheme_names(category="related-rw") == ("numa-rw",)

    def test_rw_flags_match_catalogue(self):
        for scheme in RW_SCHEMES + RELATED_RW_SCHEMES:
            assert get_scheme(scheme).rw
        for scheme in MCS_SCHEMES + RELATED_MCS_SCHEMES:
            assert not get_scheme(scheme).rw

    def test_striped_rw_registered_but_not_harness_compatible(self):
        info = get_scheme("striped-rw")
        assert info.rw
        assert not info.harness
        assert "striped-rw" not in SCHEMES

    def test_benchmarks_registered(self):
        assert BENCHMARKS == ("lb", "ecsb", "sob", "wcsb", "warb")
        # The live registry additionally carries the open-loop traffic
        # scenarios; the paper's five always lead the catalogue.
        assert benchmark_names()[:5] == BENCHMARKS
        assert set(benchmark_names(tag="traffic")) >= {"traffic-zipf", "traffic-phased"}
        assert get_benchmark("sob").cs_kind == "single-op"
        assert get_benchmark("wcsb").cs_kind == "counter-compute"
        assert get_benchmark("warb").post_release_wait
        assert not get_benchmark("lb").post_release_wait

    def test_runtimes_registered(self):
        assert "horizon" in runtime_names()
        assert "thread" not in runtime_names()

    def test_every_runtime_is_deterministic(self):
        # ledger/trace.py and ledger/probes.py still filter on it: True must
        # keep horizon (its probe rows and traced rma.run spans), not drop it.
        assert runtime_names(deterministic=True) == runtime_names()
        assert "horizon" in runtime_names(deterministic=True)

    def test_an_unknown_filter_raises(self):
        # A filter on a field no entry has used to match nothing, silently.
        with pytest.raises(UnknownNameError, match="runtime filter 'deterministic'"):
            _runtimes.names(deterministic=True)
        assert _runtimes.names(name="horizon") == ("horizon",)
        with pytest.raises(UnknownNameError, match="Did you mean 'harness'"):
            _schemes.names(harnes=True)

    def test_the_seed_scheduler_is_not_a_runtime(self):
        # Its role went to tests/reference.py, which only tests register.
        for name in ("baseline", "reference"):
            assert name not in runtime_names()
            with pytest.raises(UnknownNameError):
                get_runtime(name)

    def test_param_specs_documented(self):
        info = get_scheme("rma-rw")
        names = [p.name for p in info.params]
        assert names == ["t_dc", "t_l", "t_r", "t_w"]
        for param in info.params:
            assert param.help  # every parameter carries a description
        assert info.param("t_r").default == 64
        assert info.param("t_l").sequence


class TestUnknownNames:
    def test_unknown_scheme_lists_and_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            get_scheme("rma-rv")
        message = str(excinfo.value)
        for scheme in SCHEMES:
            assert scheme in message
        assert "Did you mean 'rma-rw'?" in message
        assert excinfo.value.suggestion == "rma-rw"

    def test_unknown_benchmark_suggests(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_benchmark("wscb")
        assert excinfo.value.suggestion == "wcsb"

    def test_unknown_runtime_suggests(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_runtime("horizont")
        assert excinfo.value.suggestion == "horizon"

    def test_no_close_match_still_lists_names(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_scheme("zzzzzz")
        assert excinfo.value.suggestion is None
        assert "registered schemes" in str(excinfo.value)

    def test_unknown_name_error_is_a_value_error(self):
        # Callers that predate the registry catch ValueError; keep that working.
        assert issubclass(UnknownNameError, ValueError)


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scheme("rma-rw")
            def _clash(machine):  # pragma: no cover - never called
                return None

    def test_custom_scheme_lifecycle(self):
        @register_scheme(
            "test-registry-lock",
            category="test",
            params=(ParamSpec("home_rank", int, 0, "home rank"),),
            help="test-only entry",
        )
        def _build(machine, home_rank=0):
            from repro.related.ticket import TicketLockSpec

            return TicketLockSpec(num_processes=machine.num_processes, home_rank=home_rank)

        try:
            info = get_scheme("test-registry-lock")
            assert info.category == "test"
            assert "test-registry-lock" in scheme_names(category="test")
            machine_names = scheme_names()
            assert "test-registry-lock" in machine_names
        finally:
            unregister("scheme", "test-registry-lock")
        with pytest.raises(UnknownNameError):
            get_scheme("test-registry-lock")

    def test_custom_benchmark_and_runtime_decorators(self):
        @register_benchmark("test-registry-bench", help="test-only")
        def _factory(config, spec, is_rw, shared_offset):  # pragma: no cover
            raise NotImplementedError

        @register_runtime("test-registry-runtime", help="test-only")
        def _runtime_factory(machine, **kwargs):  # pragma: no cover
            raise NotImplementedError

        try:
            assert get_benchmark("test-registry-bench").program_factory is _factory
            assert "test-registry-runtime" in runtime_names()
            assert get_runtime("test-registry-runtime").factory is _runtime_factory
        finally:
            unregister("benchmark", "test-registry-bench")
            unregister("runtime", "test-registry-runtime")


class TestParamSpec:
    def test_scalar_coercion(self):
        spec = ParamSpec("t_r", int, 64, "reader threshold")
        assert spec.coerce("32") == 32
        assert spec.coerce(16.0) == 16
        assert spec.coerce(None) is None

    def test_sequence_coercion(self):
        spec = ParamSpec("t_l", int, None, "locality thresholds", sequence=True)
        assert spec.coerce([2, "4"]) == (2, 4)
        assert spec.coerce(None) is None
        mapping = {2: 8}  # per-level mapping passes through untouched
        assert spec.coerce(mapping) is mapping

    def test_from_config_extractor(self):
        spec = ParamSpec("bound", int, 7, "bound", from_config=lambda cfg: cfg.value * 2)

        class Config:
            value = 5

        assert spec.extract(Config()) == 10
        plain = ParamSpec("bound", int, 7, "bound")
        assert plain.extract(object()) == 7

    def test_build_rejects_unknown_parameter(self):
        info = get_scheme("rma-rw")
        from repro.topology.machine import Machine

        with pytest.raises(UnknownNameError) as excinfo:
            info.build(Machine.cluster(nodes=2, procs_per_node=4), t_rr=8)
        assert excinfo.value.suggestion == "t_r"


class TestTunableParams:
    """The tune suite derives its threshold axes from ParamSpec metadata."""

    def test_numeric_params_are_tunable_by_default(self):
        assert ParamSpec("t_r", int, 64, "threshold").is_tunable
        assert ParamSpec("cap", float, 2.0, "cap").is_tunable
        assert not ParamSpec("mode", str, "fair", "mode").is_tunable

    def test_explicit_flag_overrides_the_inference(self):
        assert not ParamSpec("home_rank", int, 0, "home", tunable=False).is_tunable
        assert ParamSpec("mode", str, "fair", "mode", tunable=True).is_tunable

    def test_builtin_schemes_expose_their_thresholds(self):
        names = {spec.name for spec in get_scheme("rma-rw").tunable_params()}
        assert {"t_dc", "t_r"} <= names
        # ticket's home_rank is a placement choice, not a threshold.
        assert get_scheme("ticket").tunable_params() == ()

    def test_params_from_config_applies_the_overlay(self):
        info = get_scheme("rma-rw")

        class Config:
            t_dc = None
            t_l = None
            t_r = 64
            t_w = None
            params = (("t_r", "16"),)  # coerced through the ParamSpec

        values = info.params_from_config(Config())
        assert values["t_r"] == 16

    def test_overlay_rejects_unknown_names(self):
        info = get_scheme("rma-rw")

        class Config:
            t_dc = None
            t_l = None
            t_r = 64
            t_w = None
            params = (("t_rr", 16),)

        with pytest.raises(UnknownNameError):
            info.params_from_config(Config())


class TestBenchmarkInfoValidation:
    def test_cs_kind_typo_rejected_at_registration(self):
        from repro.api import BenchmarkInfo

        with pytest.raises(UnknownNameError) as excinfo:
            BenchmarkInfo("bad-bench", cs_kind="single_op")
        assert excinfo.value.suggestion == "single-op"

    def test_custom_factory_skips_cs_kind_validation(self):
        from repro.api import BenchmarkInfo

        info = BenchmarkInfo("ok-bench", cs_kind="irrelevant", program_factory=lambda *a: None)
        assert info.program_factory is not None


class TestReloadSafety:
    """importlib.reload re-executes registrations with fresh-but-identically-
    named provider objects; the registry treats that as a refresh, not a clash."""

    def test_same_provider_re_registration_is_a_refresh(self):
        def make_builder():
            # Two distinct function objects with identical module/qualname,
            # exactly what a module reload produces.
            def _build_reload_probe(machine):  # pragma: no cover - never called
                return None

            return _build_reload_probe

        try:
            register_scheme("test-reload-probe", category="test")(make_builder())
            register_scheme("test-reload-probe", category="test")(make_builder())
            assert get_scheme("test-reload-probe").category == "test"
        finally:
            unregister("scheme", "test-reload-probe")

    def test_declarative_benchmark_re_registration_is_a_refresh(self):
        from repro.api import BenchmarkInfo, register_benchmark_info

        try:
            register_benchmark_info(BenchmarkInfo("test-reload-bench", cs_kind="single-op"))
            register_benchmark_info(BenchmarkInfo("test-reload-bench", cs_kind="single-op"))
            assert get_benchmark("test-reload-bench").cs_kind == "single-op"
        finally:
            unregister("benchmark", "test-reload-bench")

    def test_different_provider_claiming_existing_name_still_raises(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scheme("rma-rw")
            def _imposter(machine):  # pragma: no cover - never called
                return None
