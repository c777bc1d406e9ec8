"""Tests for the latency/contention model."""

from __future__ import annotations

import pytest

from repro.bench.harness import run_lock_benchmark_detailed
from repro.rma.latency import CostTable, LatencyModel, cost_table
from repro.rma.ops import CALLS, RMACall
from repro.topology.machine import Machine

from golden_cases import golden_config, result_fingerprint


@pytest.fixture
def machine() -> Machine:
    return Machine.multi_rack(racks=2, nodes_per_rack=2, procs_per_node=4)


class TestTiers:
    def test_distance_ordering(self, machine):
        model = LatencyModel.cray_xc30()
        self_cost = model.base_cost(machine, 0, 0)
        node_cost = model.base_cost(machine, 0, 1)          # same node
        rack_cost = model.base_cost(machine, 0, 4)          # same rack, other node
        global_cost = model.base_cost(machine, 0, 12)       # other rack
        assert self_cost < node_cost < rack_cost < global_cost

    def test_two_level_machine_has_no_group_tier(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        model = LatencyModel.cray_xc30()
        # cross-node on a 2-level machine lands on the same_group tier
        assert model.base_cost(machine, 0, 4) == model.same_group_us

    def test_single_level_machine(self):
        machine = Machine.single_node(4)
        model = LatencyModel.cray_xc30()
        assert model.base_cost(machine, 0, 1) == model.same_node_us
        assert model.base_cost(machine, 2, 2) == model.self_us


class TestCallCosts:
    def test_atomic_overhead_added(self, machine):
        model = LatencyModel.cray_xc30()
        put = model.cost(RMACall.PUT, machine, 0, 4)
        fao = model.cost(RMACall.FAO, machine, 0, 4)
        cas = model.cost(RMACall.CAS, machine, 0, 4)
        acc = model.cost(RMACall.ACCUMULATE, machine, 0, 4)
        assert fao == pytest.approx(put + model.atomic_overhead_us)
        assert cas == pytest.approx(put + model.atomic_overhead_us)
        assert acc == pytest.approx(put + model.atomic_overhead_us)

    def test_flush_is_cheaper_than_data(self, machine):
        model = LatencyModel.cray_xc30()
        assert model.cost(RMACall.FLUSH, machine, 0, 4) < model.cost(RMACall.GET, machine, 0, 4)

    def test_get_equals_put(self, machine):
        model = LatencyModel.cray_xc30()
        assert model.cost(RMACall.GET, machine, 0, 4) == model.cost(RMACall.PUT, machine, 0, 4)


class TestOccupancy:
    def test_local_access_occupies_nothing(self, machine):
        model = LatencyModel.cray_xc30()
        assert model.occupancy(RMACall.FAO, 3, 3) == 0.0

    def test_flush_occupies_nothing(self, machine):
        model = LatencyModel.cray_xc30()
        assert model.occupancy(RMACall.FLUSH, 0, 4) == 0.0

    def test_atomics_occupy_longer_than_data(self, machine):
        model = LatencyModel.cray_xc30()
        assert model.occupancy(RMACall.FAO, 0, 4) > model.occupancy(RMACall.PUT, 0, 4) > 0


class TestPresets:
    def test_flat_fabric_has_uniform_remote_cost(self):
        machine = Machine.multi_rack(2, 2, 4)
        model = LatencyModel.flat(1.5)
        assert model.base_cost(machine, 0, 1) == model.base_cost(machine, 0, 12) == 1.5
        assert model.base_cost(machine, 0, 0) < 1.5

    def test_scaled_preserves_ordering(self):
        machine = Machine.multi_rack(2, 2, 4)
        model = LatencyModel.scaled(3.0)
        base = LatencyModel.cray_xc30()
        assert model.global_us == pytest.approx(base.global_us * 3.0)
        assert model.base_cost(machine, 0, 1) < model.base_cost(machine, 0, 12)

    def test_tier_table_keys(self):
        model = LatencyModel.cray_xc30()
        assert list(model.tier_table(Machine.single_node(4))) == ["self", "same_node"]
        assert list(model.tier_table(Machine.cluster(2, 4))) == ["self", "same_node", "same_group"]
        for machine in (Machine.multi_rack(2, 2, 4), Machine.from_level_sizes([2, 2, 2], 2)):
            assert list(model.tier_table(machine)) == ["self", "same_node", "same_group", "global"]
        # A level nothing fans out at, or one rank per node, is at no pair's distance.
        assert list(model.tier_table(Machine.cluster(1, 4))) == ["self", "same_node"]
        assert list(model.tier_table(Machine.cluster(4, 1))) == ["self", "same_group"]

    @pytest.mark.parametrize(
        "machine",
        [Machine.single_node(4), Machine.cluster(2, 4), Machine.multi_rack(2, 2, 4)],
        ids=["N=1", "N=2", "N=3"],
    )
    @pytest.mark.parametrize("preset", ["cray_xc30", "flat", "scaled"])
    def test_tier_table_reports_what_base_cost_charges(self, machine, preset):
        model = _preset(preset)
        n = machine.n_levels
        charged = {}
        for target in machine.iter_ranks():
            tier = ("self", "same_node", "same_group", "global")[n + 1 - machine.common_level(0, target)]
            charged[tier] = model.base_cost(machine, 0, target)
        assert model.tier_table(machine) == charged


def _preset(name: str) -> LatencyModel:
    return {
        "cray_xc30": LatencyModel.cray_xc30,
        "flat": lambda: LatencyModel.flat(1.3),
        "scaled": lambda: LatencyModel.scaled(2.7),
    }[name]()


class PairCostModel(LatencyModel):
    """Charges per rank pair, not per distance class, through ``cost``."""

    def cost(self, call, machine, origin, target):
        return super().cost(call, machine, origin, target) + 0.01 * ((7 * origin + target) % 5)


class PairBaseCostModel(LatencyModel):
    """Overrides only ``base_cost``; the stock ``cost`` picks it up."""

    def base_cost(self, machine, origin, target):
        return super().base_cost(machine, origin, target) * (1.0 + 0.1 * (target % 3))


class PairOccupancyModel(LatencyModel):
    """Overrides only ``occupancy``."""

    def occupancy(self, call, origin, target):
        return super().occupancy(call, origin, target) * (1.0 + 0.25 * (origin % 4))


def _assert_table_is_the_methods(table: CostTable, model: LatencyModel, machine: Machine) -> None:
    p = machine.num_processes
    assert table.num_ranks == p
    assert table.node_of == tuple(machine.node_of(r) for r in range(p))
    for ci, call in enumerate(CALLS):
        assert table.cost[ci] == [
            model.cost(call, machine, o, t) for o in range(p) for t in range(p)
        ]
        assert table.occupancy[ci] == [
            model.occupancy(call, o, t) for o in range(p) for t in range(p)
        ]


MACHINES = {
    "single_node": Machine.single_node(6),
    "cluster": Machine.cluster(nodes=3, procs_per_node=4),
    "multi_rack": Machine.multi_rack(racks=2, nodes_per_rack=3, procs_per_node=2),
    "four_level": Machine.from_level_sizes([2, 1, 3], procs_per_leaf=2),
}


class TestCostTable:
    @pytest.mark.parametrize("shape", sorted(MACHINES))
    @pytest.mark.parametrize("preset", ["cray_xc30", "flat", "scaled"])
    def test_every_entry_is_the_models_method_value(self, shape, preset):
        model, machine = _preset(preset), MACHINES[shape]
        _assert_table_is_the_methods(CostTable(model, machine), model, machine)

    @pytest.mark.parametrize("shape", sorted(MACHINES))
    def test_stock_build_is_per_distance_class(self, shape, monkeypatch):
        """Fast path must stay engaged: counts, not timings.

        A cold build walks the hierarchy once per rank pair and evaluates the
        model once per call and distance class present (each evaluation asks
        for its representative pair's common level once more).
        """
        machine = MACHINES[shape]
        p = machine.num_processes
        classes = len({machine.common_level(0, t) for t in range(p)})
        calls = {"common_level": 0, "cost": 0, "occupancy": 0}

        def counting(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(Machine, "common_level")
        counting(LatencyModel, "cost")
        counting(LatencyModel, "occupancy")
        CostTable(LatencyModel.cray_xc30(), machine)
        assert calls["cost"] <= len(CALLS) * classes
        assert calls["occupancy"] <= len(CALLS) * classes
        assert calls["common_level"] <= p * p + calls["cost"]

    @pytest.mark.parametrize("model_cls", [PairCostModel, PairBaseCostModel, PairOccupancyModel])
    def test_overriding_model_gets_the_per_entry_table(self, model_cls):
        model, machine = model_cls(), MACHINES["multi_rack"]
        table = CostTable(model, machine)
        _assert_table_is_the_methods(table, model, machine)
        stock = CostTable(LatencyModel.cray_xc30(), machine)
        assert (table.cost, table.occupancy) != (stock.cost, stock.occupancy)

    @pytest.mark.parametrize("model_cls", [PairCostModel, PairBaseCostModel, PairOccupancyModel])
    def test_overriding_model_runs_bit_identically_on_both_schedulers(self, model_cls):
        """``baseline`` calls the model per operation, ``horizon`` reads the table."""
        config = golden_config("rma-rw-ecsb-p8")

        def fingerprint(model, scheduler):
            run = run_lock_benchmark_detailed(config, latency_model=model, scheduler=scheduler)[1]
            return result_fingerprint(run)

        on_horizon = fingerprint(model_cls(), "horizon")
        assert on_horizon == fingerprint(model_cls(), "baseline")
        assert on_horizon != fingerprint(LatencyModel.cray_xc30(), "horizon")

    def test_list_built_machine_shares_the_cached_table(self):
        model = LatencyModel.cray_xc30()
        a = cost_table(model, Machine(fanouts=(3,), procs_per_leaf=5))
        b = cost_table(model, Machine(fanouts=[3], procs_per_leaf=5))
        assert a is b


class TestValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(self_us=-1)
        with pytest.raises(ValueError):
            LatencyModel(global_us=-0.1)

    def test_bad_flush_fraction(self):
        with pytest.raises(ValueError):
            LatencyModel(flush_fraction=1.5)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(atomic_occupancy_us=-0.1)

    def test_negative_atomic_overhead_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(atomic_overhead_us=-0.1)
