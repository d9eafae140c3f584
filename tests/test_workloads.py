"""Tests for the workload generators and the cruise controller."""

import hashlib
import json

import pytest

from repro.errors import ModelError
from repro.io.json_io import application_to_dict
from repro.scheduling.ftss import ftss
from repro.workloads.deadlines import (
    assign_deadlines,
    assign_period,
    hard_only_bounds,
)
from repro.workloads.exec_times import TimingSpec, draw_execution_times
from repro.workloads.random_dags import (
    fanin_fanout_dag,
    layered_dag,
    random_dag,
    topological_order,
)
from repro.workloads.suite import WorkloadSpec, generate_application, generate_suite
from repro.workloads.utility_gen import step_utility_for_range


def _assert_dag_on(succ, n):
    """``succ`` spans nodes ``0..n-1`` and is acyclic: every edge goes
    from a lower to a higher node id (so id order is a topological
    order), and no edge repeats."""
    assert len(succ) == n
    for node, children in enumerate(succ):
        assert all(node < child < n for child in children)
        assert len(set(children)) == len(children)


def _weakly_connected(succ):
    """An undirected BFS from node 0 reaches every node."""
    neighbours = [set() for _ in succ]
    for node, children in enumerate(succ):
        for child in children:
            neighbours[node].add(child)
            neighbours[child].add(node)
    queue, seen = [0], {0}
    for node in queue:
        for other in neighbours[node] - seen:
            seen.add(other)
            queue.append(other)
    return len(seen) == len(succ)


class TestRandomDags:
    @pytest.mark.parametrize("n", [1, 5, 17, 40])
    def test_layered_is_dag_with_n_nodes(self, n, rng):
        _assert_dag_on(layered_dag(n, rng), n)

    @pytest.mark.parametrize("n", [1, 5, 17, 40])
    def test_fanin_fanout_is_dag_with_n_nodes(self, n, rng):
        _assert_dag_on(fanin_fanout_dag(n, rng), n)

    def test_layered_weakly_connected(self, rng):
        assert _weakly_connected(layered_dag(25, rng))
        assert not _weakly_connected([[1], [], [3], []])

    def test_dispatch(self, rng):
        assert len(random_dag(5, rng, structure="layered")) == 5
        assert len(random_dag(5, rng, structure="fanin_fanout")) == 5
        with pytest.raises(ModelError):
            random_dag(5, rng, structure="mystery")

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ModelError):
            layered_dag(0, rng)
        with pytest.raises(ModelError):
            fanin_fanout_dag(0, rng)
        with pytest.raises(ModelError):
            layered_dag(5, rng, edge_probability=1.5)
        for n_layers in (0, -1):
            with pytest.raises(ModelError, match="layer"):
                layered_dag(5, rng, n_layers=n_layers)
        with pytest.raises(ModelError, match="max_fan_out"):
            fanin_fanout_dag(8, rng, max_fan_out=0)
        with pytest.raises(ModelError, match="max_fan_in"):
            fanin_fanout_dag(8, rng, max_fan_in=1)

    def test_topological_order_is_kahns_fifo_order(self):
        """Sources in node order, then each node's successors as they
        are released, in successor-list order."""
        succ = [[3, 2], [2], [4], [4], []]
        assert topological_order(succ) == [0, 1, 3, 2, 4]
        with pytest.raises(ModelError, match="cycle"):
            topological_order([[1], [0]])


#: SHA-256 per (structure, size) and seed in PINNED_SEEDS of each
#: generated application: its JSON document and every process's
#: predecessor list, in order.  Captured from the networkx-based
#: generator these DAG generators replaced, bit for bit.
PINNED_SEEDS = (0, 1, 7, 42, 2008)
PINNED_DIGESTS = {
    ("layered", 10): (
        "9ca426e24914988320df522a4eca4b9d7bcc11aac100d3aee2ead47fa51cdd82",
        "414b4efbd00337dac812cb944bdf198090d45a3611f207b130ba3871b25632ed",
        "f9be9ebc26cb0f592936a3881f456ccb176855a2618119411680f2d02f442584",
        "908cc8fd0785dcb4e18797da2bf562fd0ceb3e6bb7b78cf813e8997d5d64e6e4",
        "d3a178d6370f3b792241e843e8a59e0d10ebbf8fea45677535028e02a90ff611",
    ),
    ("layered", 30): (
        "08b2eb9d86b0f7763efeda8c412820cf130b01055f7a98a3f03acf2fdaffc91a",
        "f19cc32da97271adc263d74b0ed0b00cb023a20e2f20aa8333c0a76ff7d98e40",
        "ab4ff3f8c9f652af4b240177fcb825a0c700cea5d18be2855ea0448bf6bde097",
        "04bbdd24dc91808bba2a29e516d8c5cb82a910474298fde90ccdb0e3f8d05732",
        "55a9f6b360799307c36c707050c4a1ef883e98c484cab4590dc5fc9b23f8a695",
    ),
    ("layered", 50): (
        "c687e115dc49b5cc0e853fbfae038e5eb6ce05b7c1ed0e44cf88ef4133dff3d8",
        "ff1b33451cc6471365e71e546d9d7a015603f05791c599257633fab07f6093de",
        "3b7046cc70a090998243fdd55603508c9d9ae640362fd3854ea4595a480efc9f",
        "5ea663b5c4a290622c4f25872076af7522d66e48c5f030a76f87e24e361dd7fa",
        "d8dbcd0765cf677fd9fcbeaaabb7a63fae5986d6365d93be3aca60f817bfea80",
    ),
    ("fanin_fanout", 10): (
        "39531b45642fa8e90718fcee31a7d237b182bc37460d0ba78b79ac4754f8e330",
        "ca350a3c67fc6a127ac5cdb025e4797c67985afa8d3635a78bfe7aaa0d0a6b72",
        "e82be9ec036b758ea23873904ffda77a0221d93bd1f401c1af45d9d68aee1f5d",
        "d1eb3bec386218c170bd95da0f394f0da810563950439f88af32d4580bc1a053",
        "68adc9cecb3c9e66726a0c8a0cb4a87e27c67da158775ae12d9683cf197d422f",
    ),
    ("fanin_fanout", 30): (
        "ea02e73d73e5bfee054e2f4aacc02aa211abf4ebfdf7ebc4db2242b0aea61d05",
        "fe43a439d4bd5e84476425ff6227367f0730b2137a941f0a5a8eca3d2e2564fd",
        "475d1d0857e323c8a7ebe850ba1fa433b3a1755f0f875bff3cd486046d655b1c",
        "c24dd6ac92672d0cbd588f85bb0d664f15e522d8c1053b5c24f8ff60446fbd9e",
        "2f1b0d569809d492e5d9baff4686e80d11da96d1586e81df0734a6f603cc1718",
    ),
    ("fanin_fanout", 50): (
        "2b1b7aa1287d98e752c5781b4265bdfc6765e4c4fd80ca4524a6a3f3064bb3b0",
        "395f9e2a96e982049c3ecca3d2801392212d1e708ca86e5c60efcdcef5d95c02",
        "9b4ea9d94cf2027c8be7553792736bf3846d5afcc84356e2a1adbb638feb8de0",
        "f0bcded98a90c2e101c1213933bcb751d3e524d82803120692fc1ea6e96e42b8",
        "ce0525447567b101552f30fb1b1d2f5a819ae67b6ef379ca42cede9b44413d3c",
    ),
}


def _application_digest(app):
    preds = [[p.name, app.graph.predecessors(p.name)] for p in app.processes]
    payload = json.dumps(
        [application_to_dict(app), preds], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("structure, size", sorted(PINNED_DIGESTS))
def test_generated_applications_are_pinned(structure, size):
    """Processes, edges, deadlines, period and predecessor order of the
    §6 inputs: a slip in predecessor order moves the stale-value sums
    only in their last bits, which no table row shows."""
    spec = WorkloadSpec(n_processes=size, structure=structure)
    digests = tuple(
        _application_digest(generate_application(spec, seed=seed))
        for seed in PINNED_SEEDS
    )
    assert digests == PINNED_DIGESTS[structure, size]


class TestExecTimes:
    def test_paper_distribution_bounds(self, rng):
        times = draw_execution_times(range(200), rng)
        for bcet, wcet in times.values():
            assert 10 <= wcet <= 100
            assert 1 <= bcet <= wcet

    def test_custom_spec(self, rng):
        spec = TimingSpec(wcet_min=50, wcet_max=60)
        times = draw_execution_times(range(50), rng, spec)
        assert all(50 <= w <= 60 for _, w in times.values())

    def test_invalid_spec_rejected(self):
        with pytest.raises(ModelError):
            TimingSpec(wcet_min=0)
        with pytest.raises(ModelError):
            TimingSpec(bcet_fraction_min=0.9, bcet_fraction_max=0.1)


class TestUtilityGen:
    def test_discriminates_range(self, rng):
        fn = step_utility_for_range(50, 400, rng)
        assert fn.max_value() >= 20
        # Function must actually decrease inside the range.
        assert fn(50) > fn(10_000)

    def test_invalid_range_rejected(self, rng):
        with pytest.raises(ModelError):
            step_utility_for_range(100, 50, rng)


class TestDeadlines:
    def test_hard_only_bounds_monotone(self):
        topo = ["A", "B", "C"]
        wcet = {"A": 10, "B": 20, "C": 30}
        need = {"A": 15, "B": 25, "C": 35}
        bounds = hard_only_bounds(topo, ["A", "C"], wcet, need, k=1)
        assert set(bounds) == {"A", "C"}
        assert bounds["A"] < bounds["C"]

    def test_bound_includes_recovery(self):
        bounds = hard_only_bounds(["A"], ["A"], {"A": 10}, {"A": 15}, k=2)
        assert bounds["A"] == 10 + 2 * 15

    def test_assign_deadlines_clipped(self):
        deadlines = assign_deadlines({"A": 100}, laxity=3.0, period=200)
        assert deadlines["A"] == 200

    def test_assign_deadlines_requires_laxity(self):
        with pytest.raises(ModelError):
            assign_deadlines({"A": 100}, laxity=0.5, period=200)

    def test_assign_period(self):
        assert assign_period(100, 20, 2, pressure=1.0, min_period=10) == 140
        assert assign_period(100, 20, 2, pressure=0.5, min_period=100) == 100
        with pytest.raises(ModelError):
            assign_period(100, 20, 2, pressure=0, min_period=1)


class TestGenerateApplication:
    def test_counts_and_parameters(self):
        app = generate_application(
            WorkloadSpec(n_processes=20, soft_ratio=0.5, k=3, mu=15), seed=1
        )
        assert len(app) == 20
        assert app.k == 3 and app.mu == 15
        assert len(app.soft) == 10

    def test_always_schedulable(self):
        """Deadlines derive from hard-only bounds with laxity >= 1, so
        FTSS must always find a schedule."""
        for seed in range(8):
            app = generate_application(WorkloadSpec(n_processes=15), seed=seed)
            assert ftss(app) is not None

    def test_seed_determinism(self):
        a = generate_application(WorkloadSpec(n_processes=15), seed=4)
        b = generate_application(WorkloadSpec(n_processes=15), seed=4)
        assert [p.name for p in a.processes] == [p.name for p in b.processes]
        assert [(p.bcet, p.wcet) for p in a.processes] == [
            (p.bcet, p.wcet) for p in b.processes
        ]
        assert a.period == b.period
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_validation_passes(self):
        app = generate_application(WorkloadSpec(n_processes=25), seed=3)
        app.validate()  # must not raise

    def test_soft_ratio_extremes(self):
        all_soft = generate_application(
            WorkloadSpec(n_processes=10, soft_ratio=1.0), seed=5
        )
        assert len(all_soft.soft) == 10
        all_hard = generate_application(
            WorkloadSpec(n_processes=10, soft_ratio=0.0), seed=5
        )
        assert len(all_hard.hard) == 10

    def test_invalid_spec_rejected(self):
        with pytest.raises(ModelError):
            WorkloadSpec(n_processes=0)
        with pytest.raises(ModelError):
            WorkloadSpec(soft_ratio=1.5)
        with pytest.raises(ModelError):
            WorkloadSpec(k=-1)

    def test_generate_suite_shape(self):
        suite = generate_suite(sizes=(10, 15), apps_per_size=2, seed=9)
        assert set(suite) == {10, 15}
        assert all(len(apps) == 2 for apps in suite.values())
        assert all(len(app) == 10 for app in suite[10])


class TestCruiseController:
    def test_paper_parameters(self, cc_app):
        assert len(cc_app) == 32
        assert len(cc_app.hard) == 9
        assert len(cc_app.soft) == 23
        assert cc_app.k == 2

    def test_mu_is_ten_percent_of_wcet(self, cc_app):
        for proc in cc_app.processes:
            mu = cc_app.recovery_overhead(proc.name)
            assert mu == max(1, -(-proc.wcet // 10))  # ceil(wcet/10)

    def test_schedulable(self, cc_app):
        schedule = ftss(cc_app)
        assert schedule is not None
        assert schedule.is_schedulable()

    def test_hard_path_is_connected_pipeline(self, cc_app):
        graph = cc_app.graph
        # The control path reaches the actuators.
        assert "Watchdog" in graph.descendants("SpeedAcq")
        assert "BrakeCmd" in graph.descendants("PIController")

    def test_deterministic(self):
        from repro.workloads.cruise import cruise_controller

        a = cruise_controller()
        b = cruise_controller()
        assert a.period == b.period
        assert [p.name for p in a.processes] == [p.name for p in b.processes]

    def test_overload_forces_dropping(self, cc_app):
        """The period pressure < 1 means the worst case cannot hold
        every process: the root schedule drops some soft processes."""
        schedule = ftss(cc_app)
        assert cc_app.worst_case_load() > cc_app.period
        assert len(schedule.dropped) > 0
