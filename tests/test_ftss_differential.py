"""Differential corpus: the routed ``ftss`` vs the FTSS oracle.

``repro.scheduling.ftss.ftss`` runs every configuration in the C core,
one ``rk_ftss`` call per run; ``ftss_reference`` is the oracle.  Every result must be *identical* — entries and re-execution
caps, start time, fault budget, prior sets and slack sharing, or
``None`` on both — over generated applications × fault budgets × start
times × prior sets × ablation configs, and every malformed input must
raise the same exception type on both.

The comparisons must run the C path: the ``c_path`` fixture skips a
test with ``kernel engine unavailable`` when no core loads here, and
fails it when a fallback it does not expect is counted — otherwise a
fallback would compare the oracle with itself.  Without a compiler,
``test_no_compiler_runs_the_oracles`` pins the counted fallback.

A tier-1-safe smoke slice runs by default (it includes an application
of more than 64 processes, whose sets take two mask words, and one
with linear, constant and tabulated utilities);
``pytest tests/test_ftss_differential.py --synthesis-full`` runs the
full corpus (10-50 processes, k = 0..4, the cruise controller).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ModelError, SchedulingError, UtilityError
from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.io.json_io import tree_to_dict
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import soft_process
from repro.quasistatic.ftqs import FTQSConfig, ftqs, ftqs_reference
from repro.runtime.engine.kernel import kernel_stats
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import (
    FTSSConfig,
    ftss,
    ftss_compiled,
    ftss_reference,
)
from repro.utility.functions import (
    ConstantUtility,
    LinearUtility,
    TabulatedUtility,
)
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

#: The six configurations the corpus runs; "nft" is FTSF's first stage
#: (``nft_schedule``), which always runs with ``fault_budget=0``.
CONFIGS = {
    "default": FTSSConfig(),
    "nft": FTSSConfig(soft_reexecution=False),
    "no-dropping": FTSSConfig(drop_heuristic=False),
    "no-soft-reexecution": FTSSConfig(soft_reexecution=False),
    "private-slack": FTSSConfig(slack_sharing=False),
    "wcet-opt": FTSSConfig(optimize_for="wcet"),
}


def schedule_fingerprint(schedule):
    """Every field of an FTSS result (``None`` stays ``None``)."""
    if schedule is None:
        return None
    return (
        tuple((e.name, e.reexecutions) for e in schedule.entries),
        schedule.start_time,
        schedule.fault_budget,
        schedule.prior_completed,
        schedule.prior_dropped,
        schedule.slack_sharing,
    )


def outcome(run):
    """``("ok", fingerprint)`` or ``("raise", exception type)``."""
    try:
        return ("ok", schedule_fingerprint(run()))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raise", type(exc))


def assert_same(app, label, **kwargs):
    """Both engines on one call; returns the shared outcome."""
    reference = outcome(lambda: ftss_reference(app, **kwargs))
    fast = outcome(lambda: ftss(app, **kwargs))
    assert fast == reference, (
        f"{label} {kwargs}\n  reference: {reference}\n  fast:      {fast}"
    )
    return reference


def cases(app, config_name, rng):
    """FTSS calls of one application under one config: roots at
    several budgets and start times, then tails after prefixes of the
    reference root at their WCET clock, with and without soft
    processes already dropped."""
    config = CONFIGS[config_name]
    budgets = [0] if config_name == "nft" else sorted({app.k, max(app.k - 1, 0), 0})
    top = budgets[-1]
    for budget in budgets:
        yield dict(fault_budget=budget, config=config)
    for start in (app.period // 10, app.period // 3):
        yield dict(fault_budget=top, start_time=start, config=config)
    root = ftss_reference(app, fault_budget=top, config=config)
    if root is None or len(root) < 2:
        return
    entries = root.entries
    for cut in sorted({1, len(entries) // 2, len(entries) - 1}):
        prefix = [e.name for e in entries[:cut]]
        clock = sum(app.process(name).wcet for name in prefix)
        for budget in budgets:
            yield dict(
                fault_budget=budget,
                start_time=clock,
                prior_completed=prefix,
                config=config,
            )
        soft_left = [p.name for p in app.soft if p.name not in prefix]
        if soft_left:
            count = int(rng.integers(1, min(3, len(soft_left)) + 1))
            dropped = [
                str(name)
                for name in rng.choice(soft_left, count, replace=False)
            ]
            yield dict(
                fault_budget=top,
                start_time=clock,
                prior_completed=prefix,
                prior_dropped=dropped,
                config=config,
            )


def check_application(app, seed, label, configs=tuple(CONFIGS)):
    rng = np.random.default_rng(seed)
    compared = 0
    for config_name in configs:
        for kwargs in cases(app, config_name, rng):
            assert_same(app, f"{label} [{config_name}]", **kwargs)
            compared += 1
    return compared


def mixed_utility_app(seed):
    """A generated application whose soft utilities become linear,
    constant with a cutoff and tabulated (with a sample at 0) in turn,
    at their original levels and horizons."""
    app = generate_application(
        WorkloadSpec(n_processes=14, k=2, mu=15),
        rng=np.random.default_rng(seed),
    )
    processes = []
    for index, proc in enumerate(app.processes):
        if proc.is_hard:
            processes.append(proc)
            continue
        top = proc.utility.max_value()
        horizon = max(proc.utility.horizon(), 4)
        utility = (
            LinearUtility(top, top / (2 * horizon)),
            ConstantUtility(top, cutoff=horizon),
            TabulatedUtility(
                [(0, top), (horizon // 2, top / 2), (horizon, top / 4)]
            ),
        )[index % 3]
        processes.append(
            soft_process(proc.name, proc.bcet, proc.wcet, utility,
                         aet=proc.aet,
                         recovery_overhead=proc.recovery_overhead)
        )
    graph = ProcessGraph(processes, list(app.graph.edges), period=app.period)
    return Application(graph, period=app.period, k=app.k, mu=app.mu)


#: (n_processes, k, seed, part of the tier-1 smoke slice)
CORPUS = [(10, 1, 11, True), (14, 2, 12, True), (12, 0, 13, True)] + [
    (n, k, 100 * n + k, False)
    for n in (10, 20, 30, 40, 50)
    for k in range(5)
]


@pytest.mark.parametrize(
    "n_processes,k,seed,smoke",
    CORPUS,
    ids=[f"n{n}k{k}s{s}" for n, k, s, _ in CORPUS],
)
def test_corpus_schedules_identical(
    n_processes, k, seed, smoke, synthesis_full, c_path
):
    if not smoke and not synthesis_full:
        pytest.skip("full corpus runs with --synthesis-full")
    rng = np.random.default_rng(seed)
    spec = WorkloadSpec(n_processes=n_processes, k=k, mu=15)
    # Prefer an application with a feasible root (it yields the
    # prior-set cases); an unschedulable one still compares roots.
    for _ in range(6):
        app = generate_application(spec, rng=rng)
        if ftss_reference(app) is not None:
            break
    assert check_application(app, seed, f"n={n_processes} k={k}") > 0


def test_two_mask_words_identical(synthesis_full, c_path):
    """More than 64 processes: every set takes two mask words."""
    app = generate_application(
        WorkloadSpec(n_processes=70, k=2, mu=15),
        rng=np.random.default_rng(70),
    )
    assert len(app.processes) > 64
    configs = tuple(CONFIGS) if synthesis_full else ("default",)
    assert check_application(app, 70, "n=70 k=2", configs) > 0


def test_every_utility_kind_identical(c_path):
    """Linear, constant-with-cutoff and tabulated soft utilities."""
    app = mixed_utility_app(2026)
    assert ftss_reference(app) is not None
    assert check_application(app, 2026, "mixed utilities") > 0


def test_cruise_controller_identical(synthesis_full, c_path):
    app = cruise_controller()
    if synthesis_full:
        check_application(app, 2008, "cruise controller")
        return
    for config_name in ("default", "nft"):
        config = CONFIGS[config_name]
        budget = 0 if config_name == "nft" else app.k
        assert_same(
            app, f"cruise controller [{config_name}]",
            fault_budget=budget, config=config,
        )


def test_paper_examples_identical(fig1_app, fig8_app, c_path):
    for seed, app in enumerate((fig1_app, fig8_app)):
        check_application(app, seed, app.graph.name)


# ----------------------------------------------------------------------
# Malformed inputs: the same result or exception type on both engines
# ----------------------------------------------------------------------
#: The C path's fallback reason of each case that has one: there the
#: routed ``ftss`` runs the oracle.
FALLBACKS = {
    "hard dropped name": "hard-dropped",
    "negative start": "negative-start",
    "negative completions": "negative-start",
}

EDGE_CASES = [
    ("unknown dropped name", dict(prior_dropped=["NOPE"]), ModelError),
    ("hard dropped name", dict(prior_dropped=["P1"]), ModelError),
    ("negative budget", dict(fault_budget=-1), SchedulingError),
    ("budget above k", dict(fault_budget=5), None),
    ("negative start", dict(start_time=-10), "schedule"),
    ("negative completions", dict(start_time=-1000), UtilityError),
    ("start beyond the period", dict(start_time=221), None),
    (
        "everything completed",
        dict(prior_completed=["P1", "P2", "P3", "P4", "P5"]),
        "empty",
    ),
    (
        "completed and dropped",
        dict(prior_completed=["P2"], prior_dropped=["P2"]),
        SchedulingError,
    ),
    ("unknown completed name", dict(prior_completed=["NOPE"]), SchedulingError),
]


@pytest.mark.parametrize(
    "label,kwargs,expected", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
)
def test_edge_cases_match(fig8_app, label, kwargs, expected, c_path):
    if label in FALLBACKS:
        c_path[FALLBACKS[label]] = 1
    kind, value = assert_same(fig8_app, label, **kwargs)
    if isinstance(expected, type):
        assert (kind, value) == ("raise", expected)
    elif expected is None:
        assert (kind, value) == ("ok", None)
    else:
        assert kind == "ok" and value is not None
        assert (len(value[0]) == 0) == (expected == "empty")


def test_budget_as_string_is_accepted(fig8_app, c_path):
    """``int(fault_budget)`` on both engines: ``"2"`` is budget 2."""
    expected = schedule_fingerprint(ftss_reference(fig8_app, fault_budget=2))
    assert expected is not None
    assert_same(fig8_app, "budget '2'", fault_budget="2")
    assert schedule_fingerprint(ftss(fig8_app, fault_budget="2")) == expected


@pytest.mark.parametrize("engine", [ftss, ftss_reference])
def test_unknown_prior_name_raises_scheduling_error(fig8_app, engine, c_path):
    with pytest.raises(SchedulingError, match="NOPE"):
        engine(fig8_app, prior_completed=["P1", "NOPE"])


# ----------------------------------------------------------------------
# Pinned outputs: FTSS under every config, FTSF and an FTQS tree
# ----------------------------------------------------------------------
def pinned_applications():
    """(label, application): both generated structures x 10/30/50
    processes x k 1 and 3 x two seeds, then the paper's examples."""
    for structure in ("layered", "fanin_fanout"):
        for n in (10, 30, 50):
            for k in (1, 3):
                for seed in (1, 2):
                    spec = WorkloadSpec(
                        n_processes=n, k=k, mu=15, structure=structure
                    )
                    yield (
                        f"{structure}-n{n}-k{k}-s{seed}",
                        generate_application(spec, seed=seed),
                    )
    yield "fig1", paper_fig1_application()
    yield "fig8", paper_fig8_application()
    yield "cruise", cruise_controller()


def _sha256(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pinned_fields(schedule):
    """An FTSS result's signature, budget and prior sets."""
    if schedule is None:
        return None
    return [
        schedule.signature(),
        schedule.fault_budget,
        sorted(schedule.prior_completed),
        sorted(schedule.prior_dropped),
    ]


def pinned_outputs(app, engine):
    """SHA-256 digests of ``engine`` (an FTSS entry point) under every
    config of :data:`CONFIGS` (each at budget k, then NFT's budget 0),
    of ``ftsf(app)`` and of the canonical JSON of the M = 8 ``ftqs``
    tree over ``engine``'s root."""
    runs = [engine(app, config=config) for config in CONFIGS.values()]
    runs.append(engine(app, fault_budget=0, config=CONFIGS["nft"]))
    root = runs[0]
    tree = None
    if root is not None:
        tree = tree_to_dict(ftqs(app, root, FTQSConfig(max_schedules=8)))
    return (
        _sha256([_pinned_fields(run) for run in runs]),
        _sha256(_pinned_fields(ftsf(app))),
        _sha256(tree),
    )


#: ``pinned_outputs`` of every pinned application: FTSS, FTSF, FTQS.
#: Captured before ``FTSSConfig.fast_paths`` was retired.
PINNED_OUTPUTS = {
    "layered-n10-k1-s1": (
        "54411039ed3803202ad5e9eb1a2260fd3dffd9d48848abfaa279841ca9454d33",
        "e13604738f9fd6374cd3a0cd9efadddf5442636a553ce2145a860cc236cfa669",
        "212c7b3af24c6c146a9ca4f49526a16f09400e75a2601bc8a234012366b0711f",
    ),
    "layered-n10-k1-s2": (
        "5ded8f2ccae53816efb9d67bcb34c9b9345022612036a98c521647d77af1c5fe",
        "a55bdd3568663fc506ff19715821bf76300118a1a69ac93ce220fca7914bb6b3",
        "584cd1c0ee6887aee344942b26b2c46c2f365b133913cfa27886a611d92f0454",
    ),
    "layered-n10-k3-s1": (
        "1130313f8ec2cf5d730a509494fc890893286d973386e9bcdcd9a2137df23c8f",
        "06a8031072c0027260789695b082d9ae0cb9213570e504276659299586c3ca60",
        "8e4afdf34f1db15c6ad1692421f954bc7be5f69279011e8757fff67c388bc7b9",
    ),
    "layered-n10-k3-s2": (
        "6e3a419c89a08851dcc8bbe6669d5546c41b4242dc31a307a01c48dac08ae2c7",
        "7e1ebb6f680b40db4e8f9a02c6cf4f569224959b5646157c166a7841ed7b176c",
        "8b76066ca3417e2d60e7e6a0a45993881005be484d58101a1cd252e73ec359b8",
    ),
    "layered-n30-k1-s1": (
        "703cd6cbbfdff322759ae087dd6c68360b199ab8a369bc7b047aaa1c95e6eb6a",
        "a4b9bb5d8444a9381c7f5a4ce0782e74315de16709ca1660421e2ed0eb2bb2dc",
        "52fcc6abe9e233be0f03ad06fc302c0dbfb613ac4742e4204df9a28385809071",
    ),
    "layered-n30-k1-s2": (
        "c73cb119e4252d81d0c6ec6cf77c3190ffcca72364bf76a24c69eef1456a43d9",
        "f66af956c05f99410ff987fab9fd739e2850f736b177edef500c3b33c0d4caee",
        "04f32722a36d70c9147367aae368980cb59b5172ad69b7144a1df408638cc729",
    ),
    "layered-n30-k3-s1": (
        "9fcd88eec6a598a8d6cd9c0fbc8a5ecc116536dea4393f9002fa7fe988336eef",
        "fc6430f29fc7b37495e3ee64173240447e8e51cfa691a40aa3a267c5b2464573",
        "e7244050216d80dae412fec3c8b5a6b161017ce1251bd6cda47ade130a81ba3c",
    ),
    "layered-n30-k3-s2": (
        "bde4b3f27c0e9738deed629a8cca6db2a1874b1871876a5f53f19c1dbcc14ea0",
        "520492213ad51fe9675feb9074f5a80fd6546c86bfa68ebb7106f0a2c5bfb0f5",
        "7b9affea9cf74cc70826245a05f91bdcb6f572efe87b6fc9ff2d85c031673f61",
    ),
    "layered-n50-k1-s1": (
        "7e8fd267d9d9403917aa73ca6f6db94de9e541b1713e498b75faa963cbd36cdf",
        "cdba2034878edd369436f33a1bfe1d9b5a3931e216608abfe14615cc5afe14a0",
        "d1031368e939d26c39f43fbe556a9d5a850adf1a7c744e6829d74387f4f8db6b",
    ),
    "layered-n50-k1-s2": (
        "ed04ac697fb0f96138bcabab535dcf17d3e42873347c0c683aae34ff6c4f3462",
        "b3569427f259dbcab55217e671ad1ff37720020fd9942852afedd6998314672b",
        "f39d9e228675aabde1605e088289d6305362ad536c6380d49cad908f30f84247",
    ),
    "layered-n50-k3-s1": (
        "0ee63c147f06f7cf591ea6f84bfff76d06e027d5588832c41135a1c873868d81",
        "3e50237c7cce6650fd740d6da572a25429e8d7a2cbd5977f7a68ac9f94b827b6",
        "659d8042ce2c37505edbdff48a196e2315b271b0aea5de32de63545092fefe08",
    ),
    "layered-n50-k3-s2": (
        "76fadeec0412c936e585ea3bccf40a39c6c2dd58bfde8e7f862ca0494de2fe33",
        "86057581dac9eaa6a633e31400da10689763a0c9e02f8cca905b106f6d1de09b",
        "dad2b45433eedaa9b6314c5770e1c93eca6eb762bf59b32e5d57111938180fa7",
    ),
    "fanin_fanout-n10-k1-s1": (
        "b840f3695f45c92c36f750356b1dc4c3b73f7aaa271f397e3f73bf13ec72f4e3",
        "b15dcac4c3e4a60c4745d84f8c06caab5a56206f8a6e75b1be8c65d9cbaa2a37",
        "fc4c1cbbad992e685fc1d3d6cba134e09059813a0246c7ef3a311b32dae082c2",
    ),
    "fanin_fanout-n10-k1-s2": (
        "40304dbd7d53243838d55c44b5295d243ca5ab21f908288b61def4f084e7bd67",
        "e0fce008ea6ff3904451ea4cd39882bc6ab79083c7535f08230262b058d56af3",
        "29bc89fb6b552429eafcf0eb53e36a94e4fcd065474d7dfb8dbb3315444ca47c",
    ),
    "fanin_fanout-n10-k3-s1": (
        "c7f423ccab489f7e3a66a3ca68b1dbe546a0174b50838d58f6a48adacc62c195",
        "474b4383d4931662cbe410f8e0edc743fd32510b8037f96cc780b45984ce9398",
        "0d057ed806f057515f8ab61e0c9047ba8ab560c77e3c6f382492e2663b45d970",
    ),
    "fanin_fanout-n10-k3-s2": (
        "984d085f9b0503283150bc5af174f71fd3d8e0bc5fe37af9e435363db0de0d35",
        "0dd12ad85185c64f173cf551e1432768b9dfa70061638e611009d69fe8b913e3",
        "b4b2f235e3a4456e5ca6862b9372c07dd6509b2c4ab226a43694c1fc3f804010",
    ),
    "fanin_fanout-n30-k1-s1": (
        "6967e2313fe46ad21b88f1a12d3011e59d2348b05636c4eae8ced9c488029144",
        "19d7dbaa7d3164bc4a34e6a0899ac5e39a3109ab268498d978f2f9b3ed31188d",
        "392c8e42cd618be0c69e4c9f930945c1c2b6bd59e6e71fd409dc6e9f190ea069",
    ),
    "fanin_fanout-n30-k1-s2": (
        "ecd7f3334d681e0f270382ab214197f2a7ad58d2b2646140253eb51ac17de4b2",
        "a757b1687bcbd5c685aa64d46b2b297e5d8ab03efe5743468cac42d3a3a7545d",
        "c22f61b3e9d329409c69d7c2e166219eb7c5044d0f489bb8326e535c8cc480ce",
    ),
    "fanin_fanout-n30-k3-s1": (
        "7836f52a4950ce40dfb921f0c1012900298f4cb4577021da55af95e219b5c337",
        "45b70590248bb4de65b1af251972b8f35a95f736340fd4ea2c8be862631c9357",
        "3197cc137077af2bf435efdb3768f258d0f5723a6fd3d9dac471fc505832624d",
    ),
    "fanin_fanout-n30-k3-s2": (
        "c5146e9528d4d742b16a51d8b65c19c6cc47af1d4b7b3d27a59e671df0a5b03d",
        "fbd73358893b705ade861e78eda4ed6081b5e693cf250c690cc5e84623105106",
        "05dd4c2357033946e3a6822fcd346bb686f8b1aa43d047314d754c35988a5be0",
    ),
    "fanin_fanout-n50-k1-s1": (
        "94cc8be0f183bf89b270ae5898002a0ed8f76a2adbdb71f8e5fc5557fe715bff",
        "842b17a0cb01c31dbe599a3f0ec6757d5080731ddd8b6fcc3eddb1b46abc0dd6",
        "f5fee342917cd49065f50007e823bc944ec2461a07764c2a52a8e427ec9b06ec",
    ),
    "fanin_fanout-n50-k1-s2": (
        "16d7c4d29262a501ebc8c2ae7415074ada0cbf4fc4ccb665c797cad0387db4ed",
        "f9b99273237f30a418fca5bb2cdcfaf3cc60d91f3744f5e6a28b5a27074ac447",
        "7a28cfd8867b1b940a13f2c2b39dbb031c0ec4563549214db386a53869be2c7b",
    ),
    "fanin_fanout-n50-k3-s1": (
        "575d730e11b2d9a4d94c40f1fd7f7c7df36e3124057120af0f65f81023f2a1b0",
        "954de6892b4a474aae260fda9c4f94f9931b9231dd9dbcede0dab282d60b055b",
        "bd53248d282f667e2c7c7c5c7f0d37e342024e71d98ba5ec5d3ed7fe22bf7953",
    ),
    "fanin_fanout-n50-k3-s2": (
        "ac36824f04feec727a6badd6886d2276dcb3ed261d660c4ff5dea4dbd1ffbfe6",
        "88688bcdbd5fe6546856ffc7ff3cd91506eb0aad52b3a8f8f801d94381ee5185",
        "f21edb0ce091269cab80072dfa046d7fe7bc8804d81b7f0d0349cd0df8b6343e",
    ),
    "fig1": (
        "240e2ca5a5eadf5a7418a821ee1f07dcdb7cb1175acf25c221cb76bef0908a08",
        "b4922f98f25bc9fb1bd9a2eeae4a02863b575e6de16968ac9e327fa9a12337cc",
        "ca37dc4a0c6a3a47cf03e0879b90f3910ba066faaf3e32f44ffeb685e350b12d",
    ),
    "fig8": (
        "27218db69165a5a1ddbd1b4a5009e4ac6551e2180fad79d080bd8df419f841ee",
        "f2aafba90737e75d4d31844e2431d6c995cf4963c92465cacf630f15eca9a4a4",
        "9efa2354fc61814927df634768c9e8b3190e28f7c5d9d21844947523a96dc0dd",
    ),
    "cruise": (
        "03403f49e7f642bf2df13ea01ef52bd91511eab036856e8b87196b4c3a1050bb",
        "b3455f20fa59b88f55a050dcb186caab52dd4fd2dc49d5bc34efd229f87148b8",
        "0d7ca7b5fee70a632acfe7a46a85637d3c55841d5e33577f6be8bef4987daad6",
    ),
}


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_outputs_are_pinned(engine, request):
    """The oracle (which runs without a compiler too) and, on the C
    path, the routed ``ftss`` give the pinned FTSS schedules, and FTSF
    and FTQS the pinned schedules and trees."""
    run = ftss_reference
    if engine == "compiled":
        request.getfixturevalue("c_path")
        run = ftss
    digests = {
        label: pinned_outputs(app, run) for label, app in pinned_applications()
    }
    assert digests == PINNED_OUTPUTS


# ----------------------------------------------------------------------
# The compiled context
# ----------------------------------------------------------------------
def test_threads_sharing_an_application_match_a_serial_run(c_path):
    """Eight threads running ``ftss`` on one application — so on its
    one context and the core's work buffers behind it — each in its own
    order, give exactly what a serial run on a separate copy gives."""
    import pickle
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(2024)
    app = generate_application(
        WorkloadSpec(n_processes=24, k=3, mu=15), rng=rng
    )
    root = ftss_reference(app)
    assert root is not None
    prefix = [e.name for e in root.entries[:4]]
    clock = sum(app.process(name).wcet for name in prefix)
    runs = [
        (config, budget, start, completed)
        for config in CONFIGS.values()
        for budget, start, completed in (
            (app.k, 0, ()), (1, 0, ()), (app.k - 1, clock, prefix),
        )
    ]

    def run(target, order):
        return [
            schedule_fingerprint(
                ftss(target, fault_budget=budget, start_time=start,
                     prior_completed=completed, config=config)
            )
            for config, budget, start, completed in (runs[i] for i in order)
        ]

    serial = run(pickle.loads(pickle.dumps(app)), range(len(runs)))
    orders = [
        np.random.default_rng(seed).permutation(len(runs)).tolist()
        for seed in range(8)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda order: (order, run(app, order * 20)), orders)
        )
    for order, fingerprints in results:
        assert fingerprints == [serial[i] for i in order * 20]


def test_one_context_serves_every_config(c_path):
    """A context holds nothing of the FTSS config: runs of different
    configs on one context, in any order, give what a fresh context
    per run gives."""
    rng = np.random.default_rng(77)
    app = generate_application(
        WorkloadSpec(n_processes=16, k=2, mu=15), rng=rng
    )
    shared = SchedulingContext(app)
    root = ftss_reference(app)
    assert root is not None
    prefix = [e.name for e in root.entries[:3]]
    clock = sum(app.process(name).wcet for name in prefix)
    runs = [
        (config, budget, start, completed)
        for config in CONFIGS.values()
        for budget, start, completed in (
            (app.k, 0, ()),
            (0, 0, ()),
            (app.k - 1, clock, prefix),
        )
    ]
    for config, budget, start, completed in runs + runs[::-1]:
        fresh = SchedulingContext(app)
        expected = ftss_compiled(
            fresh, config, budget, start, fresh.mask(completed), 0
        )
        raw = ftss_compiled(
            shared, config, budget, start, shared.mask(completed), 0
        )
        assert raw == expected
        got = None
        if raw is not None and raw.latest is not None:
            got = shared.schedule(
                raw, budget, start, shared.mask(completed), 0,
                config.slack_sharing,
            )
            assert raw.latest == shared.latest_start(got)
        assert schedule_fingerprint(got) == schedule_fingerprint(
            ftss_reference(
                app,
                fault_budget=budget,
                start_time=start,
                prior_completed=completed,
                config=config,
            )
        )


# ----------------------------------------------------------------------
# Without a compiler
# ----------------------------------------------------------------------
def test_no_compiler_runs_the_oracles(fig1_app, kernel_cache, monkeypatch):
    """No compiler anywhere: ``ftss`` and the fast FTQS build answer
    exactly like the oracles, and every run and profile that fell back
    is counted under ``no-compiler``."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    for app in (fig1_app, mixed_utility_app(2026)):
        for budget in range(app.k + 1):
            assert schedule_fingerprint(
                ftss(app, fault_budget=budget)
            ) == schedule_fingerprint(ftss_reference(app, fault_budget=budget))
    runs = kernel_stats().snapshot().fallbacks
    assert set(runs) == {"no-compiler"} and runs["no-compiler"] >= 4
    root = ftss_reference(fig1_app)
    config = FTQSConfig(max_schedules=6)
    assert tree_to_dict(ftqs(fig1_app, root, config)) == tree_to_dict(
        ftqs_reference(fig1_app, root, config)
    )
    builds = kernel_stats().snapshot().fallbacks
    assert set(builds) == {"no-compiler"}
    assert builds["no-compiler"] > runs["no-compiler"]
    assert kernel_stats().compiles == 0
    assert not list(kernel_cache.glob("*"))
