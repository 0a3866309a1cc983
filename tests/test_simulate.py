"""Simulator (fbq.simulation): exact pins of every SimEstimate field on the
compiled jump chain and on its Python reference, reference.replications,
the two loops compared with `==` around the compiled chain's 312-uniform
blocks, the same bits on one thread and on two, the kernel's build and
cache and the typed error where it cannot be built, the bounded rate table
on unstable models, the per-run debug line and the checks of SimConfig.

data/sim_pins.json holds the full SimEstimate of 21 runs (30k arrivals each,
as two replications):
single servers with K = 1..5, q = 0 and q = 1 and a zero-speed profile;
pools with m = 1..7, switch-off thresholds and q = 0 / 0.4 / 1; one unstable
pool; three-phase models with q2 = 0 / 0.5 / 1; and lam = 0 for each model
type.  They were recorded with the jump-chain kernel, each stable one within
4 confidence half-widths of the exact value.  Each jump draws exactly one
uniform, which picks the arrival or a completion in a fixed order (arrival,
then each phase, moving on before leaving).  That order and every float
expression are part of the contract, so the estimates must be equal, not
close: a reordered outcome or rate sum, or one more draw, changes them.
`jobs_completed` counts the jobs that left by the end of the replications,
not the arrivals.
"""

import importlib
import json
import logging
import os
import pathlib
import random
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import fbq
import reference
from fbq.models import CoxianService, ModelError, MultiServerModel, SingleServerModel, SpeedProfile
from fbq import simulation as SIM
from fbq.simulation import SimConfig, SimEstimate, ThreePhaseModel, simulate

DATA = pathlib.Path(__file__).parent / "data"
PINS = json.loads((DATA / "sim_pins.json").read_text())
KERNELS = sys.modules["fbq._kernels"]
MULTI = sys.modules["fbq.multi"]
# one caller of each compiled loop: a simulated pool, a single server's
# stack solve and CTMC oracle, and figure 8's pool
POOL_PIN = next(p for p in PINS["pins"] if p["model"]["label"] == "pool_m4_K1_q0.4")
SINGLE = SingleServerModel(0.5, CoxianService(2.0, 1.0, 0.5), SpeedProfile((0.5, 0.75, 1.0)))
POOL = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10)
SRC = str(pathlib.Path(fbq.__file__).resolve().parent.parent)


def _model(spec):
    if spec["kind"] == "single":
        return SingleServerModel(spec["lam"], CoxianService(spec["nu1"], spec["nu2"], spec["q"]),
                                 SpeedProfile(tuple(spec["levels"])))
    if spec["kind"] == "multi":
        return MultiServerModel(spec["lam"], spec["mu1"], spec["mu2"], spec["q"], spec["m"],
                                threshold=spec["threshold"])
    return ThreePhaseModel(spec["lam"], spec["mu1"], spec["mu2"], spec["mu3"], spec["q1"], spec["q2"])


def _pin_config(pin):
    return SimConfig(model=_model(pin["model"]), jobs=PINS["jobs"], warmup_jobs=PINS["warmup_jobs"],
                     seed=pin["seed"], batch_count=PINS["batch_count"])


@pytest.fixture
def fresh_kernel():
    """Forget the library and the loaded loops before and after the test,
    so neither sees the other's."""
    KERNELS._bound.cache_clear()
    yield
    KERNELS._bound.cache_clear()


@pytest.mark.parametrize("pin, python_loop", [
    *(pytest.param(p, False, id=p["model"]["label"]) for p in PINS["pins"]),
    *(pytest.param(p, True, id=p["model"]["label"] + "-python_loop") for p in PINS["pins"]),
])
def test_matches_pinned_estimate(pin, python_loop, monkeypatch):
    if python_loop:
        monkeypatch.setattr(SIM, "_jump_chain", reference.replications)
    assert simulate(_pin_config(pin)) == SimEstimate(**pin["estimate"])


# (model, the phases' branch probabilities, the clamp) as `simulate` builds its table
CHAINS = {
    "single": (SINGLE, (SINGLE.service.q,), SINGLE.K),
    "pool": (MultiServerModel(3.0, 1.0, 0.5, 0.4, 4, threshold=2), (0.4,), 4),
    "three_phase": (ThreePhaseModel(0.4, 3.0, 1.0, 0.8, 0.5, 0.5), (0.5, 0.5), 1),
}
BLOCK = 312  # uniforms per block of the compiled chain: one regeneration of 624 words


def _end_at_jump(seed, tab, clamp, jump):
    """The smallest arrival count whose run takes at least `jump` jumps on the reference loop."""
    lo, hi = 1, jump
    while lo < hi:
        mid = (lo + hi) // 2
        if reference.run(seed, tab, clamp, [mid])[2] >= jump:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_compiled_chain_equals_the_python_loop(chain, seed):
    model, qs, clamp = CHAINS[chain]
    tab = SIM._table(model, qs, clamp)
    assert random.Random(seed).getstate()[1][-1] == 624  # so the chain starts with a regeneration
    refill = _end_at_jump(seed, tab, clamp, BLOCK + 1)
    runs = {
        "inside the first block": [1, 3, 40],
        "at the last arrival before the refill": [refill - 1],
        "at the first arrival after the refill": [refill],
        "over many refills, stops at scattered offsets": [*range(1, 6_000, 137), 6_000],
    }
    jumps = {}
    for name, stops in runs.items():
        expected = reference.run(seed, tab, clamp, stops)
        assert SIM._jump_chain([seed], tab, clamp, [stops], 1) == [expected], name
        jumps[name] = expected[2]
    assert jumps["inside the first block"] < BLOCK
    assert jumps["at the last arrival before the refill"] <= BLOCK < jumps["at the first arrival after the refill"]
    assert jumps["over many refills, stops at scattered offsets"] > 20 * BLOCK


def _spied_run(cfg, monkeypatch, cpus):
    """simulate(cfg) with `cpus` CPUs, and the seeds, stops and thread count
    that it handed to `_jump_chain`."""
    chain, calls = SIM._jump_chain, []

    def spy(seeds, tab, clamp, stops, threads):
        calls.append((seeds, tab, clamp, stops, threads))
        return chain(seeds, tab, clamp, stops, threads)

    with monkeypatch.context() as m:
        m.setattr(KERNELS, "cpus", lambda: cpus)
        m.setattr(SIM, "_jump_chain", spy)
        est = simulate(cfg)
    (call,) = calls
    return est, call


@pytest.mark.parametrize("pin", [p for p in PINS["pins"] if p["model"]["lam"] > 0][::4],
                         ids=lambda p: p["model"]["label"])
def test_each_replication_is_the_reference_run_on_its_seed(pin, monkeypatch):
    est, (seeds, tab, clamp, stops, threads) = _spied_run(_pin_config(pin), monkeypatch, 2)
    assert seeds == [pin["seed"] + r * 2**64 for r in range(SIM.REPLICATIONS)] and threads == 2
    runs = SIM._jump_chain(seeds, tab, clamp, stops, threads)
    assert runs == [reference.run(seed, tab, clamp, s) for seed, s in zip(seeds, stops)]
    assert est == SimEstimate(**pin["estimate"])


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("pin", [p for p in PINS["pins"] if p["model"]["lam"] > 0][1::3],
                         ids=lambda p: p["model"]["label"])
def test_results_do_not_depend_on_the_thread_count(pin, cpus, monkeypatch):
    # 3 CPUs still run one thread per replication
    est, (*_, threads) = _spied_run(_pin_config(pin), monkeypatch, cpus)
    assert threads == min(cpus, SIM.REPLICATIONS)
    assert est == _spied_run(_pin_config(pin), monkeypatch, 2)[0] == SimEstimate(**pin["estimate"])


@pytest.mark.parametrize("jobs, warmup, batches", [(30_000, 3_000, 20), (30_007, 0, 13), (10_000, 999, 11)])
def test_replications_share_the_batches_and_the_measured_arrivals(jobs, warmup, batches):
    model = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5)
    stops = SIM._stops(SimConfig(model=model, jobs=jobs, warmup_jobs=warmup, seed=1, batch_count=batches))
    assert len(stops) == SIM.REPLICATIONS
    size = (jobs - warmup) // batches
    # each replication warms up alone, then closes batches of `size` arrivals
    assert all(run[0] == max(warmup, 1) for run in stops)
    assert sorted((len(run) - 1 for run in stops), reverse=True) == [len(run) - 1 for run in stops]
    assert sum(len(run) - 1 for run in stops) == batches
    assert all(b - a == size for run in stops for a, b in zip(run[1:-1], run[2:-1]))
    assert sum(run[-1] - warmup for run in stops) == jobs - warmup


def test_missing_compiler_is_tried_once_for_both_loops(monkeypatch, tmp_path, fresh_kernel):
    # the failed build is tried once, then raised again as the same typed
    # error by each caller: the LU loop, the pool loops, the band assembly
    # and the jump chain
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(KERNELS, "_COMPILER", str(tmp_path / "no-such-cc"))
    run, builds = subprocess.run, []
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: builds.append(cmd) or run(cmd, **kw))
    # a fresh import of every fbq module builds nothing
    for name in [n for n in sys.modules if n.split(".")[0] == "fbq"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("fbq")
    assert builds == []
    MULTI._pool_data.cache_clear()   # so that the pool's zeros are searched for
    for call in (lambda: fbq.solve_general(SINGLE), lambda: fbq.sweep_thresholds(POOL),
                 lambda: fbq.ctmc_solve(SINGLE), lambda: simulate(_pin_config(POOL_PIN))):
        with pytest.raises(OSError, match="cannot be built or loaded here: .*no-such-cc"):
            call()
    assert len(builds) == 1 and builds[0][0] == KERNELS._COMPILER
    assert list((tmp_path / "fbq").iterdir()) == []   # no temporary file left behind


def _kernel_loads(cache, compiler, processes=1):
    """Whether each of `processes` fresh interpreters, started at once with this
    kernel cache and compiler, loads the compiled loops."""
    code = ("import sys, fbq; kernels = sys.modules['fbq._kernels']; kernels._COMPILER = sys.argv[1]; "
            "print(kernels.compiled() is not None)")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache))
    procs = [subprocess.Popen([sys.executable, "-c", code, compiler], stdout=subprocess.PIPE,
                              text=True, env=env) for _ in range(processes)]
    return [p.communicate(timeout=120)[0].strip() == "True" and p.returncode == 0 for p in procs]


def test_processes_build_the_kernel_at_once_and_later_ones_only_load_it(tmp_path):
    assert _kernel_loads(tmp_path, KERNELS._COMPILER, processes=3) == [True] * 3
    cache = tmp_path / "fbq"
    (lib,) = cache.iterdir()  # one library, and no temporary file left behind
    assert lib.suffix == ".so" and stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert _kernel_loads(tmp_path, str(tmp_path / "no-such-cc")) == [True]
    assert list(cache.iterdir()) == [lib]


def test_import_leaves_scipy_stats_unloaded(fresh_import):
    assert "scipy.stats" not in fresh_import["loaded"]
    assert "scipy.special" not in fresh_import["loaded"]
    assert fresh_import["lookups"] == 0 and not fresh_import["cache made"]  # nor is the kernel built or loaded
    assert fresh_import["capsule reads"] == 0  # nor is LAPACK's dgbsv looked up


@pytest.mark.parametrize("field, value", [("jobs", 30_000.5), ("warmup_jobs", 1_000.0),
                                          ("seed", 1.5), ("batch_count", 20.0), ("seed", True),
                                          ("warmup_jobs", -1)])
def test_config_rejects_non_integer_or_negative_counts(field, value):
    with pytest.raises(ModelError, match=field):
        SimConfig(model=ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5),
                  **{"jobs": 30_000, "warmup_jobs": 1_000, field: value})


def test_config_takes_numpy_integers_as_counts():
    model = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5)
    counts = {"jobs": 30_000, "warmup_jobs": 1_000, "seed": 7, "batch_count": 20}
    cfg = SimConfig(model=model, **{k: np.int64(v) for k, v in counts.items()})
    assert cfg == SimConfig(model=model, **counts)
    assert all(type(getattr(cfg, k)) is int for k in counts)
    assert simulate(cfg) == simulate(SimConfig(model=model, **counts))


def _debug_lines(caplog, cfg):
    with caplog.at_level(logging.DEBUG, logger="fbq.simulate"):
        est = simulate(cfg)
    return est, [r.getMessage() for r in caplog.records
                 if r.name == "fbq.simulate" and r.levelno == logging.DEBUG]


@pytest.mark.parametrize("model, clamp", [
    (MultiServerModel(4.0, 1.0, 0.5, 0.5, 3, threshold=1), 3),
    (SingleServerModel(3.0, CoxianService(2.0, 1.0, 0.5), SpeedProfile((0.5, 1.0))), 1),
], ids=["pool", "single"])
def test_unstable_run_table_does_not_grow_with_run_length(caplog, model, clamp):
    rows = []
    for jobs in (30_000, 300_000):
        caplog.clear()
        _, (line,) = _debug_lines(caplog, SimConfig(model=model, jobs=jobs, warmup_jobs=jobs // 10,
                                                    seed=5))
        rows.append(int(re.search(r"(\d+) table rows", line).group(1)))
    assert rows[1] <= rows[0] <= (clamp + 1) ** 2  # both phase counts clamped at `clamp`


def test_debug_log_has_one_line_per_run(caplog):
    model = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5)
    est, lines = _debug_lines(caplog, SimConfig(model=model, jobs=20_000, warmup_jobs=2_000, seed=3))
    assert est.L > 0 and len(lines) == 1
    match = re.fullmatch(r"ThreePhaseModel: (\d+) jumps, (\d+) table rows, (\d+) replications on (\d+) "
                         r"threads, means ([\d.]+) ([\d.]+), [\d.]+ s, \d+ arrivals/s, "
                         r"batch-mean lag-1 autocorrelation (-?[\d.]+)", lines[0])
    assert match, lines[0]
    jumps, rows, reps, threads, lag1 = int(match[1]), int(match[2]), int(match[3]), int(match[4]), float(match[7])
    assert (reps, threads) == (SIM.REPLICATIONS, min(SIM.REPLICATIONS, KERNELS.cpus()))
    # the mean of the replications' means, each weighed by its simulated time
    assert min(float(match[5]), float(match[6])) <= est.L * (1 + 1e-3)
    assert max(float(match[5]), float(match[6])) >= est.L * (1 - 1e-3)
    # an arrival and up to three completions per job, each replication warmed up
    assert 20_000 < jumps <= 4 * (20_000 + 2_000)
    assert rows == 8 and -1 <= lag1 <= 1


def test_jobs_completed_counts_only_the_jobs_that_left():
    pin = next(p for p in PINS["pins"] if p["model"]["label"] == "pool_unstable")
    est = simulate(SimConfig(model=_model(pin["model"]), jobs=PINS["jobs"],
                             warmup_jobs=PINS["warmup_jobs"], seed=pin["seed"],
                             batch_count=PINS["batch_count"]))
    # the queue keeps growing, so more jobs are left at the end than its time average
    assert 0 < est.jobs_completed < PINS["jobs"] - est.L
