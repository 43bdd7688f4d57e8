"""Direct-drive probes: each calls one layer's public API with nothing
above it, so a layer's own cost per unit of work can be read off without
the layers that normally sit on top.  Run in one fresh child of the traced
run; ``scale`` < 1 shrinks every loop for ``--smoke``.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

KiB = 1024
MiB = 1024 * KiB


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_time(fn, repeats: int = 3) -> float:
    """Median of ``repeats`` timings of ``fn`` (seconds)."""
    return statistics.median(_timed(fn) for _ in range(repeats))


def sim_us_per_event(scale: float) -> float:
    """Bare kernel: 64 processes each sleeping a bare number 5000 times."""
    from repro.sim import Environment

    n_proc, n_sleep = 64, max(50, int(5000 * scale))

    def body():
        for _ in range(n_sleep):
            yield 1e-6

    def run():
        env = Environment()
        for _ in range(n_proc):
            env.process(body())
        env.run()

    return _median_time(run) / (n_proc * n_sleep) * 1e6


def ib_us_per_wr(nbytes: int, n_batches: int) -> float:
    """Two-node fabric, raw verbs: batches of 16 outstanding
    RDMA-write-with-immediate WRs of ``nbytes``, host µs per WR."""
    from repro.ib import verbs
    from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE, Opcode
    from repro.ib.fabric import Fabric
    from repro.ib.wr import SGE, RecvWR, SendWR
    from repro.mem import Buffer
    from repro.sim import Environment

    depth = 16
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    fabric.add_node(1)
    ctx0, ctx1 = (verbs.ibv_open_device(fabric, n) for n in (0, 1))
    pd0, pd1 = verbs.ibv_alloc_pd(ctx0), verbs.ibv_alloc_pd(ctx1)
    cq0, cq1 = verbs.ibv_create_cq(ctx0), verbs.ibv_create_cq(ctx1)
    qp0 = verbs.ibv_create_qp(ctx0, pd0, cq0, cq0)
    qp1 = verbs.ibv_create_qp(ctx1, pd1, cq1, cq1)
    verbs.connect_qps(qp0, qp1)
    send_mr = verbs.ibv_reg_mr(pd0, Buffer(nbytes, backed=False), ACCESS_LOCAL)
    recv_mr = verbs.ibv_reg_mr(pd1, Buffer(nbytes, backed=False),
                               ACCESS_LOCAL | ACCESS_REMOTE_WRITE)

    def run():
        wr_id = 0
        for _ in range(n_batches):
            for _ in range(depth):
                wr_id += 1
                verbs.ibv_post_recv(qp1, RecvWR(wr_id=wr_id))
                verbs.ibv_post_send(qp0, SendWR(
                    wr_id=wr_id, opcode=Opcode.RDMA_WRITE_WITH_IMM,
                    sg_list=[SGE(send_mr.addr, nbytes, send_mr.lkey)],
                    remote_addr=recv_mr.addr, rkey=recv_mr.rkey,
                    imm_data=wr_id & 0xFFFF))
            env.run()
            done = len(verbs.ibv_poll_cq(cq0, depth))
            arrived = len(verbs.ibv_poll_cq(cq1, depth))
            if done != depth or arrived != depth:
                raise RuntimeError(
                    f"ib probe: {done}/{arrived} completions of {depth}")

    return _median_time(run) / (n_batches * depth) * 1e6


def model_us_per_plan(scale: float) -> float:
    """``PLogGPAggregator.plan`` over a size x partition grid."""
    from repro.config import NIAGARA
    from repro.core import PLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP

    aggregator = PLogGPAggregator(NIAGARA_LOGGP, delay=4e-3)
    grid = [(n, size // n) for n in (8, 32, 128)
            for size in (64 * KiB, 1 * MiB, 16 * MiB)]
    repeats = max(1, int(20 * scale))

    def run():
        for _ in range(repeats):
            for n_user, partition_size in grid:
                aggregator.plan(n_user, partition_size, NIAGARA)

    return _median_time(run) / (repeats * len(grid)) * 1e6


def plan_us_per_roundtrip(scale: float) -> float:
    """leaf_plan -> print -> parse -> digest -> lowering pipeline."""
    from repro.config import NIAGARA
    from repro.plan import PassContext, leaf_plan, lowering_pipeline, parse

    pipeline = lowering_pipeline()
    ctx = PassContext(config=NIAGARA, n_user=32, partition_size=64 * KiB)
    knobs = [(t, q, d) for t in (2, 8, 32) for q in (1, 2)
             for d in (None, 35e-6)]
    repeats = max(1, int(20 * scale))

    def run():
        for _ in range(repeats):
            for t, q, d in knobs:
                plan = parse(leaf_plan(t, q, delta=d).text)
                if not plan.digest:
                    raise RuntimeError("plan probe: empty digest")
                pipeline.run(plan, ctx)

    return _median_time(run) / (repeats * len(knobs)) * 1e6


def autotune_us_per_round(scale: float) -> float:
    """``AutotuneController.plan_for_round`` + ``observe`` on synthetic
    observations, over a three-arm bandit."""
    from repro.autotune import AutotuneController
    from repro.autotune.observe import IterationObservation
    from repro.autotune.policy import BanditPolicy, PlanChoice

    rounds = max(50, int(3000 * scale))
    pready = tuple(i * 1e-6 for i in range(32))

    def run():
        arms = [PlanChoice(n_transport=t, n_qps=2) for t in (2, 8, 32)]
        controller = AutotuneController(BanditPolicy(arms, seed=0))
        for r in range(rounds):
            choice = controller.plan_for_round(r)
            controller.observe(IterationObservation(
                round=r, completion_time=1e-3 / choice.n_transport + 1e-4,
                pready_times=pready, wrs_posted=choice.n_transport))

    return _median_time(run) / rounds * 1e6


def exp_probes(tmp: Path, seed: int, scale: float) -> dict:
    """Registry build, code fingerprint, and the result cache cold then
    warm over the native sweep3d scenarios."""
    from repro.exp import (ResultCache, Runner, Scenario, all_experiments,
                           code_fingerprint, get_profile)

    from perfbench.workloads import points

    fast = get_profile("fast")
    registry_build_s = _timed(
        lambda: [experiment.build(fast) for experiment in all_experiments()])
    fingerprint_s = _median_time(lambda: code_fingerprint(refresh=True))

    scenarios = [
        Scenario.make("sweep", seed=seed, **p["args"])
        for p in points("sweep3d", seed, smoke=scale < 1)
        if p["kind"] == "native"]
    cache = ResultCache(tmp / "result-cache")
    cold = Runner(jobs=1, cache=cache)
    cache_cold_s = _timed(lambda: cold.run(scenarios))
    warm = Runner(jobs=1, cache=cache)
    cache_warm_s = _timed(lambda: warm.run(scenarios))
    if (cold.last_stats.cache_hits != 0
            or warm.last_stats.cache_hits != len(scenarios)):
        raise RuntimeError("exp probe: cache did not go cold then warm")
    return {"exp.registry_build_s": registry_build_s,
            "exp.fingerprint_s": fingerprint_s,
            "exp.cache_cold_s": cache_cold_s,
            "exp.cache_warm_s": cache_warm_s}


def serve_disk_round(tmp: Path, seed: int, scale: float, spans) -> dict:
    """One serve_mixed round with the store on the checkout's own disk."""
    from perfbench.serveload import ServeLoad
    from perfbench.workloads import SERVE, SERVE_SMOKE

    args = dict(SERVE_SMOKE if scale < 1 else SERVE, rounds=1)
    load = ServeLoad(args, seed, str(tmp / "disk-store"))
    load.setup()
    out = load.run(spans)
    if out["failed"]:
        raise RuntimeError(f"serve disk probe: {out['failed']} failed requests")
    return {"serve.disk_ops_per_s": args["requests"] / out["wall_s"],
            "serve.disk_commit_p50_us": out["commit_p50_us"]}


def run_all(tmp: Path, disk_tmp: Path, seed: int, smoke: bool, spans) -> dict:
    scale = 0.1 if smoke else 1.0
    out = {}
    with spans.span("sim.probe"):
        out["sim.probe_us_per_event"] = sim_us_per_event(scale)
    with spans.span("ib.probe"):
        small = ib_us_per_wr(4 * KiB, max(2, int(40 * scale)))
        large = ib_us_per_wr(8 * MiB, max(2, int(20 * scale)))
    out["ib.probe_us_per_wr_4k"] = small
    out["ib.probe_us_per_wr_8m"] = large
    # An 8 MiB WR is 32 wire chunks of 256 KiB, a 4 KiB WR is one.
    out["ib.probe_us_per_chunk"] = (large - small) / 31
    with spans.span("model.probe"):
        out["model.probe_us_per_plan"] = model_us_per_plan(scale)
    with spans.span("plan.probe"):
        out["plan.probe_us_per_roundtrip"] = plan_us_per_roundtrip(scale)
    with spans.span("autotune.probe"):
        out["autotune.probe_us_per_round"] = autotune_us_per_round(scale)
    with spans.span("exp.probe"):
        out.update(exp_probes(tmp, seed, scale))
    with spans.span("serve.disk_probe"):
        out.update(serve_disk_round(disk_tmp, seed, scale, spans))
    return out
