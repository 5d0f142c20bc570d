"""Micro-benchmarks of the simulator's hot kernels (pytest-benchmark with
full statistics — these are the pieces whose wall-clock cost bounds how
large a graph the reproduction can price)."""

import numpy as np

from repro.algorithms import make_program
from repro.frameworks.base import RunConfig
from repro.frameworks.csrloop import CSRProblem, iterate_chunks
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.vwc import VWCEngine
from repro.graph import suite
from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.properties import degree_distribution, window_size_histogram
from repro.graph.shards import GShards
from repro.gpu.memory import gather_transactions
from repro.harness import experiments as E
from repro.vertexcentric.program import apply_reductions

from conftest import BENCH_SCALE


def _graph():
    return suite.load("webgoogle", BENCH_SCALE)


def bench_csr_construction(benchmark):
    g = _graph()
    benchmark(lambda: CSR.from_graph(g))


def bench_gshards_construction(benchmark):
    g = _graph()
    benchmark(lambda: GShards(g, 256))


def bench_cw_construction(benchmark):
    g = _graph()
    sh = GShards(g, 256)
    benchmark(lambda: ConcatenatedWindows(sh))


def bench_coalescing_model_random_gather(benchmark):
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1 << 20, size=1 << 18)
    benchmark(lambda: gather_transactions(idx, 4, transaction_bytes=32))


def bench_value_iteration_csr(benchmark):
    g = _graph()
    p = make_program("pr", g)
    problem = CSRProblem.build(g, p)
    benchmark(lambda: iterate_chunks(problem, 8192))


def bench_vwc_schedule_pricing(benchmark):
    g = _graph()
    p = make_program("pr", g)
    problem = CSRProblem.build(g, p)
    eng = VWCEngine(8)
    benchmark.pedantic(
        lambda: eng._static_stats(problem), rounds=3, iterations=1
    )


def bench_reduction_application(benchmark):
    g = _graph()
    p = make_program("pr", g)
    values = p.initial_values(g)
    static = p.static_values(g)
    dest = g.dst.astype(np.int64)

    def run():
        local = p.init_local(values)
        msgs, mask = p.messages(values[g.src], static[g.src], None, values[g.dst])
        return apply_reductions(p, local, dest, msgs, mask)

    benchmark(run)


def bench_build_livejournal_analog(benchmark):
    suite.load.cache_clear()
    benchmark.pedantic(
        lambda: suite.load("livejournal", BENCH_SCALE), rounds=3, iterations=1
    )


def bench_cusha_cw_pagerank_run(benchmark, runner):
    g = runner.graph("livejournal")
    p = make_program("pr", g)
    eng = CuShaEngine("cw", spec=runner.spec)
    benchmark.pedantic(
        lambda: eng.run(g, p, config=RunConfig(max_iterations=400, allow_partial=True)),
        rounds=2,
        iterations=1,
    )


def bench_window_histogram_kernel(benchmark):
    g = E.rmat_graph(67, 8, BENCH_SCALE)
    n = E.scaled_shard_size(3000, BENCH_SCALE)
    sh = GShards(g, n)
    benchmark(lambda: window_size_histogram(sh))


def bench_degree_distribution_kernel(benchmark):
    g = suite.load("livejournal", BENCH_SCALE)
    benchmark(lambda: degree_distribution(g))


def bench_build_representations(benchmark):
    g = suite.load("webgoogle", BENCH_SCALE)
    benchmark(lambda: ConcatenatedWindows.from_graph(g, 256))
