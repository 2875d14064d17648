// Reproduces the §5.5 performance characteristics with
// google-benchmark micro-benchmarks:
//
//  - PMM inference latency per mutation query (paper: 0.69 s mean on
//    an L4 GPU box for graphs ~10x larger);
//  - inference service saturation throughput, sweeping worker counts
//    (paper: ~57 QPS at saturation on 8 GPUs);
//  - raw and per-backend executor throughput, and the tracing cost.
//
// End-to-end fuzzing throughput of Snowplow vs Syzkaller (paper: 383 vs
// 390 tests/second) is measured by campaign_bench, not here.

#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "bench/common.h"
#include "core/infer.h"
#include "exec/executor.h"
#include "nn/gemm.h"
#include "obs/trace.h"
#include "prog/gen.h"
#include "util/rng.h"

namespace {

using namespace sp;

struct PerfFixtures
{
    kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    std::vector<graph::EncodedGraph> queries;

    PerfFixtures()
    {
        Rng rng(5);
        exec::Executor executor(kernel);
        for (int i = 0; i < 32; ++i) {
            auto program = prog::generateProg(rng, kernel.table());
            auto result = executor.run(program);
            auto frontier = graph::alternativeFrontier(kernel,
                                                       result.coverage);
            auto query = graph::buildQueryGraph(kernel, program, result,
                                                frontier);
            if (!query.argument_nodes.empty())
                queries.push_back(graph::encodeGraph(kernel, query));
        }
    }
};

PerfFixtures &
fixtures()
{
    static PerfFixtures fx;
    return fx;
}

// Raw blocked-GEMM kernel at the layer shapes the PMM forward pass
// actually issues: token projection [n, 120]x[120, 40], a relation /
// self-loop transform [n, 40]x[40, 40] and the two head layers.
void
BM_RawMatmul(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    const auto k = static_cast<int64_t>(state.range(1));
    const auto m = static_cast<int64_t>(state.range(2));
    Rng rng(17);
    std::vector<float> a(static_cast<size_t>(n * k));
    std::vector<float> b(static_cast<size_t>(k * m));
    std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        nn::gemmAcc(a.data(), b.data(), c.data(), n, k, m);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            n * k * m);
}
BENCHMARK(BM_RawMatmul)
    ->Args({131, 120, 40})  // token projection
    ->Args({131, 40, 40})   // relation / self-loop transform
    ->Args({64, 40, 32})    // head hidden layer
    ->Args({64, 32, 1})     // head output layer
    ->Unit(benchmark::kMicrosecond);

void
BM_PmmInferenceLatency(benchmark::State &state)
{
    const auto &model = spbench::sharedPmm();
    const auto &queries = fixtures().queries;
    size_t i = 0;
    for (auto _ : state) {
        auto probs = model.predict(queries[i++ % queries.size()]);
        benchmark::DoNotOptimize(probs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PmmInferenceLatency)->Unit(benchmark::kMillisecond);

// Service saturation: 16 in-flight queries per iteration, swept over
// worker counts. UseRealTime: throughput is wall-clock — worker threads
// do the serving, so CPU time of the submitting thread is meaningless.
void
BM_InferenceServiceThroughput(benchmark::State &state)
{
    const auto &model = spbench::sharedPmm();
    const auto &queries = fixtures().queries;
    core::InferenceService service(model,
                                   static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        std::vector<std::future<std::vector<float>>> futures;
        futures.reserve(16);
        for (int i = 0; i < 16; ++i) {
            futures.push_back(service.submit(
                queries[static_cast<size_t>(i) % queries.size()]));
        }
        for (auto &future : futures)
            benchmark::DoNotOptimize(future.get());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 16);
    const auto stats = service.stats();
    state.counters["mean_latency_ms"] = stats.mean_latency_us / 1000.0;
    state.counters["p99_latency_ms"] = stats.p99_latency_us / 1000.0;
}
BENCHMARK(BM_InferenceServiceThroughput)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ExecutorRawThroughput(benchmark::State &state)
{
    const auto &kernel = fixtures().kernel;
    Rng rng(11);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 64);
    exec::Executor executor(kernel);
    size_t i = 0;
    for (auto _ : state) {
        auto result = executor.run(corpus[i++ % corpus.size()]);
        benchmark::DoNotOptimize(result.coverage.edgeCount());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExecutorRawThroughput);

// The exec hot path, ref vs fast backend (arg 0: 0 = reference
// interpreter, 1 = dirty-restore/dense-coverage fast backend), at 1
// and N threads. Noisy mode — the fuzzing configuration — so the
// measured win is the one campaigns see. Reported as programs/sec
// (items_per_second) plus a calls_per_sec counter; the CI gate holds
// fast:1/threads:1 at ≥3× ref:1/threads:1 programs/sec (ISSUE
// acceptance; see ci/run_tier1.sh).
void
BM_ExecThroughput(benchmark::State &state)
{
    const auto &kernel = fixtures().kernel;
    Rng rng(11);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 64);
    exec::ExecOptions opts;
    opts.deterministic = false;
    opts.noise_seed = 23 + static_cast<uint64_t>(state.thread_index());
    opts.backend = state.range(0) != 0 ? exec::BackendKind::Fast
                                       : exec::BackendKind::Reference;
    exec::Executor executor(kernel, opts);  // per-thread, as in a pool
    size_t i = 0;
    uint64_t calls = 0;
    for (auto _ : state) {
        auto result = executor.run(corpus[i++ % corpus.size()]);
        calls += result.calls.size();
        benchmark::DoNotOptimize(result.coverage.edgeCount());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["calls_per_sec"] = benchmark::Counter(
        static_cast<double>(calls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecThroughput)
    ->ArgNames({"fast"})
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// Tracer hot-path discipline. BM_TraceSpanDisabled is the cost of one
// instrumentation site with no tracer installed — a relaxed flag load
// and nothing else (no clock read, no ring write). BM_TraceOverhead
// runs the executor slot loop untraced vs traced so the full-pipeline
// cost of span recording is visible. CI gates the disabled path: the
// per-slot instrumentation cost (≈6 span sites) must stay under 1% of
// a slot (see ci/run_tier1.sh).
void
BM_TraceSpanDisabled(benchmark::State &state)
{
    obs::shutdownTracer();
    uint64_t slot = 0;
    for (auto _ : state) {
        obs::TraceSpan span(obs::SpanKind::Execute, slot);
        benchmark::DoNotOptimize(slot);
        ++slot;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpanDisabled);

void
BM_TraceOverhead(benchmark::State &state)
{
    const bool traced = state.range(0) != 0;
    if (traced) {
        obs::TraceOptions opts;
        opts.ring_capacity = 4096;
        obs::installTracer(opts);
    } else {
        obs::shutdownTracer();
    }
    const auto &kernel = fixtures().kernel;
    Rng rng(11);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 64);
    exec::Executor executor(kernel);
    size_t i = 0;
    for (auto _ : state) {
        obs::TraceScope scope(obs::beginTrace());
        auto result = executor.run(corpus[i++ % corpus.size()]);
        benchmark::DoNotOptimize(result.coverage.edgeCount());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    obs::shutdownTracer();
}
BENCHMARK(BM_TraceOverhead)->ArgNames({"traced"})->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
