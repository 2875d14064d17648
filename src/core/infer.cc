#include "core/infer.h"

#include <chrono>

#include "nn/inference.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp::core {

namespace {

/** Registry handles for the inference service (looked up once). */
struct InferMetrics
{
    obs::Counter &submitted;
    obs::Counter &completed;
    obs::Gauge &queue_depth;
    obs::Gauge &arena_hit_ratio;
    obs::Histogram &latency_us;

    static InferMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static InferMetrics metrics{
            reg.counter("infer.submitted"),
            reg.counter("infer.completed"),
            reg.gauge("infer.queue_depth"),
            reg.gauge("infer.arena_hit_ratio"),
            reg.histogram("infer.latency_us"),
        };
        return metrics;
    }
};

}  // namespace

InferenceService::InferenceService(const Pmm &model, size_t workers)
    : model_(model)
{
    SP_ASSERT(workers >= 1);
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

InferenceService::~InferenceService()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

std::future<std::vector<float>>
InferenceService::submit(graph::EncodedGraph graph, uint64_t trace_id)
{
    Request request;
    request.graph = std::move(graph);
    request.enqueued = std::chrono::steady_clock::now();
    request.trace_id = trace_id;
    if (trace_id != 0)
        request.enqueued_us = monotonicMicros();
    auto future = request.promise.get_future();
    size_t depth;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        SP_ASSERT(!stopping_, "submit after shutdown");
        queue_.push_back(std::move(request));
        depth = queue_.size();
    }
    InferMetrics &metrics = InferMetrics::get();
    metrics.submitted.inc();
    metrics.queue_depth.set(static_cast<double>(depth));
    cv_.notify_one();
    return future;
}

InferenceStats
InferenceService::stats() const
{
    const obs::HistogramSnapshot snap = latency_us_.snapshot();
    InferenceStats stats;
    stats.completed = static_cast<uint64_t>(snap.stat.count());
    stats.mean_latency_us = snap.stat.mean();
    stats.p50_latency_us = snap.samples.percentile(50);
    stats.p95_latency_us = snap.samples.percentile(95);
    stats.p99_latency_us = snap.samples.percentile(99);
    stats.mean_batch_size = stats.completed == 0 ? 0.0 : 1.0;
    return stats;
}

void
InferenceService::workerLoop(size_t worker)
{
    if (obs::traceEnabled() || obs::introspectionEnabled())
        obs::setRingLabel("infer" + std::to_string(worker));
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return;  // stopping with nothing left to serve
        Request request = std::move(queue_.front());
        queue_.pop_front();
        const size_t depth = queue_.size();
        lock.unlock();

        InferMetrics &metrics = InferMetrics::get();
        metrics.queue_depth.set(static_cast<double>(depth));

        // Queue-wait span reconstructed from the submit timestamp and
        // charged to the submitter's trace id, so the pipeline trace
        // separates time-in-queue from compute (arg = depth left
        // behind).
        if (obs::traceEnabled() && request.trace_id != 0) {
            const uint64_t now_us = monotonicMicros();
            obs::recordSpan(obs::SpanKind::InferQueue, request.trace_id,
                            request.enqueued_us,
                            now_us >= request.enqueued_us
                                ? now_us - request.enqueued_us
                                : 0,
                            depth);
        }

        std::vector<float> probs;
        {
            // Compute span in the request's own trace (arg = argument
            // nodes predicted).
            obs::TraceSpan span(obs::SpanKind::InferForward,
                                request.trace_id,
                                request.graph.argument_nodes.size());
            probs = model_.predict(request.graph);
        }

        metrics.completed.inc();
        metrics.arena_hit_ratio.set(
            nn::threadArenaStats().hitRatio());

        const double latency =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - request.enqueued)
                .count() /
            1000.0;
        latency_us_.record(latency);
        if (obs::timingEnabled())
            metrics.latency_us.record(latency);
        if (auto *sink = obs::sink()) {
            sink->event("inference_latency", {{"latency_us", latency},
                                              {"queue_depth", depth}});
        }
        request.promise.set_value(std::move(probs));
    }
}

}  // namespace sp::core
