/**
 * @file
 * Asynchronous PMM inference service (paper §3.4/§4).
 *
 * The analog of the torchserve deployment plus Snowplow's Go inference
 * worker pool: a fixed pool of worker threads consumes queued mutation
 * queries and runs PMM forward passes, while the caller (the fuzz loop)
 * continues with other mutation types and collects predictions through
 * futures. Latency and throughput statistics back the §5.5 evaluation.
 *
 * Each worker pops one request and runs one Pmm::predict forward pass
 * for it. Requests are deliberately not micro-batched: on the campaign
 * benchmark, batching cost throughput and memory (DESIGN.md §8.3).
 * Latencies are recorded through a sharded histogram so completion
 * never contends on the queue mutex.
 */
#ifndef SP_CORE_INFER_H
#define SP_CORE_INFER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pmm.h"
#include "obs/metrics.h"

namespace sp::core {

/** Aggregate service statistics. */
struct InferenceStats
{
    uint64_t completed = 0;
    double mean_latency_us = 0.0;
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    /**
     * Requests per forward pass: 1.0 once any request has completed,
     * else 0. Every forward pass serves exactly one request; the field
     * stays so reports that print it keep their shape.
     */
    double mean_batch_size = 0.0;
};

/** Multi-threaded inference front-end over one PMM. */
class InferenceService
{
  public:
    /**
     * @param model    trained model (must outlive the service; forward
     *                 passes only read the parameters, so the pool can
     *                 share it)
     * @param workers  worker-thread count (the paper's GPU replicas)
     */
    InferenceService(const Pmm &model, size_t workers = 2);

    /** Drains the queue and joins the workers. */
    ~InferenceService();

    InferenceService(const InferenceService &) = delete;
    InferenceService &operator=(const InferenceService &) = delete;

    /**
     * Enqueue a query; the future resolves to per-argument-node MUTATE
     * probabilities. `trace_id` carries the caller's pipeline trace id
     * across the thread hand-off (obs::currentTraceId(); 0 = untraced)
     * so the request's queue wait and its forward pass land in the
     * same trace as the round that issued it.
     */
    std::future<std::vector<float>> submit(graph::EncodedGraph graph,
                                           uint64_t trace_id = 0);

    /** Latency/throughput counters so far. */
    InferenceStats stats() const;

    size_t workerCount() const { return workers_.size(); }

  private:
    struct Request
    {
        graph::EncodedGraph graph;
        std::promise<std::vector<float>> promise;
        std::chrono::steady_clock::time_point enqueued;
        uint64_t trace_id = 0;     ///< submitter's pipeline trace id
        uint64_t enqueued_us = 0;  ///< monotonicMicros() at submit
    };

    void workerLoop(size_t worker);

    const Pmm &model_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Request> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
    /** Sharded per-request latency sink; folded only in stats(). */
    obs::Histogram latency_us_;
};

}  // namespace sp::core

#endif  // SP_CORE_INFER_H
