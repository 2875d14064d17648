/**
 * @file
 * End-to-end campaign benchmark: fuzzing throughput and coverage of
 * the three campaign shapes of the evaluation, plus a per-layer ledger
 * timed from outside the program.
 *
 * Modes:
 *
 *   campaign_bench prepare-model --model-dir DIR
 *       Train the evaluation PMM (kernel 6.8, the bench/common.cc
 *       dataset recipe) once into DIR, or verify the one already
 *       there. Training never lands in a timed run.
 *
 *   campaign_bench run --workload W --seed S --seconds T --trace 0|1
 *                      --model-dir DIR [--budget N]
 *       Repeat the workload's campaign for T seconds (at least one
 *       repetition) and print one JSON result line. `--trace 0`
 *       reports the end-to-end metrics; `--trace 1` alternates plain
 *       and decorated repetitions and reports the per-layer ledger.
 *
 * Every campaign runs through the public construction API
 * (core::make*Campaign, or fuzz::CampaignEngine with the benchmark's
 * own localizer factory in traced repetitions). Layer timings come
 * from decorators around the Scheduler and Localizer seams, from the
 * inference service's own statistics, and from replaying inputs the
 * traced campaign captured through CampaignOptions::on_mutation into
 * each layer's public functions. No layer is instrumented from the
 * inside.
 */
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/infer.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "fuzz/campaign.h"
#include "graph/encode.h"
#include "graph/query_graph.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/logging.h"

namespace {

using namespace sp;
using Clock = std::chrono::steady_clock;

#ifndef CAMPAIGN_BENCH_BUILD_TYPE
#define CAMPAIGN_BENCH_BUILD_TYPE "unknown"
#endif

/** The canonical campaign seed and the one held out from tuning. */
constexpr uint64_t kDefaultSeed = 5;
constexpr uint64_t kHeldOutSeed = 17;

constexpr const char *kCheckpointFile = "eval_pmm.ckpt";
constexpr const char *kThresholdFile = "eval_pmm.threshold";

/** Replay-probe sizing: captured inputs and passes per probe. */
constexpr uint64_t kCaptureStride = 97;
constexpr size_t kMaxSamples = 2048;
constexpr size_t kMaxQueries = 256;
constexpr int kProbePasses = 5;

/** Set-up-only repetitions per run (set-up is milliseconds). */
constexpr int kSetupSamples = 40;

/**
 * Campaign seeds per run, derived from --seed (the first is --seed
 * itself). Coverage differs by a few percent from one campaign seed to
 * the next, so a run reports the mean over this many campaigns and
 * then keeps cycling through them for throughput samples.
 */
constexpr size_t kCampaignSeeds = 8;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
usSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

/** Quantile with linear interpolation (q in [0, 1]); 0 when empty. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

size_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Resident set size of this process now, MiB (0 if unreadable). */
double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    long total_pages = 0, resident_pages = 0;
    if (!(statm >> total_pages >> resident_pages))
        return 0.0;
    return static_cast<double>(resident_pages) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- workloads

enum class Kind { Baseline, Sync, Async };

/**
 * One campaign shape. Every workload fuzzes the evaluation kernel 6.8
 * with the same loop options; they differ in the localizer and in the
 * thread layout. Budgets are multiples of the checkpoint grid and
 * sized so one repetition takes a few seconds on a 4-CPU host.
 */
struct Workload
{
    const char *name;
    Kind kind;
    size_t fuzz_workers;
    size_t infer_workers;
    uint64_t budget;
};

constexpr Workload kWorkloads[] = {
    {"baseline-1w", Kind::Baseline, 1, 0, 60000},
    {"snowplow-sync-1w", Kind::Sync, 1, 0, 60000},
    {"snowplow-async-2x2", Kind::Async, 2, 2, 60000},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// ------------------------------------------------------------------- model

struct ModelFiles
{
    std::string checkpoint;
    float threshold = 0.5f;
    uint64_t hash = 0;  ///< FNV-1a of the checkpoint bytes
};

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

/** Load the checkpoint's identity (hash + threshold); false if absent. */
bool
loadModelFiles(const std::string &dir, ModelFiles *out)
{
    std::string bytes, threshold;
    const std::string ckpt = dir + "/" + kCheckpointFile;
    if (!readFile(ckpt, &bytes) ||
        !readFile(dir + "/" + kThresholdFile, &threshold))
        return false;
    out->checkpoint = ckpt;
    out->threshold = std::strtof(threshold.c_str(), nullptr);
    out->hash = fnv1aBytes(bytes.data(), bytes.size());
    return true;
}

/**
 * Train the evaluation PMM exactly as spbench::sharedPmm() does
 * (same kernel, dataset options and training options), but into the
 * benchmark's own directory instead of the shared /tmp cache.
 */
int
prepareModel(const std::string &dir)
{
    ModelFiles files;
    if (loadModelFiles(dir, &files)) {
        core::Pmm pmm;
        if (!nn::loadParameters(pmm, files.checkpoint)) {
            std::fprintf(stderr, "campaign_bench: unreadable %s\n",
                         files.checkpoint.c_str());
            return 1;
        }
        std::printf("model %016llx threshold %.6f (cached)\n",
                    static_cast<unsigned long long>(files.hash),
                    files.threshold);
        return 0;
    }
    std::filesystem::create_directories(dir);
    std::fprintf(stderr,
                 "campaign_bench: training the evaluation PMM "
                 "(one-time)\n");
    const auto start = Clock::now();
    kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    auto dataset =
        core::collectDataset(kernel, spbench::evalDatasetOptions());
    core::Pmm pmm;
    core::TrainOptions train_opts;
    train_opts.epochs = 8;
    train_opts.max_train_examples = 2600;
    const auto history = core::trainPmm(pmm, dataset, train_opts);
    {
        std::ofstream out(dir + "/" + kThresholdFile);
        out << history.best_threshold << "\n";
        if (!out) {
            std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                         kThresholdFile);
            return 1;
        }
    }
    // The checkpoint lands last (write + rename): its presence means
    // the threshold beside it is complete too.
    const std::string tmp = dir + "/" + kCheckpointFile + ".tmp";
    nn::saveParameters(pmm, tmp);
    std::filesystem::rename(tmp, dir + "/" + kCheckpointFile);
    if (!loadModelFiles(dir, &files))
        return 1;
    std::printf("model %016llx threshold %.6f (trained in %.1f s, "
                "valid F1 %.3f)\n",
                static_cast<unsigned long long>(files.hash),
                files.threshold, secondsSince(start),
                history.best_valid.f1);
    return 0;
}

// -------------------------------------------------------------- decorators

/** Thread-safe sink of per-call latencies (µs). */
class LatencyLog
{
  public:
    void
    add(double us)
    {
        std::lock_guard<std::mutex> lock(mu_);
        us_.push_back(us);
        sum_ += us;
    }

    /** Quiescent reads (after the campaign joined its workers). */
    const std::vector<double> &values() const { return us_; }
    double sum() const { return sum_; }

  private:
    std::mutex mu_;
    std::vector<double> us_;
    double sum_ = 0.0;
};

/** Times every pick of the scheduler the loop would have built. */
class TimedScheduler : public fuzz::Scheduler
{
  public:
    TimedScheduler(std::shared_ptr<fuzz::Scheduler> inner,
                   LatencyLog &log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    const fuzz::CorpusEntry &
    pick(const fuzz::Corpus &corpus, Rng &rng) override
    {
        const auto start = Clock::now();
        const auto &entry = inner_->pick(corpus, rng);
        log_.add(usSince(start));
        return entry;
    }

  private:
    std::shared_ptr<fuzz::Scheduler> inner_;
    LatencyLog &log_;
};

/** Localization tallies shared by every worker's TimedLocalizer. */
struct LocalizeTally
{
    LatencyLog latency;
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> model_answers{0};
};

/** Times the loop's localize calls and tallies who answered. */
class TimedLocalizer : public mut::Localizer
{
  public:
    TimedLocalizer(std::unique_ptr<mut::Localizer> inner,
                   LocalizeTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    std::vector<mut::ArgLocation>
    localize(const prog::Prog &prog, Rng &rng, size_t max_sites) override
    {
        return inner_->localize(prog, rng, max_sites);
    }

    std::vector<mut::ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult &result, Rng &rng,
                       size_t max_sites) override
    {
        return inner_->localizeWithResult(prog, result, rng, max_sites);
    }

    bool learned() const override { return inner_->learned(); }

    mut::Localization
    localizeChosen(const prog::Prog &prog, const exec::ExecResult &result,
                   Rng &rng, size_t max_sites, bool use_model) override
    {
        const auto start = Clock::now();
        auto loc =
            inner_->localizeChosen(prog, result, rng, max_sites, use_model);
        tally_.latency.add(usSince(start));
        tally_.calls.fetch_add(1, std::memory_order_relaxed);
        if (loc.channel == mut::LocalizerChannel::Model)
            tally_.model_answers.fetch_add(1, std::memory_order_relaxed);
        return loc;
    }

  private:
    std::unique_ptr<mut::Localizer> inner_;
    LocalizeTally &tally_;
};

/** One argument-lane mutant captured for the replay probes. */
struct Sample
{
    prog::Prog base;
    exec::ExecResult base_result;
    mut::ArgLocation site;
    prog::Prog mutant;
    exec::ExecResult result;
    uint64_t slot = 0;
};

/** Everything a traced repetition records besides its report. */
struct TraceState
{
    TraceState(size_t workers, uint64_t windows)
        : window_end_us(workers, std::vector<double>(windows, 0.0))
    {
    }

    LatencyLog schedule;
    LocalizeTally localize;
    std::shared_ptr<core::PredictionCache> cache;
    /** The async localizers (owned by the engine), for their
     *  submission tallies after run(). */
    std::vector<const core::AsyncPmmLocalizer *> async_localizers;
    Clock::time_point run_start;
    /** [worker][checkpoint window] latest observer timestamp (µs
     *  since run start); each worker writes only its own row. */
    std::vector<std::vector<double>> window_end_us;
    std::mutex samples_mu;
    std::vector<Sample> samples;
    /** The repetition's kernel, kept alive for the samples: programs
     *  point into its syscall table. */
    std::unique_ptr<kern::Kernel> kernel;
};

// ------------------------------------------------------------- repetitions

struct RepOutcome
{
    double kernel_build_ms = 0.0;
    double model_load_ms = 0.0;
    double engine_construct_ms = 0.0;
    double setup_s = 0.0;
    double wall_s = 0.0;
    double rss_mb = 0.0;  ///< resident set when the budget is spent
    fuzz::FuzzReport report;
    uint64_t queries = 0;         ///< inference queries issued
    uint64_t failed_queries = 0;  ///< never resolved by shutdown
    uint64_t completed_at_return = 0;
    core::InferenceStats infer;
    std::vector<std::string> errors;
};

fuzz::CampaignOptions
campaignOptions(const Workload &w, uint64_t budget, uint64_t seed)
{
    fuzz::CampaignOptions opts;
    opts.workers = w.fuzz_workers;
    opts.fuzz = spbench::evalFuzzOptions(budget, seed);
    return opts;
}

/** Output checks that hold for every repetition of every workload. */
void
checkReport(const fuzz::FuzzReport &report, uint64_t budget,
            uint64_t grid, std::vector<std::string> *errors)
{
    if (report.execs != budget) {
        errors->push_back("executions " + std::to_string(report.execs) +
                          " != budget " + std::to_string(budget));
    }
    if (report.timeline.size() != budget / grid) {
        errors->push_back("timeline has " +
                          std::to_string(report.timeline.size()) +
                          " checkpoints, grid expects " +
                          std::to_string(budget / grid));
    }
    for (size_t i = 0; i < report.timeline.size(); ++i) {
        const auto &cp = report.timeline[i];
        if (cp.execs != (i + 1) * grid) {
            errors->push_back("checkpoint " + std::to_string(i) +
                              " off the grid at " +
                              std::to_string(cp.execs));
            break;
        }
        if (i > 0) {
            const auto &prev = report.timeline[i - 1];
            if (cp.edges < prev.edges || cp.blocks < prev.blocks ||
                cp.crashes < prev.crashes) {
                errors->push_back("timeline not monotone at checkpoint " +
                                  std::to_string(i));
                break;
            }
        }
    }
    if (!report.timeline.empty() &&
        report.timeline.back().edges != report.final_edges)
        errors->push_back("final edges disagree with the timeline");
}

/**
 * Build, run and tear down one campaign. `trace` null = the plain
 * public factories; otherwise the benchmark's decorated factory.
 * `setup_only` tears down right after construction.
 */
RepOutcome
runRep(const Workload &w, uint64_t budget, uint64_t seed,
       const ModelFiles &model, TraceState *trace, bool setup_only = false)
{
    RepOutcome out;
    auto &registry = obs::Registry::global();
    obs::Counter &async_submitted =
        registry.counter("snowplow.async.submitted");

    const auto setup_start = Clock::now();
    auto t = Clock::now();
    auto kernel_owner =
        std::make_unique<kern::Kernel>(spbench::makeEvalKernel("6.8"));
    const kern::Kernel &kernel = *kernel_owner;
    out.kernel_build_ms = usSince(t) / 1000.0;

    t = Clock::now();
    std::unique_ptr<core::Pmm> pmm;
    if (w.kind != Kind::Baseline) {
        pmm = std::make_unique<core::Pmm>();
        if (!nn::loadParameters(*pmm, model.checkpoint)) {
            out.errors.push_back("cannot load " + model.checkpoint);
            return out;
        }
    }
    out.model_load_ms = usSince(t) / 1000.0;

    // The service is declared before the engine so it outlives it: the
    // async localizers drain their futures in their destructors.
    std::unique_ptr<core::InferenceService> service;
    if (w.kind == Kind::Async) {
        service = std::make_unique<core::InferenceService>(
            *pmm, w.infer_workers);
    }

    t = Clock::now();
    auto opts = campaignOptions(w, budget, seed);
    core::SnowplowOptions sopts;
    sopts.threshold = model.threshold;
    sopts.exec_backend = opts.fuzz.exec_backend;
    std::unique_ptr<fuzz::CampaignEngine> engine;
    if (trace == nullptr) {
        switch (w.kind) {
          case Kind::Baseline:
            engine = core::makeSyzkallerCampaign(kernel, std::move(opts));
            break;
          case Kind::Sync:
            engine = core::makeSnowplowCampaign(kernel, *pmm,
                                                std::move(opts), sopts);
            break;
          case Kind::Async:
            engine = core::makeAsyncSnowplowCampaign(
                kernel, *service, std::move(opts), sopts);
            break;
        }
    } else {
        const uint64_t grid = opts.fuzz.checkpoint_every;
        opts.fuzz.scheduler = std::make_shared<TimedScheduler>(
            fuzz::makeScheduler(opts.fuzz), trace->schedule);
        opts.on_mutation = [trace, grid](const fuzz::MutationEvent &ev) {
            const double now = usSince(trace->run_start);
            auto &row = trace->window_end_us[ev.worker];
            const uint64_t window = (ev.slot - 1) / grid;
            if (window < row.size())
                row[window] = std::max(row[window], now);
            if (ev.slot % kCaptureStride != 0 || ev.site == nullptr)
                return;
            std::lock_guard<std::mutex> lock(trace->samples_mu);
            if (trace->samples.size() >= kMaxSamples)
                return;
            Sample s;
            s.base.calls = ev.base->calls;
            s.base_result = *ev.base_result;
            s.site = *ev.site;
            s.mutant.calls = ev.mutant->calls;
            s.result = *ev.result;
            s.slot = ev.slot;
            trace->samples.push_back(std::move(s));
        };
        if (w.kind != Kind::Baseline) {
            trace->cache =
                std::make_shared<core::PredictionCache>(sopts.cache_capacity);
        }
        auto factory = [&, trace](size_t) -> std::unique_ptr<mut::Localizer> {
            std::unique_ptr<mut::Localizer> inner;
            switch (w.kind) {
              case Kind::Baseline:
                inner = std::make_unique<mut::RandomLocalizer>();
                break;
              case Kind::Sync:
                inner = std::make_unique<core::PmmLocalizer>(
                    kernel, *pmm, sopts, trace->cache);
                break;
              case Kind::Async: {
                auto async = std::make_unique<core::AsyncPmmLocalizer>(
                    kernel, *service, sopts, trace->cache);
                trace->async_localizers.push_back(async.get());
                inner = std::move(async);
                break;
              }
            }
            return std::make_unique<TimedLocalizer>(std::move(inner),
                                                    trace->localize);
        };
        engine = std::make_unique<fuzz::CampaignEngine>(
            kernel, std::move(opts), factory);
    }
    out.engine_construct_ms = usSince(t) / 1000.0;
    out.setup_s = secondsSince(setup_start);
    if (setup_only)
        return out;

    const uint64_t submitted_before = async_submitted.value();
    const auto run_start = Clock::now();
    if (trace != nullptr)
        trace->run_start = run_start;
    out.report = engine->run();
    out.wall_s = secondsSince(run_start);
    out.rss_mb = residentMb();

    if (w.kind == Kind::Sync) {
        // Each prediction-cache miss is one blocking forward pass.
        out.queries = registry.counter("snowplow.cache.miss").value();
    } else if (w.kind == Kind::Async) {
        out.queries = async_submitted.value() - submitted_before;
        out.completed_at_return = service->stats().completed;
    }
    if (trace != nullptr && w.kind == Kind::Async) {
        uint64_t submitted = 0;
        for (const auto *loc : trace->async_localizers)
            submitted += loc->submitted();
        if (submitted != out.queries)
            out.errors.push_back("async submission tallies disagree");
    }
    engine.reset();  // drains every in-flight query
    if (service != nullptr) {
        out.infer = service->stats();
        if (out.infer.completed < out.queries)
            out.failed_queries = out.queries - out.infer.completed;
        if (out.failed_queries != 0) {
            out.errors.push_back(std::to_string(out.failed_queries) +
                                 " inference queries never resolved");
        }
        service.reset();
    }
    checkReport(out.report, budget,
                spbench::evalFuzzOptions(budget, seed).checkpoint_every,
                &out.errors);
    if (trace != nullptr)
        trace->kernel = std::move(kernel_owner);
    return out;
}

// ------------------------------------------------------------ replay probes

/** Median over passes of the mean µs per item of `body(i)`. */
template <typename Prepare, typename Body>
double
probeUs(size_t items, Prepare prepare, Body body)
{
    if (items == 0)
        return 0.0;
    std::vector<double> passes;
    for (int pass = 0; pass < kProbePasses; ++pass) {
        prepare();
        const auto start = Clock::now();
        for (size_t i = 0; i < items; ++i)
            body(i);
        passes.push_back(usSince(start) / static_cast<double>(items));
    }
    return median(passes);
}

/**
 * Replay the captured inputs through each layer's public functions.
 * Runs after the traced campaign, so it never perturbs it.
 */
void
replayProbes(const Workload &w, uint64_t seed, const ModelFiles &model,
             const kern::Kernel &kernel, const std::vector<Sample> &samples,
             std::map<std::string, double> *out)
{
    const auto fopts = spbench::evalFuzzOptions(w.budget, seed);
    mut::Mutator mutator(kernel.table(), fopts.mutator);
    const size_t n = samples.size();
    // Mutants start as fresh programs, as in the campaign loop.
    std::vector<prog::Prog> scratch(n);
    auto clearScratch = [&] { scratch = std::vector<prog::Prog>(n); };
    auto copyBases = [&] {
        for (size_t i = 0; i < n; ++i)
            scratch[i].calls = samples[i].base.calls;
    };

    (*out)["prog.copy_us"] = probeUs(n, clearScratch, [&](size_t i) {
        scratch[i].calls = samples[i].base.calls;
    });

    Rng rng(seed);
    (*out)["mutate.instantiate_us"] = probeUs(n, copyBases, [&](size_t i) {
        mutator.instantiateArgMutation(scratch[i], samples[i].site, rng);
    });
    (*out)["mutate.structural_us"] = probeUs(n, copyBases, [&](size_t i) {
        if (i % 2 == 0)
            mutator.insertCall(scratch[i], rng);
        else
            mutator.removeCall(scratch[i], rng);
    });

    exec::Executor executor(kernel, fuzz::execOptionsFor(fopts));
    size_t sink = 0;
    (*out)["exec.us_per_prog"] = probeUs(n, [] {}, [&](size_t i) {
        sink += executor.run(samples[i].mutant).coverage.edgeCount();
    });
    (*out)["exec.calls_per_prog"] =
        executor.programsExecuted() == 0
            ? 0.0
            : static_cast<double>(executor.callsExecuted()) /
                  static_cast<double>(executor.programsExecuted());

    std::unique_ptr<fuzz::Corpus> corpus;
    (*out)["corpus.admit_us"] = probeUs(
        n, [&] { corpus = std::make_unique<fuzz::Corpus>(w.fuzz_workers); },
        [&](size_t i) {
            sink += corpus->maybeAdd(samples[i].mutant, samples[i].result,
                                     samples[i].slot);
        });

    // Localize path of the learned localizers, one query per captured
    // base (graph build, encode, forward pass).
    core::Pmm pmm;
    if (!nn::loadParameters(pmm, model.checkpoint))
        SP_FATAL("cannot load %s", model.checkpoint.c_str());
    std::vector<graph::QueryGraph> queries;
    std::vector<size_t> query_sample;
    for (size_t i = 0; i < n && queries.size() < kMaxQueries; ++i) {
        auto frontier =
            graph::alternativeFrontier(kernel, samples[i].base_result.coverage);
        auto q = graph::buildQueryGraph(kernel, samples[i].base,
                                        samples[i].base_result, frontier);
        if (!q.argument_nodes.empty()) {
            queries.push_back(std::move(q));
            query_sample.push_back(i);
        }
    }
    const size_t nq = queries.size();
    double nodes = 0.0;
    for (const auto &q : queries)
        nodes += static_cast<double>(q.nodes.size());
    (*out)["graph.nodes_per_query"] =
        nq == 0 ? 0.0 : nodes / static_cast<double>(nq);
    (*out)["graph.build_us"] = probeUs(nq, [] {}, [&](size_t i) {
        const Sample &s = samples[query_sample[i]];
        auto frontier =
            graph::alternativeFrontier(kernel, s.base_result.coverage);
        sink += graph::buildQueryGraph(kernel, s.base, s.base_result,
                                       frontier)
                    .nodes.size();
    });
    std::vector<graph::EncodedGraph> encoded(nq);
    (*out)["graph.encode_us"] = probeUs(nq, [] {}, [&](size_t i) {
        graph::encodeGraphInto(kernel, queries[i], encoded[i]);
    });
    (*out)["nn.predict_us"] = probeUs(nq, [] {}, [&](size_t i) {
        sink += pmm.predict(encoded[i]).size();
    });

    // Service capacity: the captured queries offered all at once.
    double capacity = 0.0;
    if (w.kind == Kind::Async && nq > 0) {
        std::vector<double> passes;
        for (int pass = 0; pass < 3; ++pass) {
            core::InferenceService service(pmm, w.infer_workers);
            std::vector<std::future<std::vector<float>>> futures;
            futures.reserve(nq);
            const auto start = Clock::now();
            for (size_t i = 0; i < nq; ++i)
                futures.push_back(service.submit(encoded[i]));
            for (auto &f : futures)
                sink += f.get().size();
            passes.push_back(static_cast<double>(nq) / secondsSince(start));
        }
        capacity = median(passes);
    }
    (*out)["infer.capacity_qps"] = capacity;
    if (sink == 0)
        std::fprintf(stderr, "campaign_bench: replay probes saw no work\n");
}

// ------------------------------------------------------------------ output

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec kEndToEnd[] = {
    {"execs_per_s", "1/s"}, {"final_edges", "count"},
    {"edges_auc", "count"}, {"setup_s", "s"},
    {"campaign_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"kernel.build_ms", "ms"},
    {"model.load_ms", "ms"},
    {"engine.construct_ms", "ms"},
    {"fuzz.schedule_us.p50", "us"},
    {"fuzz.schedule_us.p99", "us"},
    {"localize.us.p50", "us"},
    {"localize.us.p99", "us"},
    {"localize.calls", "count"},
    {"localize.model_share", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"infer.latency_us.p50", "us"},
    {"infer.latency_us.p99", "us"},
    {"infer.mean_batch_size", "count"},
    {"infer.completed", "count"},
    {"infer.offered_qps", "1/s"},
    {"infer.capacity_qps", "1/s"},
    {"infer.backlog_end", "count"},
    {"prog.copy_us", "us"},
    {"mutate.instantiate_us", "us"},
    {"mutate.structural_us", "us"},
    {"exec.us_per_prog", "us"},
    {"exec.calls_per_prog", "count"},
    {"corpus.admit_us", "us"},
    {"graph.build_us", "us"},
    {"graph.encode_us", "us"},
    {"nn.predict_us", "us"},
    {"graph.nodes_per_query", "count"},
    {"fuzz.lane_admit_ratio.argument", "ratio"},
    {"fuzz.lane_admit_ratio.structural", "ratio"},
    {"fuzz.crashes_unique", "count"},
    {"fuzz.window_execs_per_s.min", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_share", "ratio"},
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Per-metric samples of one run (one value per repetition). */
using Samples = std::map<std::string, std::vector<double>>;

std::string
metricsJson(const MetricSpec *specs, size_t count, const Samples &samples)
{
    std::string out = "{";
    for (size_t i = 0; i < count; ++i) {
        const auto it = samples.find(specs[i].name);
        const double value =
            it == samples.end() ? 0.0 : median(it->second);
        if (i > 0)
            out += ", ";
        out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
               num(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
    }
    return out + "}";
}

/** Median, quartiles and sample count of every reported metric. */
std::string
detailJson(const Samples &samples)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, values] : samples) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"median\": " + num(median(values)) +
               ", \"q1\": " + num(quantile(values, 0.25)) +
               ", \"q3\": " + num(quantile(values, 0.75)) +
               ", \"n\": " + std::to_string(values.size()) + "}";
    }
    return out + "}";
}

/** The per-layer ledger of one traced repetition. */
void
ledgerSamples(const Workload &w, const RepOutcome &rep,
              const TraceState &trace, Samples *out)
{
    auto put = [out](const char *name, double v) {
        (*out)[name].push_back(v);
    };
    const auto &sched = trace.schedule.values();
    put("fuzz.schedule_us.p50", quantile(sched, 0.5));
    put("fuzz.schedule_us.p99", quantile(sched, 0.99));
    const auto &loc = trace.localize.latency.values();
    put("localize.us.p50", quantile(loc, 0.5));
    put("localize.us.p99", quantile(loc, 0.99));
    const auto calls = trace.localize.calls.load();
    put("localize.calls", static_cast<double>(calls));
    put("localize.model_share",
        calls == 0 ? 0.0
                   : static_cast<double>(trace.localize.model_answers) /
                         static_cast<double>(calls));
    double hit_ratio = 0.0, evictions = 0.0;
    if (trace.cache != nullptr) {
        const auto lookups = trace.cache->hits() + trace.cache->misses();
        hit_ratio = lookups == 0
                        ? 0.0
                        : static_cast<double>(trace.cache->hits()) /
                              static_cast<double>(lookups);
        evictions = static_cast<double>(trace.cache->evictions());
    }
    put("cache.hit_ratio", hit_ratio);
    put("cache.evictions", evictions);
    const bool async = w.kind == Kind::Async;
    put("infer.latency_us.p50", async ? rep.infer.p50_latency_us : 0.0);
    put("infer.latency_us.p99", async ? rep.infer.p99_latency_us : 0.0);
    put("infer.mean_batch_size", async ? rep.infer.mean_batch_size : 0.0);
    put("infer.completed",
        async ? static_cast<double>(rep.infer.completed) : 0.0);
    put("infer.offered_qps",
        async ? static_cast<double>(rep.queries) / rep.wall_s : 0.0);
    put("infer.backlog_end",
        async ? static_cast<double>(rep.queries) -
                    static_cast<double>(rep.completed_at_return)
              : 0.0);

    const auto &lanes = rep.report.lanes;
    auto admitRatio = [&](fuzz::MutationLane lane) {
        const auto &c = lanes[fuzz::laneIndex(lane)];
        return c.produced == 0 ? 0.0
                               : static_cast<double>(c.admitted) /
                                     static_cast<double>(c.produced);
    };
    put("fuzz.lane_admit_ratio.argument",
        admitRatio(fuzz::MutationLane::Argument));
    put("fuzz.lane_admit_ratio.structural",
        admitRatio(fuzz::MutationLane::Structural));
    put("fuzz.crashes_unique",
        static_cast<double>(rep.report.final_crashes));

    // Slowest checkpoint window: a window ends at the latest observer
    // timestamp of any worker inside it.
    const size_t windows = trace.window_end_us.front().size();
    const double grid = static_cast<double>(
        spbench::evalFuzzOptions(w.budget, 0).checkpoint_every);
    double prev_end = 0.0, slowest = 0.0;
    for (size_t i = 0; i < windows; ++i) {
        double end = 0.0;
        for (const auto &row : trace.window_end_us)
            end = std::max(end, row[i]);
        if (end <= prev_end)
            continue;
        const double rate = grid / ((end - prev_end) / 1e6);
        if (i > 0 && (slowest == 0.0 || rate < slowest))
            slowest = rate;
        prev_end = end;
    }
    put("fuzz.window_execs_per_s.min", slowest);

    const double attributed = trace.schedule.sum() +
                              trace.localize.latency.sum();
    const double worker_us =
        rep.wall_s * 1e6 * static_cast<double>(w.fuzz_workers);
    put("trace.unattributed_share", 1.0 - attributed / worker_us);
}

struct Args
{
    std::string mode;
    std::string workload;
    std::string model_dir;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    uint64_t budget = 0;  ///< 0 = the workload's own
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    if (argc < 2)
        return false;
    args->mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args->workload = value;
        else if (key == "--model-dir")
            args->model_dir = value;
        else if (key == "--seed")
            args->seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args->seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            args->trace = std::atoi(value);
        else if (key == "--budget")
            args->budget = std::strtoull(value, nullptr, 10);
        else
            return false;
    }
    return (argc % 2) == 0 && !args->model_dir.empty();
}

int
runWorkload(const Args &args)
{
    const Workload *found = findWorkload(args.workload);
    if (found == nullptr) {
        std::fprintf(stderr, "campaign_bench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    Workload w = *found;
    const uint64_t grid = spbench::evalFuzzOptions(1, 0).checkpoint_every;
    if (args.budget != 0)
        w.budget = args.budget;
    if (w.budget % grid != 0 || w.budget < 2 * grid) {
        std::fprintf(stderr,
                     "campaign_bench: budget must be a multiple of %llu "
                     "and at least two checkpoints\n",
                     static_cast<unsigned long long>(grid));
        return 2;
    }
    // Thread budget: oversubscribing pushes inference latency up and
    // throughput down by amounts that measure the host, not the code.
    const size_t nproc = cpuCount();
    if (w.fuzz_workers + w.infer_workers > nproc) {
        std::fprintf(stderr,
                     "campaign_bench: %s needs %zu threads but only %zu "
                     "CPUs are available; refusing to oversubscribe\n",
                     w.name, w.fuzz_workers + w.infer_workers, nproc);
        return 3;
    }
    ModelFiles model;
    if (!loadModelFiles(args.model_dir, &model)) {
        std::fprintf(stderr,
                     "campaign_bench: no model in %s (run prepare-model)\n",
                     args.model_dir.c_str());
        return 2;
    }

    Samples e2e, layer;
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    // 1-worker identity check: campaign seed index -> first timeline.
    std::map<size_t, std::vector<uint64_t>> timelines;
    size_t plain_reps = 0, traced_reps = 0;
    std::vector<Sample> probe_samples;
    std::unique_ptr<kern::Kernel> probe_kernel;
    std::vector<double> traced_rate;
    std::vector<double> final_edges, edges_auc, campaign_rss;
    auto recordSetup = [&](const RepOutcome &out) {
        layer["kernel.build_ms"].push_back(out.kernel_build_ms);
        layer["model.load_ms"].push_back(out.model_load_ms);
        layer["engine.construct_ms"].push_back(out.engine_construct_ms);
        e2e["setup_s"].push_back(out.setup_s);
    };

    // Set-up is a few milliseconds: sample it more often than the
    // campaigns run, then fold in each repetition's own set-up.
    const auto start = Clock::now();
    for (int i = 0; i < kSetupSamples; ++i) {
        recordSetup(runRep(w, w.budget, args.seed, model, nullptr,
                           /*setup_only=*/true));
    }
    for (size_t rep = 0;; ++rep) {
        // Traced runs alternate plain and traced repetitions of the
        // same campaign seed.
        const bool traced = args.trace != 0 && rep % 2 == 1;
        const size_t round = args.trace != 0 ? rep / 2 : rep;
        const size_t seed_index = round % kCampaignSeeds;
        const uint64_t campaign_seed = splitSeed(args.seed, seed_index);
        const uint64_t windows = w.budget / grid;
        TraceState state(w.fuzz_workers, windows);
        RepOutcome out = runRep(w, w.budget, campaign_seed, model,
                                traced ? &state : nullptr);
        // Hand freed heap back so the next campaign's resident set
        // starts from the same floor as a fresh process.
        malloc_trim(0);
        const double rate = static_cast<double>(w.budget) / out.wall_s;

        std::vector<uint64_t> timeline;
        for (const auto &cp : out.report.timeline) {
            timeline.insert(timeline.end(),
                            {cp.execs, cp.edges, cp.blocks, cp.crashes});
        }
        if (w.fuzz_workers == 1) {
            const auto [it, first] =
                timelines.emplace(seed_index, timeline);
            if (!first && it->second != timeline)
                out.errors.push_back(
                    std::string("1-worker timeline differs from the "
                                "first repetition of its seed") +
                    (traced ? " (traced)" : ""));
        }
        attempted += w.budget + out.queries;
        failed += out.failed_queries;
        if (!out.errors.empty()) {
            correct = false;
            failed += w.budget;
            for (const auto &e : out.errors)
                std::fprintf(stderr, "campaign_bench: CHECK FAILED: %s\n",
                             e.c_str());
        }

        recordSetup(out);
        if (traced) {
            ++traced_reps;
            traced_rate.push_back(rate);
            ledgerSamples(w, out, state, &layer);
            if (probe_kernel == nullptr) {
                probe_samples = std::move(state.samples);
                probe_kernel = std::move(state.kernel);
            }
        } else {
            ++plain_reps;
            e2e["execs_per_s"].push_back(rate);
            if (round < kCampaignSeeds) {
                double auc = 0.0;
                for (const auto &cp : out.report.timeline)
                    auc += static_cast<double>(cp.edges);
                final_edges.push_back(
                    static_cast<double>(out.report.final_edges));
                campaign_rss.push_back(out.rss_mb);
                edges_auc.push_back(
                    auc / static_cast<double>(out.report.timeline.size()));
            }
        }
        std::fprintf(stderr,
                     "campaign_bench: %s rep %zu seed #%zu%s: %.0f "
                     "execs/s, %zu edges, setup %.1f ms\n",
                     w.name, rep, seed_index, traced ? " (traced)" : "",
                     rate, out.report.final_edges, out.setup_s * 1e3);
        // Plain runs cover every campaign seed (the coverage means need
        // them all); traced runs stop on a plain/traced pair.
        const bool done = args.trace != 0 ? traced
                                          : round + 1 >= kCampaignSeeds;
        if (done && secondsSince(start) >= args.seconds)
            break;
    }
    // Per-campaign quantities: mean over the campaign seeds.
    auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    e2e["final_edges"].push_back(mean(final_edges));
    e2e["edges_auc"].push_back(mean(edges_auc));
    e2e["campaign_rss_mb"].push_back(mean(campaign_rss));

    if (args.trace != 0) {
        std::map<std::string, double> probes;
        replayProbes(w, args.seed, model, *probe_kernel, probe_samples,
                     &probes);
        for (const auto &[name, value] : probes)
            layer[name].push_back(value);
        const double plain = median(e2e["execs_per_s"]);
        layer["trace.overhead_pct"].push_back(
            100.0 * (plain - median(traced_rate)) / plain);
    }

    std::printf(
        "context {\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": "
        "%llu, \"held_out_seed\": %llu, \"kernel\": \"6.8\", \"budget\": "
        "%llu, \"checkpoint_every\": %llu, \"fuzz_workers\": %zu, "
        "\"infer_workers\": %zu, \"plain_reps\": %zu, \"traced_reps\": "
        "%zu, \"model_hash\": \"%016llx\", \"threshold\": %.6f, "
        "\"nproc\": %zu, \"build_type\": \"%s\"}\n",
        w.name, static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(kDefaultSeed),
        static_cast<unsigned long long>(kHeldOutSeed),
        static_cast<unsigned long long>(w.budget),
        static_cast<unsigned long long>(grid), w.fuzz_workers,
        w.infer_workers, plain_reps, traced_reps,
        static_cast<unsigned long long>(model.hash), model.threshold,
        nproc, CAMPAIGN_BENCH_BUILD_TYPE);
    const Samples &shown = args.trace != 0 ? layer : e2e;
    std::printf("detail %s\n", detailJson(shown).c_str());
    const std::string metrics =
        args.trace != 0
            ? metricsJson(kPerLayer, std::size(kPerLayer), layer)
            : metricsJson(kEndToEnd, std::size(kEndToEnd), e2e);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: campaign_bench prepare-model --model-dir DIR\n"
                     "       campaign_bench run --workload W --seed S "
                     "--seconds T --trace 0|1 --model-dir DIR "
                     "[--budget N]\n");
        return 2;
    }
    if (args.mode == "prepare-model")
        return prepareModel(args.model_dir);
    if (args.mode == "run")
        return runWorkload(args);
    std::fprintf(stderr, "campaign_bench: unknown mode '%s'\n",
                 args.mode.c_str());
    return 2;
}
