/**
 * @file
 * The staged campaign runtime (Figure 1 as an explicit pipeline).
 *
 * The monolithic fuzz loop is decomposed into stages —
 *
 *     schedule → localize → instantiate → execute → triage/admit
 *              → checkpoint
 *
 * — run by `CampaignEngine`, the one campaign entry point, over N
 * workers (worker 0 on the calling thread, the rest on threads):
 *
 *  - the Corpus is sharded (one shard per worker) and thread-safe;
 *  - each worker owns a deterministic RNG stream split from the
 *    campaign seed (worker 0's stream IS the campaign seed, so a
 *    1-worker campaign draws exactly like the historical
 *    single-threaded loop — tests/policy_test.cc pins it), its own
 *    executor from an exec::ExecutorPool, and its own localizer
 *    (built by a per-worker factory so learned localizers can share
 *    one InferenceService and one prediction cache);
 *  - virtual time is a shared BudgetLedger claimed in
 *    checkpoint-aligned grants, so the coverage timeline lands on the
 *    same fixed execution grid regardless of worker count; and
 *  - checkpoints are emitted in order by the worker that executed the
 *    slot completing each grid boundary, after blocking (on condition
 *    variables, not a spin) until the ledger's contiguous-prefix
 *    completion watermark covers every earlier slot and every earlier
 *    checkpoint has been emitted, which makes each checkpoint a
 *    consistent prefix snapshot and the timeline monotone.
 */
#ifndef SP_FUZZ_CAMPAIGN_H
#define SP_FUZZ_CAMPAIGN_H

#include <functional>
#include <memory>
#include <vector>

#include "fuzz/crash.h"
#include "fuzz/fuzzer.h"
#include "fuzz/policy.h"
#include "fuzz/sched.h"

namespace sp::obs {
class CovMap;
struct TimelineTick;
}

namespace sp::fuzz {

/**
 * One executed argument-lane mutant, offered to the campaign's
 * mutation observer right after triage/admit. All pointers reference
 * worker-stack state and are valid ONLY for the duration of the
 * callback — an observer that wants the data must copy it. The
 * callback runs on the worker thread inside the execute stage, so
 * observers must be cheap and thread-safe (multiple workers call
 * concurrently); anything expensive belongs on the observer's own
 * thread (see data::Harvester).
 */
struct MutationEvent
{
    size_t worker = 0;
    uint64_t slot = 0;  ///< 1-based execution number
    const prog::Prog *base = nullptr;
    const exec::ExecResult *base_result = nullptr;
    const mut::ArgLocation *site = nullptr;  ///< instantiated site
    const prog::Prog *mutant = nullptr;
    const exec::ExecResult *result = nullptr;  ///< mutant's execution
    bool admitted = false;    ///< corpus accepted it (new edges)
    size_t new_edges = 0;
};

/** Campaign mutation-event hook (empty = no observer installed). */
using MutationObserver = std::function<void(const MutationEvent &)>;

/** Execution options the fuzz loop derives from its own options. */
exec::ExecOptions execOptionsFor(const FuzzOptions &opts);

/**
 * Build the effective scheduler for `opts`: `opts.scheduler` if set,
 * else the recency-biased default. Consumed by StaticPolicy
 * (policy.h) as its pick adapter — the schedulers are no longer
 * dispatched by the loop itself.
 */
std::shared_ptr<Scheduler> makeScheduler(const FuzzOptions &opts);

/**
 * Assemble one timeline tick from a checkpoint's campaign facts plus
 * the merged covmap summary and policy posterior (both nullable). The
 * fuzz layer owns this mapping so obs::TimelineTick stays plain
 * fields; the serialized checkpoint owner calls it per grid boundary,
 * and the CLI calls it once more (after CovMap::finalize) for the
 * artifact's final record.
 */
obs::TimelineTick makeTimelineTick(const Checkpoint &cp,
                                   size_t corpus_size,
                                   const obs::CovMap *covmap,
                                   const DecisionPolicy *policy);

/** Campaign-engine configuration. */
struct CampaignOptions
{
    /** Worker threads; 1 runs the whole campaign on the calling
     *  thread and is bit-reproducible for a given seed. */
    size_t workers = 1;
    FuzzOptions fuzz;
    /**
     * Called for every argument-lane mutant right after triage (from
     * worker threads; see MutationEvent's contract). Feeds continual
     * dataset harvesting without the fuzz layer knowing about it.
     */
    MutationObserver on_mutation{};
};

/**
 * Runs one fuzzing campaign over N staged workers. One-shot: construct,
 * run(), then inspect corpus()/crashes().
 */
class CampaignEngine
{
  public:
    /** Builds the localizer of one worker (called once per worker at
     *  construction time, on the constructing thread). */
    using LocalizerFactory =
        std::function<std::unique_ptr<mut::Localizer>(size_t worker)>;

    CampaignEngine(const kern::Kernel &kernel, CampaignOptions options,
                   LocalizerFactory make_localizer);

    /**
     * Run the campaign until the budget is spent or `stop` returns
     * true. Call at most once. Each worker polls `stop` before every
     * mutation round and after the mutants of every localized site
     * (directed mode stops on reaching its targets); with more than
     * one worker it is called concurrently, so it must be thread-safe.
     * Empty = run to budget exhaustion.
     */
    FuzzReport run(const std::function<bool()> &stop = {});

    /** @name Introspection (quiescent: before run(), after it, or from
     *  a 1-worker campaign's `stop` predicate) */
    /** @{ */
    const Corpus &corpus() const { return corpus_; }
    CrashLog &crashes() { return crashes_; }
    const CrashLog &crashes() const { return crashes_; }
    const kern::Kernel &kernel() const { return kernel_; }
    size_t workerCount() const { return opts_.workers; }
    /** The campaign's decision policy (timeline final ticks sample
     *  its merged posterior after run()). */
    const DecisionPolicy *policy() const { return policy_.get(); }
    /** @} */

  private:
    const kern::Kernel &kernel_;
    CampaignOptions opts_;
    std::shared_ptr<DecisionPolicy> policy_;
    mut::Mutator mutator_;
    exec::ExecutorPool executors_;
    Corpus corpus_;
    CrashLog crashes_;
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<mut::Localizer>> localizers_;
    bool ran_ = false;
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_CAMPAIGN_H
