/**
 * @file
 * Configuration and results of the coverage-guided fuzzing loop
 * (Figure 1 of the paper).
 *
 * The loop itself is fuzz::CampaignEngine (campaign.h): each round
 * runs schedule (pick a base test), localize (ask the pluggable
 * Localizer where to mutate arguments), instantiate, execute,
 * triage/admit, checkpoint, with call insertion/removal mutations
 * alongside at their Syzkaller weights. Swapping the Localizer is
 * exactly how Snowplow is built on top of this loop
 * (src/core/snowplow.h).
 *
 * Time is virtual: the budget is counted in executed programs, the
 * resource both compared systems share (§5.3's same-machine-cost
 * comparison). Coverage is checkpointed on a fixed execution grid so
 * runs are directly comparable.
 */
#ifndef SP_FUZZ_FUZZER_H
#define SP_FUZZ_FUZZER_H

#include <array>
#include <memory>

#include "fuzz/corpus.h"
#include "fuzz/policy.h"
#include "fuzz/sched.h"
#include "mutate/mutator.h"

namespace sp::obs {
class CovMap;
class TimelineRecorder;
}

namespace sp::fuzz {

/** Fuzzing-loop configuration. */
struct FuzzOptions
{
    uint64_t exec_budget = 50000;     ///< program executions ("time")
    size_t seed_corpus_size = 40;
    /**
     * Programs executed ahead of the generated seed corpus (the fleet
     * coordinator's seed batches enter a node's lease campaign here).
     * Empty — the default — leaves the seed stage byte-for-byte the
     * legacy generate-and-execute path.
     */
    std::vector<prog::Prog> injected_seeds;
    uint64_t seed = 1;
    bool noisy = true;                ///< nondeterministic execution
    uint64_t checkpoint_every = 500;  ///< coverage timeline grid (0 = 1)
    /** Instantiations per localized argument site. */
    size_t mutations_per_site = 3;
    /** Max argument sites requested from the localizer per base. */
    size_t max_sites_per_base = 6;
    /** Non-argument (insert/remove) mutants per base pick. */
    size_t structural_mutations_per_base = 2;
    mut::MutatorOptions mutator;
    /**
     * The decision policy driving scheduling, operator choice, and
     * PMM-vs-random arbitration (policy.h). The default StaticPolicy
     * reproduces the historical loop bit-for-bit; `policy.kind =
     * Thompson` switches every decision to the bandit.
     */
    PolicyOptions policy;
    /**
     * Optional scheduler (Figure 1's test choice as a stage): picks the
     * corpus entry to mutate. Consumed by StaticPolicy as its pick
     * adapter (ignored by ThompsonPolicy, which schedules from the
     * posterior). Shared across campaign workers, so implementations
     * must be safe for concurrent pick() calls. When unset, the
     * recency-biased default runs.
     */
    std::shared_ptr<Scheduler> scheduler;
    /**
     * Optional coverage-cartography accumulator (obs/covmap.h, not
     * owned; must outlive the run). Workers record per-call block
     * traces into their shard after every execution and the in-order
     * checkpoint owner merges them once per grid boundary (the
     * timeline samples the merged summary). Null = hit-count
     * profiling off (zero overhead).
     */
    obs::CovMap *covmap = nullptr;
    /**
     * Optional campaign timeline recorder (obs/timeline.h, not owned;
     * must outlive the run). The in-order checkpoint owner hands it
     * one tick per grid boundary — campaign facts plus the covmap and
     * policy merged state — and it samples the metrics registry under
     * that serialization. Null = no metric history (zero overhead).
     */
    obs::TimelineRecorder *timeline = nullptr;
    /**
     * Execution backend for every worker executor. Bit-identical
     * either way (exec/backend.h); Reference exists for differential
     * runs and A/B throughput measurements.
     */
    exec::BackendKind exec_backend = exec::BackendKind::Fast;
};

/** Which mutation lane produced a program (telemetry attribution). */
enum class MutationLane {
    Seed,        ///< generated seed-corpus program
    Argument,    ///< localized argument mutation
    Structural,  ///< selector-driven insert/remove/random-arg lane
};

/** MutationLane as a dense array index. */
constexpr size_t kMutationLanes = 3;
constexpr size_t
laneIndex(MutationLane lane)
{
    return static_cast<size_t>(lane);
}

/** One coverage checkpoint. */
struct Checkpoint
{
    uint64_t execs = 0;
    size_t edges = 0;
    size_t blocks = 0;
    size_t crashes = 0;
};

/** Per-lane production/admission totals of one campaign. */
struct LaneCounts
{
    uint64_t produced = 0;
    uint64_t admitted = 0;
};

/** Outcome of one fuzzing campaign. */
struct FuzzReport
{
    std::vector<Checkpoint> timeline;
    size_t final_edges = 0;
    size_t final_blocks = 0;
    uint64_t execs = 0;
    size_t corpus_size = 0;
    /** Unique (deduplicated) crashes at budget end. */
    size_t final_crashes = 0;
    /** Mutants produced/admitted per lane, indexed by laneIndex(). */
    std::array<LaneCounts, kMutationLanes> lanes{};

    const LaneCounts &
    lane(MutationLane which) const
    {
        return lanes[laneIndex(which)];
    }
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_FUZZER_H
