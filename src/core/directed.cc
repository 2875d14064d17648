#include "core/directed.h"

#include <algorithm>
#include <deque>

#include "util/logging.h"

namespace sp::core {

std::vector<uint32_t>
distanceToBlock(const kern::Kernel &kernel, uint32_t target)
{
    return distanceToBlocks(kernel, {target});
}

std::vector<uint32_t>
distanceToBlocks(const kern::Kernel &kernel,
                 const std::vector<uint32_t> &targets)
{
    constexpr uint32_t kUnreachable = ~0u;
    std::vector<uint32_t> dist(kernel.blocks().size(), kUnreachable);
    SP_ASSERT(!targets.empty());

    // Predecessor lists from the static CFG.
    std::vector<std::vector<uint32_t>> preds(kernel.blocks().size());
    for (auto [from, to] : kernel.staticEdges())
        preds[to].push_back(from);

    // Multi-source BFS: every target seeds the queue at distance 0,
    // so dist[b] is the distance to the nearest target.
    std::deque<uint32_t> queue;
    for (const uint32_t target : targets) {
        SP_ASSERT(target < kernel.blocks().size());
        if (dist[target] != 0) {
            dist[target] = 0;
            queue.push_back(target);
        }
    }
    while (!queue.empty()) {
        const uint32_t block = queue.front();
        queue.pop_front();
        for (uint32_t pred : preds[block]) {
            if (dist[pred] == kUnreachable) {
                dist[pred] = dist[block] + 1;
                queue.push_back(pred);
            }
        }
    }
    return dist;
}

/** The distance-guided base pick on the campaign scheduler seam. */
class DistanceScheduler : public fuzz::Scheduler
{
  public:
    explicit DistanceScheduler(std::vector<uint32_t> distances)
        : distances_(std::move(distances))
    {
    }

    const fuzz::CorpusEntry &
    pick(const fuzz::Corpus &corpus, Rng &rng) override
    {
        // Snapshot the size once: concurrent workers may grow the
        // corpus mid-loop, and both the weight vector and the final
        // index must stay inside one consistent bound. Entries are
        // never removed, so indices below `n` remain valid; the
        // shard-major index→entry mapping may shift under concurrent
        // admissions (a documented momentary-handle caveat), which
        // only perturbs which frontier entry a weight lands on.
        const size_t n = corpus.size();
        SP_ASSERT(n > 0);
        std::vector<double> weights(n);
        for (size_t i = 0; i < n; ++i) {
            uint32_t best = ~0u;
            for (uint32_t block :
                 corpus.entry(i).result.coverage.blocks()) {
                if (block < distances_.size())
                    best = std::min(best, distances_[block]);
            }
            // Entries at the frontier of the target dominate; entries
            // that cannot reach it at all keep a small exploration mass.
            weights[i] = best == ~0u
                             ? 0.05
                             : 1.0 / (1.0 + static_cast<double>(best) *
                                                static_cast<double>(best));
        }
        return corpus.entry(rng.weightedIndex(weights));
    }

  private:
    const std::vector<uint32_t> distances_;
};

namespace {

/**
 * One directed campaign toward `targets`: the distance scheduler steers
 * by nearest-target distance and the run stops once every target is
 * covered or the budget ends.
 */
MultiDirectedResult
runDirected(const kern::Kernel &kernel, const DirectedOptions &opts,
            const std::vector<uint32_t> &targets,
            fuzz::CampaignEngine::LocalizerFactory make_localizer)
{
    fuzz::CampaignOptions campaign_opts;
    campaign_opts.fuzz = opts.fuzz;
    campaign_opts.fuzz.exec_budget = opts.exec_budget;
    campaign_opts.fuzz.seed = opts.seed;
    campaign_opts.fuzz.scheduler = makeDistanceScheduler(kernel, targets);

    fuzz::CampaignEngine engine(kernel, std::move(campaign_opts),
                                std::move(make_localizer));
    auto covered = [&engine](uint32_t block) {
        return engine.corpus().totalCoverage().containsBlock(block);
    };
    const auto report = engine.run([&targets, &covered] {
        return std::all_of(targets.begin(), targets.end(), covered);
    });

    MultiDirectedResult result;
    result.execs_total = report.execs;
    for (const uint32_t target : targets) {
        if (covered(target))
            result.reached.push_back(target);
    }
    return result;
}

DirectedResult
singleTarget(const MultiDirectedResult &multi)
{
    DirectedResult result;
    result.reached = !multi.reached.empty();
    result.execs_total = multi.execs_total;
    result.execs_to_reach = result.reached ? multi.execs_total : 0;
    return result;
}

}  // namespace

std::shared_ptr<fuzz::Scheduler>
makeDistanceScheduler(const kern::Kernel &kernel,
                      const std::vector<uint32_t> &targets)
{
    return std::make_shared<DistanceScheduler>(
        distanceToBlocks(kernel, targets));
}

DirectedResult
runSyzDirect(const kern::Kernel &kernel, const DirectedOptions &opts)
{
    return singleTarget(runDirected(
        kernel, opts, {opts.target_block},
        [](size_t) -> std::unique_ptr<mut::Localizer> {
            return std::make_unique<mut::RandomLocalizer>();
        }));
}

DirectedResult
runSnowplowD(const kern::Kernel &kernel, const Pmm &model,
             const DirectedOptions &opts)
{
    return singleTarget(
        runSnowplowD(kernel, model, {opts.target_block}, opts));
}

MultiDirectedResult
runSnowplowD(const kern::Kernel &kernel, const Pmm &model,
             const std::vector<uint32_t> &targets,
             const DirectedOptions &opts)
{
    SP_ASSERT(!targets.empty());
    SnowplowOptions snowplow_opts;
    snowplow_opts.directed_targets = targets;
    return runDirected(
        kernel, opts, targets,
        [&kernel, &model, snowplow_opts](
            size_t) -> std::unique_ptr<mut::Localizer> {
            return std::make_unique<PmmLocalizer>(kernel, model,
                                                  snowplow_opts);
        });
}

}  // namespace sp::core
