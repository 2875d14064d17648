#include "analysis/frontier.h"

#include <algorithm>
#include <map>

#include "analysis/compare.h"

namespace sp::analysis {

namespace {

/** `[a, b]` of exact unsigned integers, or false. */
bool
readPair(const json::Value &pair, uint64_t *a, uint64_t *b)
{
    if (pair.array().size() != 2 || !pair.at(0)->isUint() ||
        !pair.at(1)->isUint())
        return false;
    *a = pair.at(0)->asUint();
    *b = pair.at(1)->asUint();
    return true;
}

/** Decode the final record's `cov_map` (obs::covMapJson) into
 *  `profile`; returns the error, or "" on success. */
std::string
decodeCovMap(const json::Value &map, CovProfile &profile)
{
    const json::Value *num_blocks = map.find("num_blocks");
    const json::Value *edges = map.find("edges");
    const json::Value *hits = map.find("block_hits");
    if (num_blocks == nullptr || !num_blocks->isUint() ||
        edges == nullptr || !edges->isArray() || hits == nullptr ||
        !hits->isArray())
        return "cov_map: missing or malformed num_blocks/edges/"
               "block_hits";
    const uint64_t n = num_blocks->asUint();
    if (n > CovProfile::kMaxBlocks) {
        return "cov_map: num_blocks " + std::to_string(n) +
               " exceeds the decoder bound of " +
               std::to_string(CovProfile::kMaxBlocks);
    }
    profile.num_blocks = static_cast<size_t>(n);
    for (const json::Value &edge : edges->array()) {
        uint64_t from = 0, to = 0;
        if (!readPair(edge, &from, &to))
            return "cov_map: malformed edge";
        if (from >= n || to >= n)
            return "cov_map: edge endpoint out of range";
        profile.edges.emplace_back(static_cast<uint32_t>(from),
                                   static_cast<uint32_t>(to));
    }
    // Ascending non-zero pairs are the one encoding the writer emits,
    // so an accepted map re-encodes to exactly its input.
    profile.block_hits.assign(profile.num_blocks, 0);
    uint64_t next = 0;
    for (const json::Value &pair : hits->array()) {
        uint64_t block = 0, count = 0;
        if (!readPair(pair, &block, &count) || count == 0)
            return "cov_map: malformed block_hits pair";
        if (block >= n)
            return "cov_map: block index out of range";
        if (block < next)
            return "cov_map: block_hits not strictly ascending";
        profile.block_hits[block] = count;
        next = block + 1;
    }
    return "";
}

}  // namespace

CovProfile
CovProfile::load(const std::string &path)
{
    CovProfile profile;
    const TimelineLog log = TimelineLog::load(path);
    profile.error = log.error;
    if (profile.ok() && log.cov_map.isNull()) {
        profile.error = path + ": no cov_map in the timeline's final "
                               "record; re-record the campaign with "
                               "`fuzz --timeline-out`";
    }
    if (profile.ok())
        profile.error = decodeCovMap(log.cov_map, profile);
    if (profile.ok() && log.final_samples != log.samples.size() + 1)
        profile.error = "final sample count disagrees with the grid";
    if (!profile.ok())
        return profile;

    // Windows: every grid sample's cov section, then the final one.
    std::vector<const TimelineLogSample *> series;
    for (const TimelineLogSample &sample : log.samples)
        series.push_back(&sample);
    series.push_back(&log.final_state);
    size_t reached = 0;
    for (const TimelineLogSample *sample : series) {
        if (!sample->have_cov || sample->cov_blocks_hit < reached) {
            profile.error = "missing or shrinking cov window at execs " +
                            std::to_string(sample->execs);
            return profile;
        }
        profile.windows.push_back(
            {sample->execs, sample->cov_blocks_hit - reached,
             sample->cov_blocks_hit, sample->cov_edges_hit,
             sample->cov_frontier_size});
        reached = sample->cov_blocks_hit;
    }

    // The map must be the one the final summary describes.
    const TimelineLogSample &fin = log.final_state;
    size_t blocks_hit = 0;
    uint64_t total = 0;
    bool overflow = false;
    for (const uint64_t hits : profile.block_hits) {
        blocks_hit += hits != 0;
        overflow |= __builtin_add_overflow(total, hits, &total);
    }
    if (overflow || blocks_hit != fin.cov_blocks_hit ||
        total != fin.cov_total_block_hits) {
        profile.error = "cov_map disagrees with the final cov summary";
        return profile;
    }
    profile.blocks_hit = blocks_hit;
    profile.edges_hit = fin.cov_edges_hit;
    profile.stray_edges = fin.cov_stray_edges;
    profile.execs = fin.execs;
    profile.header = log.header;
    return profile;
}

const char *
heatName(Heat heat)
{
    switch (heat) {
    case Heat::Unreached: return "unreached";
    case Heat::Cold: return "cold";
    case Heat::Warm: return "warm";
    case Heat::Hot: return "hot";
    }
    return "?";
}

HeatThresholds
heatThresholds(const std::vector<uint64_t> &block_hits)
{
    std::vector<uint64_t> reached;
    reached.reserve(block_hits.size());
    for (const uint64_t hits : block_hits) {
        if (hits != 0)
            reached.push_back(hits);
    }
    HeatThresholds t;
    if (reached.empty())
        return t;
    std::sort(reached.begin(), reached.end());
    // Nearest-rank percentiles: the smallest hit count with at least
    // 10% (90%) of reached blocks at or below it. Band membership is
    // inclusive, so every p10-tied block is cold and every p90-tied
    // block is hot — deterministic under re-sorting.
    const size_t n = reached.size();
    const size_t p10 = (n * 10 + 99) / 100;  // ceil(n * 0.10)
    const size_t p90 = (n * 90 + 99) / 100;  // ceil(n * 0.90)
    t.cold_max = reached[p10 == 0 ? 0 : p10 - 1];
    t.hot_min = reached[p90 == 0 ? 0 : p90 - 1];
    return t;
}

Heat
heatOf(uint64_t hits, const HeatThresholds &t)
{
    if (hits == 0)
        return Heat::Unreached;
    if (hits >= t.hot_min)
        return Heat::Hot;
    if (hits <= t.cold_max)
        return Heat::Cold;
    return Heat::Warm;
}

std::vector<FrontierTarget>
frontierTargets(const CovProfile &profile, const kern::Kernel *kernel,
                size_t cap)
{
    const obs::CovMapPlan plan = profile.plan();
    const auto entries =
        obs::computeFrontier(plan, profile.block_hits, cap);

    std::vector<std::string> subsystems;
    if (kernel != nullptr)
        subsystems = blockSubsystems(*kernel);

    std::vector<FrontierTarget> targets;
    targets.reserve(entries.size());
    for (const obs::FrontierEntry &entry : entries) {
        FrontierTarget target;
        target.target = entry.target;
        target.guard = entry.guard;
        target.guard_hits = entry.guard_hits;
        if (kernel != nullptr) {
            if (entry.target < subsystems.size())
                target.subsystem = subsystems[entry.target];
            target.bug_site = kernel->bugAt(entry.target) != nullptr;
        }
        targets.push_back(std::move(target));
    }
    return targets;
}

std::string
subsystemOfSyscall(const std::string &syscall_name)
{
    const size_t dollar = syscall_name.find('$');
    if (dollar == std::string::npos)
        return syscall_name;
    std::string variant = syscall_name.substr(dollar + 1);
    for (const char *prefix : {"open_", "use_", "close_"}) {
        const size_t len = std::string(prefix).size();
        if (variant.compare(0, len, prefix) == 0)
            return variant.substr(len);
    }
    return variant;
}

std::vector<std::string>
blockSubsystems(const kern::Kernel &kernel)
{
    // Handler id -> subsystem, then blocks via their owning handler.
    std::vector<std::string> by_handler;
    by_handler.reserve(kernel.table().decls.size());
    for (const auto &decl : kernel.table().decls)
        by_handler.push_back(subsystemOfSyscall(decl.name));

    std::vector<std::string> by_block(kernel.blocks().size());
    for (size_t b = 0; b < kernel.blocks().size(); ++b) {
        const uint32_t handler = kernel.blocks()[b].handler;
        by_block[b] = handler < by_handler.size()
                          ? by_handler[handler]
                          : "interrupt";
    }
    return by_block;
}

std::vector<SubsystemHeat>
subsystemHeat(const CovProfile &profile, const kern::Kernel &kernel,
              const HeatThresholds &thresholds,
              const std::vector<FrontierTarget> &targets)
{
    const auto by_block = blockSubsystems(kernel);
    std::map<std::string, SubsystemHeat> groups;
    const size_t limit =
        std::min(profile.block_hits.size(), by_block.size());
    for (size_t b = 0; b < limit; ++b) {
        SubsystemHeat &group = groups[by_block[b]];
        group.name = by_block[b];
        ++group.blocks;
        const uint64_t hits = profile.block_hits[b];
        group.total_hits += hits;
        switch (heatOf(hits, thresholds)) {
        case Heat::Unreached: break;
        case Heat::Cold:
            ++group.reached;
            ++group.cold;
            break;
        case Heat::Warm: ++group.reached; break;
        case Heat::Hot:
            ++group.reached;
            ++group.hot;
            break;
        }
    }
    for (const FrontierTarget &target : targets) {
        if (target.target >= by_block.size())
            continue;
        SubsystemHeat &group = groups[by_block[target.target]];
        group.name = by_block[target.target];
        ++group.frontier;
    }

    std::vector<SubsystemHeat> out;
    out.reserve(groups.size());
    for (auto &[name, group] : groups)
        out.push_back(std::move(group));
    std::sort(out.begin(), out.end(),
              [](const SubsystemHeat &a, const SubsystemHeat &b) {
                  if (a.total_hits != b.total_hits)
                      return a.total_hits > b.total_hits;
                  return a.name < b.name;
              });
    return out;
}

}  // namespace sp::analysis
