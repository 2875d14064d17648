/**
 * @file
 * Offline coverage cartography: load the coverage map a campaign's
 * `--timeline-out` artifact carries (the final record's `cov_map`,
 * written by obs::CovMap::mapJson) into a profile, classify blocks into
 * hot / warm / cold / unreached heat bands, group them by kernel
 * subsystem, and derive the ranked cold-frontier target set that
 * `fuzz --directed-from` feeds into Snowplow-D.
 *
 * Heat bands are percentile-relative, not absolute: over the multiset
 * of *reached* block hit counts, cold = at or below the p10 hit count
 * and hot = at or above the p90 (ties included, so the bands are
 * deterministic for a given map). Frontier targets are a property of
 * the CFG geometry, not the bands: every unreached static successor of
 * a reached two-way branch, ranked by how often the campaign hit the
 * guarding block without ever crossing (obs::computeFrontier — the
 * same function the live /coverage summary uses, so online and offline
 * rankings agree).
 *
 * Subsystems come from syscall names: the owning handler's name up to
 * the '$' variant separator ("ioctl$scsi" → "ioctl" family is *not*
 * the interesting axis here — the variant suffix names the subsystem,
 * so "scsi"), with the generated kernels' role prefixes
 * (open_/use_/close_) stripped: "sys3$open_res1" and "sys9$use_res1"
 * are both subsystem "res1".
 */
#ifndef SP_ANALYSIS_FRONTIER_H
#define SP_ANALYSIS_FRONTIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "obs/covmap.h"
#include "util/json.h"

namespace sp::analysis {

/** One coverage window: a timeline sample's `cov` section (the final
 *  record's closes the series). */
struct WindowRecord
{
    uint64_t execs = 0;
    size_t new_blocks = 0;     ///< blocks first reached in the window
    size_t blocks_hit = 0;     ///< cumulative at window end
    size_t edges_hit = 0;
    size_t frontier_size = 0;

    bool operator==(const WindowRecord &) const = default;
};

/** A campaign's final merged block-hit map plus its window series. */
struct CovProfile
{
    /**
     * Decoder bound on `cov_map.num_blocks`, checked before anything is
     * sized from it: 4 Mi blocks caps one profile at 32 MiB of hit
     * counters (plus the plan's successor tables), the way the fleet
     * wire's 64 MiB payload bound caps a frame (the canonical
     * `--seed 5` campaign's kernel has 465 blocks).
     */
    static constexpr uint64_t kMaxBlocks = uint64_t{1} << 22;

    size_t num_blocks = 0;
    /** Static edges in the writer's dense order. */
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    /** Final cumulative hit count per block. */
    std::vector<uint64_t> block_hits;
    size_t blocks_hit = 0;      ///< final `cov.blocks_hit`
    size_t edges_hit = 0;       ///< final `cov.edges_hit`
    uint64_t stray_edges = 0;   ///< final `cov.stray_edges`
    uint64_t execs = 0;
    std::vector<WindowRecord> windows;
    /** The parsed timeline_header line (campaign fields like "kernel"
     *  spliced in by the writer stay reachable through find()). */
    json::Value header;

    std::string error;  ///< empty = loaded successfully
    bool ok() const { return error.empty(); }

    /**
     * Load a `--timeline-out` artifact through analysis::TimelineLog.
     * Fails (with `error` saying why) when the artifact has no
     * `cov_map` (recorded without a CovMap), when the map is malformed
     * or out of bounds, or when it disagrees with the final `cov`
     * summary.
     */
    static CovProfile load(const std::string &path);

    /** The plan implied by the map (for frontier computation). */
    obs::CovMapPlan plan() const
    {
        return obs::CovMapPlan::build(num_blocks, edges);
    }
};

/** Heat band of one block. */
enum class Heat { Unreached, Cold, Warm, Hot };

const char *heatName(Heat heat);

/** Percentile-derived band boundaries over reached-block hit counts. */
struct HeatThresholds
{
    uint64_t cold_max = 0;  ///< reached && hits <= cold_max → Cold
    uint64_t hot_min = 0;   ///< hits >= hot_min → Hot
};

/** p10/p90 boundaries over the *reached* entries of `block_hits`.
 *  With no reached blocks both thresholds are 0. */
HeatThresholds heatThresholds(const std::vector<uint64_t> &block_hits);

/** Band of a single block's hit count under `t`. */
Heat heatOf(uint64_t hits, const HeatThresholds &t);

/** One ranked cold-frontier target with its kernel attribution. */
struct FrontierTarget
{
    uint32_t target = 0;      ///< unreached successor block
    uint32_t guard = 0;       ///< reached branch block guarding it
    uint64_t guard_hits = 0;
    std::string subsystem;    ///< "" when no kernel was supplied
    bool bug_site = false;    ///< target is a planted bug block
};

/**
 * The ranked cold-frontier target set of a profile. `kernel`, when
 * non-null, attributes each target to its subsystem and flags planted
 * bug sites; it must be the kernel the campaign ran (same seed /
 * version), or attribution is meaningless. `cap` > 0 truncates.
 */
std::vector<FrontierTarget> frontierTargets(const CovProfile &profile,
                                            const kern::Kernel *kernel,
                                            size_t cap = 0);

/** Subsystem of a syscall name (see file comment for the rules). */
std::string subsystemOfSyscall(const std::string &syscall_name);

/** Per-block subsystem names via each block's owning handler. */
std::vector<std::string> blockSubsystems(const kern::Kernel &kernel);

/** Aggregated heat of one subsystem's blocks. */
struct SubsystemHeat
{
    std::string name;
    size_t blocks = 0;     ///< blocks owned by the subsystem
    size_t reached = 0;
    size_t hot = 0;
    size_t cold = 0;
    size_t frontier = 0;   ///< frontier targets inside the subsystem
    uint64_t total_hits = 0;
};

/**
 * Group a profile's blocks by subsystem and fold heat bands + frontier
 * membership. Sorted by total hits descending, name ascending (the
 * heat-report order).
 */
std::vector<SubsystemHeat> subsystemHeat(
    const CovProfile &profile, const kern::Kernel &kernel,
    const HeatThresholds &thresholds,
    const std::vector<FrontierTarget> &targets);

}  // namespace sp::analysis

#endif  // SP_ANALYSIS_FRONTIER_H
