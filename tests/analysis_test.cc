// Tests for the offline half of coverage cartography (src/analysis):
// the timeline round trip back into a CovProfile, the cov_map decoder's
// rejections, a bounded seeded mutation sweep over the one artifact
// reader (TimelineLog + CovProfile), heat-band percentiles, subsystem
// attribution, the analyze report JSON and its --directed-from target
// round trip, and the end-to-end acceptance property: cold-frontier
// targets mined from an undirected campaign steer Snowplow-D to blocks
// that campaign never reached.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/compare.h"
#include "analysis/frontier.h"
#include "analysis/report.h"
#include "core/directed.h"
#include "core/pmm.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "mutate/localizer.h"
#include "obs/timeline.h"
#include "util/json.h"
#include "util/rng.h"

namespace sp::analysis {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 6;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

std::string
tempPath(const char *tag)
{
    std::string path = std::string("/tmp/sp_analysis_") + tag + "_XXXXXX";
    std::vector<char> buf(path.begin(), path.end());
    buf.push_back('\0');
    const int fd = mkstemp(buf.data());
    EXPECT_GE(fd, 0);
    if (fd >= 0)
        ::close(fd);
    return buf.data();
}

/** Write `text` to `path`; returns `path` (for chaining a load). */
const std::string &
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f != nullptr) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Diamond CFG: 0->1->3->5, 0->2->3, 1->4 (4 stays unreached). */
obs::CovMapPlan
diamondPlan()
{
    return obs::CovMapPlan::build(
        6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 5}, {1, 4}});
}

/**
 * Record a timeline of `map` (two shards over diamondPlan()): two
 * checkpoints and the final record, with registry metrics, a policy
 * section, one stray transition and a spliced "kernel" header.
 * Returns the summary taken at each merge point.
 */
std::vector<obs::CovSummary>
recordDiamondTimeline(const std::string &path, obs::CovMap &map)
{
    obs::Registry registry;  // keeps process metrics out of the file
    obs::TimelineOptions opts;
    opts.registry = &registry;
    obs::TimelineRecorder recorder(opts);
    EXPECT_TRUE(recorder.openLog(path, "\"kernel\":{\"seed\":6}"));
    std::vector<obs::CovSummary> merges;
    const auto tick = [&map, &merges] {
        merges.push_back(map.summary());
        fuzz::Checkpoint cp;
        cp.execs = merges.back().execs;
        obs::TimelineTick t =
            fuzz::makeTimelineTick(cp, merges.size(), &map, nullptr);
        t.have_policy = true;
        t.policy_name = "thompson";
        t.arms = {{0, 3 * merges.size(), 1}, {2, merges.size(), 0}};
        return t;
    };
    map.shard(0).recordTrace({0, 1, 3, 5});
    map.shard(1).recordTrace({0, 2, 3, 5});
    registry.counter("t.execs").inc(250);
    registry.histogram("t.lat_us").record(5.0);
    map.onCheckpoint(250);
    recorder.onCheckpoint(tick());
    map.shard(0).recordTrace({0, 1, 3, 5});
    map.shard(0).recordTrace({5, 0});  // one stray transition
    registry.counter("t.execs").inc(250);
    registry.gauge("t.depth").set(3.0);
    map.onCheckpoint(500);
    recorder.onCheckpoint(tick());
    map.shard(1).recordTrace({0, 1, 3, 5});
    map.finalize(600);
    recorder.finalize(tick(), &map);
    return merges;
}

TEST(CovProfile, LogRoundTripMatchesMergedMap)
{
    obs::CovMap map(diamondPlan(), /*workers=*/2);
    const std::string path = tempPath("roundtrip");
    const auto merges = recordDiamondTimeline(path, map);

    auto profile = CovProfile::load(path);
    ASSERT_TRUE(profile.ok()) << profile.error;
    EXPECT_EQ(profile.num_blocks, 6u);
    EXPECT_EQ(profile.edges, map.plan().edges);
    EXPECT_EQ(profile.execs, 600u);
    EXPECT_EQ(profile.stray_edges, 1u);
    EXPECT_EQ(profile.blocks_hit, map.summary().blocks_hit);
    EXPECT_EQ(profile.edges_hit, map.summary().edges_hit);

    // The map round-trips exactly: the profile equals the live map.
    EXPECT_EQ(profile.block_hits, map.mergedBlockHits());

    // Two checkpoints plus the finalize window, each equal to the
    // summary taken at that merge point.
    ASSERT_EQ(profile.windows.size(), merges.size());
    for (size_t i = 0, reached = 0; i < merges.size();
         reached = merges[i++].blocks_hit) {
        const WindowRecord expected{
            merges[i].execs, merges[i].blocks_hit - reached,
            merges[i].blocks_hit, merges[i].edges_hit,
            merges[i].frontier_size};
        EXPECT_EQ(profile.windows[i], expected) << i;
    }

    // The spliced campaign header survives the round trip.
    const json::Value *kernel_obj = profile.header.find("kernel");
    ASSERT_NE(kernel_obj, nullptr);
    const json::Value *seed = kernel_obj->find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_EQ(seed->asUint(), 6u);

    std::remove(path.c_str());
}

/** `timeline` with its final record's cov_map replaced by `map`
 *  ("" drops the key). */
std::string
withCovMap(const std::string &timeline, const std::string &map)
{
    const std::string head =
        timeline.substr(0, timeline.rfind(",\"cov_map\":"));
    return head + (map.empty() ? "" : ",\"cov_map\":" + map) + "}\n";
}

TEST(CovProfile, LoadReportsMissingAndMalformedFiles)
{
    EXPECT_FALSE(CovProfile::load("/nonexistent/timeline.jsonl").ok());

    obs::CovMap map(diamondPlan(), /*workers=*/2);
    const std::string path = tempPath("bad");
    recordDiamondTimeline(path, map);
    const std::string valid = readFile(path);
    const auto load = [&path](const std::string &text) {
        return CovProfile::load(writeFile(path, text));
    };
    EXPECT_FALSE(load("{\"type\":\"not_a_timeline\"}\n").ok());

    // A timeline recorded without a CovMap (bare recorders, fleet
    // coordinators, older builds) names the flag that records one.
    const auto bare = load(withCovMap(valid, ""));
    EXPECT_FALSE(bare.ok());
    EXPECT_NE(bare.error.find("--timeline-out"), std::string::npos)
        << bare.error;

    EXPECT_NE(load(withCovMap(valid, "[]")).error.find("missing"),
              std::string::npos);

    // {num_blocks, edges, block_hits, expected error}. Sizes are
    // refused before anything is sized from them (2^40 blocks would
    // be a bad_alloc, 2^64-1 a length_error).
    const char *const rejected[][4] = {
        {"1099511627776", "[]", "[]", "decoder bound"},
        {"18446744073709551615", "[]", "[]", "decoder bound"},
        {"4194305", "[]", "[]", "decoder bound"},
        {"6", "[]", "[[6,3]]", "block index out of range"},
        {"6", "[[0,6]]", "[]", "endpoint out of range"},
        {"6", "[[0]]", "[]", "malformed edge"},
        {"6", "[]", "[[1]]", "malformed block_hits pair"},
        {"6", "[]", "[[1,3,5]]", "malformed block_hits pair"},
        {"6", "[]", "[[-1,3]]", "malformed block_hits pair"},
        {"6", "[]", "[[1.5,3]]", "malformed block_hits pair"},
        {"6", "[]", "[[1,0]]", "malformed block_hits pair"},
        {"6", "[]", "[[1,1],[1,2]]", "not strictly ascending"},
        {"\"6\"", "[]", "[]", "malformed num_blocks"},
        {"6", "{}", "[]", "malformed num_blocks/edges"},
        // Well-formed, but not the map the final cov summary describes.
        {"6", "[]", "[[0,1]]", "disagrees"},
    };
    for (const auto &[blocks, edges, hits, needle] : rejected) {
        const std::string bad_map = std::string("{\"num_blocks\":") +
                                    blocks + ",\"edges\":" + edges +
                                    ",\"block_hits\":" + hits + "}";
        const auto bad = load(withCovMap(valid, bad_map));
        EXPECT_FALSE(bad.ok()) << bad_map;
        EXPECT_NE(bad.error.find(needle), std::string::npos)
            << bad_map << ": " << bad.error;
    }
    std::remove(path.c_str());
}

/** Compact JSON of `v` with exact uints only ("?" for any other
 *  scalar): what obs::covMapJson writes for the same tree. */
std::string
canonical(const json::Value &v)
{
    std::string out;
    if (v.isUint())
        return std::to_string(v.asUint());
    if (v.isArray()) {
        for (const json::Value &elem : v.array())
            out += (out.empty() ? "[" : ",") + canonical(elem);
        return (out.empty() ? "[" : out) + "]";
    }
    if (v.isObject()) {
        for (const auto &[name, member] : v.members()) {
            out += (out.empty() ? "{\"" : ",\"") + name + "\":" +
                   canonical(member);
        }
        return (out.empty() ? "{" : out) + "}";
    }
    return "?";
}

TEST(TimelineMutation, EveryInputDecodesExactlyOrFailsCleanly)
{
    // The one artifact reader (TimelineLog::load + CovProfile) over
    // every prefix of a valid timeline and a fixed number of seeded
    // byte and field mutations. Also runs in the ASan+UBSan tree, so
    // a hostile field that reaches an allocation, an out-of-bounds
    // index or an undefined conversion fails here.
    constexpr size_t kMutations = 3000;
    obs::CovMap map(diamondPlan(), /*workers=*/2);
    const std::string path = tempPath("mutation");
    recordDiamondTimeline(path, map);
    const std::string valid = readFile(path);
    const TimelineLog base_log = TimelineLog::load(path);
    const CovProfile base = CovProfile::load(path);
    ASSERT_TRUE(base.ok()) << base.error;
    ASSERT_EQ(valid.back(), '\n');

    // ok() must be an exact decoding: the writer re-encodes the
    // profile into exactly the input's cov_map.
    const auto check = [&path](const std::string &text,
                               const std::string &what) {
        const TimelineLog log = TimelineLog::load(writeFile(path, text));
        const CovProfile profile = CovProfile::load(path);
        EXPECT_TRUE(log.ok() || !log.error.empty()) << what;
        if (profile.ok()) {
            EXPECT_TRUE(log.ok()) << what;
            EXPECT_EQ(obs::covMapJson(profile.num_blocks, profile.edges,
                                      profile.block_hits),
                      canonical(log.cov_map))
                << what;
        }
        return std::make_pair(log, profile);
    };

    // Whole records read as a shorter campaign whose samples are the
    // baseline's; a cut inside a record (one that does not end on or
    // just before its newline) is a parse error; only the whole final
    // record carries the map.
    for (size_t n = 0; n < valid.size(); ++n) {
        const auto [log, profile] =
            check(valid.substr(0, n), "prefix " + std::to_string(n));
        const bool at_record_end =
            n == 0 || valid[n - 1] == '\n' || valid[n] == '\n';
        const auto records =
            std::count(valid.begin(), valid.begin() + n + 1, '\n');
        const bool whole = n + 1 == valid.size();
        EXPECT_EQ(log.ok(), at_record_end && records >= 2)
            << "prefix " << n << ": " << log.error;
        if (log.ok()) {
            ASSERT_LE(log.samples.size(), base_log.samples.size());
            EXPECT_TRUE(std::equal(log.samples.begin(),
                                   log.samples.end(),
                                   base_log.samples.begin()))
                << "prefix " << n;
            EXPECT_EQ(log.has_final, whole) << "prefix " << n;
        }
        EXPECT_EQ(profile.ok(), whole) << "prefix " << n;
        if (profile.ok()) {
            EXPECT_EQ(profile.block_hits, base.block_hits);
            EXPECT_EQ(profile.windows, base.windows);
        }
    }

    // [begin, end) of every number literal; the field mutations swap
    // one for a hostile literal, half of them inside the cov_map.
    std::vector<std::pair<size_t, size_t>> numbers;
    for (size_t i = 1; i < valid.size(); ++i) {
        if (std::string_view(":[,").find(valid[i - 1]) ==
                std::string_view::npos ||
            std::string_view("-0123456789").find(valid[i]) ==
                std::string_view::npos)
            continue;
        numbers.emplace_back(
            i, valid.find_first_not_of("0123456789.eE+-", i));
        i = numbers.back().second;
    }
    const size_t map_at = valid.rfind("\"cov_map\":");
    const std::string_view alphabet = "{}[],:\"0123456789-.eE \n";
    const char *const hostile[] = {
        "0", "1", "-1", "-0", "5", "6", "4294967296", "4194304",
        "4194305", "1099511627776", "18446744073709551615",
        "18446744073709551616", "1e30", "-1e30", "1e400", "1.5",
        "\"6\"", "null", "[]", "{}", "[1,2]"};
    Rng rng(0x5eed);
    size_t accepted = 0;
    for (size_t i = 0; i < kMutations; ++i) {
        std::string text = valid;
        if (i % 3 != 0) {
            const size_t pos = rng.below(text.size());
            const char c = rng.oneIn(4)
                               ? static_cast<char>(rng.below(256))
                               : alphabet[rng.below(alphabet.size())];
            switch (rng.below(3)) {
            case 0: text[pos] = c; break;
            case 1: text.erase(pos, 1); break;
            default: text.insert(pos, 1, c); break;
            }
        } else {
            size_t k = rng.below(numbers.size());
            while (i % 2 == 0 && numbers[k].first < map_at)
                k = rng.below(numbers.size());
            text.replace(numbers[k].first,
                         numbers[k].second - numbers[k].first,
                         hostile[rng.below(std::size(hostile))]);
        }
        accepted +=
            check(text, "mutation " + std::to_string(i)).second.ok();
    }
    // Mutations outside the map (metric values, ...) still load: the
    // sweep exercises both outcomes.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, kMutations);
    std::remove(path.c_str());
}

TEST(Heat, NearestRankThresholdsAndBands)
{
    // 10 reached blocks, hits 10..100: p10 -> 10, p90 -> 90.
    std::vector<uint64_t> hits;
    for (uint64_t h = 10; h <= 100; h += 10)
        hits.push_back(h);
    hits.push_back(0);  // unreached entries are excluded
    auto t = heatThresholds(hits);
    EXPECT_EQ(t.cold_max, 10u);
    EXPECT_EQ(t.hot_min, 90u);

    EXPECT_EQ(heatOf(0, t), Heat::Unreached);
    EXPECT_EQ(heatOf(10, t), Heat::Cold);
    EXPECT_EQ(heatOf(11, t), Heat::Warm);
    EXPECT_EQ(heatOf(89, t), Heat::Warm);
    EXPECT_EQ(heatOf(90, t), Heat::Hot);
    EXPECT_EQ(heatOf(300, t), Heat::Hot);

    EXPECT_STREQ(heatName(Heat::Unreached), "unreached");
    EXPECT_STREQ(heatName(Heat::Hot), "hot");

    // Degenerate cases: empty and uniform maps.
    auto empty = heatThresholds({0, 0});
    EXPECT_EQ(heatOf(0, empty), Heat::Unreached);
    auto uniform = heatThresholds({7, 7, 7});
    EXPECT_EQ(uniform.cold_max, 7u);
    EXPECT_EQ(uniform.hot_min, 7u);
    EXPECT_EQ(heatOf(7, uniform), Heat::Hot);  // hot wins ties
}

TEST(Subsystem, NamesFollowVariantRules)
{
    EXPECT_EQ(subsystemOfSyscall("ioctl$scsi"), "scsi");
    EXPECT_EQ(subsystemOfSyscall("sys3$open_res1"), "res1");
    EXPECT_EQ(subsystemOfSyscall("sys9$use_res1"), "res1");
    EXPECT_EQ(subsystemOfSyscall("sys4$close_res2"), "res2");
    EXPECT_EQ(subsystemOfSyscall("read"), "read");

    const auto &kernel = testKernel();
    const auto by_block = blockSubsystems(kernel);
    ASSERT_EQ(by_block.size(), kernel.blocks().size());
    for (const auto &name : by_block)
        EXPECT_FALSE(name.empty());
}

/** Run a short undirected campaign recording a timeline with its
 *  coverage map; returns the artifact path. */
std::string
runProfiledCampaign(uint64_t seed, uint64_t budget)
{
    const auto &kernel = testKernel();
    obs::CovMap map(obs::CovMapPlan::build(kernel.blocks().size(),
                                           kernel.staticEdges()),
                    /*workers=*/1);
    obs::TimelineRecorder recorder;
    const std::string path = tempPath("campaign");
    EXPECT_TRUE(recorder.openLog(path, "\"kernel\":{\"seed\":6}"));

    fuzz::CampaignOptions opts;
    opts.workers = 1;
    opts.fuzz.exec_budget = budget;
    opts.fuzz.seed = seed;
    opts.fuzz.seed_corpus_size = 20;
    opts.fuzz.checkpoint_every = 250;
    opts.fuzz.covmap = &map;
    opts.fuzz.timeline = &recorder;
    fuzz::CampaignEngine engine(kernel, opts, [](size_t) {
        return std::make_unique<mut::RandomLocalizer>();
    });
    auto report = engine.run();
    map.finalize(report.execs);
    fuzz::Checkpoint fin;
    fin.execs = report.execs;
    fin.edges = report.final_edges;
    fin.blocks = report.final_blocks;
    fin.crashes = report.final_crashes;
    recorder.finalize(fuzz::makeTimelineTick(fin, report.corpus_size,
                                             &map, engine.policy()),
                      &map);
    return path;
}

TEST(Report, JsonParsesAndTargetsRoundTrip)
{
    const std::string log_path = runProfiledCampaign(5, 1500);
    auto profile = CovProfile::load(log_path);
    ASSERT_TRUE(profile.ok()) << profile.error;

    const auto &kernel = testKernel();
    auto analysis = analyze(std::move(profile), &kernel,
                            /*target_cap=*/16);
    EXPECT_FALSE(analysis.targets.empty());
    EXPECT_FALSE(analysis.subsystems.empty());
    // Band counts partition the block set.
    size_t banded = 0;
    for (size_t count : analysis.band_counts)
        banded += count;
    EXPECT_EQ(banded, analysis.profile.num_blocks);

    const std::string json = reportJson(analysis, log_path);
    auto parsed = json::parse(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.find("type")->str(), "covmap_report");
    EXPECT_EQ(parsed.value.find("version")->asUint(), 1u);
    ASSERT_NE(parsed.value.find("targets"), nullptr);
    EXPECT_EQ(parsed.value.find("targets")->array().size(),
              analysis.targets.size());
    ASSERT_NE(parsed.value.find("heat"), nullptr);
    ASSERT_NE(parsed.value.find("subsystems"), nullptr);
    ASSERT_NE(parsed.value.find("timeline"), nullptr);

    // The human report mentions every subsystem group.
    const std::string text = reportText(analysis, log_path);
    EXPECT_NE(text.find(analysis.subsystems.front().name),
              std::string::npos);

    // reportJson -> loadTargets preserves the ranked block list.
    const std::string report_path = tempPath("report");
    std::FILE *f = std::fopen(report_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::string error;
    const auto targets = loadTargets(report_path, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(targets.size(), analysis.targets.size());
    for (size_t i = 0; i < targets.size(); ++i)
        EXPECT_EQ(targets[i], analysis.targets[i].target);

    std::remove(log_path.c_str());
    std::remove(report_path.c_str());
}

TEST(Report, LoadTargetsRejectsNonReports)
{
    std::string error;
    EXPECT_TRUE(loadTargets("/nonexistent/report.json", &error).empty());
    EXPECT_FALSE(error.empty());

    const std::string path = tempPath("notareport");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"something_else\"}", f);
    std::fclose(f);
    error.clear();
    EXPECT_TRUE(loadTargets(path, &error).empty());
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(DirectedFromFrontier, ReachesTargetsTheUndirectedRunMissed)
{
    // The acceptance property behind `fuzz --timeline-out` ->
    // `analyze` -> `fuzz --directed-from`: mine the cold frontier of
    // an undirected run, then let Snowplow-D chase those exact blocks.
    const std::string log_path = runProfiledCampaign(9, 1500);
    auto profile = CovProfile::load(log_path);
    ASSERT_TRUE(profile.ok()) << profile.error;
    std::remove(log_path.c_str());

    const auto &kernel = testKernel();
    auto analysis = analyze(std::move(profile), &kernel, 16);
    ASSERT_FALSE(analysis.targets.empty());

    std::vector<uint32_t> targets;
    for (const auto &t : analysis.targets) {
        // Frontier targets are unreached by construction.
        EXPECT_EQ(analysis.profile.block_hits[t.target], 0u);
        targets.push_back(t.target);
    }

    core::Pmm model;  // deterministic default-initialized weights
    core::DirectedOptions opts;
    opts.exec_budget = 20000;
    opts.seed = 13;
    auto result = core::runSnowplowD(kernel, model, targets, opts);
    EXPECT_GE(result.reached.size(), 1u);
    EXPECT_GT(result.execs_total, 0u);
    // Pinned: the exact outcome of this seeded run (any drift in the
    // directed loop changes the reached set or the stop slot).
    EXPECT_EQ(result.execs_total, 20000u);
    EXPECT_EQ(result.reached,
              (std::vector<uint32_t>{125, 129, 132, 251, 281, 282, 264,
                                     316, 214}));

    // Everything reported reached really is in the target set.
    std::unordered_set<uint32_t> wanted(targets.begin(), targets.end());
    for (uint32_t block : result.reached)
        EXPECT_EQ(wanted.count(block), 1u);
}

}  // namespace
}  // namespace sp::analysis
