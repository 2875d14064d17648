// Reproduces paper Figure 6 (a–d): edge coverage of Snowplow vs
// Syzkaller over a 24-virtual-hour fuzzing budget on kernels 6.8
// (the training kernel), 6.9 and 6.10 (unseen, evolved kernels),
// repeated over several seeds.
//
// Prints, per kernel: the min/mean/max coverage band at each
// checkpoint for both systems, the coverage improvement at budget end
// (paper: +7.0% / +8.6% / +7.7%), the time-to-parity speedup (paper:
// 5.2x / >4.8x), whether the bands overlap after the early phase
// (paper: they do not), and the band widths (paper: Snowplow's band is
// narrower).
//
// Expected shape: Snowplow reaches Syzkaller's final coverage several
// times faster and ends meaningfully higher on all three kernels,
// including the ones it was not trained on.

// Run with an argument — `fig6_coverage out.jsonl` — to additionally
// write every (kernel, system, seed, checkpoint) point as one JSON
// line, so the figure's curves can be regenerated from that file
// instead of scraping stdout.
//
// `--workers N` runs every campaign on the multi-worker engine (the
// checkpoint grid, and therefore the figure's x-axis, is identical at
// any worker count; N=1 reproduces the classic loop bit-for-bit).
//
// `--trace-out FILE.json` (optionally with `--trace-sample 1/64`)
// exports the campaigns' pipeline spans as Chrome/Perfetto trace_event
// JSON — handy for eyeballing where a figure run spends its time.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

constexpr int kSeeds = 5;

struct Band
{
    std::vector<uint64_t> execs;               // checkpoint grid
    std::vector<std::vector<size_t>> edges;    // [seed][checkpoint]

    double
    mean(size_t checkpoint) const
    {
        double total = 0.0;
        for (const auto &run : edges)
            total += static_cast<double>(run[checkpoint]);
        return total / static_cast<double>(edges.size());
    }

    size_t
    min(size_t checkpoint) const
    {
        size_t best = ~size_t{0};
        for (const auto &run : edges)
            best = std::min(best, run[checkpoint]);
        return best;
    }

    size_t
    max(size_t checkpoint) const
    {
        size_t best = 0;
        for (const auto &run : edges)
            best = std::max(best, run[checkpoint]);
        return best;
    }
};

/** One JSON line per checkpoint of `timeline` (no-op when `out` is
 *  null). */
void
writePoints(std::FILE *out, const char *version, const char *system,
            int seed, const std::vector<sp::fuzz::Checkpoint> &timeline)
{
    if (out == nullptr)
        return;
    const std::string kernel = sp::json::quote(version);
    for (const auto &cp : timeline) {
        std::fprintf(out,
                     "{\"kernel\":%s,\"system\":\"%s\",\"seed\":%d,"
                     "\"execs\":%llu,\"hours\":%s,\"edges\":%zu,"
                     "\"blocks\":%zu,\"crashes\":%zu}\n",
                     kernel.c_str(), system, seed,
                     static_cast<unsigned long long>(cp.execs),
                     sp::json::number(spbench::toHours(cp.execs)).c_str(),
                     cp.edges, cp.blocks, cp.crashes);
    }
}

Band
runCampaigns(const sp::kern::Kernel &kernel, const char *version,
             bool snowplow, uint64_t budget, size_t workers,
             std::FILE *points)
{
    Band band;
    for (int seed = 0; seed < kSeeds; ++seed) {
        sp::fuzz::CampaignOptions opts;
        opts.workers = workers;
        opts.fuzz = spbench::evalFuzzOptions(budget, 1000 + seed);
        auto engine =
            snowplow ? sp::core::makeSnowplowCampaign(
                           kernel, spbench::sharedPmm(), opts,
                           spbench::evalSnowplowOptions())
                     : sp::core::makeSyzkallerCampaign(kernel, opts);
        auto report = engine->run();
        std::vector<size_t> series;
        series.reserve(report.timeline.size());
        if (band.execs.empty()) {
            for (const auto &cp : report.timeline)
                band.execs.push_back(cp.execs);
        }
        for (const auto &cp : report.timeline)
            series.push_back(cp.edges);
        writePoints(points, version, snowplow ? "snowplow" : "syzkaller",
                    seed, report.timeline);
        series.resize(band.execs.size(),
                      series.empty() ? 0 : series.back());
        band.edges.push_back(std::move(series));
        std::fprintf(stderr, "[fig6] %s seed %d: %zu edges\n",
                     snowplow ? "snowplow" : "syzkaller", seed,
                     band.edges.back().back());
    }
    return band;
}

}  // namespace

int
main(int argc, char **argv)
{
    using namespace sp;
    size_t workers = 1;
    obs::TraceOptions trace_opts;
    bool tracing = false;
    std::FILE *points = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            workers = static_cast<size_t>(
                std::max(1L, std::atol(argv[++i])));
        } else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                   i + 1 < argc) {
            trace_opts.path = argv[++i];
            tracing = true;
        } else if (std::strcmp(argv[i], "--trace-sample") == 0 &&
                   i + 1 < argc) {
            const char *s = argv[++i];
            if (const char *slash = std::strchr(s, '/'))
                s = slash + 1;
            const long denom = std::atol(s);
            trace_opts.sample =
                denom <= 0 ? 1 : static_cast<uint32_t>(denom);
            tracing = true;
        } else {
            points = std::fopen(argv[i], "w");
            if (points == nullptr) {
                std::fprintf(stderr, "cannot open '%s'\n", argv[i]);
                return 1;
            }
        }
    }
    if (tracing)
        obs::installTracer(trace_opts);
    std::printf("=== Figure 6: edge coverage over 24 virtual hours, "
                "%d seeds ===\n", kSeeds);
    std::printf("(1 virtual hour = %llu executed tests",
                static_cast<unsigned long long>(spbench::kHourInExecs));
    if (workers > 1)
        std::printf("; %zu campaign workers", workers);
    std::printf(")\n\n");

    double improvements[3] = {};
    const char *versions[3] = {"6.8", "6.9", "6.10"};
    for (int v = 0; v < 3; ++v) {
        kern::Kernel kernel = spbench::makeEvalKernel(versions[v]);
        std::printf("--- kernel %s (%zu blocks)%s ---\n", versions[v],
                    kernel.blocks().size(),
                    v == 0 ? " [training kernel]" : " [unseen]");

        auto syz = runCampaigns(kernel, versions[v], false,
                                spbench::kDayInExecs, workers, points);
        auto snow = runCampaigns(kernel, versions[v], true,
                                 spbench::kDayInExecs, workers, points);

        // Series table every 2 virtual hours.
        std::printf("%6s | %27s | %27s\n", "hour",
                    "Syzkaller (min/mean/max)", "Snowplow (min/mean/max)");
        for (size_t c = 0; c < syz.execs.size(); ++c) {
            const double hour = spbench::toHours(syz.execs[c]);
            if (static_cast<uint64_t>(hour * 2) % 4 != 0)
                continue;
            std::printf("%6.1f | %8zu %8.0f %8zu | %8zu %8.0f %8zu\n",
                        hour, syz.min(c), syz.mean(c), syz.max(c),
                        snow.min(c), snow.mean(c), snow.max(c));
        }

        const size_t last = syz.execs.size() - 1;
        const double syz_final = syz.mean(last);
        const double snow_final = snow.mean(last);
        improvements[v] = 100.0 * (snow_final / syz_final - 1.0);

        // Time for Snowplow's mean to reach Syzkaller's 24h mean.
        double parity_hours = spbench::toHours(syz.execs[last]);
        for (size_t c = 0; c <= last; ++c) {
            if (snow.mean(c) >= syz_final) {
                parity_hours = spbench::toHours(snow.execs[c]);
                break;
            }
        }
        const double speedup =
            spbench::toHours(syz.execs[last]) / parity_hours;

        // Band overlap after hour 5 (paper: none).
        bool overlap_after_5h = false;
        for (size_t c = 0; c <= last; ++c) {
            if (spbench::toHours(syz.execs[c]) < 5.0)
                continue;
            overlap_after_5h |= (syz.max(c) >= snow.min(c));
        }
        const double syz_band =
            static_cast<double>(syz.max(last) - syz.min(last));
        const double snow_band =
            static_cast<double>(snow.max(last) - snow.min(last));

        std::printf("\n  final mean edges  : syzkaller %.0f, "
                    "snowplow %.0f (+%.1f%%)\n",
                    syz_final, snow_final, improvements[v]);
        std::printf("  time-to-parity    : %.1f h -> speedup %.1fx "
                    "(paper: 4.8x-5.2x)\n", parity_hours, speedup);
        std::printf("  bands overlap >5h : %s (paper: no)\n",
                    overlap_after_5h ? "yes" : "no");
        std::printf("  final band width  : syzkaller %.0f, snowplow "
                    "%.0f (paper: snowplow narrower)\n\n",
                    syz_band, snow_band);
    }

    std::printf("--- Figure 6d: coverage improvement at 24 h ---\n");
    for (int v = 0; v < 3; ++v) {
        std::printf("  kernel %-5s: +%.1f%%  (paper: %+0.1f%%)\n",
                    versions[v], improvements[v],
                    v == 0 ? 7.0 : (v == 1 ? 8.6 : 7.7));
    }
    if (tracing) {
        obs::shutdownTracer();
        if (!trace_opts.path.empty())
            std::printf("trace written to %s\n",
                        trace_opts.path.c_str());
    }
    if (points != nullptr)
        std::fclose(points);
    return 0;
}
