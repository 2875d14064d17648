#include "obs/timeline.h"

#include <algorithm>

#include "obs/covmap.h"
#include "util/json.h"
#include "util/logging.h"

namespace sp::obs {

namespace {

/** Registry handles for the timeline metrics (looked up once). */
struct TimelineMetrics
{
    Counter &samples;
    Gauge &ring_size;
    Histogram &sample_us;

    static TimelineMetrics &
    get()
    {
        auto &reg = Registry::global();
        static TimelineMetrics metrics{
            reg.counter("timeline.samples"),
            reg.gauge("timeline.ring_size"),
            reg.histogram("timeline.sample_us"),
        };
        return metrics;
    }
};

/** `"execs":..,"edges":..` — the tick's core campaign facts. */
void
appendTickCore(std::string &out, const TimelineTick &tick)
{
    out += "\"execs\":";
    out += std::to_string(tick.execs);
    out += ",\"edges\":";
    out += std::to_string(tick.edges);
    out += ",\"blocks\":";
    out += std::to_string(tick.blocks);
    out += ",\"crashes\":";
    out += std::to_string(tick.crashes);
    out += ",\"corpus\":";
    out += std::to_string(tick.corpus_size);
}

/** `,"cov":{..}` when the tick carries a covmap summary. */
void
appendCov(std::string &out, const TimelineTick &tick)
{
    if (!tick.have_cov)
        return;
    out += ",\"cov\":{\"blocks_hit\":";
    out += std::to_string(tick.cov_blocks_hit);
    out += ",\"edges_hit\":";
    out += std::to_string(tick.cov_edges_hit);
    out += ",\"total_block_hits\":";
    out += std::to_string(tick.cov_total_block_hits);
    out += ",\"frontier_size\":";
    out += std::to_string(tick.cov_frontier_size);
    out += ",\"stray_edges\":";
    out += std::to_string(tick.cov_stray_edges);
    out += '}';
}

}  // namespace

TimelineRecorder::TimelineRecorder(TimelineOptions opts)
    : opts_(opts),
      registry_(opts.registry != nullptr ? *opts.registry
                                         : Registry::global())
{
}

TimelineRecorder::~TimelineRecorder()
{
    if (log_ != nullptr)
        std::fclose(log_);
}

bool
TimelineRecorder::openLog(const std::string &path,
                          const std::string &extra_header_json)
{
    std::lock_guard<std::mutex> lock(mu_);
    SP_ASSERT(log_ == nullptr, "timeline log already open");
    log_ = std::fopen(path.c_str(), "w");
    if (log_ == nullptr)
        return false;

    std::string header;
    header.reserve(128);
    header += "{\"type\":\"timeline_header\",\"version\":";
    header += std::to_string(kFormatVersion);
    header += ",\"ring_capacity\":";
    header += std::to_string(opts_.ring_capacity);
    header += ",\"timing\":";
    header += timingEnabled() ? "true" : "false";
    if (!extra_header_json.empty()) {
        header += ',';
        header += extra_header_json;
    }
    header += "}\n";
    std::fwrite(header.data(), 1, header.size(), log_);
    return true;
}

void
TimelineRecorder::sampleRegistry(TimelineSample &sample) const
{
    registry_.visit(
        [&sample](const std::string &name, const Counter &counter) {
            const uint64_t v = counter.value();
            if (v != 0)
                sample.counters[name] = v;
        },
        [&sample](const std::string &name, const Gauge &gauge) {
            const double v = gauge.value();
            if (v != 0.0)
                sample.gauges[name] = v;
        },
        [&sample](const std::string &name, const Histogram &hist) {
            const RunningStat stat = hist.stat();
            if (stat.count() == 0)
                return;
            TimelineHist h;
            h.count = stat.count();
            h.mean = stat.mean();
            h.min = stat.min();
            h.max = stat.max();
            sample.hists[name] = h;
        });
}

void
TimelineRecorder::writeSampleLine(const TimelineSample &sample)
{
    // Delta state updates even with no log open so the encoding is
    // independent of whether anyone is watching.
    std::string line;
    line.reserve(512);
    line += "{\"type\":\"timeline_sample\",";
    appendTickCore(line, sample.tick);
    appendCov(line, sample.tick);

    if (sample.tick.have_policy) {
        line += ",\"policy\":{\"name\":";
        line += json::quote(sample.tick.policy_name);
        line += ",\"pmm_share\":";
        line += json::number(sample.tick.pmm_share);
        line += ",\"arms\":[";
        bool first = true;
        for (const TimelineArm &arm : sample.tick.arms) {
            const auto it = last_arms_.find(arm.arm);
            const uint64_t dp =
                arm.pulls - (it == last_arms_.end() ? 0 : it->second.pulls);
            const uint64_t dw =
                arm.wins - (it == last_arms_.end() ? 0 : it->second.wins);
            if (dp == 0 && dw == 0)
                continue;
            if (!first)
                line += ',';
            first = false;
            line += '[';
            line += std::to_string(arm.arm);
            line += ',';
            line += std::to_string(dp);
            line += ',';
            line += std::to_string(dw);
            line += ']';
        }
        line += "]}";
        last_arms_.clear();
        for (const TimelineArm &arm : sample.tick.arms)
            last_arms_[arm.arm] = arm;
    }

    line += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : sample.counters) {
        const auto it = last_counters_.find(name);
        const uint64_t prev = it == last_counters_.end() ? 0 : it->second;
        const uint64_t delta = value >= prev ? value - prev : value;
        if (delta == 0)
            continue;
        line += (first ? "" : ",");
        line += json::quote(name);
        line += ':';
        line += std::to_string(delta);
        first = false;
    }
    line += "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : sample.gauges) {
        const auto it = last_gauges_.find(name);
        const double prev = it == last_gauges_.end() ? 0.0 : it->second;
        if (value == prev)
            continue;
        line += (first ? "" : ",");
        line += json::quote(name);
        line += ':';
        line += json::number(value);
        first = false;
    }
    line += "},\"hists\":{";
    first = true;
    for (const auto &[name, hist] : sample.hists) {
        const auto it = last_hist_counts_.find(name);
        const uint64_t prev =
            it == last_hist_counts_.end() ? 0 : it->second;
        const uint64_t delta =
            hist.count >= prev ? hist.count - prev : hist.count;
        if (delta == 0)
            continue;
        line += (first ? "" : ",");
        line += json::quote(name);
        line += ":[";
        line += std::to_string(delta);
        line += ',';
        line += json::number(hist.mean);
        line += ',';
        line += json::number(hist.min);
        line += ',';
        line += json::number(hist.max);
        line += ']';
        first = false;
    }
    line += '}';
    if (sample.wall_us != 0) {
        line += ",\"wall_us\":";
        line += std::to_string(sample.wall_us);
    }
    line += "}\n";

    last_counters_ = sample.counters;
    last_gauges_ = sample.gauges;
    last_hist_counts_.clear();
    for (const auto &[name, hist] : sample.hists)
        last_hist_counts_[name] = hist.count;

    if (log_ != nullptr)
        std::fwrite(line.data(), 1, line.size(), log_);
}

void
TimelineRecorder::pushLocked(TimelineSample sample)
{
    ring_.push_back(std::move(sample));
    while (opts_.ring_capacity > 0 && ring_.size() > opts_.ring_capacity)
        ring_.pop_front();
    ++total_samples_;
    TimelineMetrics::get().ring_size.set(
        static_cast<double>(ring_.size()));
}

void
TimelineRecorder::onCheckpoint(const TimelineTick &tick)
{
    const bool timed = timingEnabled();
    const uint64_t start_us = timed ? monotonicMicros() : 0;

    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    TimelineMetrics::get().samples.inc();
    TimelineSample sample;
    sample.tick = tick;
    sampleRegistry(sample);
    if (timed) {
        sample.wall_us = monotonicMicros() - start_us;
        TimelineMetrics::get().sample_us.record(
            static_cast<double>(sample.wall_us));
    }
    writeSampleLine(sample);
    pushLocked(std::move(sample));
}

void
TimelineRecorder::finalize(const TimelineTick &tick,
                           const CovMap *cov_map)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    finalized_ = true;

    TimelineMetrics::get().samples.inc();
    TimelineSample sample;
    sample.tick = tick;
    sampleRegistry(sample);
    pushLocked(sample);

    if (log_ == nullptr)
        return;

    // The final record is self-contained (cumulative, not deltas) and
    // is where the one full percentile pass runs. End-of-campaign
    // gauges are deliberately absent: the wall-clock-derived ones
    // (execs/sec, busy ratios) are machine state, not campaign state,
    // and everything deterministic is already in the tick sections.
    std::string line;
    line.reserve(1024);
    line += "{\"type\":\"timeline_final\",";
    appendTickCore(line, sample.tick);
    line += ",\"samples\":";
    line += std::to_string(total_samples_);
    appendCov(line, sample.tick);
    if (sample.tick.have_policy) {
        line += ",\"policy\":{\"name\":";
        line += json::quote(sample.tick.policy_name);
        line += ",\"pmm_share\":";
        line += json::number(sample.tick.pmm_share);
        line += ",\"arms\":[";
        for (size_t i = 0; i < sample.tick.arms.size(); ++i) {
            const TimelineArm &arm = sample.tick.arms[i];
            if (i != 0)
                line += ',';
            line += '[';
            line += std::to_string(arm.arm);
            line += ',';
            line += std::to_string(arm.pulls);
            line += ',';
            line += std::to_string(arm.wins);
            line += ']';
        }
        line += "]}";
    }
    line += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : sample.counters) {
        line += (first ? "" : ",");
        line += json::quote(name);
        line += ':';
        line += std::to_string(value);
        first = false;
    }
    line += "},\"hists\":{";
    first = true;
    registry_.visit(
        nullptr, nullptr,
        [&line, &first](const std::string &name,
                        const Histogram &hist) {
            const HistogramSnapshot snap = hist.snapshot();
            if (snap.stat.count() == 0)
                return;
            line += (first ? "" : ",");
            line += json::quote(name);
            line += ":{\"count\":";
            line += std::to_string(snap.stat.count());
            line += ",\"mean\":";
            line += json::number(snap.stat.mean());
            line += ",\"min\":";
            line += json::number(snap.stat.min());
            line += ",\"max\":";
            line += json::number(snap.stat.max());
            line += ",\"stddev\":";
            line += json::number(snap.stat.stddev());
            line += ",\"p50\":";
            line += json::number(snap.samples.percentile(50));
            line += ",\"p90\":";
            line += json::number(snap.samples.percentile(90));
            line += ",\"p99\":";
            line += json::number(snap.samples.percentile(99));
            line += '}';
            first = false;
        });
    line += '}';
    if (cov_map != nullptr) {
        line += ",\"cov_map\":";
        line += cov_map->mapJson();
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), log_);
    std::fclose(log_);
    log_ = nullptr;
}

size_t
TimelineRecorder::sampleCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(total_samples_);
}

std::vector<TimelineSample>
TimelineRecorder::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {ring_.begin(), ring_.end()};
}

std::string
TimelineRecorder::recentJson(size_t max_samples) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out.reserve(1024);
    out += "{\"enabled\":true,\"samples\":";
    out += std::to_string(total_samples_);
    out += ",\"ring_capacity\":";
    out += std::to_string(opts_.ring_capacity);
    out += ",\"window\":[";
    const size_t take = std::min(max_samples, ring_.size());
    for (size_t i = ring_.size() - take; i < ring_.size(); ++i) {
        const TimelineSample &sample = ring_[i];
        if (i != ring_.size() - take)
            out += ',';
        out += '{';
        appendTickCore(out, sample.tick);
        appendCov(out, sample.tick);
        if (sample.tick.have_policy) {
            out += ",\"policy\":{\"name\":";
            out += json::quote(sample.tick.policy_name);
            out += ",\"pmm_share\":";
            out += json::number(sample.tick.pmm_share);
            out += ",\"arms_active\":";
            out += std::to_string(sample.tick.arms.size());
            out += '}';
        }
        out += ",\"counters\":{";
        bool first = true;
        for (const auto &[name, value] : sample.counters) {
            out += (first ? "" : ",");
            out += json::quote(name);
            out += ':';
            out += std::to_string(value);
            first = false;
        }
        out += "},\"gauges\":{";
        first = true;
        for (const auto &[name, value] : sample.gauges) {
            out += (first ? "" : ",");
            out += json::quote(name);
            out += ':';
            out += json::number(value);
            first = false;
        }
        out += "},\"hists\":{";
        first = true;
        for (const auto &[name, hist] : sample.hists) {
            out += (first ? "" : ",");
            out += json::quote(name);
            out += ":[";
            out += std::to_string(hist.count);
            out += ',';
            out += json::number(hist.mean);
            out += ',';
            out += json::number(hist.min);
            out += ',';
            out += json::number(hist.max);
            out += ']';
            first = false;
        }
        out += '}';
        if (sample.wall_us != 0) {
            out += ",\"wall_us\":";
            out += std::to_string(sample.wall_us);
        }
        out += '}';
    }
    out += "]}";
    return out;
}

}  // namespace sp::obs
