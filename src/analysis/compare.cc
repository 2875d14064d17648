#include "analysis/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/json.h"
#include "util/stats.h"

namespace sp::analysis {

namespace {

/** Fixed-format number for the verdict table. */
std::string
cell(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    }
    return buf;
}

/** Copy the tick-core + cov + policy facts of one record. */
void
readTickFacts(const json::Value &record, TimelineLogSample &sample)
{
    if (const json::Value *v = record.find("execs"))
        sample.execs = v->asUint();
    if (const json::Value *v = record.find("edges"))
        sample.edges = v->asUint();
    if (const json::Value *v = record.find("blocks"))
        sample.blocks = v->asUint();
    if (const json::Value *v = record.find("crashes"))
        sample.crashes = v->asUint();
    if (const json::Value *v = record.find("corpus"))
        sample.corpus = v->asUint();
    if (const json::Value *cov = record.find("cov")) {
        sample.have_cov = true;
        if (const json::Value *v = cov->find("blocks_hit"))
            sample.cov_blocks_hit = v->asUint();
        if (const json::Value *v = cov->find("edges_hit"))
            sample.cov_edges_hit = v->asUint();
        if (const json::Value *v = cov->find("total_block_hits"))
            sample.cov_total_block_hits = v->asUint();
        if (const json::Value *v = cov->find("frontier_size"))
            sample.cov_frontier_size = v->asUint();
        if (const json::Value *v = cov->find("stray_edges"))
            sample.cov_stray_edges = v->asUint();
    }
    if (const json::Value *policy = record.find("policy")) {
        sample.have_policy = true;
        if (const json::Value *v = policy->find("name"))
            sample.policy_name = v->str();
        if (const json::Value *v = policy->find("pmm_share"))
            sample.pmm_share = v->number();
    }
}

Verdict
ratioVerdict(double a, double b, double tol, bool higher_is_better)
{
    if (a <= 0.0 && b <= 0.0)
        return Verdict::Ok;
    if (higher_is_better) {
        if (b < a * (1.0 - tol))
            return Verdict::Regressed;
        if (b > a * (1.0 + tol))
            return Verdict::Improved;
    } else {
        if (b > a * (1.0 + tol))
            return Verdict::Regressed;
        if (b < a * (1.0 - tol))
            return Verdict::Improved;
    }
    return Verdict::Ok;
}

void
appendDelta(std::string &out, const char *key, const MetricDelta &d)
{
    out += '"';
    out += key;
    out += "\":{\"name\":";
    out += json::quote(d.name);
    out += ",\"a\":";
    out += json::number(d.a);
    out += ",\"b\":";
    out += json::number(d.b);
    out += ",\"delta\":";
    out += json::number(d.b - d.a);
    out += ",\"verdict\":\"";
    out += verdictName(d.verdict);
    out += "\"}";
}

}  // namespace

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Improved:
        return "improved";
      case Verdict::Ok:
        return "ok";
      case Verdict::Regressed:
        return "regressed";
      case Verdict::Skipped:
        return "skipped";
    }
    return "?";
}

const TimelineLogSample &
TimelineLog::end() const
{
    if (has_final)
        return final_state;
    static const TimelineLogSample empty;
    return samples.empty() ? empty : samples.back();
}

TimelineLog
TimelineLog::load(const std::string &path)
{
    TimelineLog log;
    log.path = path;
    std::ifstream in(path);
    if (!in) {
        log.error = "cannot open " + path;
        return log;
    }

    // Running cumulative state the delta-encoded samples fold into.
    TimelineLogSample state;

    std::string line;
    size_t line_no = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        json::ParseResult parsed = json::parse(line);
        if (!parsed.ok()) {
            log.error = "line " + std::to_string(line_no) + ": " +
                        parsed.error;
            return log;
        }
        const json::Value &record = parsed.value;
        const json::Value *type = record.find("type");
        if (type == nullptr) {
            log.error =
                "line " + std::to_string(line_no) + ": missing type";
            return log;
        }

        if (type->str() == "timeline_header") {
            if (have_header) {
                log.error = "duplicate timeline_header";
                return log;
            }
            have_header = true;
            log.header = record;
            if (const json::Value *v = record.find("version"))
                log.version = static_cast<int>(v->asInt());
            if (const json::Value *v = record.find("timing"))
                log.timing = v->boolean();
            if (log.version != 1) {
                log.error = "unsupported timeline version " +
                            std::to_string(log.version);
                return log;
            }
            continue;
        }
        if (!have_header) {
            log.error = "line " + std::to_string(line_no) +
                        ": record before timeline_header";
            return log;
        }

        if (type->str() == "timeline_sample") {
            readTickFacts(record, state);
            if (const json::Value *arms = record.find("policy")) {
                if (const json::Value *list = arms->find("arms")) {
                    for (const json::Value &entry : list->array()) {
                        const json::Value *arm = entry.at(0);
                        const json::Value *dp = entry.at(1);
                        const json::Value *dw = entry.at(2);
                        if (arm == nullptr || dp == nullptr ||
                            dw == nullptr) {
                            log.error =
                                "line " + std::to_string(line_no) +
                                ": malformed arm delta";
                            return log;
                        }
                        auto &cell =
                            state.arms[static_cast<int>(arm->asInt())];
                        cell.first += dp->asUint();
                        cell.second += dw->asUint();
                    }
                }
            }
            if (const json::Value *counters = record.find("counters")) {
                for (const auto &[name, value] : counters->members())
                    state.counters[name] += value.asUint();
            }
            if (const json::Value *gauges = record.find("gauges")) {
                for (const auto &[name, value] : gauges->members())
                    state.gauges[name] = value.number();
            }
            if (const json::Value *hists = record.find("hists")) {
                for (const auto &[name, value] : hists->members()) {
                    const json::Value *dcount = value.at(0);
                    if (dcount == nullptr) {
                        log.error = "line " + std::to_string(line_no) +
                                    ": malformed hist entry";
                        return log;
                    }
                    state.hist_counts[name] += dcount->asUint();
                }
            }
            log.samples.push_back(state);
            continue;
        }

        if (type->str() == "timeline_final") {
            if (log.has_final) {
                log.error = "duplicate timeline_final";
                return log;
            }
            log.has_final = true;
            TimelineLogSample fin;
            readTickFacts(record, fin);
            if (const json::Value *v = record.find("samples"))
                log.final_samples = v->asUint();
            if (const json::Value *v = record.find("cov_map"))
                log.cov_map = *v;
            if (const json::Value *policy = record.find("policy")) {
                if (const json::Value *list = policy->find("arms")) {
                    for (const json::Value &entry : list->array()) {
                        const json::Value *arm = entry.at(0);
                        const json::Value *pulls = entry.at(1);
                        const json::Value *wins = entry.at(2);
                        if (arm == nullptr || pulls == nullptr ||
                            wins == nullptr)
                            continue;
                        fin.arms[static_cast<int>(arm->asInt())] = {
                            pulls->asUint(), wins->asUint()};
                    }
                }
            }
            if (const json::Value *counters = record.find("counters")) {
                for (const auto &[name, value] : counters->members())
                    fin.counters[name] = value.asUint();
            }
            if (const json::Value *hists = record.find("hists")) {
                for (const auto &[name, value] : hists->members()) {
                    TimelineFinalHist h;
                    if (const json::Value *v = value.find("count"))
                        h.count = v->asUint();
                    if (const json::Value *v = value.find("mean"))
                        h.mean = v->number();
                    if (const json::Value *v = value.find("min"))
                        h.min = v->number();
                    if (const json::Value *v = value.find("max"))
                        h.max = v->number();
                    if (const json::Value *v = value.find("stddev"))
                        h.stddev = v->number();
                    if (const json::Value *v = value.find("p50"))
                        h.p50 = v->number();
                    if (const json::Value *v = value.find("p90"))
                        h.p90 = v->number();
                    if (const json::Value *v = value.find("p99"))
                        h.p99 = v->number();
                    log.final_hists[name] = h;
                    fin.hist_counts[name] = h.count;
                }
            }
            log.final_state = fin;
            continue;
        }

        log.error = "line " + std::to_string(line_no) +
                    ": unknown record type '" + type->str() + "'";
        return log;
    }

    if (!have_header)
        log.error = "no timeline_header in " + path;
    else if (log.samples.empty() && !log.has_final)
        log.error = "no samples in " + path;
    return log;
}

CompareReport
compare(const TimelineLog &a, const TimelineLog &b,
        const CompareOptions &opts)
{
    CompareReport report;
    report.path_a = a.path;
    report.path_b = b.path;
    report.opts = opts;

    // Align on the intersection of the virtual-time grids. Identical
    // configurations share the whole grid; differing budgets or
    // checkpoint strides still align on the common prefix points.
    std::map<uint64_t, const TimelineLogSample *> by_execs_b;
    for (const TimelineLogSample &s : b.samples)
        by_execs_b[s.execs] = &s;
    std::vector<std::pair<const TimelineLogSample *,
                          const TimelineLogSample *>>
        aligned;
    for (const TimelineLogSample &s : a.samples) {
        const auto it = by_execs_b.find(s.execs);
        if (it != by_execs_b.end())
            aligned.push_back({&s, it->second});
    }
    report.aligned_samples = aligned.size();
    if (!aligned.empty())
        report.grid_end = aligned.back().first->execs;

    const TimelineLogSample &end_a = a.end();
    const TimelineLogSample &end_b = b.end();

    // Final edge coverage (the stage-8 ablation gate's metric).
    report.final_edges.name = "final_edges";
    report.final_edges.a = static_cast<double>(end_a.edges);
    report.final_edges.b = static_cast<double>(end_b.edges);
    report.final_edges.verdict =
        ratioVerdict(report.final_edges.a, report.final_edges.b,
                     opts.final_edges_tol, /*higher_is_better=*/true);

    // Coverage AUC over the aligned grid (trapezoid in virtual time).
    report.coverage_auc.name = "coverage_auc";
    double auc_a = 0, auc_b = 0;
    for (size_t i = 1; i < aligned.size(); ++i) {
        const double dt =
            static_cast<double>(aligned[i].first->execs -
                                aligned[i - 1].first->execs);
        auc_a += dt *
                 (static_cast<double>(aligned[i].first->edges) +
                  static_cast<double>(aligned[i - 1].first->edges)) /
                 2.0;
        auc_b += dt *
                 (static_cast<double>(aligned[i].second->edges) +
                  static_cast<double>(aligned[i - 1].second->edges)) /
                 2.0;
    }
    report.coverage_auc.a = auc_a;
    report.coverage_auc.b = auc_b;
    report.coverage_auc.verdict =
        aligned.size() < 2
            ? Verdict::Skipped
            : ratioVerdict(auc_a, auc_b, opts.auc_tol,
                           /*higher_is_better=*/true);

    // Virtual time to reach time_to_frac of A's final edges. 0 =
    // never reached within the recorded samples.
    report.target_edges = static_cast<uint64_t>(
        opts.time_to_frac * static_cast<double>(end_a.edges));
    auto timeTo = [&](const std::vector<TimelineLogSample> &samples) {
        for (const TimelineLogSample &s : samples) {
            if (s.edges >= report.target_edges)
                return s.execs;
        }
        return uint64_t{0};
    };
    report.time_to_target.name = "time_to_target_edges";
    report.time_to_target.a =
        static_cast<double>(timeTo(a.samples));
    report.time_to_target.b =
        static_cast<double>(timeTo(b.samples));
    if (report.target_edges == 0) {
        report.time_to_target.verdict = Verdict::Skipped;
    } else if (report.time_to_target.b == 0) {
        report.time_to_target.verdict = report.time_to_target.a == 0
                                            ? Verdict::Skipped
                                            : Verdict::Regressed;
    } else if (report.time_to_target.a == 0) {
        report.time_to_target.verdict = Verdict::Improved;
    } else {
        report.time_to_target.verdict = ratioVerdict(
            report.time_to_target.a, report.time_to_target.b,
            opts.time_to_tol, /*higher_is_better=*/false);
    }

    // Latency p50 shifts: only meaningful when both runs recorded
    // wall-clock telemetry; a virtual-time-only artifact has none.
    if (a.timing && b.timing) {
        for (const auto &[name, ha] : a.final_hists) {
            if (name.size() < 3 ||
                name.compare(name.size() - 3, 3, "_us") != 0)
                continue;
            const auto it = b.final_hists.find(name);
            if (it == b.final_hists.end())
                continue;
            MetricDelta d;
            d.name = name;
            d.a = ha.p50;
            d.b = it->second.p50;
            d.verdict = ratioVerdict(d.a, d.b, opts.latency_tol,
                                     /*higher_is_better=*/false);
            report.latencies.push_back(d);
        }
    }

    // Informational counter deltas over the union of names.
    std::set<std::string> names;
    for (const auto &[name, value] : end_a.counters)
        names.insert(name);
    for (const auto &[name, value] : end_b.counters)
        names.insert(name);
    for (const std::string &name : names) {
        MetricDelta d;
        d.name = name;
        const auto ia = end_a.counters.find(name);
        const auto ib = end_b.counters.find(name);
        d.a = ia == end_a.counters.end()
                  ? 0.0
                  : static_cast<double>(ia->second);
        d.b = ib == end_b.counters.end()
                  ? 0.0
                  : static_cast<double>(ib->second);
        report.counters.push_back(d);
    }

    report.crashes.name = "unique_crashes";
    report.crashes.a = static_cast<double>(end_a.crashes);
    report.crashes.b = static_cast<double>(end_b.crashes);

    // Policy divergence (informational): pmm shares and the total-
    // variation distance between normalized arm-pull distributions.
    report.have_policy = end_a.have_policy || end_b.have_policy;
    report.policy_a = end_a.policy_name;
    report.policy_b = end_b.policy_name;
    report.pmm_share_a = end_a.pmm_share;
    report.pmm_share_b = end_b.pmm_share;
    double total_a = 0, total_b = 0;
    for (const auto &[arm, pw] : end_a.arms)
        total_a += static_cast<double>(pw.first);
    for (const auto &[arm, pw] : end_b.arms)
        total_b += static_cast<double>(pw.first);
    std::set<int> arm_ids;
    for (const auto &[arm, pw] : end_a.arms)
        arm_ids.insert(arm);
    for (const auto &[arm, pw] : end_b.arms)
        arm_ids.insert(arm);
    double divergence = 0;
    for (const int arm : arm_ids) {
        const auto ia = end_a.arms.find(arm);
        const auto ib = end_b.arms.find(arm);
        const double pa =
            total_a > 0 && ia != end_a.arms.end()
                ? static_cast<double>(ia->second.first) / total_a
                : 0.0;
        const double pb =
            total_b > 0 && ib != end_b.arms.end()
                ? static_cast<double>(ib->second.first) / total_b
                : 0.0;
        divergence += std::fabs(pa - pb);
    }
    report.arm_divergence = divergence / 2.0;

    // Collect the regression verdicts.
    auto note = [&report](const MetricDelta &d) {
        if (d.verdict != Verdict::Regressed)
            return;
        report.regressions.push_back(
            d.name + ": " + cell(d.a) + " -> " + cell(d.b));
    };
    note(report.final_edges);
    note(report.coverage_auc);
    note(report.time_to_target);
    for (const MetricDelta &d : report.latencies)
        note(d);
    return report;
}

std::string
compareJson(const CompareReport &report)
{
    std::string out;
    out.reserve(2048);
    out += "{\"type\":\"compare_report\",\"version\":";
    out += std::to_string(CompareReport::kFormatVersion);
    out += ",\"a\":";
    out += json::quote(report.path_a);
    out += ",\"b\":";
    out += json::quote(report.path_b);
    out += ",\"aligned\":{\"samples\":";
    out += std::to_string(report.aligned_samples);
    out += ",\"grid_end\":";
    out += std::to_string(report.grid_end);
    out += "},\"coverage\":{";
    appendDelta(out, "final_edges", report.final_edges);
    out += ',';
    appendDelta(out, "auc", report.coverage_auc);
    out += ",\"time_to_target\":{\"target_edges\":";
    out += std::to_string(report.target_edges);
    out += ",\"a\":";
    out += json::number(report.time_to_target.a);
    out += ",\"b\":";
    out += json::number(report.time_to_target.b);
    out += ",\"verdict\":\"";
    out += verdictName(report.time_to_target.verdict);
    out += "\"}},\"latency\":[";
    for (size_t i = 0; i < report.latencies.size(); ++i) {
        const MetricDelta &d = report.latencies[i];
        if (i != 0)
            out += ',';
        out += "{\"name\":";
        out += json::quote(d.name);
        out += ",\"p50_a\":";
        out += json::number(d.a);
        out += ",\"p50_b\":";
        out += json::number(d.b);
        out += ",\"verdict\":\"";
        out += verdictName(d.verdict);
        out += "\"}";
    }
    out += "],\"counters\":[";
    for (size_t i = 0; i < report.counters.size(); ++i) {
        const MetricDelta &d = report.counters[i];
        if (i != 0)
            out += ',';
        out += "{\"name\":";
        out += json::quote(d.name);
        out += ",\"a\":";
        out += json::number(d.a);
        out += ",\"b\":";
        out += json::number(d.b);
        out += ",\"delta\":";
        out += json::number(d.b - d.a);
        out += '}';
    }
    out += "],\"crashes\":{\"a\":";
    out += json::number(report.crashes.a);
    out += ",\"b\":";
    out += json::number(report.crashes.b);
    out += '}';
    if (report.have_policy) {
        out += ",\"policy\":{\"a\":";
        out += json::quote(report.policy_a);
        out += ",\"b\":";
        out += json::quote(report.policy_b);
        out += ",\"pmm_share_a\":";
        out += json::number(report.pmm_share_a);
        out += ",\"pmm_share_b\":";
        out += json::number(report.pmm_share_b);
        out += ",\"arm_divergence\":";
        out += json::number(report.arm_divergence);
        out += '}';
    }
    out += ",\"thresholds\":{\"final_edges_tol\":";
    out += json::number(report.opts.final_edges_tol);
    out += ",\"auc_tol\":";
    out += json::number(report.opts.auc_tol);
    out += ",\"time_to_frac\":";
    out += json::number(report.opts.time_to_frac);
    out += ",\"time_to_tol\":";
    out += json::number(report.opts.time_to_tol);
    out += ",\"latency_tol\":";
    out += json::number(report.opts.latency_tol);
    out += "},\"regressions\":[";
    for (size_t i = 0; i < report.regressions.size(); ++i) {
        if (i != 0)
            out += ',';
        out += json::quote(report.regressions[i]);
    }
    out += "],\"verdict\":\"";
    out += report.regressed() ? "regressed" : "ok";
    out += "\"}";
    return out;
}

std::string
compareText(const CompareReport &report)
{
    std::vector<std::vector<std::string>> rows;
    auto row = [&rows](const MetricDelta &d) {
        rows.push_back({d.name, cell(d.a), cell(d.b),
                        cell(d.b - d.a), verdictName(d.verdict)});
    };
    row(report.final_edges);
    row(report.coverage_auc);
    row(report.time_to_target);
    for (const MetricDelta &d : report.latencies)
        row(d);
    rows.push_back({"unique_crashes", cell(report.crashes.a),
                    cell(report.crashes.b),
                    cell(report.crashes.b - report.crashes.a), "info"});
    if (report.have_policy) {
        rows.push_back({"pmm_share", cell(report.pmm_share_a),
                        cell(report.pmm_share_b),
                        cell(report.pmm_share_b - report.pmm_share_a),
                        "info"});
        rows.push_back({"arm_divergence", "-", "-",
                        cell(report.arm_divergence), "info"});
    }

    std::string out;
    out += "compare: A=" + report.path_a + "  B=" + report.path_b +
           "\n";
    out += "aligned " + std::to_string(report.aligned_samples) +
           " samples, grid end " + std::to_string(report.grid_end) +
           " execs, target " + std::to_string(report.target_edges) +
           " edges\n";
    out += formatTable({"metric", "A", "B", "delta", "verdict"}, rows);
    if (report.regressed()) {
        out += "REGRESSED:\n";
        for (const std::string &r : report.regressions)
            out += "  - " + r + "\n";
    } else {
        out += "no regressions\n";
    }
    return out;
}

}  // namespace sp::analysis
