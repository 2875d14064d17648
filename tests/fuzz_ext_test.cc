// Tests for the fuzzing extensions: the crash-report formatter and the
// white-box oracle localizer.

#include <gtest/gtest.h>


#include "core/oracle.h"
#include "fuzz/report.h"
#include "kernel/subsystems.h"
#include "mutate/mutator.h"
#include "prog/gen.h"

namespace sp {
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

TEST(Report, FormatsTheAtaCrash)
{
    const auto &kernel = testKernel();
    // Build the exact ATA trigger (see kernel_test for the layout).
    prog::Prog trigger;
    prog::Call open_call;
    open_call.decl = kernel.table().find("open$scsi");
    open_call.args = prog::defaultArgs(*open_call.decl);
    prog::fixupLengths(open_call);
    trigger.calls.push_back(std::move(open_call));

    prog::Call ioctl_call;
    ioctl_call.decl = kernel.table().find("ioctl$scsi");
    ioctl_call.args = prog::defaultArgs(*ioctl_call.decl);
    ioctl_call.args[0]->result_ref = 0;
    ioctl_call.args[1]->scalar = kern::kScsiIoctlSendCommand;
    auto &req = *ioctl_call.args[2]->pointee;
    req.fields[0]->scalar = kern::kScsiProtoAta16;
    req.fields[1]->scalar = kern::kAtaCmdNop;
    req.fields[2]->scalar = kern::kAtaProtPio;
    req.fields[3]->scalar = kern::kAtaMaxDataLen + 1;
    prog::fixupLengths(ioctl_call);
    trigger.calls.push_back(std::move(ioctl_call));

    exec::Executor executor(kernel);
    auto result = executor.run(trigger);
    ASSERT_TRUE(result.crashed);

    fuzz::CrashLog log(kernel);
    log.record(result.bug_index, trigger, 7);
    log.reproduceAll();

    auto report =
        fuzz::formatCrashReport(kernel, log.records()[0]);
    // The crafted ioctl may trip a generated bug planted earlier on
    // the same path; the report must be complete either way.
    EXPECT_NE(report.find("BUG: "), std::string::npos);
    EXPECT_NE(report.find(log.records()[0].description),
              std::string::npos);
    EXPECT_NE(report.find("call trace (inside"), std::string::npos);
    EXPECT_NE(report.find("<- faulting block"), std::string::npos);
    EXPECT_NE(report.find("reproducer:"), std::string::npos);
}

TEST(Oracle, SelectsGuardArguments)
{
    const auto &kernel = testKernel();
    core::OracleLocalizer oracle(kernel);
    exec::Executor executor(kernel);
    Rng rng(9);

    // The oracle's sites must each be an argument whose slot guards a
    // frontier branch of the base coverage.
    auto program = prog::generateProg(rng, kernel.table());
    auto result = executor.run(program);
    auto sites = oracle.localizeWithResult(program, result, rng, 8);
    ASSERT_FALSE(sites.empty());
    for (const auto &site : sites) {
        ASSERT_LT(site.call_index, program.calls.size());
        prog::argAtPath(program.calls[site.call_index],
                        site.point.path);
    }
}

TEST(Oracle, BeatsRandomOnPerMutationRate)
{
    const auto &kernel = testKernel();
    core::OracleLocalizer oracle(kernel);
    mut::RandomLocalizer random_localizer;
    mut::Mutator mutator(kernel.table());
    exec::Executor executor(kernel);

    Rng rng(11);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 50);

    auto rate = [&](mut::Localizer &localizer) {
        Rng lrng(5);
        size_t hits = 0, total = 0;
        for (const auto &base : corpus) {
            auto base_result = executor.run(base);
            if (base_result.crashed)
                continue;
            auto sites = localizer.localizeWithResult(base, base_result,
                                                      lrng, 4);
            for (const auto &site : sites) {
                prog::Prog mutant;
                mutant.calls = base.calls;
                if (!mutator.instantiateArgMutation(mutant, site, lrng))
                    continue;
                auto result = executor.run(mutant);
                hits += (base_result.coverage.countNewEdges(
                             result.coverage) > 0);
                ++total;
            }
        }
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    };

    const double oracle_rate = rate(oracle);
    const double random_rate = rate(random_localizer);
    EXPECT_GT(oracle_rate, random_rate * 1.3);
}

}  // namespace
}  // namespace sp
