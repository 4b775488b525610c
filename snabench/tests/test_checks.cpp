// Tests of the benchmark's output checks: each check passes on a sound
// result and fails once that result is deliberately corrupted.
//
//   python3 snabench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using sna::core::AnalysisOutcome;
using sna::core::NetNoiseReport;
using snabench::CheckResult;

int failures = 0;

void expect(bool cond, const char* what) {
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

NetNoiseReport report(const std::string& net, double peak, double baseline,
                      double nrc) {
    NetNoiseReport r;
    r.net = net;
    r.aggressorNets = {net + "_agg"};
    r.cluster.worst.metrics.peak = peak;
    r.cluster.worst.metrics.baseline = baseline;
    r.cluster.worst.metrics.width = 80e-12;
    r.cluster.nrcLimit = nrc;
    r.cluster.margin = nrc - (peak < 0 ? -peak : peak);
    r.windows.constrained = true;
    r.windows.unconstrainedMargin = r.cluster.margin;
    r.windows.windowedMargin = r.cluster.margin;
    return r;
}

std::vector<NetNoiseReport> sampleReports() {
    return {report("n0", 0.10, 0.0, 0.6), report("n1", -0.12, 1.2, 0.55),
            report("n2", 0.08, 0.0, 0.7)};
}

void testReportsEqual() {
    const auto a = sampleReports();
    {
        CheckResult r;
        snabench::checkReportsEqual(a, a, "same", r);
        expect(r.ok(), "identical reports compare equal");
    }
    {
        auto b = a;
        b[1].cluster.margin = -b[1].cluster.margin;  // one margin flipped
        CheckResult r;
        snabench::checkReportsEqual(a, b, "flipped", r);
        expect(!r.ok(), "a flipped margin is caught");
    }
    {
        auto b = a;
        b[2].windows.windowedMargin += 1e-15;  // one ulp-scale change
        CheckResult r;
        snabench::checkReportsEqual(a, b, "nudged", r);
        expect(!r.ok(), "a last-bit change in a windowed margin is caught");
    }
    {
        auto b = a;
        b.erase(b.begin() + 1);  // one report dropped
        CheckResult r;
        snabench::checkReportsEqual(a, b, "dropped", r);
        expect(!r.ok(), "a dropped report is caught");
    }
    {
        auto b = a;
        b[0].cluster.worst.runtimeSec = 123.0;  // wall clock is not compared
        CheckResult r;
        snabench::checkReportsEqual(a, b, "runtime", r);
        expect(r.ok(), "runtime differences are ignored");
    }
}

void testOutcomeCovers() {
    AnalysisOutcome o;
    o.reports = sampleReports();
    const std::vector<std::string> victims{"n0", "n1", "n2"};
    {
        CheckResult r;
        snabench::checkOutcomeCovers(o, victims, r);
        expect(r.ok(), "complete outcome covers the victims");
    }
    {
        AnalysisOutcome p = o;
        p.reports.pop_back();  // one report dropped
        CheckResult r;
        snabench::checkOutcomeCovers(p, victims, r);
        expect(!r.ok(), "a dropped victim report is caught");
    }
    {
        AnalysisOutcome p = o;
        p.reports.pop_back();
        p.unsolvedNets.push_back("n2");
        p.reason = sna::core::TerminationReason::cancelled;
        CheckResult r;
        snabench::checkOutcomeCovers(p, victims, r);
        expect(!r.ok(), "a partial outcome is not clean");
    }
    {
        AnalysisOutcome p = o;
        p.failedNets.push_back("n0");
        CheckResult r;
        snabench::checkOutcomeCovers(p, victims, r);
        expect(!r.ok(), "a failed net makes the outcome unclean");
    }
}

void testWindowViolations() {
    auto a = sampleReports();
    expect(snabench::windowViolations(a, 2e-3).empty(),
           "equal margins are no violation");
    a[1].windows.windowedMargin = a[1].windows.unconstrainedMargin - 0.011;
    const auto bad = snabench::windowViolations(a, 2e-3);
    expect(bad.size() == 1 && bad[0] == "n1",
           "a windowed margin 11 mV below unconstrained is a violation");
    a[1].windows.windowedMargin = a[1].windows.unconstrainedMargin - 0.001;
    expect(snabench::windowViolations(a, 2e-3).empty(),
           "a shortfall within the search tolerance is not");
}

void testScreen() {
    const double vdd = 1.2;
    // Divider bounds: n0 1.2*10/(10+10)=0.6, n1 0.4, n2 0.24.
    const std::map<std::string, snabench::ScreenNet> facts{
        {"n0", {10e-15, 10e-15}},
        {"n1", {10e-15, 20e-15}},
        {"n2", {10e-15, 40e-15}}};
    const auto good = sampleReports();
    {
        CheckResult r;
        snabench::checkScreen(good, facts, vdd, r);
        expect(r.ok(), "sound screen reports pass");
    }
    {
        auto b = good;
        b[0].cluster.worst.metrics.peak = -0.10;  // toward its own rail
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "a peak toward the held rail is caught");
    }
    {
        auto b = good;
        b[2].cluster.worst.metrics.peak = 0.30;  // above 0.24
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "a peak above the divider bound is caught");
    }
    {
        auto b = good;
        b[1].cluster.nrcLimit = 1.7;  // above the 1.4 vdd bisection range
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "an NRC limit above 1.4 vdd is caught");
    }
    {
        auto b = good;
        b[1].cluster.nrcLimit = 0.0;
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "a zero NRC limit is caught");
    }
    {
        auto b = good;
        b.pop_back();
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "a missing screen report is caught");
    }
    {
        auto b = good;
        b.push_back(good[0]);
        CheckResult r;
        snabench::checkScreen(b, facts, vdd, r);
        expect(!r.ok(), "a duplicate screen report is caught");
    }
}

void testGolden() {
    const auto bounds = snabench::goldenBounds();
    std::vector<snabench::GoldenSample> s{
        {"inv", "INV_X1", 0.105, 0.100},
        {"nand", "NAND2_X1", 0.118, 0.100},
        {"nor", "NOR2_X1", 0.1001, 0.100}};
    {
        CheckResult r;
        snabench::checkGolden(s, bounds, r);
        expect(r.ok(), "safe-side samples within bounds pass");
    }
    {
        auto b = s;
        b[2].goldenPeak *= 1.2;  // golden peak scaled up
        CheckResult r;
        snabench::checkGolden(b, bounds, r);
        expect(!r.ok(), "a scaled-up golden peak (unsafe side) is caught");
    }
    {
        auto b = s;
        b[0].macroPeak *= 2.0;  // far above its cell's bound
        CheckResult r;
        snabench::checkGolden(b, bounds, r);
        expect(!r.ok(), "an error above the cell's bound is caught");
    }
    {
        auto b = s;
        b[0].goldenPeak = 0.0;
        CheckResult r;
        snabench::checkGolden(b, bounds, r);
        expect(!r.ok(), "a zero golden peak is caught");
    }
    const double pct = snabench::meanPeakErrPct(s);
    expect(pct > 7.6 && pct < 7.7, "mean error is (5 + 18 + 0.1) / 3 %");
}

}  // namespace

int main() {
    testReportsEqual();
    testOutcomeCovers();
    testWindowViolations();
    testScreen();
    testGolden();
    if (failures == 0) std::printf("all benchmark check tests passed\n");
    return failures == 0 ? 0 : 1;
}
