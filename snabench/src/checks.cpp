#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

namespace snabench {

namespace {

using sna::core::NetNoiseReport;

bool bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!bits(a[i], b[i])) return false;
    }
    return true;
}

bool sameWave(const sna::wave::Waveform& a, const sna::wave::Waveform& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!bits(a.samples()[i].t, b.samples()[i].t) ||
            !bits(a.samples()[i].v, b.samples()[i].v)) {
            return false;
        }
    }
    return true;
}

/// The first differing field of two reports, or "" when equal.
std::string firstDifference(const NetNoiseReport& a, const NetNoiseReport& b) {
    const auto& ca = a.cluster;
    const auto& cb = b.cluster;
    const auto& ma = ca.worst.metrics;
    const auto& mb = cb.worst.metrics;
    if (a.net != b.net) return "net";
    if (a.aggressorNets != b.aggressorNets) return "aggressorNets";
    if (!bits(ma.peak, mb.peak)) return "peak";
    if (!bits(ma.peakTime, mb.peakTime)) return "peakTime";
    if (!bits(ma.area, mb.area)) return "area";
    if (!bits(ma.width, mb.width)) return "width";
    if (!bits(ma.baseline, mb.baseline)) return "baseline";
    if (!sameWave(ca.worst.waveform, cb.worst.waveform)) return "waveform";
    if (ca.worst.engineNodes != cb.worst.engineNodes) return "engineNodes";
    if (!bits(ca.aggressorSwitchTimes, cb.aggressorSwitchTimes)) {
        return "aggressorSwitchTimes";
    }
    if (!bits(ca.glitchTime, cb.glitchTime)) return "glitchTime";
    if (!bits(ca.nrcLimit, cb.nrcLimit)) return "nrcLimit";
    if (ca.fails != cb.fails) return "fails";
    if (!bits(ca.margin, cb.margin)) return "margin";
    if (!bits(ca.glitchInHeight, cb.glitchInHeight)) return "glitchInHeight";
    if (!bits(ca.glitchInWidth, cb.glitchInWidth)) return "glitchInWidth";
    const auto& pa = a.propagated;
    const auto& pb = b.propagated;
    if (pa.present != pb.present || pa.fromNet != pb.fromNet ||
        pa.inputPin != pb.inputPin || !bits(pa.height, pb.height) ||
        !bits(pa.width, pb.width) || !bits(pa.localPeak, pb.localPeak) ||
        !bits(pa.localNrcLimit, pb.localNrcLimit) ||
        !bits(pa.localMargin, pb.localMargin) ||
        pa.localFails != pb.localFails) {
        return "propagated";
    }
    const auto& wa = a.windows;
    const auto& wb = b.windows;
    if (wa.constrained != wb.constrained ||
        !bits(wa.window.earliest, wb.window.earliest) ||
        !bits(wa.window.latest, wb.window.latest) ||
        !bits(wa.unconstrainedMargin, wb.unconstrainedMargin) ||
        !bits(wa.windowedMargin, wb.windowedMargin) ||
        wa.excludedAggressors != wb.excludedAggressors ||
        wa.droppedIncoming != wb.droppedIncoming) {
        return "windows";
    }
    if (a.otherDrivers != b.otherDrivers) return "otherDrivers";
    if (a.status != b.status) return "status";
    if (a.error != b.error) return "error";
    return "";
}

}  // namespace

void checkReportsEqual(const std::vector<NetNoiseReport>& expect,
                       const std::vector<NetNoiseReport>& got,
                       const std::string& what, CheckResult& out) {
    if (expect.size() != got.size()) {
        out.fail(what + ": " + std::to_string(got.size()) +
                 " reports, expected " + std::to_string(expect.size()));
        return;
    }
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const std::string diff = firstDifference(expect[i], got[i]);
        if (!diff.empty()) {
            out.fail(what + ": report " + std::to_string(i) + " (" +
                     expect[i].net + ") differs in " + diff);
            return;
        }
    }
}

void checkOutcomeCovers(const sna::core::AnalysisOutcome& outcome,
                        const std::vector<std::string>& victims,
                        CheckResult& out) {
    if (!outcome.clean()) {
        out.fail("analysis outcome is not clean");
    }
    // Victim reports carry aggressors; propagated-only entries for quiet
    // nets carry none and are not victims.
    std::set<std::string> seen(outcome.unsolvedNets.begin(),
                               outcome.unsolvedNets.end());
    std::size_t victimReports = 0;
    for (const auto& r : outcome.reports) {
        if (r.aggressorNets.empty()) continue;
        ++victimReports;
        seen.insert(r.net);
    }
    const std::set<std::string> want(victims.begin(), victims.end());
    if (victimReports + outcome.unsolvedNets.size() != victims.size() ||
        seen != want) {
        out.fail("reports + unsolved = " +
                 std::to_string(victimReports + outcome.unsolvedNets.size()) +
                 " nets, the generator wrote " +
                 std::to_string(victims.size()) + " victims");
    }
}

std::vector<std::string> windowViolations(
    const std::vector<NetNoiseReport>& reports, double tol) {
    std::vector<std::string> out;
    for (const auto& r : reports) {
        if (r.windows.constrained &&
            r.windows.windowedMargin < r.windows.unconstrainedMargin - tol) {
            out.push_back(r.net);
        }
    }
    return out;
}

void checkScreen(const std::vector<NetNoiseReport>& reports,
                 const std::map<std::string, ScreenNet>& victims, double vdd,
                 CheckResult& out) {
    std::set<std::string> seen;
    for (const auto& r : reports) {
        const auto it = victims.find(r.net);
        if (it == victims.end()) {
            out.fail("report for " + r.net + ", which is no victim");
            continue;
        }
        if (!seen.insert(r.net).second) {
            out.fail("second report for " + r.net);
        }
        const auto& m = r.cluster.worst.metrics;
        // Held low, noise pushes up; held high, it pulls down.
        const bool heldHigh = m.baseline > 0.5 * vdd;
        if (m.peak == 0.0 || (m.peak > 0.0) == heldHigh) {
            out.fail(r.net + ": peak " + std::to_string(m.peak) +
                     " V does not point away from its held level");
        }
        const double cc = it->second.couplingF;
        const double bound = vdd * cc / (cc + it->second.groundF);
        if (!(std::abs(m.peak) < bound)) {
            out.fail(r.net + ": |peak| " + std::to_string(std::abs(m.peak)) +
                     " V exceeds the divider bound " + std::to_string(bound));
        }
        // The NRC characterization bisects the failing height in
        // [0, 1.4 vdd] and reports 1.4 vdd where nothing fails.
        if (!(r.cluster.nrcLimit > 0.0 && r.cluster.nrcLimit <= 1.4 * vdd)) {
            out.fail(r.net + ": NRC limit " +
                     std::to_string(r.cluster.nrcLimit) +
                     " outside (0, 1.4 vdd]");
        }
    }
    if (seen.size() != victims.size()) {
        out.fail(std::to_string(seen.size()) + " victims reported, " +
                 std::to_string(victims.size()) + " generated");
    }
}

GoldenBounds goldenBounds() {
    // The repository documents the macromodel as reading no more than a
    // few percent low anywhere, within 11% on simple drivers, and up to
    // ~19% high (the safe side) on stacked NAND / NOR / complex gates.
    GoldenBounds b;
    b.safeTol = 0.05;
    for (const char* cell : {"INV_X1", "INV_X2", "INV_X4"}) {
        b.errRange[cell] = {-0.05, 0.11};
    }
    for (const char* cell : {"NAND2_X1", "NAND2_X2", "NAND3_X1", "NOR2_X1",
                             "NOR2_X2", "NOR3_X1", "AOI21_X1", "OAI21_X1"}) {
        b.errRange[cell] = {-0.05, 0.25};
    }
    return b;
}

void checkGolden(const std::vector<GoldenSample>& samples,
                 const GoldenBounds& bounds, CheckResult& out) {
    for (const auto& s : samples) {
        if (!(s.goldenPeak > 0.0)) {
            out.fail(s.label + ": golden peak is " +
                     std::to_string(s.goldenPeak));
            continue;
        }
        const double err = (s.macroPeak - s.goldenPeak) / s.goldenPeak;
        if (err < -bounds.safeTol) {
            out.fail(s.label + ": macromodel peak " +
                     std::to_string(s.macroPeak) + " V is below golden " +
                     std::to_string(s.goldenPeak) + " V (unsafe side)");
        }
        const auto it = bounds.errRange.find(s.cell);
        if (it == bounds.errRange.end()) {
            out.fail(s.label + ": no accuracy bound for " + s.cell);
        } else if (err < it->second.first || err > it->second.second) {
            std::ostringstream os;
            os << s.label << ": error " << 100.0 * err << "% outside ["
               << 100.0 * it->second.first << "%, "
               << 100.0 * it->second.second << "%]";
            out.fail(os.str());
        }
    }
}

double meanPeakErrPct(const std::vector<GoldenSample>& samples) {
    if (samples.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& s : samples) {
        sum += std::abs(s.macroPeak - s.goldenPeak) / s.goldenPeak;
    }
    return 100.0 * sum / static_cast<double>(samples.size());
}

}  // namespace snabench
