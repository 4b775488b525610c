// Output checks of the benchmark workloads.
//
// Each check compares the program's results with facts computed apart from
// the program — the generator's own netlist, the SPEF caps it wrote, a
// transistor-level simulation — or with a property the method must have.
// None compares against a stored copy of an earlier run's output.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sna.hpp"

namespace snabench {

struct CheckResult {
    std::vector<std::string> problems;
    bool ok() const { return problems.empty(); }
    void fail(std::string what) { problems.push_back(std::move(what)); }
};

/// Every field of every report equal bit for bit (the wall-clock runtime
/// excepted), same nets in the same order.
void checkReportsEqual(const std::vector<sna::core::NetNoiseReport>& expect,
                       const std::vector<sna::core::NetNoiseReport>& got,
                       const std::string& what, CheckResult& out);

/// A clean outcome whose victim reports plus unsolved nets cover exactly
/// the victim nets the generator created.
void checkOutcomeCovers(const sna::core::AnalysisOutcome& outcome,
                        const std::vector<std::string>& victims,
                        CheckResult& out);

/// Nets whose window-constrained margin falls below their unconstrained
/// margin by more than `tol` volts: removing noise sources must never make
/// a verdict worse.
std::vector<std::string> windowViolations(
    const std::vector<sna::core::NetNoiseReport>& reports, double tol);

/// What the screen generator knows about each victim it wrote.
struct ScreenNet {
    double couplingF = 0.0;  ///< summed coupling caps
    double groundF = 0.0;    ///< grounded caps of the net's section
};

/// Flat-sweep properties: exactly one report per generated victim; every
/// peak points to the rail opposite the held level and stays below the
/// capacitive-divider bound vdd*Cc/(Cc+Cg); every NRC limit inside the
/// characterization's range (0, 1.4 vdd].
void checkScreen(const std::vector<sna::core::NetNoiseReport>& reports,
                 const std::map<std::string, ScreenNet>& victims, double vdd,
                 CheckResult& out);

/// One macromodel-vs-transistor-level comparison (|peaks|, V).
struct GoldenSample {
    std::string label;
    std::string cell;  ///< victim driver cell
    double macroPeak = 0.0;
    double goldenPeak = 0.0;
};

struct GoldenBounds {
    /// The macromodel may read below the golden peak by at most this
    /// share of it (the documented safe side is at or above).
    double safeTol = 0.01;
    /// Allowed (macro - golden) / golden per victim cell.
    std::map<std::string, std::pair<double, double>> errRange;
};

/// The accuracy bounds the golden workload enforces.
GoldenBounds goldenBounds();

void checkGolden(const std::vector<GoldenSample>& samples,
                 const GoldenBounds& bounds, CheckResult& out);

/// Mean |macro - golden| / golden over the samples, %.
double meanPeakErrPct(const std::vector<GoldenSample>& samples);

}  // namespace snabench
