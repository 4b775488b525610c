// OpenSNA benchmark: one named workload, end-to-end or per-layer metrics.
//
//   snabench --workload signoff|screen|golden --seed N --seconds S
//            --trace 0|1 [--trace-file PATH] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, writes a Chrome trace-event file of the spans recorded around
// each call into a program layer, and reports the tracing overhead. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Progress and check failures go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "charlib/char_cache.hpp"
#include "charlib/nldm_source.hpp"
#include "checks.hpp"
#include "core/alignment.hpp"
#include "core/design_index.hpp"
#include "core/frontend.hpp"
#include "core/incremental.hpp"
#include "core/macromodel.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "gen.hpp"
#include "interconnect/parallel_bus.hpp"
#include "lint/lint.hpp"
#include "mor/coupled_pi.hpp"
#include "parser/liberty_parser.hpp"
#include "parser/sdc_parser.hpp"
#include "parser/spef_parser.hpp"
#include "parser/verilog_parser.hpp"
#include "spice/tran.hpp"
#include "trace.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using snabench::Span;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: the cold set-up is timed
// from here.
const Clock::time_point kProcessStart = Clock::now();

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Repeated runs of identical work are reported by their minimum: on a
/// shared machine the run least disturbed by other load is the closest
/// estimate of the program's own cost (medians of such repetitions spread
/// by 20-60% between runs here). ECO iterations are different operations
/// over the same target set on every seed; they are reported by their mean.
double best(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Worker count of the design analyses: fixed at four, never above the
/// machine's.
int workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Run {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceFile;
    std::string workDir = ".bench_tmp";

    snabench::Tracer tracer{false};
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    snabench::CheckResult checks;
    long attempted = 0;
    long failed = 0;
    double generateSec = 0.0;  ///< benchmark-side input generation
    Clock::time_point measureStart;

    void e2e(const std::string& n, double v, const std::string& u) {
        endToEnd.push_back({n, v, u});
    }
    void layer(const std::string& n, double v, const std::string& u) {
        layers.push_back({n, v, u});
    }
    /// Set-up time of this process, without the benchmark's own input
    /// generation.
    double setupDone() {
        measureStart = Clock::now();
        return since(kProcessStart) - generateSec;
    }
    bool timeLeft() const { return since(measureStart) < seconds; }
    std::string path(const std::string& leaf) const {
        return workDir + "/" + workload + "-" + std::to_string(seed) + "-" +
               leaf;
    }
};

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- front end

/// The parsed and bound inputs of a design workload.
struct FrontEnd {
    const cell::CellLibrary* lib = nullptr;
    parser::LibertyLibrary liberty;
    parser::VerilogModule module;
    parser::SdcConstraints sdc;
    std::unique_ptr<charlib::NldmSource> nldm;
    std::unique_ptr<core::Design> design;
    std::vector<std::unique_ptr<parser::SpefFile>> spefs;  ///< ECO versions
    core::TimingWindows windows;

    const parser::SpefFile& spef() const { return *spefs.back(); }
};

/// Text -> parsed -> bound -> linted, each call inside its layer's span.
void readFrontEnd(Run& run, const snabench::GenDesign& model,
                  charlib::CharCache& cache, FrontEnd& fe) {
    auto t0 = Clock::now();
    const std::string libText = snabench::libertyText();
    const std::string vText = model.verilog();
    const std::string sdcText = model.sdc();
    const std::string spefText = model.spef();
    run.generateSec += since(t0);

    fe.lib = &cell::sharedLibrary(tech::tech130());
    {
        Span s(run.tracer, "parser.liberty");
        fe.liberty = parser::parseLiberty(libText);
    }
    {
        Span s(run.tracer, "parser.verilog");
        fe.module = parser::parseVerilog(vText);
    }
    {
        Span s(run.tracer, "parser.sdc");
        fe.sdc = parser::parseSdc(sdcText);
    }
    {
        Span s(run.tracer, "parser.spef");
        fe.spefs.push_back(
            std::make_unique<parser::SpefFile>(parser::parseSpef(spefText)));
    }
    {
        Span s(run.tracer, "frontend.nldm_seed");
        fe.nldm = std::make_unique<charlib::NldmSource>(fe.liberty, *fe.lib);
        core::seedNldmCharacterization(*fe.nldm, cache);
    }
    lint::LintReport feReport;
    {
        Span s(run.tracer, "lint.frontend");
        core::lintFrontEnd(*fe.nldm, fe.module, *fe.lib, &fe.sdc, feReport);
    }
    if (feReport.hasErrors() || !fe.nldm->issues().empty()) {
        run.checks.fail("front-end lint: " + feReport.summary());
    }
    {
        Span s(run.tracer, "frontend.build_design");
        fe.design = std::make_unique<core::Design>(
            core::buildDesign(fe.module, *fe.lib));
    }
    fe.windows = fe.sdc.toInputWindows();
}

/// Index, levelize and lint the design, as the checker a user runs first.
void indexAndLint(Run& run, FrontEnd& fe, const core::TimingWindows* windows,
                  charlib::CharCache& cache, bool propagateWindows) {
    std::unique_ptr<core::DesignIndex> index;
    {
        Span s(run.tracer, "index.build");
        index = std::make_unique<core::DesignIndex>(*fe.design, fe.spef(),
                                                    windows);
    }
    {
        Span s(run.tracer, "index.levelize");
        (void)index->levels();
    }
    lint::LintReport report;
    {
        Span s(run.tracer, "lint.design");
        lint::LintOptions lo;
        lo.windows = windows;
        report = lint::lintDesign(*index, fe.spef(), lo);
    }
    if (report.hasErrors()) run.checks.fail("design lint: " + report.summary());
    if (propagateWindows) {
        Span s(run.tracer, "windows.propagate");
        (void)core::propagateWindows(*index, &cache);
    }
}

// ------------------------------------------------------- design clusters

/// One victim of a design as a stand-alone cluster (local noise only, held
/// low), built the way the design flow builds it: ranked aggressors, RC
/// from the SPEF sections.
struct DesignCluster {
    ic::RcNetwork rc;
    core::ClusterSpec spec;
    std::string net;
};

std::vector<std::unique_ptr<DesignCluster>> clustersOf(
    const FrontEnd& fe, const std::vector<std::string>& nets) {
    const core::DesignIndex index(*fe.design, fe.spef());
    std::vector<std::unique_ptr<DesignCluster>> out;
    for (const std::string& net : nets) {
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& [agg, cc] : index.couplingOf(net)) {
            if (index.driverOf(agg) != nullptr) ranked.push_back({cc, agg});
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                   const auto& b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        if (ranked.size() > 3) ranked.resize(3);
        auto dc = std::make_unique<DesignCluster>();
        dc->net = net;
        std::vector<std::string> nets{net};
        for (const auto& r : ranked) nets.push_back(r.second);
        dc->rc = ic::rcFromSpef(fe.spef(), nets);
        const core::Instance* drv = index.driverOf(net);
        auto& s = dc->spec;
        s.customNet = &dc->rc;
        s.victim.driverCell = drv->cellName;
        s.victim.glitchInput =
            fe.lib->cell(drv->cellName).inputNames().front();
        s.victim.receiverCell = index.loadsOf(net).front().first->cellName;
        for (const auto& r : ranked) {
            core::AggressorSpec a;
            a.driverCell = index.driverOf(r.second)->cellName;
            a.outputRising = true;
            s.aggressors.push_back(a);
        }
        out.push_back(std::move(dc));
    }
    return out;
}

// ------------------------------------------------------------ accuracy

/// analyzeCluster, then the transistor-level simulation at the alignment it
/// found. Appends one accuracy sample and both timings.
void macroVsGolden(const core::ClusterSpec& spec, const std::string& label,
                   const core::ReportOptions& ropt, Run& run,
                   std::vector<snabench::GoldenSample>& samples,
                   std::vector<double>& macroMs,
                   std::vector<double>& goldenMs) {
    core::ClusterReport rep;
    {
        Span s(run.tracer, "core.analyze_cluster");
        const auto t0 = Clock::now();
        rep = core::analyzeCluster(spec, ropt);
        macroMs.push_back(1e3 * since(t0));
    }
    core::ClusterSpec at = spec;
    for (std::size_t a = 0; a < at.aggressors.size(); ++a) {
        at.aggressors[a].switchTime = rep.aggressorSwitchTimes[a];
    }
    at.victim.glitchTime = rep.glitchTime;
    core::NoiseResult golden;
    {
        Span s(run.tracer, "core.simulate_golden");
        const auto t0 = Clock::now();
        golden = core::simulateGolden(at);
        goldenMs.push_back(1e3 * since(t0));
    }
    samples.push_back({label, spec.victim.driverCell,
                       std::abs(rep.worst.metrics.peak),
                       std::abs(golden.metrics.peak)});
}

/// Transistor-level spot check of a design's seed-independent clusters,
/// on a cache of its own. Passes are spread over the run (after each round
/// or every fourth ECO iteration), so the best of each cluster's passes
/// does not hang on one moment's load on the machine. A cluster outside the
/// accuracy bounds is a failed operation; being the same clusters on every
/// seed, it fails on every run or on none.
class SpotCheck {
public:
    SpotCheck(const FrontEnd& fe, const std::vector<std::string>& nets,
              core::ReportOptions ropt)
        : clusters_(clustersOf(fe, nets)), ropt_(std::move(ropt)),
          macro_(clusters_.size()), golden_(clusters_.size()) {
        ropt_.macromodel.cache = &cache_;
    }

    /// One pass over every cluster.
    void pass(Run& run) {
        std::vector<snabench::GoldenSample> samples;
        std::vector<double> mMs, gMs;
        for (const auto& c : clusters_) {
            macroVsGolden(c->spec, c->net, ropt_, run, samples, mMs, gMs);
        }
        for (std::size_t i = 0; i < clusters_.size(); ++i) {
            macro_[i].push_back(mMs[i]);
            golden_[i].push_back(gMs[i]);
        }
        if (samples_.empty()) samples_ = std::move(samples);
    }

    /// Nets whose first pass is outside the accuracy bounds.
    std::vector<std::string> failedNets() const {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < clusters_.size(); ++i) {
            snabench::CheckResult one;
            snabench::checkGolden({samples_[i]}, snabench::goldenBounds(),
                                  one);
            for (const auto& pr : one.problems) {
                std::fprintf(stderr, "spot check: %s\n", pr.c_str());
            }
            if (!one.ok()) out.push_back(clusters_[i]->net);
        }
        return out;
    }

    /// Mean over the clusters of each cluster's best time, ms.
    double macroMs() const { return meanOfBest(macro_); }
    double goldenMs() const { return meanOfBest(golden_); }
    const std::vector<snabench::GoldenSample>& samples() const {
        return samples_;
    }
    const core::ReportOptions& options() const { return ropt_; }
    std::vector<const core::ClusterSpec*> specs() const {
        std::vector<const core::ClusterSpec*> out;
        for (const auto& c : clusters_) out.push_back(&c->spec);
        return out;
    }

private:
    static double meanOfBest(const std::vector<std::vector<double>>& v) {
        std::vector<double> b;
        for (const auto& x : v) b.push_back(best(x));
        return mean(b);
    }

    std::vector<std::unique_ptr<DesignCluster>> clusters_;
    charlib::CharCache cache_;
    core::ReportOptions ropt_;
    std::vector<std::vector<double>> macro_, golden_;
    std::vector<snabench::GoldenSample> samples_;
};

// --------------------------------------------------------- layer probes

/// Per-cluster costs of the layers a design analysis runs inside the
/// program, measured by calling them directly on the workload's own
/// clusters with the analysis' (warm) cache.
void probeLayers(Run& run,
                 const std::vector<const core::ClusterSpec*>& specs,
                 const core::ReportOptions& ropt) {
    std::vector<double> buildMs, reduceUs, probeUs, nodes, searchMs, probes,
        nrcMs;
    for (const core::ClusterSpec* spec : specs) {
        auto t0 = Clock::now();
        std::unique_ptr<core::ClusterMacromodel> model;
        {
            Span s(run.tracer, "macromodel.build");
            model = std::make_unique<core::ClusterMacromodel>(
                *spec, ropt.macromodel);
        }
        buildMs.push_back(1e3 * since(t0));
        const ic::RcNetwork net = core::clusterNet(*spec);
        t0 = Clock::now();
        {
            Span s(run.tracer, "mor.reduce");
            (void)mor::reduceCluster(net);
        }
        reduceUs.push_back(1e6 * since(t0));
        t0 = Clock::now();
        core::NoiseResult r;
        {
            Span s(run.tracer, "macromodel.probe");
            r = model->analyze();
        }
        probeUs.push_back(1e6 * since(t0));
        nodes.push_back(static_cast<double>(r.engineNodes));
        if (ropt.searchAlignment) {
            t0 = Clock::now();
            core::AlignmentResult al;
            {
                Span s(run.tracer, "alignment.search");
                al = core::findWorstAlignment(*model, ropt.alignment);
            }
            searchMs.push_back(1e3 * since(t0));
            probes.push_back(al.evaluations);
            r = al.worst;
        }
        t0 = Clock::now();
        {
            Span s(run.tracer, "report.nrc");
            (void)core::nrcLimitFor(*spec, r.metrics, ropt.macromodel.cache,
                                    ropt.nrc);
        }
        nrcMs.push_back(1e3 * since(t0));
    }
    run.layer("alignment.search_ms", mean(searchMs), "ms");
    run.layer("alignment.probes", mean(probes), "count");
    run.layer("macromodel.build_ms", mean(buildMs), "ms");
    run.layer("mor.reduce_us", mean(reduceUs), "us");
    run.layer("report.nrc_ms", mean(nrcMs), "ms");
    run.layer("macromodel.probe_us", mean(probeUs), "us");
    run.layer("macromodel.engine_nodes", mean(nodes), "count");
}

/// The golden simulation rebuilt from public calls, so the transient
/// engine's own counters can be read: the same circuit simulateGolden
/// assembles (drivers, receivers, full RC), at the spec's alignment.
struct TranSample {
    spice::TranStats stats;
    std::size_t unknowns = 0;
    double seconds = 0.0;
};

TranSample goldenTransient(const core::ClusterSpec& spec) {
    const double vdd = spec.technology->vdd;
    const cell::CellLibrary& lib = cell::sharedLibrary(*spec.technology);
    const ic::RcNetwork net = core::clusterNet(spec);
    spice::Circuit ckt;
    std::size_t sources = 0;
    const auto vddNode = ckt.node("vdd");
    ckt.addVSource("vsupply", vddNode, spice::kGround,
                   spice::SourceSpec::dc(vdd));
    ++sources;
    const auto ids = net.buildInto(ckt, "rc:");
    const auto addReceiver = [&](const std::string& cellName,
                                 const std::string& inst,
                                 spice::NodeId input) {
        const cell::Cell& rx = lib.cell(cellName);
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : rx.inputNames()) {
            if (in == rx.inputNames().front()) {
                pins[in] = input;
                continue;
            }
            pins[in] = ckt.node(inst + "_in_" + in);
            ckt.addVSource("v_" + inst + "_" + in, pins[in], spice::kGround,
                           spice::SourceSpec::dc(0.0));
            ++sources;
        }
        const auto out = ckt.node(inst + "_out");
        pins[rx.outputName()] = out;
        ckt.addCapacitor("c_" + inst, out, spice::kGround, 5e-15);
        rx.instantiate(ckt, inst, pins, vddNode);
    };

    const cell::Cell& vic = lib.cell(spec.victim.driverCell);
    const auto hold =
        vic.holdingVector(spec.victim.outputLevel, spec.victim.glitchInput);
    std::map<std::string, spice::NodeId> vpins;
    for (const auto& in : vic.inputNames()) {
        vpins[in] = ckt.node("vic_in_" + in);
        const auto glitch =
            in == spec.victim.glitchInput
                ? core::victimInputGlitch(spec, spec.victim.glitchTime)
                : std::nullopt;
        ckt.addVSource("v_vic_" + in, vpins[in], spice::kGround,
                       glitch ? spice::SourceSpec::pwl(*glitch)
                              : spice::SourceSpec::dc(hold.at(in) ? vdd
                                                                  : 0.0));
        ++sources;
    }
    vpins[vic.outputName()] = ids[static_cast<std::size_t>(net.driverNode(0))];
    vic.instantiate(ckt, "vic_drv", vpins, vddNode);
    addReceiver(spec.victim.receiverCell, "vic_rx",
                ids[static_cast<std::size_t>(net.receiverNode(0))]);
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& agg = spec.aggressors[a];
        const cell::Cell& drv = lib.cell(agg.driverCell);
        const std::string inPin = drv.inputNames().front();
        const auto ahold = drv.holdingVector(!agg.outputRising, inPin);
        const std::string inst = "agg" + std::to_string(a);
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : drv.inputNames()) {
            pins[in] = ckt.node(inst + "_in_" + in);
            const double v0 = ahold.at(in) ? vdd : 0.0;
            ckt.addVSource(
                "v_" + inst + "_" + in, pins[in], spice::kGround,
                in == inPin ? spice::SourceSpec::pwl(wave::saturatedRamp(
                                  v0, vdd - v0, agg.switchTime, agg.inputSlew,
                                  spec.tstop))
                            : spice::SourceSpec::dc(v0));
            ++sources;
        }
        const int w = static_cast<int>(a) + 1;
        pins[drv.outputName()] = ids[static_cast<std::size_t>(net.driverNode(w))];
        drv.instantiate(ckt, inst + "_drv", pins, vddNode);
        addReceiver(agg.receiverCell, inst + "_rx",
                    ids[static_cast<std::size_t>(net.receiverNode(w))]);
    }
    spice::TranOptions opt;
    opt.tstop = spec.tstop;
    TranSample out;
    const auto t0 = Clock::now();
    out.stats = spice::simulateTransient(ckt, opt).stats();
    out.seconds = since(t0);
    // Each grounded source pins one node; the rest are Newton unknowns.
    out.unknowns = ckt.nodeCount() - sources;
    return out;
}

/// spice.* layer metrics over golden circuits, split at the solver's
/// 280-unknown dense/sparse switch.
void probeSpice(Run& run, const std::vector<const core::ClusterSpec*>& specs) {
    double acc = 0, rej = 0, iters = 0;
    double denseSec = 0, denseIters = 0, sparseSec = 0, sparseIters = 0;
    for (const core::ClusterSpec* spec : specs) {
        TranSample t;
        {
            Span s(run.tracer, "spice.transient");
            t = goldenTransient(*spec);
        }
        acc += static_cast<double>(t.stats.accepted);
        rej += static_cast<double>(t.stats.rejected);
        iters += static_cast<double>(t.stats.newtonIterations);
        const double n = static_cast<double>(t.stats.newtonIterations);
        if (t.unknowns < 280) {
            denseSec += t.seconds;
            denseIters += n;
        } else {
            sparseSec += t.seconds;
            sparseIters += n;
        }
    }
    const double k = specs.empty() ? 1.0 : static_cast<double>(specs.size());
    run.layer("spice.steps_accepted", acc / k, "count");
    run.layer("spice.steps_rejected", rej / k, "count");
    run.layer("spice.newton_iters", iters / k, "count");
    run.layer("spice.ns_per_newton_dense",
              denseIters > 0 ? 1e9 * denseSec / denseIters : 0.0, "ns");
    run.layer("spice.ns_per_newton_sparse",
              sparseIters > 0 ? 1e9 * sparseSec / sparseIters : 0.0, "ns");
}

// --------------------------------------------------------- shared pieces

void cacheLayers(Run& run, const charlib::CharCache::Stats& cold,
                 const charlib::CharCache::Stats& warm, double coldSec,
                 double warmSec) {
    run.layer("charlib.load_curve_runs", cold.loadCurveRuns, "count");
    run.layer("charlib.thevenin_runs", cold.theveninRuns, "count");
    run.layer("charlib.nrc_runs", cold.nrcRuns, "count");
    run.layer("charlib.propagation_runs", cold.propagationRuns, "count");
    run.layer("charlib.hits",
              static_cast<double>(cold.loadCurveHits + cold.theveninHits +
                                  cold.nrcHits + cold.propagationHits),
              "count");
    run.layer("charlib.disk_hits", warm.totalDiskHits(), "count");
    run.layer("charlib.characterize_s", coldSec - warmSec, "s");
}

struct Persisted {
    double saveSec = 0.0;
    double loadSec = 0.0;
    double fileKb = 0.0;
};

Persisted saveAndLoad(Run& run, const charlib::CharCache& from,
                      charlib::CharCache& into) {
    Persisted p;
    const std::string file = run.path("cache.snacache");
    auto t0 = Clock::now();
    charlib::CharCache::PersistResult saved;
    {
        Span s(run.tracer, "charlib.save");
        saved = from.save(file);
    }
    p.saveSec = since(t0);
    std::error_code ec;
    p.fileKb = static_cast<double>(std::filesystem::file_size(file, ec)) /
               1024.0;
    t0 = Clock::now();
    charlib::CharCache::PersistResult loaded;
    {
        Span s(run.tracer, "charlib.load");
        loaded = into.load(file);
    }
    p.loadSec = since(t0);
    if (!saved.ok || !loaded.ok || loaded.entries != saved.entries) {
        run.checks.fail("cache round trip: saved " +
                        std::to_string(saved.entries) + ", loaded " +
                        std::to_string(loaded.entries) + " " + loaded.error);
    }
    std::filesystem::remove(file, ec);
    std::filesystem::remove(file + ".lock", ec);
    return p;
}

void schedulerLayers(Run& run, const util::SchedulerStats& s) {
    run.layer("scheduler.tasks", static_cast<double>(s.tasksExecuted),
              "count");
    run.layer("scheduler.steals", static_cast<double>(s.steals), "count");
    run.layer("scheduler.busy_fraction", mean(s.busyFraction), "ratio");
}

void incrementalLayers(Run& run,
                       const std::vector<core::IncrementalStats>& its) {
    std::vector<double> dirty, seeds, reused;
    for (const auto& s : its) {
        dirty.push_back(static_cast<double>(s.dirtyTasks));
        seeds.push_back(static_cast<double>(s.seedNets));
        reused.push_back(static_cast<double>(s.reusedVictimReports));
    }
    run.layer("incremental.dirty_tasks", mean(dirty), "count");
    run.layer("incremental.seed_nets", mean(seeds), "count");
    run.layer("incremental.reused_reports", mean(reused), "count");
}

void frontEndLayers(Run& run) {
    for (const char* n :
         {"parser.liberty", "parser.verilog", "parser.sdc", "parser.spef",
          "frontend.build_design", "frontend.nldm_seed", "lint.frontend",
          "lint.design", "index.build", "index.levelize",
          "windows.propagate"}) {
        run.layer(std::string(n) + "_s", run.tracer.seconds(n), "s");
    }
}

/// Tracing overhead from rounds run alternately with tracing on and off.
void overheadLayer(Run& run, const std::vector<double>& traced,
                   const std::vector<double>& plain) {
    const double p = median(plain);
    run.layer("trace.overhead_pct",
              p > 0.0 && !traced.empty() ? 100.0 * (median(traced) - p) / p
                                         : 0.0,
              "%");
}

core::DesignDelta deltaFor(const snabench::EcoStep& step) {
    core::DesignDelta d;
    if (step.kind == snabench::EcoStep::Kind::resize) {
        d.instances.push_back(step.target);
    } else {
        d.nets.push_back(step.target);
    }
    return d;
}

/// The failed operations of a run: nets whose windowed verdict is worse
/// than their unconstrained one by more than the search tolerance.
constexpr double kWindowTol = 2e-3;  // V

// ---------------------------------------------------------------- signoff

constexpr int kSignoffTiles = 4;

/// Prints each window violation with the facts that explain it.
void reportViolations(const std::vector<core::NetNoiseReport>& reports,
                      const std::vector<std::string>& bad,
                      const core::Design& design) {
    for (const auto& r : reports) {
        if (std::find(bad.begin(), bad.end(), r.net) == bad.end()) continue;
        const auto& w = r.windows;
        std::fprintf(stderr,
                     "window margin below unconstrained: %s %s windowed "
                     "%.4f V unconstrained %.4f V (peak %.2f mV, width "
                     "%.0f ps, %zu excluded, %zu dropped, incoming %s)\n",
                     r.net.c_str(), design.driverOf(r.net)->cellName.c_str(),
                     w.windowedMargin, w.unconstrainedMargin,
                     1e3 * r.cluster.worst.metrics.peak,
                     1e12 * r.cluster.worst.metrics.width,
                     w.excludedAggressors.size(), w.droppedIncoming.size(),
                     r.propagated.present ? r.propagated.fromNet.c_str()
                                          : "-");
    }
}

void runSignoff(Run& run) {
    auto t0 = Clock::now();
    snabench::GenDesign model =
        snabench::makeSignoffDesign(run.seed, kSignoffTiles);
    const auto victims = model.victims();
    const auto eco = snabench::makeEcoSteps(run.seed, model);
    run.generateSec += since(t0);

    auto cold = std::make_unique<charlib::CharCache>();
    FrontEnd fe;
    readFrontEnd(run, model, *cold, fe);
    indexAndLint(run, fe, &fe.windows, *cold, true);
    run.e2e("setup_s", run.setupDone(), "s");

    core::DesignNoiseOptions opt;
    opt.propagate = true;
    opt.windows = &fe.windows;
    opt.threads = workers();
    // Spot check: the fixed tile's signal nets against the transistor
    // level, at the alignment the search finds.
    SpotCheck spot(fe, {"w0_a", "w0_b", "w0_c", "w0_d"}, opt.report);

    // Whole sessions of cold run, save, load and warm run while the time
    // lasts (two at least); the last warm run's snapshot feeds the ECO loop.
    std::vector<double> coldSec, warmSec;
    std::vector<core::NetNoiseReport> first;
    std::vector<std::string> bad;
    util::SchedulerStats coldSched;
    charlib::CharCache::Stats coldStats;
    std::unique_ptr<charlib::CharCache> warm;
    Persisted p;
    core::AnalysisSnapshot snap;
    for (int r = 0; r < 2 || run.timeLeft(); ++r) {
        if (r > 0) {
            cold = std::make_unique<charlib::CharCache>();
            core::seedNldmCharacterization(*fe.nldm, *cold);
        }
        core::DesignNoiseOptions copt = opt;
        copt.cache = cold.get();
        copt.schedulerStats = r == 0 ? &coldSched : nullptr;
        core::AnalysisOutcome out;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_design");
            out = core::analyzeDesignOutcome(*fe.design, fe.spef(), copt);
        }
        coldSec.push_back(since(t0));
        if (r == 0) {
            coldStats = cold->stats();
            snabench::checkOutcomeCovers(out, victims, run.checks);
            bad = snabench::windowViolations(out.reports, kWindowTol);
            reportViolations(out.reports, bad, *fe.design);
            first = std::move(out.reports);
        } else {
            snabench::checkReportsEqual(first, out.reports,
                                        "cold run vs first cold run",
                                        run.checks);
        }

        warm = std::make_unique<charlib::CharCache>();
        p = saveAndLoad(run, *cold, *warm);
        core::DesignNoiseOptions wopt = opt;
        wopt.cache = warm.get();
        wopt.snapshot = &snap;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_design");
            out = core::analyzeDesignOutcome(*fe.design, fe.spef(), wopt);
        }
        warmSec.push_back(since(t0));
        snabench::checkReportsEqual(first, out.reports,
                                    "warm run vs cold run", run.checks);
        if (!snap.valid) run.checks.fail("warm run captured no snapshot");
        spot.pass(run);
    }
    run.attempted = static_cast<long>(victims.size());

    // The ECO loop.
    core::DesignNoiseOptions eopt = opt;
    eopt.cache = warm.get();
    std::vector<double> ecoMs, ecoTraced, ecoPlain;
    std::vector<core::IncrementalStats> ecoStats;
    std::vector<core::NetNoiseReport> ecoReports;
    for (std::size_t i = 0; i < eco.size(); ++i) {
        const auto& step = eco[i];
        if (step.kind == snabench::EcoStep::Kind::resize) {
            fe.design->replaceCell(step.target, step.cell);
        } else {
            snabench::applyReextract(model, step);
            const std::string text = model.spef();
            Span s(run.tracer, "eco.parse_spef");
            fe.spefs.push_back(std::make_unique<parser::SpefFile>(
                parser::parseSpef(text)));
        }
        const bool traced = run.trace && i % 2 == 0;
        run.tracer.setEnabled(traced);
        core::IncrementalStats st;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_incremental");
            ecoReports = core::analyzeDesignIncremental(
                *fe.design, fe.spef(), deltaFor(step), snap, eopt, &st);
        }
        const double ms = 1e3 * since(t0);
        run.tracer.setEnabled(run.trace);
        ecoMs.push_back(ms);
        (traced ? ecoTraced : ecoPlain).push_back(ms);
        ecoStats.push_back(st);
        if (st.indexRebuilt) run.checks.fail("ECO step fell back to full run");
        if (i % 4 == 3) spot.pass(run);
    }

    // The incremental result must be the full analysis of the mutated
    // design, bit for bit.
    core::DesignNoiseOptions fopt = opt;
    fopt.cache = warm.get();
    core::AnalysisOutcome full;
    {
        Span s(run.tracer, "core.analyze_design");
        full = core::analyzeDesignOutcome(*fe.design, fe.spef(), fopt);
    }
    snabench::checkReportsEqual(full.reports, ecoReports,
                                "incremental vs full run after ECO",
                                run.checks);
    snabench::checkOutcomeCovers(full, victims, run.checks);

    std::set<std::string> failedNets(bad.begin(), bad.end());
    for (const auto& n : spot.failedNets()) failedNets.insert(n);
    run.failed = static_cast<long>(failedNets.size());

    run.e2e("analysis_s", best(coldSec), "s");
    run.e2e("warm_analysis_s", best(warmSec), "s");
    run.e2e("eco_iter_ms", mean(ecoMs), "ms");
    run.e2e("macro_cluster_ms", spot.macroMs(), "ms");
    run.e2e("golden_cluster_ms", spot.goldenMs(), "ms");
    run.e2e("peak_err_pct", snabench::meanPeakErrPct(spot.samples()), "%");

    if (run.trace) {
        frontEndLayers(run);
        cacheLayers(run, coldStats, warm->stats(), best(coldSec),
                    best(warmSec));
        run.layer("charlib.save_s", p.saveSec, "s");
        run.layer("charlib.load_s", p.loadSec, "s");
        run.layer("charlib.file_kb", p.fileKb, "KiB");
        schedulerLayers(run, coldSched);
        incrementalLayers(run, ecoStats);
        probeLayers(run, spot.specs(), spot.options());
        probeSpice(run, spot.specs());
        overheadLayer(run, ecoTraced, ecoPlain);
    }
}

// ---------------------------------------------------------------- screen

constexpr int kScreenNets = 1500;

void runScreen(Run& run) {
    auto t0 = Clock::now();
    const snabench::GenDesign model =
        snabench::makeScreenDesign(run.seed, kScreenNets);
    const auto victims = model.victims();
    std::map<std::string, snabench::ScreenNet> facts;
    for (const auto& v : victims) {
        facts[v] = {model.couplingF(v), model.groundF(v)};
    }
    run.generateSec += since(t0);

    charlib::CharCache seeded;
    FrontEnd fe;
    readFrontEnd(run, model, seeded, fe);
    indexAndLint(run, fe, nullptr, seeded, false);
    run.e2e("setup_s", run.setupDone(), "s");

    core::DesignNoiseOptions opt;
    opt.propagate = false;
    opt.report.searchAlignment = false;
    opt.threads = workers();
    const double vdd = fe.lib->technology().vdd;
    // Spot check of the fixed ring at the workload's fixed alignment.
    std::vector<std::string> spotNets;
    for (const auto& v : victims) {
        if (v[0] == 'x') spotNets.push_back(v);
    }
    SpotCheck spot(fe, spotNets, opt.report);

    // Whole cold rounds, each on a fresh cache, until the time is up.
    std::vector<double> roundSec, traced, plain;
    std::vector<core::NetNoiseReport> first;
    std::unique_ptr<charlib::CharCache> cold;
    for (int r = 0; r < 2 || run.timeLeft(); ++r) {
        cold = std::make_unique<charlib::CharCache>();
        opt.cache = cold.get();
        const bool on = run.trace && r % 2 == 0;
        run.tracer.setEnabled(on);
        core::AnalysisOutcome out;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_design");
            out = core::analyzeDesignOutcome(*fe.design, fe.spef(), opt);
        }
        const double sec = since(t0);
        run.tracer.setEnabled(run.trace);
        roundSec.push_back(sec);
        (on ? traced : plain).push_back(sec);
        if (!out.clean()) run.checks.fail("screen outcome is not clean");
        if (r == 0) {
            snabench::checkScreen(out.reports, facts, vdd, run.checks);
            first = std::move(out.reports);
        } else {
            snabench::checkReportsEqual(first, out.reports,
                                        "screen round vs first round",
                                        run.checks);
        }
        for (int k = 0; k < 3; ++k) spot.pass(run);
    }

    // Warm runs, each on a fresh cache loaded from the saved file.
    std::unique_ptr<charlib::CharCache> warm;
    Persisted p;
    core::AnalysisSnapshot snap;
    core::DesignNoiseOptions wopt = opt;
    wopt.snapshot = &snap;
    std::vector<double> warmSec;
    for (int k = 0; k < 5; ++k) {
        warm = std::make_unique<charlib::CharCache>();
        p = saveAndLoad(run, *cold, *warm);
        wopt.cache = warm.get();
        core::AnalysisOutcome warmOut;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_design");
            warmOut = core::analyzeDesignOutcome(*fe.design, fe.spef(), wopt);
        }
        warmSec.push_back(since(t0));
        snabench::checkReportsEqual(first, warmOut.reports, "warm vs cold",
                                    run.checks);
        for (int k = 0; k < 3; ++k) spot.pass(run);
    }

    // ECO: seeded driver resizes, each re-solving its net's coupled cone.
    snabench::Rng rng(run.seed ^ 0xEC05ULL);
    const std::map<std::string, std::string> resize{
        {"INV_X1", "INV_X2"}, {"INV_X2", "INV_X4"}, {"INV_X4", "INV_X1"},
        {"NAND2_X1", "NAND2_X2"}, {"NAND2_X2", "NAND2_X1"},
        {"NOR2_X1", "NOR2_X2"}, {"NOR2_X2", "NOR2_X1"}};
    core::DesignNoiseOptions eopt = wopt;
    eopt.snapshot = nullptr;
    std::vector<double> ecoMs;
    std::vector<core::IncrementalStats> ecoStats;
    std::vector<core::NetNoiseReport> ecoReports;
    for (int i = 0; i < 40; ++i) {
        std::string inst;
        std::string cellName;
        while (inst.empty()) {
            const std::string& v = victims[static_cast<std::size_t>(
                rng.below(static_cast<int>(victims.size())))];
            if (v[0] != 's') continue;  // the fixed ring stays as built
            const core::Instance* d = fe.design->driverOf(v);
            const auto it = resize.find(d->cellName);
            if (it != resize.end()) {
                inst = d->name;
                cellName = it->second;
            }
        }
        fe.design->replaceCell(inst, cellName);
        core::DesignDelta delta;
        delta.instances.push_back(inst);
        core::IncrementalStats st;
        t0 = Clock::now();
        {
            Span s(run.tracer, "core.analyze_incremental");
            ecoReports = core::analyzeDesignIncremental(
                *fe.design, fe.spef(), delta, snap, eopt, &st);
        }
        ecoMs.push_back(1e3 * since(t0));
        ecoStats.push_back(st);
        if (st.indexRebuilt) run.checks.fail("ECO step fell back to full run");
    }
    core::DesignNoiseOptions fopt = opt;
    fopt.cache = warm.get();
    core::AnalysisOutcome full;
    {
        Span s(run.tracer, "core.analyze_design");
        full = core::analyzeDesignOutcome(*fe.design, fe.spef(), fopt);
    }
    snabench::checkReportsEqual(full.reports, ecoReports,
                                "incremental vs full run after ECO",
                                run.checks);

    run.attempted = static_cast<long>(victims.size());
    run.failed = static_cast<long>(spot.failedNets().size());

    run.e2e("analysis_s", best(roundSec), "s");
    run.e2e("warm_analysis_s", best(warmSec), "s");
    run.e2e("eco_iter_ms", mean(ecoMs), "ms");
    run.e2e("macro_cluster_ms", spot.macroMs(), "ms");
    run.e2e("golden_cluster_ms", spot.goldenMs(), "ms");
    run.e2e("peak_err_pct", snabench::meanPeakErrPct(spot.samples()), "%");

    if (run.trace) {
        frontEndLayers(run);
        cacheLayers(run, cold->stats(), warm->stats(), best(roundSec),
                    best(warmSec));
        run.layer("charlib.save_s", p.saveSec, "s");
        run.layer("charlib.load_s", p.loadSec, "s");
        run.layer("charlib.file_kb", p.fileKb, "KiB");
        // The flat sweep dispatches through parallelFor, not the task
        // graph: no scheduler counters.
        schedulerLayers(run, util::SchedulerStats{});
        incrementalLayers(run, ecoStats);
        probeLayers(run, spot.specs(), spot.options());
        probeSpice(run, spot.specs());
        overheadLayer(run, traced, plain);
    }
}

// ---------------------------------------------------------------- golden

void runGolden(Run& run) {
    auto t0 = Clock::now();
    const auto cases = snabench::makeGoldenCases(run.seed);
    run.generateSec += since(t0);
    // Set-up: the cell library and every cluster's interconnect.
    (void)cell::sharedLibrary(tech::tech130());
    std::size_t rcNodes = 0;
    for (const auto& c : cases) {
        rcNodes += static_cast<std::size_t>(
            core::clusterNet(c.spec).nodeCount());
    }
    run.e2e("setup_s", run.setupDone(), "s");
    if (rcNodes == 0) run.checks.fail("golden clusters have no interconnect");
    run.attempted = static_cast<long>(cases.size());

    // Whole rounds, serial, while the time lasts (two at least): every
    // cluster through the macromodel on a fresh cache (cold), the cache
    // saved and loaded, then every cluster again on the loaded cache (warm)
    // followed by the transistor-level reference at the found alignment.
    // A traced run traces every other round. Per-cluster figures are each
    // cluster's best over the rounds, averaged over the cluster set.
    std::vector<snabench::GoldenSample> samples;
    std::map<std::string, std::vector<double>> goldenByCase, macroByCase,
        ecoByCase;
    std::vector<double> coldSec, warmSec, traced, plain;
    charlib::CharCache::Stats coldStats;
    std::unique_ptr<charlib::CharCache> warm;
    Persisted p;
    core::ReportOptions ropt;
    for (int r = 0; r < 2 || run.timeLeft(); ++r) {
        const bool on = run.trace && r % 2 == 0;
        run.tracer.setEnabled(on);
        const auto roundStart = Clock::now();
        charlib::CharCache cold;
        ropt.macromodel.cache = &cold;
        double sum = 0.0;
        for (const auto& c : cases) {
            t0 = Clock::now();
            {
                Span s(run.tracer, "core.analyze_cluster");
                (void)core::analyzeCluster(c.spec, ropt);
            }
            sum += since(t0);
        }
        coldSec.push_back(sum);
        if (r == 0) coldStats = cold.stats();

        warm = std::make_unique<charlib::CharCache>();
        p = saveAndLoad(run, cold, *warm);
        ropt.macromodel.cache = warm.get();
        std::vector<snabench::GoldenSample> got;
        std::vector<double> mMs, gMs;
        for (const auto& c : cases) {
            macroVsGolden(c.spec, c.label, ropt, run, got, mMs, gMs);
        }
        sum = 0.0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            macroByCase[cases[i].label].push_back(mMs[i]);
            goldenByCase[cases[i].label].push_back(gMs[i]);
            sum += 1e-3 * mMs[i];
        }
        warmSec.push_back(sum);

        // ECO at cluster level: the strongest aggressor driver is resized
        // and its cluster re-analyzed on the warm cache.
        for (const auto& c : cases) {
            core::ClusterSpec eco = c.spec;
            auto& drv = eco.aggressors.front().driverCell;
            drv = drv == "INV_X4" ? "INV_X2" : "INV_X4";
            t0 = Clock::now();
            {
                Span sp(run.tracer, "core.analyze_cluster");
                (void)core::analyzeCluster(eco, ropt);
            }
            ecoByCase[c.label].push_back(1e3 * since(t0));
        }
        (on ? traced : plain).push_back(since(roundStart));
        run.tracer.setEnabled(run.trace);
        if (r == 0) {
            samples = got;
            snabench::checkGolden(samples, snabench::goldenBounds(),
                                  run.checks);
            continue;
        }
        for (std::size_t i = 0; i < cases.size(); ++i) {
            if (got[i].macroPeak != samples[i].macroPeak ||
                got[i].goldenPeak != samples[i].goldenPeak) {
                run.checks.fail(cases[i].label + ": round " +
                                std::to_string(r) + " differs from round 0");
            }
        }
    }

    std::vector<double> macroMed, goldenMed, ecoMed;
    for (const auto& c : cases) {
        macroMed.push_back(best(macroByCase[c.label]));
        goldenMed.push_back(best(goldenByCase[c.label]));
        ecoMed.push_back(best(ecoByCase[c.label]));
    }
    run.e2e("analysis_s", best(coldSec), "s");
    run.e2e("warm_analysis_s", best(warmSec), "s");
    run.e2e("eco_iter_ms", mean(ecoMed), "ms");
    run.e2e("macro_cluster_ms", mean(macroMed), "ms");
    run.e2e("golden_cluster_ms", mean(goldenMed), "ms");
    run.e2e("peak_err_pct", snabench::meanPeakErrPct(samples), "%");

    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto& s = samples[i];
        std::fprintf(stderr,
                     "%-28s macro %.5f V golden %.5f V err %+.2f%%  "
                     "%.1f ms / %.1f ms\n",
                     s.label.c_str(), s.macroPeak, s.goldenPeak,
                     100.0 * (s.macroPeak - s.goldenPeak) / s.goldenPeak,
                     macroMed[i], goldenMed[i]);
    }

    if (run.trace) {
        frontEndLayers(run);
        cacheLayers(run, coldStats, warm->stats(), best(coldSec),
                    best(warmSec));
        run.layer("charlib.save_s", p.saveSec, "s");
        run.layer("charlib.load_s", p.loadSec, "s");
        run.layer("charlib.file_kb", p.fileKb, "KiB");
        schedulerLayers(run, util::SchedulerStats{});
        incrementalLayers(run, {});
        std::vector<const core::ClusterSpec*> specs;
        for (const auto& c : cases) specs.push_back(&c.spec);
        probeLayers(run, specs, ropt);
        probeSpice(run, specs);
        overheadLayer(run, traced, plain);
    }
}

// ---------------------------------------------------------------- output

void printJson(const Run& run) {
    const auto& ms = run.trace ? run.layers : run.endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                run.checks.ok() ? "true" : "false", run.attempted, run.failed);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload signoff|screen|golden --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH] "
                 "[--work-dir DIR]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Run run;
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            run.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            run.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            run.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            run.trace = v == "1";
        } else if (k == "--trace-file") {
            run.traceFile = v;
        } else if (k == "--work-dir") {
            run.workDir = v;
        } else {
            return usage(argv[0]);
        }
        if (end != nullptr && *end != '\0') return usage(argv[0]);
    }
    if (!haveWorkload || argc % 2 == 0) return usage(argv[0]);
    std::error_code ec;
    std::filesystem::create_directories(run.workDir, ec);
    if (run.traceFile.empty()) {
        run.traceFile = ".bench_trace/" + run.workload + "-" +
                        std::to_string(run.seed) + ".json";
    }
    run.tracer.setEnabled(run.trace);
    try {
        if (run.workload == "signoff") {
            runSignoff(run);
        } else if (run.workload == "screen") {
            runScreen(run);
        } else if (run.workload == "golden") {
            runGolden(run);
        } else {
            return usage(argv[0]);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "workload %s failed: %s\n", run.workload.c_str(),
                     e.what());
        return 1;
    }
    run.e2e("peak_rss_mb", peakRssMb(), "MB");
    if (run.trace) {
        const auto dir = std::filesystem::path(run.traceFile).parent_path();
        if (!dir.empty()) std::filesystem::create_directories(dir, ec);
        if (!run.tracer.writeChrome(run.traceFile)) {
            run.checks.fail("cannot write trace file " + run.traceFile);
        } else {
            std::fprintf(stderr, "trace: %s (%zu spans)\n",
                         run.traceFile.c_str(), run.tracer.events().size());
        }
    }
    for (const auto& p : run.checks.problems) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }
    printJson(run);
    return 0;
}
