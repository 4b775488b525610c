// Seeded input generators for the benchmark workloads.
//
// Every input the benchmark feeds the program — Liberty, Verilog, SDC and
// SPEF text for the design workloads, cluster specs for the golden one —
// comes from here and from nothing but the seed. The generator also keeps
// its own model of what it wrote (which nets are coupled, driven and
// loaded; their SPEF caps), so the output checks compare the program's
// results against facts computed apart from the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"

namespace snabench {

/// splitmix64: a small, portable, seedable source (the same seed gives the
/// same stream on every platform and standard library).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
    std::uint64_t next();
    double uniform(double lo, double hi);
    int below(int n);  ///< uniform in [0, n)
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
            std::swap(v[static_cast<std::size_t>(i)],
                      v[static_cast<std::size_t>(below(i + 1))]);
        }
    }

private:
    std::uint64_t s_;
};

struct GenInst {
    std::string name;
    std::string cell;  ///< library spelling, e.g. "NAND2_X1"
    std::vector<std::pair<std::string, std::string>> pins;  ///< pin -> net
};

/// A routed net as the extractor would see it (SPEF units: fF, ohm).
struct GenNet {
    double groundFf = 0.0;  ///< wire cap at the mid node
    double ohms = 40.0;     ///< per RES segment
    /// Coupling caps listed in this net's *CAP section (the other net's
    /// section does not repeat them).
    std::vector<std::pair<std::string, double>> couplings;
};

struct GenDesign {
    std::string module;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::vector<GenInst> insts;
    std::map<std::string, GenNet> nets;  ///< routed nets (SPEF sections)
    /// SDC input delays: port -> [min, max] in ns.
    std::map<std::string, std::pair<double, double>> inputDelays;

    std::string verilog() const;
    std::string sdc() const;
    std::string spef() const;

    /// Nets the analysis must report as victims: routed, coupled (in either
    /// section), with a driver and at least one load. Sorted.
    std::vector<std::string> victims() const;
    /// Summed coupling cap of `net` over both sections, F.
    double couplingF(const std::string& net) const;
    /// Grounded cap of the net's own section (driver pin + wire + loads), F.
    double groundF(const std::string& net) const;
};

/// One ECO step of the signoff workload.
struct EcoStep {
    enum class Kind { resize, reextract };
    Kind kind = Kind::resize;
    std::string target;  ///< instance (resize) or net (reextract)
    std::string cell;    ///< new cell (resize)
    double scale = 1.0;  ///< cap scale (reextract)
};

/// The signoff design: `tiles` seeded tiles of chained and reconvergent
/// cones with quiet pass-through nets, all ports unconstrained, plus a
/// windowed block that does not depend on the seed (nets "w0_*", "w_*"),
/// whose ports carry SDC input delays in several slots.
GenDesign makeSignoffDesign(std::uint64_t seed, int tiles);
/// The ECO sequence: a resize and a re-extraction in every seeded tile.
std::vector<EcoStep> makeEcoSteps(std::uint64_t seed, const GenDesign& d);
/// Applies a re-extraction step to the model (scales the net's caps).
void applyReextract(GenDesign& d, const EcoStep& step);

/// The screen design: `nets` routed nets in a coupled ring, every tenth
/// one quiet (uncoupled), plus a fixed ring of one net per driver cell
/// (nets "x<i>"), which does not depend on the seed.
GenDesign makeScreenDesign(std::uint64_t seed, int nets);

/// NLDM library text covering every cell the generators instantiate.
std::string libertyText();

/// Golden-workload clusters: victim cells x aggressor counts x input
/// glitch, on both sides of the dense/sparse Newton switch.
struct GoldenCase {
    std::string label;  ///< e.g. "NOR2_X1/2agg/glitch/seg48"
    sna::core::ClusterSpec spec;
};
std::vector<GoldenCase> makeGoldenCases(std::uint64_t seed);

}  // namespace snabench
