#include "gen.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>

namespace snabench {

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

namespace {

bool isOutputPin(const std::string& pin) { return pin == "y"; }

std::vector<std::string> inputPinsOf(const std::string& cell) {
    if (cell.rfind("INV", 0) == 0 || cell.rfind("BUF", 0) == 0) return {"a"};
    if (cell.find('3') != std::string::npos ||
        cell.rfind("AOI21", 0) == 0 || cell.rfind("OAI21", 0) == 0) {
        return {"a", "b", "c"};
    }
    return {"a", "b"};
}

std::string upper(std::string s) {
    for (char& c : s) c = static_cast<char>(std::toupper(c));
    return s;
}

/// `pool` cycled to `n` entries and shuffled: every seed gets the same
/// multiset of cells (so the same amount of work), in a different order.
std::vector<std::string> dealt(Rng& rng, const std::vector<std::string>& pool,
                               int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
    }
    rng.shuffle(out);
    return out;
}

struct Builder {
    GenDesign& d;
    std::set<std::string> inputSet;

    void input(const std::string& port) {
        if (inputSet.insert(port).second) d.inputs.push_back(port);
    }
    void inst(const std::string& name, const std::string& cell,
              std::vector<std::pair<std::string, std::string>> pins) {
        d.insts.push_back({name, cell, std::move(pins)});
    }
    /// A gate whose input pins connect, in order, to `ins`.
    void gate(const std::string& name, const std::string& cell,
              const std::vector<std::string>& ins, const std::string& out) {
        const auto pins = inputPinsOf(cell);
        std::vector<std::pair<std::string, std::string>> conn;
        for (std::size_t i = 0; i < pins.size(); ++i) {
            conn.push_back({pins[i], ins[std::min(i, ins.size() - 1)]});
        }
        conn.push_back({"y", out});
        inst(name, cell, std::move(conn));
    }
    GenNet& net(const std::string& name, double groundFf, double ohms) {
        GenNet& n = d.nets[name];
        n.groundFf = groundFf;
        n.ohms = ohms;
        return n;
    }
    void couple(const std::string& a, const std::string& b, double ff) {
        d.nets.at(a).couplings.push_back({b, ff});
    }
};

}  // namespace

// ---------------------------------------------------------------- text

std::string GenDesign::verilog() const {
    std::set<std::string> ports(inputs.begin(), inputs.end());
    ports.insert(outputs.begin(), outputs.end());
    std::set<std::string> wires;
    for (const auto& i : insts) {
        for (const auto& [pin, net] : i.pins) {
            if (ports.count(net) == 0) wires.insert(net);
        }
    }
    std::ostringstream os;
    os << "// generated benchmark netlist\nmodule " << module << " (";
    bool first = true;
    for (const auto* group : {&inputs, &outputs}) {
        for (const auto& p : *group) {
            os << (first ? "" : ", ") << p;
            first = false;
        }
    }
    os << ");\n";
    for (const auto& p : inputs) os << "  input " << p << ";\n";
    for (const auto& p : outputs) os << "  output " << p << ";\n";
    for (const auto& w : wires) os << "  wire " << w << ";\n";
    for (const auto& i : insts) {
        os << "  " << i.cell << " " << i.name << " (";
        for (std::size_t k = 0; k < i.pins.size(); ++k) {
            os << (k ? ", " : "") << "." << upper(i.pins[k].first) << "("
               << i.pins[k].second << ")";
        }
        os << ");\n";
    }
    os << "endmodule\n";
    return os.str();
}

std::string GenDesign::sdc() const {
    std::ostringstream os;
    os << "# generated benchmark constraints\nset_units -time ns\n"
       << "create_clock -period 2.5 -name clk\n";
    for (const auto& [port, mm] : inputDelays) {
        os << "set_input_delay -clock clk -min " << mm.first
           << " [get_ports {" << port << "}]\n";
        os << "set_input_delay -clock clk -max " << mm.second
           << " [get_ports {" << port << "}]\n";
    }
    return os.str();
}

namespace {

struct Conn {
    std::string driverPin;                 ///< "inst:y"
    std::vector<std::string> loadPins;     ///< "inst:pin"
};

std::map<std::string, Conn> connectivity(const GenDesign& d) {
    std::map<std::string, Conn> out;
    for (const auto& i : d.insts) {
        for (const auto& [pin, net] : i.pins) {
            if (isOutputPin(pin)) {
                out[net].driverPin = i.name + ":" + pin;
            } else {
                out[net].loadPins.push_back(i.name + ":" + pin);
            }
        }
    }
    return out;
}

}  // namespace

std::string GenDesign::spef() const {
    const auto conn = connectivity(*this);
    std::ostringstream os;
    os.precision(17);
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"" << module << "\"\n"
       << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (const auto& [name, n] : nets) {
        const Conn& c = conn.at(name);
        double total = 2.0 + n.groundFf + 1.5 * c.loadPins.size();
        for (const auto& cc : n.couplings) total += cc.second;
        os << "*D_NET " << name << " " << total << "\n*CONN\n";
        os << "*I " << c.driverPin << " O\n";
        for (const auto& l : c.loadPins) os << "*I " << l << " I\n";
        os << "*CAP\n1 " << c.driverPin << " 2.0\n2 " << name << ":1 "
           << n.groundFf << "\n";
        int k = 2;
        for (const auto& l : c.loadPins) os << ++k << " " << l << " 1.5\n";
        for (const auto& [other, ff] : n.couplings) {
            os << ++k << " " << name << ":1 " << other << ":1 " << ff << "\n";
        }
        os << "*RES\n1 " << c.driverPin << " " << name << ":1 " << n.ohms
           << "\n";
        k = 1;
        for (const auto& l : c.loadPins) {
            os << ++k << " " << name << ":1 " << l << " " << n.ohms << "\n";
        }
        os << "*END\n\n";
    }
    return os.str();
}

std::vector<std::string> GenDesign::victims() const {
    const auto conn = connectivity(*this);
    std::set<std::string> coupled;
    for (const auto& [name, n] : nets) {
        for (const auto& [other, ff] : n.couplings) {
            if (ff > 0.0) {
                coupled.insert(name);
                coupled.insert(other);
            }
        }
    }
    std::vector<std::string> out;
    for (const auto& name : coupled) {
        const auto it = conn.find(name);
        if (nets.count(name) != 0 && it != conn.end() &&
            !it->second.driverPin.empty() && !it->second.loadPins.empty()) {
            out.push_back(name);
        }
    }
    return out;
}

double GenDesign::couplingF(const std::string& net) const {
    double ff = 0.0;
    for (const auto& [name, n] : nets) {
        for (const auto& [other, cc] : n.couplings) {
            if (name == net || other == net) ff += cc;
        }
    }
    return ff * 1e-15;
}

double GenDesign::groundF(const std::string& net) const {
    const auto conn = connectivity(*this);
    return (2.0 + nets.at(net).groundFf +
            1.5 * static_cast<double>(conn.at(net).loadPins.size())) *
           1e-15;
}

// ---------------------------------------------------------------- signoff

namespace {

using Slot = std::pair<double, double>;  ///< SDC input delay [min, max], ns

/// Switching slots of the windowed block's SDC input delays, ns.
const std::vector<Slot> kSlots{{0.0, 0.08}, {0.3, 0.45}, {1.6, 1.8}};

struct TileCells {
    std::string c1, c2, c3, c5;
    std::string agg[4];  ///< drivers of f0, f1, s0, s1
};

/// One tile: a chained 5-stage cone with reconvergence (a reaches c
/// directly and through b) and a quiet pass-through stage (q has no
/// coupling), plus four aggressor routes. `slots`, when given, sets the SDC
/// input delays of the signal ports (slots[0]) and of the two s* aggressor
/// ports (slots[1], slots[2]); without it every port is unconstrained.
void addTile(Builder& b, Rng& rng, const std::string& t, const TileCells& c,
             const std::vector<Slot>* slots) {
    GenDesign& d = b.d;
    for (const char* p : {"i0", "i1", "i2"}) {
        b.input(t + p);
        if (slots) d.inputDelays[t + p] = (*slots)[0];
    }
    b.gate(t + "g1", c.c1, {t + "i0", t + "i1"}, t + "a");
    b.gate(t + "g2", c.c2, {t + "a", t + "i2", t + "i1"}, t + "b");
    b.gate(t + "g3", c.c3, {t + "a", t + "b"}, t + "c");
    b.gate(t + "g4", "INV_X1", {t + "c"}, t + "q");
    b.gate(t + "g5", c.c5, {t + "q"}, t + "d");
    b.gate(t + "snk", "INV_X2", {t + "d"}, t + "o");
    d.outputs.push_back(t + "o");
    // f* aggressors are never constrained; every victim of a tile couples
    // to at least one of them.
    const char* ids[4] = {"f0", "f1", "s0", "s1"};
    for (int a = 0; a < 4; ++a) {
        const std::string id = ids[a];
        const std::string port = t + id + "_in";
        b.input(port);
        if (slots && a >= 2) {
            d.inputDelays[port] = (*slots)[static_cast<std::size_t>(a - 1)];
        }
        b.gate(t + id + "_drv", c.agg[a], {port}, t + id);
        b.gate(t + id + "_rx", "INV_X1", {t + id}, t + id + "_o");
        d.outputs.push_back(t + id + "_o");
    }
    for (const char* n : {"a", "b", "c", "q", "d", "f0", "f1", "s0", "s1"}) {
        b.net(t + n, rng.uniform(2.0, 5.0), rng.uniform(30.0, 80.0));
    }
    const auto cc = [&](double lo, double hi) {
        return std::round(rng.uniform(lo, hi) * 100.0) / 100.0;
    };
    b.couple(t + "a", t + "f0", cc(8, 20));
    b.couple(t + "a", t + "s0", cc(8, 20));
    b.couple(t + "b", t + "f1", cc(8, 20));
    b.couple(t + "b", t + "s0", cc(6, 16));
    b.couple(t + "c", t + "f0", cc(6, 16));
    b.couple(t + "c", t + "s1", cc(8, 20));
    b.couple(t + "d", t + "f1", cc(8, 20));
    b.couple(t + "d", t + "s1", cc(6, 16));
    b.couple(t + "s0", t + "f1", cc(10, 20));
    b.couple(t + "s1", t + "f0", cc(10, 20));
}

}  // namespace

GenDesign makeSignoffDesign(std::uint64_t seed, int tiles) {
    GenDesign d;
    d.module = "signoff_bench";
    Builder b{d, {}};

    // Seeded tiles. Every seed deals the same multiset of cells, so the
    // amount of work stays put while the design changes.
    Rng rng(seed);
    const auto c1 = dealt(rng, {"NAND2_X1", "NOR2_X1", "NAND2_X2", "NOR2_X2",
                                "INV_X1", "INV_X2"}, tiles);
    const auto c2 = dealt(rng, {"AOI21_X1", "OAI21_X1", "NAND3_X1",
                                "NOR3_X1"}, tiles);
    const auto c3 = dealt(rng, {"NOR2_X1", "NAND2_X1", "NOR2_X2",
                                "NAND2_X2"}, tiles);
    const auto c5 = dealt(rng, {"INV_X1", "INV_X2", "INV_X4"}, tiles);
    const auto agg = dealt(rng, {"INV_X2", "INV_X4"}, 4 * tiles);
    for (int k = 0; k < tiles; ++k) {
        const auto i = static_cast<std::size_t>(k);
        TileCells c{c1[i], c2[i], c3[i], c5[i],
                    {agg[4 * i], agg[4 * i + 1], agg[4 * i + 2],
                     agg[4 * i + 3]}};
        addTile(b, rng, "t" + std::to_string(k) + "_", c, nullptr);
    }

    // The windowed block, identical for every seed: a tile whose ports
    // switch in three different SDC slots, and a NOR2_X1-driven victim that
    // switches late next to one early aggressor — the windows exclude the
    // aggressor and no glitch arrives, so its windowed run has no noise
    // source at all.
    Rng fixed(0x5EEDB10CULL);
    const std::vector<Slot> w0{kSlots[0], kSlots[1], kSlots[2]};
    addTile(b, fixed, "w0_",
            {"NOR2_X1", "AOI21_X1", "NAND2_X1", "INV_X1",
             {"INV_X4", "INV_X2", "INV_X4", "INV_X2"}},
            &w0);
    for (const char* p : {"w_i0", "w_i1"}) {
        b.input(p);
        d.inputDelays[p] = kSlots[2];
    }
    b.input("w_gi");
    d.inputDelays["w_gi"] = kSlots[0];
    b.gate("w_nor", "NOR2_X1", {"w_i0", "w_i1"}, "w_v");
    b.gate("w_rx", "INV_X2", {"w_v"}, "w_o");
    b.gate("w_gd", "INV_X4", {"w_gi"}, "w_g");
    b.gate("w_gr", "INV_X1", {"w_g"}, "w_go");
    d.outputs.push_back("w_o");
    d.outputs.push_back("w_go");
    b.net("w_v", 3.0, 50.0);
    b.net("w_g", 3.0, 40.0);
    b.couple("w_v", "w_g", 15.0);
    return d;
}

std::vector<EcoStep> makeEcoSteps(std::uint64_t seed, const GenDesign& d) {
    Rng rng(seed ^ 0xEC0ULL);
    // Pin-compatible resize families.
    const std::map<std::string, std::string> resized{
        {"INV_X1", "INV_X2"}, {"INV_X2", "INV_X4"}, {"INV_X4", "INV_X1"},
        {"NAND2_X1", "NAND2_X2"}, {"NAND2_X2", "NAND2_X1"},
        {"NOR2_X1", "NOR2_X2"}, {"NOR2_X2", "NOR2_X1"}};
    std::map<std::string, std::string> cellOf;
    for (const auto& i : d.insts) cellOf[i.name] = i.cell;
    // Targets sit at the end of a seeded tile's cone, so an iteration
    // re-solves a handful of nets, as a late-stage ECO does: every tile gets
    // two last-stage driver resizes and two re-extractions of its last net,
    // in an order and with cap scales the seed picks. The same targets on
    // every seed keep the amount of work put.
    std::vector<EcoStep> steps;
    for (int twice = 0; twice < 2; ++twice) {
        for (const auto& i : d.insts) {
            if (i.name.rfind("t", 0) != 0 ||
                i.name.find("_g5") == std::string::npos) {
                continue;
            }
            const std::string tile = i.name.substr(0, i.name.find('_') + 1);
            EcoStep resize;
            resize.target = tile + "g5";
            resize.cell = resized.at(cellOf.at(resize.target));
            cellOf[resize.target] = resize.cell;
            EcoStep reextract;
            reextract.kind = EcoStep::Kind::reextract;
            reextract.target = tile + "d";
            reextract.scale = rng.uniform(0.8, 1.25);
            steps.push_back(resize);
            steps.push_back(reextract);
        }
    }
    rng.shuffle(steps);
    return steps;
}

void applyReextract(GenDesign& d, const EcoStep& step) {
    GenNet& n = d.nets.at(step.target);
    n.groundFf *= step.scale;
    for (auto& cc : n.couplings) cc.second *= step.scale;
}

// ---------------------------------------------------------------- screen

GenDesign makeScreenDesign(std::uint64_t seed, int nets) {
    Rng rng(seed ^ 0x5C4EE7ULL);
    GenDesign d;
    d.module = "screen_bench";
    Builder b{d, {}};
    constexpr int kPorts = 16;
    for (int p = 0; p < kPorts; ++p) b.input("in" + std::to_string(p));
    const auto drivers = dealt(
        rng, {"INV_X1", "INV_X2", "INV_X4", "NAND2_X1", "NAND2_X2", "NOR2_X1",
              "NOR2_X2", "NAND3_X1", "NOR3_X1", "AOI21_X1", "OAI21_X1"},
        nets);
    const auto receivers =
        dealt(rng, {"INV_X1", "INV_X2", "NAND2_X1"}, nets);
    const auto quiet = [](int i) { return i % 10 == 9; };
    for (int i = 0; i < nets; ++i) {
        const std::string n = "s" + std::to_string(i);
        std::vector<std::string> ins;
        for (int p = 0; p < 3; ++p) {
            ins.push_back("in" + std::to_string((3 * i + p) % kPorts));
        }
        b.gate("d" + std::to_string(i), drivers[static_cast<std::size_t>(i)],
               ins, n);
        b.gate("r" + std::to_string(i),
               receivers[static_cast<std::size_t>(i)], {n, "in0"},
               "po" + std::to_string(i));
        d.outputs.push_back("po" + std::to_string(i));
        b.net(n, rng.uniform(2.0, 6.0), rng.uniform(30.0, 80.0));
    }
    for (int i = 0; i < nets; ++i) {
        if (quiet(i)) continue;
        const std::string n = "s" + std::to_string(i);
        const int j = (i + 1) % nets;
        if (!quiet(j)) {
            b.couple(n, "s" + std::to_string(j),
                     std::round(rng.uniform(6.0, 18.0) * 100.0) / 100.0);
        }
        const int k = (i + 3) % nets;
        if (i % 4 == 0 && !quiet(k)) {
            b.couple(n, "s" + std::to_string(k),
                     std::round(rng.uniform(3.0, 8.0) * 100.0) / 100.0);
        }
    }

    // A small ring identical for every seed, one net per driver cell: the
    // clusters the transistor-level spot check runs on.
    Rng fixed(0x5EEDC0DEULL);
    const std::vector<std::string> cells{
        "INV_X1",  "INV_X2",  "INV_X4",   "NAND2_X1", "NAND2_X2", "NOR2_X1",
        "NOR2_X2", "NAND3_X1", "NOR3_X1", "AOI21_X1", "OAI21_X1"};
    const int nx = static_cast<int>(cells.size());
    for (int i = 0; i < nx; ++i) {
        const std::string n = "x" + std::to_string(i);
        b.gate("xd" + std::to_string(i), cells[static_cast<std::size_t>(i)],
               {"in1", "in2", "in3"}, n);
        b.gate("xr" + std::to_string(i), "INV_X2", {n}, "xpo" + std::to_string(i));
        d.outputs.push_back("xpo" + std::to_string(i));
        b.net(n, fixed.uniform(2.0, 6.0), fixed.uniform(30.0, 80.0));
    }
    for (int i = 0; i < nx; ++i) {
        b.couple("x" + std::to_string(i), "x" + std::to_string((i + 1) % nx),
                 std::round(fixed.uniform(6.0, 18.0) * 100.0) / 100.0);
    }
    return d;
}

// ---------------------------------------------------------------- liberty

std::string libertyText() {
    struct CellDef {
        const char* name;
        int strength;
        double riseStack;  ///< series-PMOS slowdown
        double fallStack;  ///< series-NMOS slowdown
        const char* function;
    };
    const std::vector<CellDef> cells{
        {"INV_X1", 1, 1.0, 1.0, "!A"},
        {"INV_X2", 2, 1.0, 1.0, "!A"},
        {"INV_X4", 4, 1.0, 1.0, "!A"},
        {"NAND2_X1", 1, 1.0, 1.3, "!(A&B)"},
        {"NAND2_X2", 2, 1.0, 1.3, "!(A&B)"},
        {"NAND3_X1", 1, 1.0, 1.6, "!(A&B&C)"},
        {"NOR2_X1", 1, 1.5, 1.0, "!(A|B)"},
        {"NOR2_X2", 2, 1.5, 1.0, "!(A|B)"},
        {"NOR3_X1", 1, 2.0, 1.0, "!(A|B|C)"},
        {"AOI21_X1", 1, 1.5, 1.3, "!((A&B)|C)"},
        {"OAI21_X1", 1, 1.3, 1.5, "!((A|B)&C)"},
    };
    const double slews[3] = {0.010, 0.030, 0.100};  // ns
    const double loads[3] = {0.005, 0.030, 0.100};  // pF
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "/* generated benchmark NLDM library */\nlibrary (bench130) {\n"
       << "  delay_model : table_lookup;\n  time_unit : \"1ns\";\n"
       << "  capacitive_load_unit (1, pf);\n  voltage_unit : \"1V\";\n"
       << "  nom_voltage : 1.2;\n"
       << "  lu_table_template (delay_3x3) {\n"
       << "    variable_1 : input_net_transition;\n"
       << "    variable_2 : total_output_net_capacitance;\n"
       << "    index_1 (\"0.010, 0.030, 0.100\");\n"
       << "    index_2 (\"0.005, 0.030, 0.100\");\n  }\n";
    for (const CellDef& c : cells) {
        const auto pins = inputPinsOf(c.name);
        const double k = c.strength;
        os << "  cell (" << c.name << ") {\n    area : " << 1.0 + 0.6 * k
           << ";\n";
        for (const auto& p : pins) {
            os << "    pin (" << upper(p) << ") {\n"
               << "      direction : input;\n      capacitance : "
               << 0.002 * k << ";\n    }\n";
        }
        os << "    pin (Y) {\n      direction : output;\n      function : \""
           << c.function << "\";\n";
        for (std::size_t pi = 0; pi < pins.size(); ++pi) {
            // Pins nearer the output switch slightly faster.
            const double pinSkew = 1.0 + 0.08 * static_cast<double>(pi);
            os << "      timing () {\n        related_pin : \""
               << upper(pins[pi]) << "\";\n"
               << "        timing_sense : negative_unate;\n";
            const auto table = [&](const char* group, double stack,
                                   bool transition) {
                os << "        " << group << " (delay_3x3) {\n"
                   << "          values (";
                for (int s = 0; s < 3; ++s) {
                    os << (s ? ", \\\n                  " : "") << "\"";
                    for (int l = 0; l < 3; ++l) {
                        const double v =
                            transition
                                ? 0.008 + 0.12 * slews[s] +
                                      1.8 * stack * loads[l] / k
                                : (0.014 + 0.3 * slews[s] +
                                   1.2 * stack * loads[l] / k) *
                                      pinSkew;
                        os << (l ? ", " : "") << v;
                    }
                    os << "\"";
                }
                os << ");\n        }\n";
            };
            table("cell_rise", c.riseStack, false);
            table("cell_fall", c.fallStack, false);
            table("rise_transition", c.riseStack, true);
            table("fall_transition", c.fallStack, true);
            os << "      }\n";
        }
        os << "    }\n  }\n";
    }
    os << "}\n";
    return os.str();
}

// ---------------------------------------------------------------- golden

std::vector<GoldenCase> makeGoldenCases(std::uint64_t seed) {
    Rng rng(seed ^ 0x601DE4ULL);
    const std::vector<std::string> cells{"INV_X1",  "NAND2_X1", "NAND3_X1",
                                         "NOR2_X1", "NOR3_X1",  "AOI21_X1",
                                         "OAI21_X1"};
    std::vector<GoldenCase> out;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        for (int j = 0; j < 2; ++j) {
            const bool glitch = j == 1;
            const int aggs = 1 + static_cast<int>((ci + j) % 3);
            const bool sparse = (ci + j) % 2 == 1;
            GoldenCase g;
            auto& s = g.spec;
            s.victim.driverCell = cells[ci];
            s.victim.glitchInput = "a";
            s.victim.outputLevel = (ci % 2) == 1;
            s.victim.receiverCell = "INV_X2";
            if (glitch) {
                s.victim.glitchHeight = rng.uniform(0.34, 0.38);
                s.victim.glitchWidth = rng.uniform(195e-12, 225e-12);
            } else {
                (void)rng.uniform(0, 1);
                (void)rng.uniform(0, 1);
            }
            for (int a = 0; a < aggs; ++a) {
                sna::core::AggressorSpec as;
                as.driverCell = a == 0 ? "INV_X4" : "INV_X2";
                as.outputRising = !s.victim.outputLevel;
                as.inputSlew = rng.uniform(32e-12, 38e-12);
                as.couplingScale = rng.uniform(0.95, 1.05);
                s.aggressors.push_back(as);
            }
            s.lengthUm = rng.uniform(480.0, 520.0);
            // Star-cluster unknowns ~ (wires) x (segments + 1): dense cases
            // stay far below the 280-unknown switch, sparse ones above it.
            s.segments = sparse ? 290 / (aggs + 1) + 6 : 12;
            g.label = cells[ci] + "/" + std::to_string(aggs) + "agg/" +
                      (glitch ? "glitch" : "quiet") + "/seg" +
                      std::to_string(s.segments);
            out.push_back(std::move(g));
        }
    }
    return out;
}

}  // namespace snabench
