/**
 * @file
 * Correctness checks against the paper or against properties the
 * method must have, never against a copy of the program's own output,
 * plus the self-test that proves each check can fail.
 */

#include <cmath>
#include <functional>

#include "bench.hh"

namespace perfbench {

namespace {

/** Paper Table 1, GM/cache column, MFLOPS at 1..4 clusters. */
constexpr double table1_paper[4] = {52.0, 104.0, 152.0, 208.0};
/** Tolerance of that column (the validation harness's band). */
constexpr double table1_tolerance = 0.08;
/** Canonical Table 1 size: the paper-comparable n. */
constexpr unsigned table1_canonical_n = 768;
/** Paper: one-cluster VL latency sits near the 8-cycle minimum. */
constexpr double vl_near_min_latency = 9.0;

void
require(bool ok, const std::string &what, std::vector<std::string> &out)
{
    if (!ok)
        out.push_back(what);
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

void
checkTable1(const std::vector<Table1Cell> &cells,
            std::vector<std::string> &problems)
{
    require(cells.size() == 4, "table1: expected 4 cluster counts",
            problems);
    for (const auto &c : cells) {
        std::string at = "table1 " + std::to_string(c.clusters) + " cl: ";
        if (c.clusters < 1 || c.clusters > 4) {
            problems.push_back(at + "cluster count out of 1..4");
            continue;
        }
        double n = c.n;
        require(c.flops == 2.0 * n * n * c.rank,
                at + "flops " + num(c.flops) + " != 2*n^2*rank", problems);
        if (c.n == table1_canonical_n) {
            double paper = table1_paper[c.clusters - 1];
            require(std::fabs(c.mflops - paper) <= table1_tolerance * paper,
                    at + "MFLOPS " + num(c.mflops) +
                        " outside the paper band " + num(paper) + " +-8%",
                    problems);
        }
        require(c.mflops > 0.0 && c.mflops <= c.peak_mflops,
                at + "MFLOPS " + num(c.mflops) + " not in (0, peak " +
                    num(c.peak_mflops) + "]",
                problems);
    }
}

void
checkTable2(const std::vector<Table2Cell> &cells,
            std::vector<std::string> &problems)
{
    std::map<std::string, std::map<unsigned, double>> latency;
    for (const auto &c : cells) {
        std::string at =
            "table2 " + c.kernel + " " + std::to_string(c.ces) + " CEs: ";
        require(c.latency >= c.min_read_latency,
                at + "latency " + num(c.latency) + " below minReadLatency " +
                    num(c.min_read_latency),
                problems);
        require(c.interarrival >= 1.0,
                at + "interarrival " + num(c.interarrival) + " below 1",
                problems);
        require(c.mflops <= c.peak_mflops,
                at + "MFLOPS " + num(c.mflops) + " above peak", problems);
        latency[c.kernel][c.ces] = c.latency;
    }
    auto growth = [&](const std::string &k) {
        auto &row = latency[k];
        return row.count(8) && row.count(32) && row[8] > 0.0
                   ? row[32] / row[8]
                   : 0.0;
    };
    require(latency["VL"].count(8) &&
                latency["VL"][8] < vl_near_min_latency,
            "table2: one-cluster VL latency not near the 8-cycle minimum",
            problems);
    double rk = growth("RK");
    for (const char *k : {"VL", "TM", "CG"}) {
        require(rk > 0.0 && rk >= growth(k),
                std::string("table2: RK latency growth ") + num(rk) +
                    " below " + k + "'s " + num(growth(k)),
                problems);
    }
}

void
checkTraffic(const TrafficCell &c, std::vector<std::string> &problems)
{
    std::string at = "traffic " + c.label + ": ";
    require(c.packets == std::uint64_t(c.rounds) * c.ports,
            at + "packets " + num(double(c.packets)) + " != rounds x ports",
            problems);
    // A combined fabric carries the replies too.
    std::uint64_t words =
        c.packets * (c.request_words + (c.combined ? c.response_words : 0));
    require(c.delivered_words == words,
            at + "delivered words " + num(double(c.delivered_words)) +
                " != injected " + num(double(words)),
            problems);
    require(c.mean_latency >= c.floor && c.max_latency >= c.mean_latency,
            at + "latency mean " + num(c.mean_latency) + " / max " +
                num(c.max_latency) + " below the minLatency() floor " +
                num(c.floor),
            problems);
}

void
checkCheckpoint(const CheckpointCell &c, std::vector<std::string> &problems)
{
    require(!c.live_point.empty() && c.live_point == c.resaved,
            "checkpoint: save -> restore -> save is not byte-identical",
            problems);
    require(!c.twin_stats.empty() && c.twin_stats == c.resumed_stats,
            "checkpoint: resumed stats differ from the uninterrupted twin",
            problems);
    require(c.windows == c.expected_windows,
            "sample: " + std::to_string(c.windows) + " windows, expected " +
                std::to_string(c.expected_windows),
            problems);
    require(c.estimate_mflops > 0.0 && c.estimate_mflops <= c.peak_mflops,
            "sample: estimate " + num(c.estimate_mflops) +
                " MFLOPS not in (0, peak]",
            problems);
}

std::vector<std::string>
selfTest()
{
    std::vector<std::string> misbehaved;
    // Runs @p check on @p record after @p doctor; the result must be
    // clean exactly when @p expect_clean.
    auto expect = [&](const std::string &what, bool expect_clean,
                      const std::function<std::size_t()> &check) {
        bool clean = check() == 0;
        if (clean != expect_clean)
            misbehaved.push_back(what);
    };

    std::vector<Table1Cell> t1;
    for (unsigned c = 1; c <= 4; ++c) {
        t1.push_back({c, table1_canonical_n, 64,
                      2.0 * table1_canonical_n * table1_canonical_n * 64,
                      table1_paper[c - 1], 376.0});
    }
    using T1Doctor = std::function<void(std::vector<Table1Cell> &)>;
    const std::vector<std::pair<std::string, T1Doctor>> t1_cases = {
        {"sound", [](auto &) {}},
        {"mflops out of band", [](auto &v) { v[2].mflops *= 1.09; }},
        {"flops off by one", [](auto &v) { v[0].flops += 1.0; }},
        {"mflops above peak",
         [](auto &v) { v[3].peak_mflops = v[3].mflops * 0.99; }},
        {"missing cell", [](auto &v) { v.pop_back(); }},
    };
    for (const auto &[what, doctor] : t1_cases) {
        expect("table1/" + what, what == "sound", [&, &doctor = doctor] {
            auto v = t1;
            doctor(v);
            std::vector<std::string> p;
            checkTable1(v, p);
            return p.size();
        });
    }

    std::vector<Table2Cell> t2;
    const double lat8[4] = {8.0, 13.7, 13.0, 10.6};
    const double growth[4] = {6.0, 5.0, 8.0, 7.0};
    const char *kernels[4] = {"VL", "TM", "RK", "CG"};
    for (int k = 0; k < 4; ++k) {
        for (unsigned ces : {8u, 16u, 32u}) {
            double g = ces == 8 ? 1.0 : ces == 16 ? 1.2 : growth[k];
            t2.push_back({kernels[k], ces, lat8[k] * g, 2.0, 6.0, 40.0,
                          376.0});
        }
    }
    using T2Doctor = std::function<void(std::vector<Table2Cell> &)>;
    const std::vector<std::pair<std::string, T2Doctor>> t2_cases = {
        {"sound", [](auto &) {}},
        {"latency below minimum", [](auto &v) { v[4].latency = 5.0; }},
        {"interarrival below 1", [](auto &v) { v[7].interarrival = 0.9; }},
        {"vl not near minimum", [](auto &v) { v[0].latency = 9.5; }},
        {"rk not worst", [](auto &v) { v[2].latency = 8.0 * 9.0; }},
        {"mflops above peak", [](auto &v) { v[5].mflops = 400.0; }},
    };
    for (const auto &[what, doctor] : t2_cases) {
        expect("table2/" + what, what == "sound", [&, &doctor = doctor] {
            auto v = t2;
            doctor(v);
            std::vector<std::string> p;
            checkTable2(v, p);
            return p.size();
        });
    }

    TrafficCell tc{"omega.uniform", false, 24, 2048, 1, 1,
                   24 * 2048, 24 * 2048, 30.0, 90.0, 24.0};
    using TDoctor = std::function<void(TrafficCell &)>;
    const std::vector<std::pair<std::string, TDoctor>> t_cases = {
        {"sound", [](auto &) {}},
        {"lost packet", [](auto &c) { c.packets -= 1; }},
        {"lost word", [](auto &c) { c.delivered_words -= 1; }},
        {"combined without replies", [](auto &c) { c.combined = true; }},
        {"beats the floor", [](auto &c) { c.mean_latency = 23.0; }},
    };
    for (const auto &[what, doctor] : t_cases) {
        expect("traffic/" + what, what == "sound", [&, &doctor = doctor] {
            auto c = tc;
            doctor(c);
            std::vector<std::string> p;
            checkTraffic(c, p);
            return p.size();
        });
    }

    CheckpointCell cc{"CEDARCKP-bytes", "CEDARCKP-bytes", "stats", "stats",
                      50.0, 6, 6, 188.0};
    using CDoctor = std::function<void(CheckpointCell &)>;
    const std::vector<std::pair<std::string, CDoctor>> c_cases = {
        {"sound", [](auto &) {}},
        {"resave differs", [](auto &c) { c.resaved.back() ^= 1; }},
        {"twin diverged", [](auto &c) { c.resumed_stats += "x"; }},
        {"window missing", [](auto &c) { c.windows -= 1; }},
        {"estimate above peak", [](auto &c) { c.estimate_mflops = 200.0; }},
    };
    for (const auto &[what, doctor] : c_cases) {
        expect("checkpoint/" + what, what == "sound",
               [&, &doctor = doctor] {
                   auto c = cc;
                   doctor(c);
                   std::vector<std::string> p;
                   checkCheckpoint(c, p);
                   return p.size();
               });
    }
    return misbehaved;
}

} // namespace perfbench
