/**
 * @file
 * The four workloads. Each splits a different layer of the simulator:
 *
 *  - table2_gm: Table 2's kernels on the 4x8 omega machine, dominated
 *    by the PFU -> GM -> omega -> module request path;
 *  - table1_cache: Table 1's GM/cache column, dominated by CE advance
 *    and cache streaming (the request path is a minority);
 *  - scale256_traffic: 2048-port fabrics under synthetic traffic, no
 *    PFU, CE or cache at all; machine construction is set-up;
 *  - sampled_windows: live-point sampling, the only checkpoint user.
 *
 * The seed shapes each workload's inputs without changing how much
 * work a round does, so run-to-run spread measures the host, not the
 * inputs.
 */

#include <algorithm>
#include <functional>
#include <sstream>

#include "bench.hh"
#include "kernels/cg.hh"
#include "kernels/rank64.hh"
#include "kernels/tridiag.hh"
#include "kernels/vload.hh"
#include "mem/globalmem.hh"
#include "net/traffic.hh"
#include "sample/sample.hh"
#include "sim/error.hh"
#include "sim/random.hh"

namespace perfbench {

namespace {

using cedar::machine::CedarConfig;
namespace kernels = cedar::kernels;
namespace net = cedar::net;

/** Deterministic Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, cedar::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// ---------------------------------------------------------------- Table 2

/**
 * Table 2 at one eighth of the validation scenario's problem sizes:
 * the same kernels, CE counts and blocking, so the same request path,
 * with a round short enough to repeat many times in one run.
 */
class Table2Gm : public Workload
{
  public:
    explicit Table2Gm(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        // Inputs: the seed orders the twelve (kernel, CEs) runs and
        // skews each run's global arrays by 0..31 words, which moves
        // the staggered VL/TM/CG arrays across module phases.
        cedar::Rng rng(_seed);
        _runs.clear();
        for (unsigned k = 0; k < 4; ++k) {
            for (unsigned ces : {8u, 16u, 32u})
                _runs.push_back({k, ces, 0});
        }
        shuffle(_runs, rng);
        for (auto &r : _runs)
            r.skew = static_cast<unsigned>(rng.below(32));
        // Warm-up: every kernel once at one cluster, RK at half size.
        Round scratch;
        std::vector<Table2Cell> cells;
        for (unsigned k = 0; k < 4; ++k)
            runKernel({k, 8, 0}, k == 2 ? 64 : rk_n, scratch, tracer, cells);
    }

    void
    round(Round &r, Tracer &tracer) override
    {
        std::vector<Table2Cell> cells;
        for (const auto &run : _runs)
            runKernel(run, rk_n, r, tracer, cells);
        for (const auto &c : cells) {
            r.signature.push_back(c.latency);
            r.signature.push_back(c.interarrival);
            r.signature.push_back(c.mflops);
        }
        checkTable2(cells, r.problems);
    }

  private:
    struct Run
    {
        unsigned kernel;
        unsigned ces;
        unsigned skew;
    };

    static constexpr const char *names[4] = {"VL", "TM", "RK", "CG"};
    static constexpr const char *spans[4] = {
        "kernels.run.vl", "kernels.run.tm", "kernels.run.rk",
        "kernels.run.cg"};
    static constexpr unsigned rk_n = 128;

    void
    runKernel(const Run &run, unsigned rk_size, Round &r, Tracer &tracer,
              std::vector<Table2Cell> &cells)
    {
        auto unit = tracer.unit(std::string(names[run.kernel]) + " ces=" +
                                std::to_string(run.ces));
        auto m = tracer.build(CedarConfig::standard());
        kernels::KernelResult res;
        tracer.measure(r, *m, spans[run.kernel], [&] {
            if (run.skew)
                m->allocGlobal(run.skew, 1);
            switch (run.kernel) {
            case 0: {
                kernels::VloadParams p;
                p.ces = run.ces;
                p.repetitions = 40;
                res = kernels::runVload(*m, p);
                break;
            }
            case 1: {
                kernels::TridiagParams p;
                p.ces = run.ces;
                p.n = 128 * run.ces;
                res = kernels::runTridiag(*m, p);
                break;
            }
            case 2: {
                kernels::Rank64Params p;
                p.version = kernels::Rank64Version::gm_prefetch;
                p.clusters = run.ces / 8;
                p.n = rk_size;
                res = kernels::runRank64(*m, p);
                break;
            }
            default: {
                kernels::CgTimedParams p;
                p.ces = run.ces;
                p.n = 128 * run.ces;
                p.m = 128;
                p.iterations = 1;
                res = kernels::runCgTimed(*m, p);
                break;
            }
            }
        });
        cells.push_back({names[run.kernel], run.ces, res.mean_latency,
                         res.mean_interarrival,
                         static_cast<double>(m->gm().minReadLatency()),
                         res.mflopsRate(), m->config().peakMflops()});
    }

    std::uint64_t _seed;
    std::vector<Run> _runs;
};

// ---------------------------------------------------------------- Table 1

/** Table 1's GM/cache column at the canonical n = 768, 1..4 clusters. */
class Table1Cache : public Workload
{
  public:
    explicit Table1Cache(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        // Inputs: the matrices are fixed by the paper; the seed orders
        // the four cluster counts.
        cedar::Rng rng(_seed);
        _order = {1, 2, 3, 4};
        shuffle(_order, rng);
        Round scratch;
        std::vector<Table1Cell> cells;
        for (unsigned cl : _order)
            runCell(cl, 128, scratch, tracer, cells);
    }

    void
    round(Round &r, Tracer &tracer) override
    {
        std::vector<Table1Cell> cells;
        for (unsigned cl : _order)
            runCell(cl, canonical_n, r, tracer, cells);
        for (const auto &c : cells)
            r.signature.push_back(c.mflops);
        checkTable1(cells, r.problems);
    }

  private:
    static constexpr unsigned canonical_n = 768;

    void
    runCell(unsigned clusters, unsigned n, Round &r, Tracer &tracer,
            std::vector<Table1Cell> &cells)
    {
        auto unit = tracer.unit("rank64 gm_cache clusters=" +
                                std::to_string(clusters));
        auto m = tracer.build(CedarConfig::standard());
        kernels::Rank64Params p;
        p.version = kernels::Rank64Version::gm_cache;
        p.clusters = clusters;
        p.n = n;
        kernels::KernelResult res;
        tracer.measure(r, *m, "kernels.run.rank64",
                       [&] { res = kernels::runRank64(*m, p); });
        cells.push_back({clusters, n, p.rank, res.flops, res.mflopsRate(),
                         m->config().peakMflops()});
    }

    std::uint64_t _seed;
    std::vector<unsigned> _order;
};

// ------------------------------------------------------- 256-cluster fabrics

struct Fabric
{
    const char *label;
    const char *topology;
    bool combined;
};

constexpr Fabric scale_fabrics[] = {
    {"omega", "omega", false},
    {"fattree", "fattree", false},
    {"crossbar", "crossbar", false},
    {"combined", "omega", true},
};

/**
 * Cluster counts outside the documented 1..256 range that validate()
 * must refuse (257 on the fat tree is already refused: 2056 ports is
 * no power of 2, 4 or 8).
 */
constexpr std::pair<unsigned, const char *> out_of_range[] = {
    {257, "omega"}, {512, "omega"}, {257, "crossbar"},
    {512, "crossbar"}, {512, "fattree"},
};

/**
 * 2048-port machines of every fabric family, built in set-up and
 * driven by synthetic traffic in the timed part.
 */
class Scale256Traffic : public Workload
{
  public:
    explicit Scale256Traffic(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        _machines.clear();
        for (const auto &f : scale_fabrics) {
            _machines.push_back(tracer.build(
                CedarConfig::scaled(256, f.topology, f.combined)));
        }
        // Inputs: the seed draws each uniform and hot-spot schedule and
        // the hot port; bit reversal and transpose are fixed
        // permutations.
        _params.clear();
        cedar::Rng rng(_seed);
        for (std::size_t f = 0; f < _machines.size(); ++f) {
            for (auto pattern : net::allTrafficPatterns()) {
                net::TrafficParams p;
                p.pattern = pattern;
                p.rounds = traffic_rounds;
                p.seed = rng.next();
                p.hot_port = static_cast<unsigned>(rng.below(ports));
                _params.push_back(p);
            }
        }
        // Warm-up: one injection round of uniform traffic per fabric.
        Round scratch;
        net::TrafficParams warm;
        warm.rounds = 1;
        for (std::size_t f = 0; f < _machines.size(); ++f)
            drive(f, warm, scratch, tracer);
    }

    void
    round(Round &r, Tracer &tracer) override
    {
        std::size_t i = 0;
        for (std::size_t f = 0; f < _machines.size(); ++f) {
            for (std::size_t p = 0; p < 4; ++p)
                drive(f, _params[i++], r, tracer);
        }
        // validate() must reject cluster counts past 256. It does not
        // yet, so these operations fail in every round.
        for (const auto &[clusters, topology] : out_of_range) {
            ++r.attempted;
            try {
                CedarConfig::scaled(clusters, topology).validate();
                ++r.failed;
            } catch (const cedar::SimError &) {
            }
        }
    }

  private:
    static constexpr unsigned ports = 2048;
    static constexpr unsigned traffic_rounds = 24;

    void
    drive(std::size_t f, const net::TrafficParams &params, Round &r,
          Tracer &tracer)
    {
        CedarMachine &m = *_machines[f];
        const Fabric &fabric = scale_fabrics[f];
        std::string label = std::string(fabric.label) + "." +
                            net::trafficPatternName(params.pattern);
        auto unit = tracer.unit("traffic " + label);
        cedar::Tick start = m.sim().curTick();
        net::TrafficResult res;
        cedar::Tick idle = 0;
        tracer.measure(r, m, "net.traffic." + label, [&] {
            res = net::runTraffic(m.sim(), m.gm().forwardNet(),
                                  m.gm().reverseNet(), params);
            // Idle the engine past the last tail so the next run on this
            // machine starts on empty links, exactly like this one did.
            idle = std::max(res.makespan, m.sim().curTick()) + 1;
            m.sim().schedule(idle, [] {});
            m.sim().run();
        });

        auto &fwd = m.gm().forwardNet();
        auto &rev = m.gm().reverseNet();
        TrafficCell cell{label,
                         fabric.combined,
                         params.rounds,
                         fwd.numPorts(),
                         params.request_words,
                         params.response_words,
                         res.packets,
                         res.delivered_words,
                         res.mean_latency,
                         static_cast<double>(res.max_latency),
                         static_cast<double>(fwd.minLatency() +
                                             rev.minLatency())};
        checkTraffic(cell, r.problems);
        r.signature.push_back(res.mean_latency);
        r.signature.push_back(cell.max_latency);
        r.signature.push_back(static_cast<double>(idle - start));
    }

    std::uint64_t _seed;
    std::vector<std::unique_ptr<CedarMachine>> _machines;
    std::vector<net::TrafficParams> _params;
};

// -------------------------------------------------------- sampled windows

/** Registry dump without the wall-clock host scalars. */
std::string
strippedStats(CedarMachine &m)
{
    std::istringstream in(m.stats().dumpText());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find(".host_") == std::string::npos) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

/**
 * SMARTS-style sampling of a two-phase, 2-cluster rank-64 workload
 * (GM/prefetch and GM/cache units): warm up, save a live-point, then
 * restore it into a fresh machine for every measurement window.
 */
class SampledWindows : public Workload
{
  public:
    explicit SampledWindows(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        // Inputs: warm-up units are GM/prefetch; the seed orders the
        // sampled units, half of each phase, so every round simulates
        // the same units whatever the order.
        cedar::Rng rng(_seed);
        std::vector<kernels::Rank64Version> sampled;
        for (unsigned u = 0; u < windows; ++u) {
            sampled.push_back(u % 2 ? kernels::Rank64Version::gm_cache
                                    : kernels::Rank64Version::gm_prefetch);
        }
        shuffle(sampled, rng);
        _phase.assign(warmup_units, kernels::Rank64Version::gm_prefetch);
        _phase.insert(_phase.end(), sampled.begin(), sampled.end());
        // Warm-up: one unit of each phase on a fresh machine.
        Round scratch;
        auto m = tracer.build(CedarConfig::standard());
        runUnit(*m, kernels::Rank64Version::gm_prefetch, scratch, tracer);
        runUnit(*m, kernels::Rank64Version::gm_cache, scratch, tracer);
    }

    void
    round(Round &r, Tracer &tracer) override
    {
        CheckpointCell cell;
        std::unique_ptr<CedarMachine> warm;
        {
            auto unit = tracer.unit("sample.warmup");
            warm = tracer.build(CedarConfig::standard());
            for (unsigned u = 0; u < warmup_units; ++u)
                runUnit(*warm, _phase[u], r, tracer);
            tracer.timed("sim.checkpoint.save",
                         [&] { cell.live_point = warm->saveCheckpoint(); });
            tracer.note("sim.checkpoint.bytes",
                        static_cast<double>(cell.live_point.size()));
        }

        // Identity: save -> restore -> save, then the restored machine
        // and the uninterrupted one run the same next unit: a GM/cache
        // unit whatever the seed, so the seed never changes the work.
        {
            auto unit = tracer.unit("sample.twin");
            auto resumed = tracer.build(CedarConfig::standard());
            tracer.timed("sim.checkpoint.restore", [&] {
                resumed->restoreCheckpoint(cell.live_point);
            });
            tracer.timed("sim.checkpoint.save",
                         [&] { cell.resaved = resumed->saveCheckpoint(); });
            runUnit(*warm, kernels::Rank64Version::gm_cache, r, tracer);
            runUnit(*resumed, kernels::Rank64Version::gm_cache, r, tracer);
            cell.twin_stats = strippedStats(*warm);
            cell.resumed_stats = strippedStats(*resumed);
        }

        cedar::sample::SampledRun est;
        {
            auto unit = tracer.unit("sample.windows");
            cedar::sample::MachineFactory factory = [&tracer] {
                return tracer.build(CedarConfig::standard());
            };
            cedar::sample::PhasedWorkload wl;
            wl.total_units = warmup_units + windows;
            wl.run_unit = [this, &r, &tracer](CedarMachine &m, unsigned u) {
                double flops0 = m.totalFlops();
                cedar::Tick tick0 = m.sim().curTick();
                runUnit(m, _phase.at(u), r, tracer);
                return cedar::mflops(m.totalFlops() - flops0,
                                     m.sim().curTick() - tick0);
            };
            cedar::sample::SampleParams sp;
            sp.warmup_units = warmup_units;
            sp.min_windows = windows;
            sp.max_windows = windows;
            std::string live_point = cell.live_point;
            double seconds = tracer.timed("sample.run", [&] {
                est = cedar::sample::runSampled(factory, wl, sp, &live_point);
            });
            tracer.note("sample.window_s", seconds / windows);
        }

        cell.estimate_mflops = est.mean;
        cell.windows = est.windows;
        cell.expected_windows = windows;
        cell.peak_mflops = warm->config().peakMflops();
        checkCheckpoint(cell, r.problems);
        r.signature.push_back(est.mean);
        r.signature.push_back(est.stddev);
        r.signature.push_back(static_cast<double>(
            std::hash<std::string>{}(cell.live_point) >> 12));
    }

  private:
    static constexpr unsigned warmup_units = 2;
    static constexpr unsigned windows = 6;
    static constexpr unsigned unit_n = 64;

    void
    runUnit(CedarMachine &m, kernels::Rank64Version version, Round &r,
            Tracer &tracer)
    {
        kernels::Rank64Params p;
        p.n = unit_n;
        p.clusters = 2;
        p.version = version;
        tracer.measure(r, m, "kernels.run.rank64",
                       [&] { kernels::runRank64(m, p); });
    }

    std::uint64_t _seed;
    std::vector<kernels::Rank64Version> _phase;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "table2_gm")
        return std::make_unique<Table2Gm>(seed);
    if (name == "table1_cache")
        return std::make_unique<Table1Cache>(seed);
    if (name == "scale256_traffic")
        return std::make_unique<Scale256Traffic>(seed);
    if (name == "sampled_windows")
        return std::make_unique<SampledWindows>(seed);
    return nullptr;
}

} // namespace perfbench
