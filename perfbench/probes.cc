/**
 * @file
 * Layer probes: timed direct calls into each layer's public functions,
 * shaped like the workloads (32- and 2048-port fabrics of every family,
 * 32 GM ports streaming, 32-word cache strips). Each probe repeats a
 * fixed batch of calls and reports the median nanoseconds per call.
 */

#include "bench.hh"
#include "cluster/cache.hh"
#include "cluster/clustermem.hh"
#include "machine/config.hh"
#include "mem/globalmem.hh"
#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/random.hh"

namespace perfbench {

namespace {

constexpr int batches = 5;

/** Median ns per call of @p calls invocations of @p body(i). */
template <typename Body>
double
timePerCall(std::size_t calls, Body &&body)
{
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        double t0 = hostNow();
        for (std::size_t i = 0; i < calls; ++i)
            body(i);
        per_call.push_back((hostNow() - t0) * 1e9 /
                           static_cast<double>(calls));
    }
    return median(std::move(per_call));
}

/** A bare fabric of @p family with @p clusters x 8 ports. */
std::unique_ptr<cedar::net::Topology>
fabric(const std::string &family, unsigned clusters)
{
    auto cfg = cedar::machine::CedarConfig::scaled(clusters, family);
    cedar::net::TopologyParams p;
    p.kind = family;
    p.num_ports = cfg.gm.num_ports;
    p.stage_radices = cfg.gm.stage_radices;
    return cedar::net::makeTopology("probe." + family, p);
}

} // namespace

const std::vector<std::string> &
fabricFamilies()
{
    static const std::vector<std::string> families = {"omega", "fattree",
                                                      "crossbar"};
    return families;
}

std::map<std::string, double>
runLayerProbes(std::vector<std::string> &problems)
{
    std::map<std::string, double> out;
    cedar::Rng rng(0x70726f6265ULL);

    for (const auto &family : fabricFamilies()) {
        for (unsigned clusters : {4u, 256u}) {
            auto net = fabric(family, clusters);
            unsigned ports = net->numPorts();
            std::string key = family + "." + std::to_string(ports);
            // Uniform random (source, destination) pairs, drawn up front
            // so the timed loop holds only the layer call.
            std::vector<std::pair<unsigned, unsigned>> pairs(4096);
            for (auto &pr : pairs) {
                pr = {static_cast<unsigned>(rng.below(ports)),
                      static_cast<unsigned>(rng.below(ports))};
            }
            std::size_t misrouted = 0;
            out["net.path_ns." + key] =
                timePerCall(20000, [&](std::size_t i) {
                    const auto &[src, dst] = pairs[i % pairs.size()];
                    auto path = net->path(src, dst);
                    misrouted += path.empty() || path.back().second != dst;
                });
            if (misrouted)
                problems.push_back("probe: " + key +
                                   " path missed its destination");
            // One injection per port per round, four cycles apart, as
            // in the synthetic traffic runs.
            cedar::Tick floor = net->minLatency();
            std::size_t early = 0;
            std::size_t call = 0;
            out["net.traverse_ns." + key] =
                timePerCall(20000, [&](std::size_t) {
                    const auto &[src, dst] = pairs[call % pairs.size()];
                    cedar::Tick inject = 4 * (call / ports);
                    ++call;
                    auto res = net->traverse(src, dst, 1, inject);
                    early += res.head_arrival < inject + floor;
                });
            if (early)
                problems.push_back("probe: " + key +
                                   " packet arrived before minLatency()");
        }
    }

    {
        // 32 CEs each streaming its own array, one word every two cycles.
        cedar::mem::GlobalMemory gm("probe.gm", {});
        cedar::Tick floor = gm.minReadLatency();
        std::size_t early = 0;
        std::size_t call = 0;
        out["mem.read_ns"] = timePerCall(50000, [&](std::size_t) {
            unsigned port = call % 32;
            cedar::Tick issue = call / 16;
            cedar::Addr addr =
                cedar::mem::globalAddr(port * 65536 + (call / 32) % 65536);
            ++call;
            auto res = gm.read(port, addr, issue);
            early += res.data_at_port < issue + floor;
        });
        if (early)
            problems.push_back("probe: GM read beat minReadLatency()");
        call = 0;
        auto op = cedar::mem::SyncOp::fetchAndAdd(1);
        out["mem.sync_ns"] = timePerCall(20000, [&](std::size_t) {
            unsigned port = call % 32;
            cedar::Addr addr = cedar::mem::globalAddr(call % 8);
            cedar::Tick issue = call / 8;
            ++call;
            gm.sync(port, addr, op, issue);
        });
    }

    {
        // 32-word strips through a cluster cache, rank-64 work-array
        // sized (fits the cache after the first pass).
        cedar::cluster::ClusterMemory cmem("probe.cmem", {});
        cedar::cluster::SharedCache cache("probe.cache", {}, cmem);
        cedar::Tick t = 0;
        out["cluster.stream_ns"] = timePerCall(50000, [&](std::size_t i) {
            cache.streamAccess((i * 32) % 16384, 32, 1, false, t);
            t += 4;
        });
    }

    {
        // 1000 one-shot events at scattered ticks per engine, drained.
        out["sim.schedule_dispatch_ns"] =
            timePerCall(20, [&](std::size_t) {
                cedar::Simulation sim;
                std::uint64_t fired = 0;
                for (int i = 0; i < 1000; ++i) {
                    sim.schedule(static_cast<cedar::Tick>(i * 7 % 997),
                                 [&fired] { ++fired; });
                }
                sim.run();
                if (fired != 1000)
                    problems.push_back("probe: engine lost events");
            }) /
            1000.0;
    }
    return out;
}

} // namespace perfbench
