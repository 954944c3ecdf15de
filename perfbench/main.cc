/**
 * @file
 * The perfbench binary: one run of one workload.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * One run: self-test the correctness checks; set the workload up
 * twice, then repeat whole rounds until S seconds have passed (mean
 * round = run_s), setting the workload up again every S/6 seconds
 * (median of all set-ups = setup_s). With --trace 1 rounds alternate
 * untraced and traced, the layer probes run at the end, and the
 * per-layer metrics are printed instead of the end-to-end ones. Host
 * provenance is printed once the metrics are taken, so that its
 * calibration loop leaves the peak resident memory alone. The last
 * stdout line is the JSON result.
 */

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hh"
#include "core/provenance.hh"
#include "sim/logging.hh"

namespace perfbench {

namespace {

/**
 * Set-ups per run beyond the first two. They are spread over the run,
 * not done back to back, so that setup_s, like run_s, is a median
 * over the whole run: this host's speed drifts on a scale of tens of
 * seconds, which a one-second burst of set-ups would catch at random.
 */
constexpr int spread_setups = 6;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || errno || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            std::uint64_t s = parseUnsigned(a, v);
            if (s < 1 || s > 600)
                usage("--seconds must be in 1..600");
            o.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (a == "--trace") {
            std::uint64_t t = parseUnsigned(a, v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            have_trace = true;
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (!makeWorkload(o.workload, 0))
        usage("unknown workload '" + o.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return o;
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

/**
 * Mean of @p v: run_s is the timed part's host seconds per round. On a
 * shared host whose speed swings within a run, the mean integrates the
 * whole run where the median picks one of its states; across ten-run
 * sets it spread least of median, minimum, lower quartile and mean.
 */
double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/** One field of /proc/self/status, MB. */
double
statusMb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field + ":", 0) == 0) {
            return std::strtod(line.c_str() + field.size() + 1, nullptr) *
                   1024.0 / 1e6;
        }
    }
    throw std::runtime_error("no " + field + " in /proc/self/status");
}

/**
 * Peak anonymous (data) memory of this program so far, MB: VmHWM, the
 * high-water mark of its own address space, less the file-backed pages
 * resident now. Code pages are left out because how many of them a
 * fault maps in depends on the host's page cache. They are not given
 * back while the program runs (barring memory pressure), so this is
 * exact once they stop growing, after the first round. getrusage()'s
 * ru_maxrss would not do: Linux carries it across exec, so it starts
 * at the launching Python process's footprint.
 */
double
peakAnonMb()
{
    return statusMb("VmHWM") - statusMb("RssFile") - statusMb("RssShmem");
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * A fixed integer-and-memory loop (dependent pseudo-random walk over
 * 16 MB): host speed reference, not a gated metric. Median of 3.
 */
double
calibrationSeconds()
{
    std::vector<std::uint64_t> mem(std::size_t(1) << 21);
    for (std::size_t i = 0; i < mem.size(); ++i)
        mem[i] = i * 0x9E3779B97F4A7C15ULL;
    std::vector<double> t;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        double t0 = hostNow();
        std::uint64_t x = 1;
        for (int i = 0; i < 500000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::size_t k = (x ^ sink) & (mem.size() - 1);
            sink += mem[k];
            mem[k] ^= x;
        }
        t.push_back(hostNow() - t0);
    }
    if (sink == 42)
        std::fprintf(stderr, " ");
    return median(std::move(t));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printProvenance(const Options &o)
{
    const auto &p = cedar::core::provenance();
    std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"git_sha\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"nproc\": %ld, \"cpu\": \"%s\", "
                "\"calibration_s\": %.6f}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                jsonEscape(p.git_sha).c_str(),
                jsonEscape(p.build_type).c_str(),
                jsonEscape(p.compiler).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(cpuModel()).c_str(), calibrationSeconds());
}

/** (name, (value, unit)) in print order. */
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char *>>>;

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, v] = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), v.first, v.second);
    }
    std::printf("}}\n");
}

/** Per-layer metrics of a traced run. */
Metrics
layerMetrics(const Tracer &tracer,
             const std::map<std::string, double> &probes,
             double untraced_engine_s, std::uint64_t untraced_events,
             std::size_t traced_rounds, double overhead_s)
{
    Metrics m;
    auto add = [&m](const std::string &name, double v, const char *unit) {
        m.push_back({name, {v, unit}});
    };
    const auto &prof = tracer.profile();
    auto seconds = [&](const char *kind) {
        auto it = prof.find(kind);
        return it == prof.end() ? 0.0 : it->second.second;
    };
    auto ns_per = [&](const char *kind) {
        auto it = prof.find(kind);
        return it == prof.end() || it->second.first == 0
                   ? 0.0
                   : it->second.second * 1e9 /
                         static_cast<double>(it->second.first);
    };
    double profiled = 0.0;
    for (const auto &[kind, row] : prof)
        profiled += row.second;

    add("prefetch.issue_ns", ns_per("pfu.issue"), "ns");
    add("prefetch.issue_share",
        profiled > 0.0 ? seconds("pfu.issue") / profiled : 0.0, "share");
    add("mem.read_ns", probes.at("mem.read_ns"), "ns");
    add("mem.sync_ns", probes.at("mem.sync_ns"), "ns");
    for (const char *kind : {"net.path_ns.", "net.traverse_ns."}) {
        for (const auto &family : fabricFamilies()) {
            for (const char *ports : {"32", "2048"}) {
                std::string key = kind + family + "." + ports;
                add(key, probes.at(key), "ns");
            }
        }
    }
    add("cluster.advance_ns", ns_per("ce.advance"), "ns");
    add("cluster.stream_ns", probes.at("cluster.stream_ns"), "ns");
    add("sim.ns_per_event",
        untraced_events ? untraced_engine_s * 1e9 /
                              static_cast<double>(untraced_events)
                        : 0.0,
        "ns");
    add("sim.schedule_dispatch_ns", probes.at("sim.schedule_dispatch_ns"),
        "ns");
    add("machine.build_s", tracer.medianNote("machine.build_s"), "s");
    double save = tracer.medianNote("sim.checkpoint.save_s");
    double restore = tracer.medianNote("sim.checkpoint.restore_s");
    double bytes = tracer.medianNote("sim.checkpoint.bytes");
    add("sim.checkpoint.save_s", save, "s");
    add("sim.checkpoint.restore_s", restore, "s");
    add("sim.checkpoint.bytes", bytes, "bytes");
    add("sim.checkpoint.mb_per_s",
        save + restore > 0.0 ? 2.0 * bytes / (save + restore) / 1e6 : 0.0,
        "MB/s");
    add("sample.window_s", tracer.medianNote("sample.window_s"), "s");
    for (const char *k : {"vl", "tm", "rk", "cg", "rank64"}) {
        add(std::string("kernels.run_s.") + k,
            tracer.medianSpan(std::string("kernels.run.") + k), "s");
    }
    for (const char *f : {"omega", "fattree", "crossbar", "combined"}) {
        for (const char *p :
             {"uniform", "hot_spot", "bit_reversal", "transpose"}) {
            std::string key = std::string(f) + "." + p;
            add("net.traffic_s." + key,
                tracer.medianSpan("net.traffic." + key), "s");
        }
    }
    // Simulated counts of one round (every traced round is identical).
    const Counts &c = tracer.totals();
    double r = static_cast<double>(traced_rounds);
    add("sim.events", double(c.events) / r, "count");
    add("prefetch.requests", double(c.pfu_requests) / r, "count");
    add("mem.reads", double(c.mem_reads) / r, "count");
    add("mem.syncs", double(c.mem_syncs) / r, "count");
    add("mem.module_conflicts", double(c.module_conflicts) / r, "count");
    add("net.queueing_cycles", c.net_queueing / r, "cycles");
    add("net.backpressure_stalls", double(c.backpressure) / r, "count");
    add("cluster.cache_misses", double(c.cache_misses) / r, "count");
    add("trace.overhead_s", overhead_s, "s");
    return m;
}

int
run(const Options &o)
{
    auto misbehaved = selfTest();
    for (const auto &what : misbehaved)
        std::fprintf(stderr, "self-test: check misbehaved on %s\n",
                     what.c_str());
    if (!misbehaved.empty())
        return 3;

    // The program's own data before the workload exists; peak_rss_mb
    // is what the workload adds to it.
    double base_mb = statusMb("RssAnon");
    Tracer tracer;
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    auto setUp = [&] {
        workload.reset();
        double t0 = hostNow();
        workload = makeWorkload(o.workload, o.seed);
        workload->setup(tracer);
        setup_s.push_back(hostNow() - t0);
    };
    // The first set-up of a process pays for fresh pages; the median
    // sets it aside.
    setUp();
    setUp();

    std::vector<std::string> problems;
    std::vector<double> untraced_s, traced_s;
    double untraced_cycles = 0.0;
    std::vector<double> signature;
    std::uint64_t attempted = 0, failed = 0, round_attempted = 0,
                  round_failed = 0;
    double untraced_engine_s = 0.0;
    std::uint64_t untraced_events = 0;
    std::size_t rounds = 0;
    double start = hostNow();
    double setup_period = o.seconds / spread_setups;
    double next_setup = start + setup_period;
    // Whole rounds only; at least three untraced (and, when tracing,
    // two traced) so every median has something to stand on.
    while (hostNow() - start < o.seconds || untraced_s.size() < 3 ||
           (o.trace && traced_s.size() < 2)) {
        if (hostNow() >= next_setup) {
            setUp();
            next_setup += setup_period;
        }
        bool traced = o.trace && rounds % 2 == 1;
        tracer.setActive(traced);
        Round r;
        double t0 = hostNow();
        workload->round(r, tracer);
        double dt = hostNow() - t0;
        tracer.setActive(false);
        if (rounds == 0) {
            signature = r.signature;
            round_attempted = r.attempted;
            round_failed = r.failed;
        } else if (r.signature != signature ||
                   r.attempted != round_attempted ||
                   r.failed != round_failed) {
            problems.push_back("round " + std::to_string(rounds) +
                               " differs from round 0 (nondeterminism)");
        }
        for (const auto &p : r.problems) {
            if (problems.size() < 20)
                problems.push_back(p);
        }
        attempted += r.attempted;
        failed += r.failed;
        (traced ? traced_s : untraced_s).push_back(dt);
        if (!traced) {
            untraced_cycles += r.cycles;
            untraced_engine_s += r.engine_s;
            untraced_events += r.events;
        }
        ++rounds;
    }

    Metrics metrics;
    if (o.trace) {
        auto probes = runLayerProbes(problems);
        double overhead = mean(traced_s) - mean(untraced_s);
        std::fprintf(stderr,
                     "tracing overhead: %.6f s per round (traced %.6f, "
                     "untraced %.6f), %zu spans\n",
                     overhead, mean(traced_s), mean(untraced_s),
                     tracer.spanCount());
        metrics = layerMetrics(tracer, probes, untraced_engine_s,
                               untraced_events, traced_s.size(), overhead);
        if (!o.trace_out.empty() && !tracer.write(o.trace_out))
            std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    } else {
        metrics = {
            {"setup_s", {median(setup_s), "s"}},
            {"run_s", {mean(untraced_s), "s"}},
            {"sim_cycles_per_s",
             {untraced_cycles / sum(untraced_s), "cycles/s"}},
            {"peak_rss_mb", {peakAnonMb() - base_mb, "MB"}},
        };
    }
    for (const auto &p : problems)
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    std::fprintf(stderr, "%zu rounds (%zu traced) in %.2f s; untraced:",
                 rounds, traced_s.size(), hostNow() - start);
    for (double s : untraced_s)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
    printProvenance(o);
    printResult(problems.empty(), attempted, failed, metrics);
    return problems.empty() ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    cedar::setLogQuiet(true);
    auto options = perfbench::parse(argc, argv);
    try {
        return perfbench::run(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 4;
    }
}
