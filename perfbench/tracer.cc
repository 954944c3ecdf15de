/**
 * @file
 * Registry counts and the in-memory span tracer.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.hh"
#include "mem/globalmem.hh"
#include "net/topology.hh"

namespace perfbench {

double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

Counts
Counts::of(CedarMachine &m)
{
    const auto &reg = m.stats();
    auto &gm = m.gm();
    Counts c;
    c.events = m.sim().eventsExecuted();
    c.pfu_requests = reg.sumCounters("*.pfu.requests");
    c.mem_reads = gm.readCount();
    c.mem_syncs = gm.syncCount();
    c.module_conflicts = reg.sumCounters("*.gm.*.conflicts");
    c.net_queueing = gm.forwardNet().queueingStat().sum();
    c.backpressure = gm.forwardNet().backpressureStalls();
    if (!gm.combinedNet()) {
        c.net_queueing += gm.reverseNet().queueingStat().sum();
        c.backpressure += gm.reverseNet().backpressureStalls();
    }
    c.cache_misses = reg.sumCounters("*.cache.misses");
    return c;
}

Counts
Counts::operator-(const Counts &o) const
{
    Counts d;
    d.events = events - o.events;
    d.pfu_requests = pfu_requests - o.pfu_requests;
    d.mem_reads = mem_reads - o.mem_reads;
    d.mem_syncs = mem_syncs - o.mem_syncs;
    d.module_conflicts = module_conflicts - o.module_conflicts;
    d.net_queueing = net_queueing - o.net_queueing;
    d.backpressure = backpressure - o.backpressure;
    d.cache_misses = cache_misses - o.cache_misses;
    return d;
}

Counts &
Counts::operator+=(const Counts &o)
{
    events += o.events;
    pfu_requests += o.pfu_requests;
    mem_reads += o.mem_reads;
    mem_syncs += o.mem_syncs;
    module_conflicts += o.module_conflicts;
    net_queueing += o.net_queueing;
    backpressure += o.backpressure;
    cache_misses += o.cache_misses;
    return *this;
}

Tracer::Scope::Scope(Tracer *tracer, std::string name)
    : _tracer(tracer && tracer->active() ? tracer : nullptr)
{
    if (_tracer)
        _index = _tracer->open(std::move(name));
}

Tracer::Scope::~Scope()
{
    if (_tracer)
        _tracer->close(_index);
}

std::size_t
Tracer::open(std::string name)
{
    long parent = _stack.empty() ? -1 : _stack.back();
    _spans.push_back({std::move(name), hostNow() - _origin, 0.0, parent,
                      _unit});
    _stack.push_back(static_cast<long>(_spans.size() - 1));
    return _spans.size() - 1;
}

void
Tracer::close(std::size_t index)
{
    _spans[index].end = hostNow() - _origin;
    _stack.pop_back();
}

Tracer::Unit::Unit(Tracer *tracer, const std::string &name)
    : _tracer(tracer->active() ? tracer : nullptr)
{
    if (_tracer)
        _tracer->beginUnit(name);
}

Tracer::Unit::~Unit()
{
    if (_tracer)
        _tracer->endUnit();
}

void
Tracer::beginUnit(const std::string &name)
{
    ++_unit;
    _units.push_back({_unit, name, {}, {}});
}

void
Tracer::endUnit()
{
    // measure() flushes every live machine's rows into the process-wide
    // table, and a machine flushes its own when destroyed: all of them
    // belong to this unit.
    auto rows = cedar::HostProfiler::globalTable();
    cedar::HostProfiler::resetGlobal();
    for (const auto &row : rows) {
        auto &slot = _profile[row.kind];
        slot.first += row.dispatches;
        slot.second += row.seconds;
    }
    _units.back().profile = std::move(rows);
}

double
Tracer::timed(const std::string &name, const std::function<void()> &body)
{
    double t0 = hostNow();
    {
        auto s = span(name);
        body();
    }
    double seconds = hostNow() - t0;
    note(name + "_s", seconds);
    return seconds;
}

std::unique_ptr<CedarMachine>
Tracer::build(const cedar::machine::CedarConfig &cfg)
{
    std::unique_ptr<CedarMachine> m;
    timed("machine.build", [&] { m = std::make_unique<CedarMachine>(cfg); });
    return m;
}

void
Tracer::measure(Round &r, CedarMachine &m, const std::string &name,
                const std::function<void()> &body)
{
    auto &sim = m.sim();
    sim.setProfiling(_active);
    cedar::Tick tick0 = sim.curTick();
    std::uint64_t events0 = sim.eventsExecuted();
    double engine0 = sim.hostSeconds();
    Counts c0 = _active ? Counts::of(m) : Counts{};
    {
        auto s = span(name);
        body();
    }
    r.cycles += static_cast<double>(sim.curTick() - tick0);
    r.events += sim.eventsExecuted() - events0;
    r.engine_s += sim.hostSeconds() - engine0;
    ++r.attempted;
    if (!_active)
        return;
    if (auto *prof = sim.profiler())
        prof->flushGlobal();
    Counts delta = Counts::of(m) - c0;
    _totals += delta;
    if (!_units.empty())
        _units.back().counts += delta;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Tracer::medianSpan(const std::string &name) const
{
    std::vector<double> d;
    for (const auto &s : _spans) {
        if (s.name == name)
            d.push_back(s.end - s.start);
    }
    return median(std::move(d));
}

double
Tracer::medianNote(const std::string &name) const
{
    auto it = _notes.find(name);
    return it == _notes.end() ? 0.0 : median(it->second);
}

namespace {

void
writeCounts(std::FILE *f, const Counts &c)
{
    std::fprintf(f,
                 "{\"sim.events\": %llu, \"prefetch.requests\": %llu, "
                 "\"mem.reads\": %llu, \"mem.syncs\": %llu, "
                 "\"mem.module_conflicts\": %llu, "
                 "\"net.queueing_cycles\": %.17g, "
                 "\"net.backpressure_stalls\": %llu, "
                 "\"cluster.cache_misses\": %llu}",
                 static_cast<unsigned long long>(c.events),
                 static_cast<unsigned long long>(c.pfu_requests),
                 static_cast<unsigned long long>(c.mem_reads),
                 static_cast<unsigned long long>(c.mem_syncs),
                 static_cast<unsigned long long>(c.module_conflicts),
                 c.net_queueing,
                 static_cast<unsigned long long>(c.backpressure),
                 static_cast<unsigned long long>(c.cache_misses));
}

} // namespace

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const auto &s = _spans[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": "
                     "%.9f, \"end_s\": %.9f, \"parent\": %ld, "
                     "\"unit\": %llu}",
                     i ? "," : "", i, s.name.c_str(), s.start, s.end,
                     s.parent, static_cast<unsigned long long>(s.unit));
    }
    std::fprintf(f, "\n], \"units\": [");
    for (std::size_t i = 0; i < _units.size(); ++i) {
        const auto &u = _units[i];
        std::fprintf(f, "%s\n  {\"unit\": %llu, \"name\": \"%s\", "
                        "\"counts\": ",
                     i ? "," : "", static_cast<unsigned long long>(u.id),
                     u.name.c_str());
        writeCounts(f, u.counts);
        std::fprintf(f, ", \"host_profile\": [");
        for (std::size_t k = 0; k < u.profile.size(); ++k) {
            const auto &row = u.profile[k];
            std::fprintf(f,
                         "%s{\"kind\": \"%s\", \"dispatches\": %llu, "
                         "\"seconds\": %.9f}",
                         k ? ", " : "", row.kind.c_str(),
                         static_cast<unsigned long long>(row.dispatches),
                         row.seconds);
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
