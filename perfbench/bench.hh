/**
 * @file
 * Shared types of the cedarsim benchmark: the round record every
 * workload fills, the span tracer, the correctness checks, and the
 * layer probes. Everything here drives the simulator through its
 * public API only.
 */

#ifndef CEDARSIM_PERFBENCH_BENCH_HH
#define CEDARSIM_PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "machine/cedar.hh"
#include "sim/hostprof.hh"

namespace perfbench {

using cedar::machine::CedarMachine;

/** Host seconds on the steady clock. */
double hostNow();

/**
 * One round of a workload: the same operations every time, so every
 * round of a run attempts and fails exactly as many operations and
 * produces a bit-identical signature.
 */
struct Round
{
    /** Simulated cycles advanced, summed over the round's machines. */
    double cycles = 0.0;
    std::uint64_t events = 0;
    /** Host seconds inside engine run loops. */
    double engine_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated results; must repeat bit for bit in every round. */
    std::vector<double> signature;
    /** Correctness-check failures (empty when the round is correct). */
    std::vector<std::string> problems;
};

/** Simulated counts that a host-only speed-up must leave unchanged. */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t pfu_requests = 0;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_syncs = 0;
    std::uint64_t module_conflicts = 0;
    double net_queueing = 0.0;
    std::uint64_t backpressure = 0;
    std::uint64_t cache_misses = 0;

    static Counts of(CedarMachine &m);
    Counts operator-(const Counts &o) const;
    Counts &operator+=(const Counts &o);
};

/**
 * In-memory span recorder. Workloads see four calls: unit() opens a
 * workload unit, build() constructs a machine, measure() runs one
 * operation on a machine, and timed() times any other layer call.
 * Inactive (untraced rounds, set-up), spans cost a branch on one flag;
 * active, every span is recorded, the engine's host profiler is armed
 * on each measured machine, and its rows and the registry counts are
 * captured per operation and gathered per unit. Spans are written out
 * once, at exit.
 */
class Tracer
{
  public:
    /** RAII span: closes itself when it leaves scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer;
        std::size_t _index = 0;
    };

    /**
     * RAII workload unit: spans opened while it lives share its id,
     * and it takes the host-profile rows gathered until it closes
     * (also those of machines destroyed inside it).
     */
    class Unit
    {
      public:
        Unit(Tracer *tracer, const std::string &name);
        ~Unit();
        Unit(const Unit &) = delete;
        Unit &operator=(const Unit &) = delete;

      private:
        Tracer *_tracer;
    };

    bool active() const { return _active; }
    void setActive(bool on) { _active = on; }

    [[nodiscard]] Scope
    span(std::string name)
    {
        return {this, std::move(name)};
    }

    [[nodiscard]] Unit
    unit(const std::string &name)
    {
        return {this, name};
    }

    /**
     * Run @p body under span @p name and note its host seconds as
     * "<name>_s", traced or not (cheap next to what it times).
     * Returns those seconds.
     */
    double timed(const std::string &name, const std::function<void()> &body);

    /** Construct a machine, timed as "machine.build". */
    std::unique_ptr<CedarMachine> build(
        const cedar::machine::CedarConfig &cfg);

    /**
     * One operation on @p m, counted as attempted in @p r: run @p body
     * under span @p name with @p m's host profiler armed when active,
     * add the cycles, events and engine seconds it advanced to @p r,
     * and fold its profile rows and count delta into the open unit.
     */
    void measure(Round &r, CedarMachine &m, const std::string &name,
                 const std::function<void()> &body);

    /** Record one measured value under @p name, traced or not. */
    void
    note(const std::string &name, double value)
    {
        _notes[name].push_back(value);
    }

    /** Median duration of the spans named @p name (0 when none). */
    double medianSpan(const std::string &name) const;

    /** Median of the values noted under @p name (0 when none). */
    double medianNote(const std::string &name) const;

    /** Counts accumulated over every measured operation. */
    const Counts &totals() const { return _totals; }

    /** Host-profile rows accumulated by kind: (dispatches, seconds). */
    const std::map<std::string, std::pair<std::uint64_t, double>> &
    profile() const
    {
        return _profile;
    }

    std::size_t spanCount() const { return _spans.size(); }

    /** Write every span and unit record as one JSON document. */
    bool write(const std::string &path) const;

  private:
    struct SpanRec
    {
        std::string name;
        double start;
        double end;
        long parent;
        std::uint64_t unit;
    };
    struct UnitRec
    {
        std::uint64_t id;
        std::string name;
        Counts counts;
        std::vector<cedar::HostProfiler::KindStats> profile;
    };

    std::size_t open(std::string name);
    void close(std::size_t index);
    void beginUnit(const std::string &name);
    void endUnit();

    bool _active = false;
    double _origin = hostNow();
    std::vector<SpanRec> _spans;
    std::vector<long> _stack;
    std::vector<UnitRec> _units;
    std::uint64_t _unit = 0;
    Counts _totals;
    std::map<std::string, std::pair<std::uint64_t, double>> _profile;
    std::map<std::string, std::vector<double>> _notes;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** A benchmark workload: set-up once, then identical rounds. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate inputs, build machines, run a warm-up pass. */
    virtual void setup(Tracer &tracer) = 0;
    /** One whole round of operations, checked. */
    virtual void round(Round &r, Tracer &tracer) = 0;
};

/** The workload called @p name seeded by @p seed, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);


// --------------------------------------------------------------------
// Correctness checks. Each appends a line to @p problems per violated
// property; checks read plain records so the self-test can doctor them.

/** One (version, clusters) cell of the Table 1 GM/cache column. */
struct Table1Cell
{
    unsigned clusters = 0;
    unsigned n = 0;
    unsigned rank = 64;
    double flops = 0.0;
    double mflops = 0.0;
    double peak_mflops = 0.0;
};
void checkTable1(const std::vector<Table1Cell> &cells,
                 std::vector<std::string> &problems);

/** One (kernel, CEs) cell of Table 2. */
struct Table2Cell
{
    std::string kernel;
    unsigned ces = 0;
    double latency = 0.0;
    double interarrival = 0.0;
    double min_read_latency = 0.0;
    double mflops = 0.0;
    double peak_mflops = 0.0;
};
void checkTable2(const std::vector<Table2Cell> &cells,
                 std::vector<std::string> &problems);

/** One synthetic traffic run on a 2048-port fabric. */
struct TrafficCell
{
    std::string label;
    bool combined = false;
    unsigned rounds = 0;
    unsigned ports = 0;
    unsigned request_words = 0;
    unsigned response_words = 0;
    std::uint64_t packets = 0;
    std::uint64_t delivered_words = 0;
    double mean_latency = 0.0;
    double max_latency = 0.0;
    /** minLatency() of the forward plus the reverse fabric. */
    double floor = 0.0;
};
void checkTraffic(const TrafficCell &cell,
                  std::vector<std::string> &problems);

/** The checkpoint identities of one sampled round. */
struct CheckpointCell
{
    std::string live_point;
    /** The live-point restored into a fresh machine, saved again. */
    std::string resaved;
    /** Stat dump of the uninterrupted twin after the probe unit. */
    std::string twin_stats;
    /** Stat dump of the restored machine after the same unit. */
    std::string resumed_stats;
    double estimate_mflops = 0.0;
    unsigned windows = 0;
    unsigned expected_windows = 0;
    double peak_mflops = 0.0;
};
void checkCheckpoint(const CheckpointCell &cell,
                     std::vector<std::string> &problems);

/**
 * Feed every check a sound record (must pass) and doctored ones (each
 * must be caught). Returns the checks that misbehaved.
 */
std::vector<std::string> selfTest();

// --------------------------------------------------------------------
// Layer probes: direct, timed calls into each layer's public functions
// at the workloads' shapes. Values are per call unless named otherwise.

/** Run every probe; appends its problems (e.g. a traverse that beat
 *  minLatency()). */
std::map<std::string, double> runLayerProbes(
    std::vector<std::string> &problems);

/** The fabric families the probes and the scale workload cover. */
const std::vector<std::string> &fabricFamilies();

} // namespace perfbench

#endif // CEDARSIM_PERFBENCH_BENCH_HH
