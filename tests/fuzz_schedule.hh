/**
 * @file
 * Seeded fuzz corpora for the engine-ordering contract, used by
 * tests/test_property.cc. Two corpora: a flat one (independent
 * one-shots) and a message one (self-rescheduling chains on several
 * tagged "partitions" that send each other delayed deliveries).
 *
 * Everything an event does here (its tick, priority, local chain, and
 * any message it emits) is derived by hashing its own identity with
 * the corpus seed — never from global execution order — so two ways of
 * driving the same corpus must produce the same firings, and any
 * divergence a test observes is the engine's fault.
 */

#ifndef CEDARSIM_TESTS_FUZZ_SCHEDULE_HH
#define CEDARSIM_TESTS_FUZZ_SCHEDULE_HH

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "sim/engine.hh"
#include "sim/random.hh"

namespace cedar::test::fuzz {

constexpr EventPriority fuzz_priorities[] = {
    EventPriority::memory_response, EventPriority::network,
    EventPriority::normal,          EventPriority::ce_progress,
    EventPriority::stats,
};

/** One observed firing: where, when, at what priority, and which
 *  corpus event it was. */
struct Firing
{
    Tick when;
    int priority;
    unsigned partition;
    unsigned index;

    auto
    key() const
    {
        return std::make_tuple(when, priority, partition, index);
    }

    bool
    operator==(const Firing &o) const
    {
        return key() == o.key();
    }
};

/** splitmix64: identity -> data, with no execution-order dependence. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline std::uint64_t
hash3(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return mix(seed ^ mix(a ^ mix(b)));
}

/**
 * The flat corpus (no messages): @p n one-shots with seeded random
 * ticks in [0, horizon) and priorities across every class.
 * @p schedule is called as schedule(i, when, prio) for each event i.
 */
template <class ScheduleFn>
void
buildFlatCorpus(std::uint64_t seed, unsigned n, Tick horizon,
                ScheduleFn &&schedule)
{
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        Tick when = static_cast<Tick>(rng.below(horizon));
        EventPriority prio = fuzz_priorities[rng.below(5)];
        schedule(i, when, prio);
    }
}

/**
 * Run the flat corpus on one Simulation and return the firing order.
 * Identity: partition 0, index = schedule order.
 */
inline std::vector<Firing>
runFlatSerial(std::uint64_t seed, unsigned n, Tick horizon)
{
    Simulation sim;
    std::vector<Firing> fired;
    fired.reserve(n);
    buildFlatCorpus(seed, n, horizon,
                    [&](unsigned i, Tick when, EventPriority prio) {
                        sim.schedule(when,
                                     [&fired, &sim, prio, i] {
                                         fired.push_back(
                                             {sim.curTick(),
                                              static_cast<int>(prio), 0,
                                              i});
                                     },
                                     prio);
                    });
    sim.run();
    return fired;
}

/** Parameters for the message corpus. */
struct MessageCorpus
{
    std::uint64_t seed = 1;
    unsigned partitions = 4;
    /** Genesis chains started per partition. */
    unsigned chains = 24;
    /** Genesis ticks land in [0, horizon). */
    Tick horizon = 400;
    /** Minimum delay of a message delivery. */
    Tick latency = 5;
};

/**
 * Run the message corpus on one Simulation; partitions are tags. Every
 * partition seeds `chains` local event chains; each chain step does a
 * seeded-random local reschedule and, about a third of the time, sends
 * a delivery that records a firing on a seeded-random other partition.
 * With @p chunk > 0 the engine is driven by runUntil() in horizons of
 * that many ticks instead of one run(), which must not change the
 * trace. Returns per-partition firing traces in execution order.
 */
inline std::vector<std::vector<Firing>>
runMessageSerial(const MessageCorpus &mc, Tick chunk = 0)
{
    Simulation sim;
    std::vector<std::vector<Firing>> fired(mc.partitions);
    auto record = [&fired, &sim](unsigned p, int prio, unsigned index) {
        fired[p].push_back({sim.curTick(), prio, p, index});
    };
    std::function<void(unsigned, unsigned, unsigned)> step =
        [&](unsigned p, unsigned id, unsigned s) {
            std::uint64_t h = hash3(mc.seed, id, s);
            unsigned index = id * 16 + s;
            record(p, static_cast<int>(h % 5), index);
            if (h % 3 == 0) {
                unsigned dst =
                    (p + 1 + unsigned(h >> 8) % (mc.partitions - 1)) %
                    mc.partitions;
                EventPriority prio = fuzz_priorities[(h >> 24) % 5];
                sim.schedule(sim.curTick() + mc.latency + (h >> 16) % 7,
                             [&record, dst, prio, index] {
                                 record(dst, static_cast<int>(prio),
                                        1'000'000 + index);
                             },
                             prio);
            }
            if (s + 1 < 8 && (h >> 32) % 4 != 0) {
                sim.scheduleIn(Cycles(1 + (h >> 40) % 9),
                               [&step, p, id, s] { step(p, id, s + 1); },
                               fuzz_priorities[(h >> 48) % 5]);
            }
        };
    for (unsigned p = 0; p < mc.partitions; ++p) {
        for (unsigned g = 0; g < mc.chains; ++g) {
            unsigned id = p * mc.chains + g;
            std::uint64_t h = hash3(mc.seed, id, 999);
            sim.schedule(Tick(h % mc.horizon),
                         [&step, p, id] { step(p, id, 0); },
                         fuzz_priorities[(h >> 8) % 5]);
        }
    }
    if (chunk == 0) {
        sim.run();
    } else {
        for (Tick horizon = chunk; !sim.empty(); horizon += chunk)
            sim.runUntil(horizon);
    }
    return fired;
}

} // namespace cedar::test::fuzz

#endif // CEDARSIM_TESTS_FUZZ_SCHEDULE_HH
