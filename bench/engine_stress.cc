/**
 * @file
 * Host-side stress test of the event engine. Simulating billions of
 * machine cycles is only practical if the engine itself is fast, so
 * this bench measures raw events per host second for the two current
 * scheduling styles and for the engine this repo used before the
 * event-object refactor:
 *
 *  - member:  component-owned Event objects rescheduled intrusively
 *             (the CE advance path) — no allocation per event,
 *  - pooled:  one-shot closures riding the recycled CallbackEvent pool
 *             (the compatibility path),
 *  - closure: a faithful copy of the old engine — a priority_queue of
 *             std::function nodes, one allocation-bearing queue entry
 *             per schedule — kept here as the baseline the speedup
 *             numbers are measured against.
 *
 * The workload itself lives in bench/stress_core.hh, shared with the
 * perf-trajectory runner so both binaries measure identical code.
 */

#include <cstdio>

#include "core/cedar.hh"
#include "stress_core.hh"

using namespace cedar;
using namespace cedar::bench::stress;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    core::BenchOutput out("engine_stress", argc, argv);

    std::printf("Engine stress: %u actors, %llu-event budget per style\n\n",
                n_actors, static_cast<unsigned long long>(default_events));

    Simulation member_sim;
    StressResult member = stress<MemberActor>(member_sim);

    Simulation pooled_sim;
    StressResult pooled = stress<PooledActor>(pooled_sim);

    ClosureEngine closure_sim;
    StressResult closure = stress<ClosureActor>(closure_sim);

    core::TableWriter table({"style", "events", "host s", "M events/s",
                             "vs closure"});
    auto row = [&](const char *name, const StressResult &r) {
        table.row({name, std::to_string(r.events),
                   core::fmt(r.seconds, 3), core::fmt(r.rate() / 1e6, 2),
                   core::fmt(r.rate() / closure.rate(), 2) + "x"});
    };
    row("member events", member);
    row("pooled callbacks", pooled);
    row("closure baseline", closure);
    table.print();

    std::printf("\ncallback pool: %llu nodes allocated, %llu reuses\n",
                static_cast<unsigned long long>(
                    pooled_sim.callbackPoolAllocated()),
                static_cast<unsigned long long>(
                    pooled_sim.callbackPoolReuses()));

    out.metric("member_events_per_sec", member.rate());
    out.metric("pooled_events_per_sec", pooled.rate());
    out.metric("closure_events_per_sec", closure.rate());
    out.metric("member_speedup_vs_closure",
               member.rate() / closure.rate());
    out.metric("pooled_speedup_vs_closure",
               pooled.rate() / closure.rate());
    out.metric("callback_pool_allocated",
               static_cast<std::uint64_t>(
                   pooled_sim.callbackPoolAllocated()));
    out.metric("callback_pool_reuses", pooled_sim.callbackPoolReuses());
    out.emit();
    return 0;
}
