/**
 * @file
 * Zero-allocation contract of the tracer's id-based record path.
 *
 * Overrides global operator new to count heap allocations, then
 * asserts that steady-state recording (ids resolved, vector capacity
 * grown via a warm-up pass + clear()) performs none. This is the
 * probe-effect guarantee docs/PERFORMANCE.md documents: once a
 * component has interned its ids, tracing costs three array appends
 * per record.
 *
 * This lives in its own test binary so the operator new override
 * cannot perturb other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "trace/tracer.h"

namespace {

std::atomic<std::size_t> g_allocCount{0};
std::atomic<bool> g_counting{false};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The deletes stay out of line: inlined into a `new T` expression's
// cleanup path, their free() would meet the pointer from operator new
// and gcc would report a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace aitax::trace {
namespace {

constexpr int kEvents = 50000;

struct CountingScope
{
    CountingScope()
    {
        g_allocCount.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
    }
    ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
    std::size_t
    count() const
    {
        return g_allocCount.load(std::memory_order_relaxed);
    }
};

void
recordBurst(Tracer &t, TrackId track, LabelId label, EventKindId kind,
            CounterId ctr)
{
    sim::TimeNs now = 0;
    for (int i = 0; i < kEvents; ++i) {
        t.recordInterval(track, label, now, now + 100);
        t.recordEvent(kind, label, now + 50);
        t.recordCounter(ctr, now + 50, 64.0);
        now += 200;
    }
}

TEST(TraceAlloc, SteadyStateIdPathIsAllocationFree)
{
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("context_switch");
    const CounterId ctr = t.internCounter("axi_bytes");

    // Warm-up: grow every store to full capacity, then drop the data.
    // clear() keeps the capacity and the interned ids.
    recordBurst(t, track, label, kind, ctr);
    t.clear();

    CountingScope scope;
    recordBurst(t, track, label, kind, ctr);
    EXPECT_EQ(scope.count(), 0u)
        << "id-based record path allocated in steady state";
    EXPECT_EQ(t.intervalCount(), static_cast<std::size_t>(kEvents));
}

TEST(TraceAlloc, ArenaBackedColumnGrowthIsHeapFree)
{
    // An arena-backed tracer must keep even *cold* column growth off
    // the heap: every reallocation while capacity grows from zero is
    // served by the arena. Pre-size the arena (its own blocks come
    // from operator new) with a throwaway burst, then reset — the
    // arena coalesces to one block at its high-water mark, so the
    // measured burst needs no new blocks.
    sim::Arena arena;
    {
        Tracer warm(&arena);
        recordBurst(warm, warm.internTrack("cpu0"),
                    warm.internLabel("job"),
                    warm.internEventKind("context_switch"),
                    warm.internCounter("axi_bytes"));
    }
    arena.reset();

    Tracer t(&arena);
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("context_switch");
    const CounterId ctr = t.internCounter("axi_bytes");

    CountingScope scope;
    recordBurst(t, track, label, kind, ctr);
    EXPECT_EQ(scope.count(), 0u)
        << "arena-backed column growth touched the heap";
    EXPECT_EQ(t.intervalCount(), static_cast<std::size_t>(kEvents));
    EXPECT_GT(arena.usedBytes(), 0u);
}

TEST(TraceAlloc, CloneToHeapTracerLeavesArenaBehind)
{
    // A warm-up snapshot's tracer is heap-owned and outlives per-run
    // arenas; cloneFrom must therefore deep-copy arena-backed columns
    // into heap storage. Destroy the arena before reading the clone —
    // a leaked arena pointer would show up under ASan here.
    Tracer snapshot;
    {
        sim::Arena arena;
        Tracer live(&arena);
        recordBurst(live, live.internTrack("cpu0"),
                    live.internLabel("job"),
                    live.internEventKind("context_switch"),
                    live.internCounter("axi_bytes"));
        snapshot.cloneFrom(live);
        arena.reset();
    }
    EXPECT_EQ(snapshot.intervalCount(),
              static_cast<std::size_t>(kEvents));
    EXPECT_EQ(snapshot.events().size(), static_cast<std::size_t>(kEvents));
    const auto samples = snapshot.counter("axi_bytes");
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(samples.front().value, 64.0);
}

TEST(TraceAlloc, DisabledRecordingIsAllocationFree)
{
    // Disabled tracing must be free even through the string API — the
    // wrappers check the enabled flag before touching the interner.
    Tracer t;
    t.setEnabled(false);
    CountingScope scope;
    for (int i = 0; i < 1000; ++i) {
        t.recordInterval("cpu0", "job", i, i + 10);
        t.recordEvent("migration", "job", i);
        t.recordCounter("axi_bytes", i, 1.0);
    }
    EXPECT_EQ(scope.count(), 0u);
    EXPECT_EQ(t.intervalCount(), 0u);
}

} // namespace
} // namespace aitax::trace
