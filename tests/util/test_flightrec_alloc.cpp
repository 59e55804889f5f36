// Allocation test for the disabled flight recorder: its typed helpers must
// return before they build any string. This file replaces the global
// operator new/delete to count heap allocations, so it is its own test
// binary: the replacement hands every non-aligned new/delete pair to
// malloc/free, which would hide new/delete mismatches from AddressSanitizer
// in any test linked with it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace {

/// Heap allocations made by this thread.
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form, so no pair mixes this allocator with the
// sanitizer's (nothrow new is released by plain delete, and so on).
void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tdp::flightrec {
namespace {

TEST(FlightRec, DisabledHelpersAllocateNothing) {
  // Arguments long enough that any copy into a std::string would allocate.
  const std::string what(64, 'w');
  const std::string detail(64, 'd');
  telemetry::SpanRecord span;
  span.name = what;
  span.parent_id = 7;
  journal::ReplayStats stats;
  ManualClock clock;
  Config config;
  config.clock = &clock;
  Recorder paused(config);
  paused.set_enabled(false);
  for (Recorder* rec : {Recorder::disabled().get(), &paused}) {
    const std::size_t before = t_allocations;
    rec->state(what, detail);
    rec->lease(what, detail);
    rec->fault(what, detail);
    rec->log_event(log::Level::kError, what, detail);
    rec->span(span);
    rec->replay(what, stats);
    EXPECT_EQ(t_allocations - before, 0u);
    EXPECT_EQ(rec->recorded(), 0u);
  }
}

TEST(FlightRec, EnabledHelpersAreCounted) {
  // The counter is live: the same calls on a recording ring allocate.
  ManualClock clock;
  Config config;
  config.clock = &clock;
  Recorder rec(config);
  const std::string what(64, 'w');
  const std::size_t before = t_allocations;
  rec.state(what, what);
  EXPECT_GT(t_allocations - before, 0u);
  EXPECT_EQ(rec.recorded(), 1u);
}

}  // namespace
}  // namespace tdp::flightrec
