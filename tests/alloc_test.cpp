// Allocation gate for the simulated I/O path.
//
// This executable replaces the global operator new with a counting one, so
// it can measure heap allocations per completed I/O over a whole
// experiment's measured periods. The event path (simulator, stations,
// fabric op records, engine and KV client bookkeeping) is meant to run
// without allocating: one allocation reintroduced per I/O lifts the rate
// above 1.0, while the amortised chunk turnover of the remaining
// std::deques and the per-period control work stay well below it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/experiment.hpp"
#include "workload/distributions.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace haechi {
namespace {

using harness::ClientSpec;
using harness::Experiment;
using harness::ExperimentConfig;

constexpr double kScale = 0.02;

ExperimentConfig Base(std::size_t measured_periods) {
  ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = kScale;
  config.warmup = config.qos.period;
  config.measure_periods = measured_periods;
  config.seed = 1;
  return config;
}

/// The paper's Set 3 operating point, scaled: Spike reservations
/// 3x285K + 7x80K, demand 3x340K + 7x80K, 4 KB GETs at a constant rate.
ExperimentConfig Set3() {
  ExperimentConfig config = Base(3);
  const auto scaled = [](double v) {
    return static_cast<std::int64_t>(v * kScale);
  };
  const auto reservations =
      workload::SpikeShare(10, 3, scaled(285'000), scaled(80'000));
  const auto demands =
      workload::SpikeShare(10, 3, scaled(340'000), scaled(80'000));
  for (std::size_t i = 0; i < reservations.size(); ++i) {
    ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = demands[i];
    spec.pattern = workload::RequestPattern::kConstantRate;
    config.clients.push_back(spec);
  }
  return config;
}

/// YCSB-A (50% PUTs) on 20 clients with B = 1, half of C_G reserved and
/// demand above it, so token fetches and conversion run all the time.
ExperimentConfig YcsbA() {
  ExperimentConfig config = Base(3);
  config.qos.token_batch = 1;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  const std::int64_t r = cap / 2 / 20;
  for (std::size_t i = 0; i < 20; ++i) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = i < 14 ? r + cap * 55 / 100 / 14 : r / 2;
    spec.pattern = workload::RequestPattern::kConstantRate;
    spec.write_fraction = 0.5;
    config.clients.push_back(spec);
  }
  return config;
}

struct Measured {
  std::uint64_t allocations = 0;
  std::int64_t ios = 0;
};

/// Runs `config` and counts allocations and completed I/Os between the
/// first progress callback after warm-up and the last one of the run.
Measured AllocationsAfterWarmup(ExperimentConfig config) {
  const SimTime warmup = config.warmup;
  const std::size_t clients = config.clients.size();
  Experiment experiment(std::move(config));
  bool started = false;
  Measured first;
  Measured last;
  experiment.simulator().SetProgressHook(
      1024, [&](SimTime now, std::uint64_t) {
        if (now < warmup) return;
        Measured sample;
        sample.allocations = g_allocations.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < clients; ++i) {
          sample.ios += experiment.engine(i).stats().completed_total;
        }
        if (!started) {
          started = true;
          first = sample;
        }
        last = sample;
      });
  experiment.Run();
  return {last.allocations - first.allocations, last.ios - first.ios};
}

void ExpectAllocationFree(const char* name, ExperimentConfig config) {
  const Measured m = AllocationsAfterWarmup(std::move(config));
  ASSERT_GT(m.ios, 50'000) << name << ": too few I/Os to measure";
  const double per_io =
      static_cast<double>(m.allocations) / static_cast<double>(m.ios);
  std::printf("%s: %llu allocations over %lld I/Os = %.3f per I/O\n", name,
              static_cast<unsigned long long>(m.allocations),
              static_cast<long long>(m.ios), per_io);
  EXPECT_LT(per_io, 1.0) << name;
}

TEST(AllocationGate, Set3GetsRunWithoutPerIoAllocation) {
  ExpectAllocationFree("set3_get", Set3());
}

TEST(AllocationGate, YcsbAPutsRunWithoutPerIoAllocation) {
  ExpectAllocationFree("ycsb_a", YcsbA());
}

}  // namespace
}  // namespace haechi
