// SIGPROF stack sampler that charges the benchmark process's CPU time to the
// repository's layers (the modules under src/).
//
// While running, an ITIMER_PROF timer interrupts whichever thread is using
// CPU; the handler copies that thread's return addresses into a
// preallocated buffer and does nothing else. After Stop(), Resolve()
// symbolises each frame with dladdr + __cxa_demangle and charges the sample
// to the innermost frame that names a layer (see LayerOf). Frames in the
// standard library, libc and the utility modules (common, stats) name no
// layer, so their time goes to the layer that called them.
//
// Blind spots: a frame resolves only to a symbol in the dynamic table (link
// the binary with -rdynamic), so time in an internal-linkage or inlined
// function is charged to its nearest exported caller; and the kernel
// delivers ITIMER_PROF on its scheduler tick, so the effective interval can
// be coarser than requested.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Layers a sample can be charged to, in report order; "other" takes
/// samples with no layer frame at all.
inline constexpr std::string_view kLayers[] = {
    "sim",         "net",
    "rdma",        "kvstore",
    "workload",    "core.engine",
    "core.monitor", "obs",
    "runtime.engine", "runtime.fabric",
    "runtime.monitor", "harness",
    "other"};
inline constexpr std::size_t kLayerCount = std::size(kLayers);

/// The layer a demangled symbol belongs to, or "" when it names none. The
/// first `haechi::<module>::` scope in the name decides, so a standard
/// library template instantiated on a layer's type (a std::function
/// handler wrapping a layer's lambda, a container of its records) is
/// charged to that layer.
[[nodiscard]] std::string_view LayerOf(std::string_view demangled);

struct LayerProfile {
  /// Share of samples per layer, percent, indexed like kLayers.
  double host_pct[kLayerCount] = {};
  std::uint64_t samples = 0;
  /// Samples lost because the buffer was full.
  std::uint64_t lost = 0;
  /// Time spent inside the signal handler as a share of the process CPU
  /// time used while sampling, both summed over every Start()-Stop()
  /// window, percent.
  double overhead_pct = 0.0;
};

/// One process-wide sampler; at most one may run at a time.
class LayerSampler {
 public:
  /// Preallocates room for `capacity` samples.
  explicit LayerSampler(std::size_t capacity);
  ~LayerSampler();

  LayerSampler(const LayerSampler&) = delete;
  LayerSampler& operator=(const LayerSampler&) = delete;

  /// Installs the handler and arms the timer.
  void Start(int interval_us);
  /// Disarms the timer and waits until no handler is running.
  void Stop();

  /// Symbolises and charges every sample taken. Call after Stop().
  [[nodiscard]] LayerProfile Resolve() const;

  /// Signal-handler body; public only so the C handler can reach it.
  void Capture(void* ucontext);

 private:
  static constexpr int kDepth = 64;

  std::size_t capacity_;
  std::unique_ptr<void*[]> frames_;     // capacity_ * kDepth
  std::unique_ptr<void*[]> pcs_;        // interrupted PC per sample
  std::unique_ptr<std::int32_t[]> depth_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> handler_ns_{0};
  std::int64_t cpu_start_ns_ = 0;
  std::int64_t cpu_ns_ = 0;
  bool running_ = false;
};

}  // namespace e2e
