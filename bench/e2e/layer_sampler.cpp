#include "layer_sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <unordered_map>

namespace e2e {
namespace {

std::atomic<LayerSampler*> g_active{nullptr};
// Handlers currently between entry and exit, so Stop() can wait them out.
std::atomic<int> g_inflight{0};

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void OnProf(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  const int saved_errno = errno;
  g_inflight.fetch_add(1);
  if (LayerSampler* sampler = g_active.load()) sampler->Capture(ucontext);
  g_inflight.fetch_sub(1);
  errno = saved_errno;
}

void* InterruptedPc(void* ucontext) {
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

std::size_t LayerIndex(std::string_view layer) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (kLayers[i] == layer) return i;
  }
  return kLayerCount;
}

std::string_view Identifier(std::string_view s) {
  std::size_t n = 0;
  while (n < s.size() && (std::isalnum(static_cast<unsigned char>(s[n])) ||
                          s[n] == '_')) {
    ++n;
  }
  return s.substr(0, n);
}

}  // namespace

std::string_view LayerOf(std::string_view name) {
  constexpr std::string_view kRoot = "haechi::";
  for (std::size_t at = name.find(kRoot); at != std::string_view::npos;
       at = name.find(kRoot, at + 1)) {
    const std::string_view rest = name.substr(at + kRoot.size());
    const std::string_view module = Identifier(rest);
    if (rest.substr(module.size(), 2) != "::") continue;
    const std::string_view cls = Identifier(rest.substr(module.size() + 2));
    if (module == "core") {
      return cls == "ClientQosEngine" ? "core.engine" : "core.monitor";
    }
    if (module == "runtime") {
      if (cls == "ThreadedEngine") return "runtime.engine";
      if (cls == "ThreadedFabric" || cls == "SharedRegion") {
        return "runtime.fabric";
      }
      return "runtime.monitor";
    }
    if (module == "common" || module == "stats") continue;  // utilities
    const std::size_t index = LayerIndex(module);
    if (index < kLayerCount) return kLayers[index];
    return "other";  // a module with no layer of its own (cluster)
  }
  return {};
}

LayerSampler::LayerSampler(std::size_t capacity)
    : capacity_(capacity),
      frames_(new void*[capacity * kDepth]),
      pcs_(new void*[capacity]),
      depth_(new std::int32_t[capacity]) {}

LayerSampler::~LayerSampler() { Stop(); }

void LayerSampler::Start(int interval_us) {
  if (running_) return;
  // The first backtrace() loads the unwinder, which allocates; do that
  // here rather than inside the signal handler.
  void* warm[4];
  backtrace(warm, 4);
  LayerSampler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this)) {
    throw std::logic_error("another LayerSampler is running");
  }
  struct sigaction action {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  cpu_start_ns_ = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
  running_ = true;
}

void LayerSampler::Stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(nullptr);
  while (g_inflight.load() != 0) {
  }
  cpu_ns_ += ClockNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start_ns_;
  running_ = false;
}

void LayerSampler::Capture(void* ucontext) {
  const std::int64_t start = ClockNs(CLOCK_MONOTONIC);
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot < capacity_) {
    depth_[slot] = backtrace(&frames_[slot * kDepth], kDepth);
    pcs_[slot] = InterruptedPc(ucontext);
  }
  handler_ns_.fetch_add(
      static_cast<std::uint64_t>(ClockNs(CLOCK_MONOTONIC) - start),
      std::memory_order_relaxed);
}

LayerProfile LayerSampler::Resolve() const {
  LayerProfile profile;
  const std::size_t taken = next_.load();
  const std::size_t kept = taken < capacity_ ? taken : capacity_;
  profile.lost = taken - kept;
  profile.samples = kept;
  if (cpu_ns_ > 0) {
    profile.overhead_pct = 100.0 * static_cast<double>(handler_ns_.load()) /
                           static_cast<double>(cpu_ns_);
  }

  std::unordered_map<void*, std::size_t> cache;  // address -> layer index
  const auto layer_at = [&cache](void* address) {
    const auto hit = cache.find(address);
    if (hit != cache.end()) return hit->second;
    std::size_t index = kLayerCount;  // names no layer
    Dl_info info{};
    if (dladdr(address, &info) != 0 && info.dli_sname != nullptr) {
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      const std::string_view layer =
          LayerOf(status == 0 ? demangled : info.dli_sname);
      if (!layer.empty()) index = LayerIndex(layer);
      std::free(demangled);
    }
    cache.emplace(address, index);
    return index;
  };

  std::uint64_t counts[kLayerCount] = {};
  for (std::size_t s = 0; s < kept; ++s) {
    void* const* frames = &frames_[s * kDepth];
    const int depth = depth_[s];
    // Frames up to the interrupted PC belong to the handler and the signal
    // trampoline. Past the PC, each frame is a return address: step back
    // one byte so a call that ends its function still resolves to it.
    int first = 0;
    while (first < depth && frames[first] != pcs_[s]) ++first;
    if (first == depth) first = depth > 2 ? 2 : depth;  // PC not found
    std::size_t layer = kLayerCount;
    for (int f = first; f < depth && layer == kLayerCount; ++f) {
      void* address = frames[f];
      if (f > first || address != pcs_[s]) {
        address = static_cast<char*>(address) - 1;
      }
      layer = layer_at(address);
    }
    ++counts[layer < kLayerCount ? layer : LayerIndex("other")];
  }
  for (std::size_t i = 0; i < kLayerCount && kept > 0; ++i) {
    profile.host_pct[i] =
        100.0 * static_cast<double>(counts[i]) / static_cast<double>(kept);
  }
  return profile;
}

}  // namespace e2e
