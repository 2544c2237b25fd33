#include "obs/span.hpp"

#if HAECHI_TRACE_ENABLED

#include <algorithm>

namespace haechi::obs {

std::size_t SpanAssembler::InflightTable::Find(std::uint64_t io_id) const {
  if (live_ == 0) return kAbsent;
  const std::size_t mask = slots_.size() - 1;
  // Robin Hood order: a run never holds a slot nearer its home than the
  // probe distance so far, so meeting one proves the id absent.
  for (std::size_t i = io_id & mask, d = 0;; i = (i + 1) & mask, ++d) {
    if (!slots_[i].used || Distance(i) < d) return kAbsent;
    if (slots_[i].span.io_id == io_id) return i;
  }
}

void SpanAssembler::InflightTable::Insert(const IoSpan& span) {
  if (Find(span.io_id) != kAbsent) return;
  if (2 * (live_ + 1) > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  Slot carried{true, span};
  for (std::size_t i = span.io_id & mask, d = 0;; i = (i + 1) & mask, ++d) {
    if (!slots_[i].used) {
      slots_[i] = carried;
      ++live_;
      return;
    }
    // Robin Hood: the entry nearer its home yields the slot and moves on.
    if (const std::size_t held = Distance(i); held < d) {
      std::swap(carried, slots_[i]);
      d = held;
    }
  }
}

bool SpanAssembler::InflightTable::Take(std::uint64_t io_id, IoSpan& out) {
  std::size_t i = Find(io_id);
  if (i == kAbsent) return false;
  out = slots_[i].span;
  --live_;
  // Backward-shift erase: pull the rest of the run one slot nearer home,
  // up to a free slot or an entry already at home. Dense io_ids sit at
  // home, so this usually stops at once.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].used && Distance(j) > 0;
       i = j, j = (j + 1) & mask) {
    slots_[i] = slots_[j];
  }
  slots_[i].used = false;
  return true;
}

void SpanAssembler::InflightTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  live_ = 0;
  for (const Slot& slot : old) {
    if (slot.used) Insert(slot.span);
  }
}

SpanAssembler::EngineState& SpanAssembler::StateFor(std::uint32_t actor) {
  if (last_ < engines_.size() && engines_[last_].first == actor) {
    return engines_[last_].second;
  }
  auto it = std::lower_bound(
      engines_.begin(), engines_.end(), actor,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  if (it == engines_.end() || it->first != actor) {
    it = engines_.emplace(it, actor, EngineState{});
  }
  last_ = static_cast<std::size_t>(it - engines_.begin());
  return it->second;
}

void SpanAssembler::OnEvent(const TraceEvent& event) {
  if (event.actor_kind != ActorKind::kEngine) return;
  EngineState& st = StateFor(event.actor);
  const SimTime t = event.time;
  switch (event.type) {
    // --- token-path state machine -----------------------------------------
    case EventType::kTokenFetch:
      // A posted FAA ends any convert wait (the engine is actively fetching
      // again) and opens a fetch interval.
      st.CloseWait(t);
      st.OpenFetch(t);
      break;
    case EventType::kTokenFetchDone:
    case EventType::kTokenDiscard:
      st.CloseFetch(t);
      break;
    case EventType::kTokenFetchFail:
      // Backoff between retries still counts as token_fetch: the I/O is
      // stalled on the fetch path, not on conversion. Keep the interval
      // open across the retry.
      break;
    case EventType::kPoolEmpty:
      // The FAA came back empty: the engine now waits for the monitor's
      // conversion to refill the pool (step T4's retry interval).
      st.CloseFetch(t);
      st.OpenWait(t);
      break;
    case EventType::kEnginePeriodStart:
      // Fresh reservation tokens arrived; the engine is no longer blocked
      // on pool conversion. An in-flight FAA stays open — its tokens get
      // discarded at the boundary and kTokenDiscard closes it.
      st.CloseWait(t);
      break;
    case EventType::kEngineStop:
      DropLeftovers(st);
      st = EngineState{};
      break;
    // --- per-IO causal chain ----------------------------------------------
    case EventType::kIoQueued: {
      PendingIo p;
      p.io_id = static_cast<std::uint64_t>(event.a);
      p.period = event.period;
      p.queued_at = t;
      p.fetch0 = st.CumFetch(t);
      p.wait0 = st.CumWait(t);
      st.pending.push_back(p);
      break;
    }
    case EventType::kIoIssue: {
      const auto io_id = static_cast<std::uint64_t>(event.a);
      // The engine queue is FIFO, so the match is almost always the front;
      // the linear fallback only runs on truncated traces.
      auto it = st.pending.begin();
      while (it != st.pending.end() && it->io_id != io_id) ++it;
      if (it == st.pending.end()) {
        ++stats_.orphan_events;
        break;
      }
      IoSpan span;
      span.engine = event.actor;
      span.period = it->period;
      span.io_id = io_id;
      span.token_source = event.b;
      span.queued_at = it->queued_at;
      span.issued_at = t;
      const SimDuration fetch = st.CumFetch(t) - it->fetch0;
      const SimDuration wait = st.CumWait(t) - it->wait0;
      span.stage_ns[static_cast<std::size_t>(SpanStage::kAdmit)] = 0;
      span.stage_ns[static_cast<std::size_t>(SpanStage::kTokenFetch)] = fetch;
      span.stage_ns[static_cast<std::size_t>(SpanStage::kConvertWait)] = wait;
      span.stage_ns[static_cast<std::size_t>(SpanStage::kQueue)] =
          std::max<SimDuration>(0, (t - it->queued_at) - fetch - wait);
      st.pending.erase(it);
      st.inflight.Insert(span);
      break;
    }
    case EventType::kIoComplete: {
      IoSpan span;
      if (!st.inflight.Take(static_cast<std::uint64_t>(event.a), span)) {
        ++stats_.orphan_events;
        break;
      }
      span.completed_at = t;
      span.stage_ns[static_cast<std::size_t>(SpanStage::kNicService)] =
          t - span.issued_at;
      done_.push_back(span);
      ++stats_.spans;
      break;
    }
    default:
      break;
  }
}

void SpanAssembler::DropLeftovers(const EngineState& state) {
  stats_.dropped_unissued += state.pending.size();
  stats_.dropped_uncompleted += state.inflight.size();
}

std::vector<IoSpan> SpanAssembler::Finish() {
  for (const auto& [actor, state] : engines_) DropLeftovers(state);
  engines_.clear();
  // Same-seed runs feed identical per-engine streams; the final sort makes
  // the output canonical regardless of how completions of different
  // engines interleaved (or whether they were fed interleaved at all).
  std::sort(done_.begin(), done_.end(),
            [](const IoSpan& x, const IoSpan& y) {
              if (x.engine != y.engine) return x.engine < y.engine;
              return x.io_id < y.io_id;
            });
  return std::move(done_);
}

namespace {

std::vector<IoSpan> FinishInto(SpanAssembler& assembler,
                               SpanAssemblyStats* stats) {
  std::vector<IoSpan> spans = assembler.Finish();
  if (stats != nullptr) *stats = assembler.stats();
  return spans;
}

}  // namespace

std::vector<IoSpan> AssembleSpans(const std::vector<TraceEvent>& events,
                                  SpanAssemblyStats* stats) {
  SpanAssembler assembler;
  for (const TraceEvent& event : events) assembler.OnEvent(event);
  return FinishInto(assembler, stats);
}

std::vector<IoSpan> AssembleSpans(const Recorder& recorder,
                                  SpanAssemblyStats* stats) {
  SpanAssembler assembler;
  std::vector<TraceEvent> scratch;
  recorder.ForEachActor(ActorKind::kEngine,
                        [&](std::uint32_t, RingSegments segments) {
                          segments = TimeOrdered(segments, scratch);
                          for (const TraceEvent& event : segments.older) {
                            assembler.OnEvent(event);
                          }
                          for (const TraceEvent& event : segments.newer) {
                            assembler.OnEvent(event);
                          }
                        });
  return FinishInto(assembler, stats);
}

}  // namespace haechi::obs

#endif  // HAECHI_TRACE_ENABLED
