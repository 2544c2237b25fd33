#include "obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>

#include "obs/span.hpp"

namespace haechi::obs {

namespace {

void AppendInt(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ptr);
}

bool ParseInt(std::string_view field, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

/// Splits one CSV line at commas. Trace CSV fields never contain commas,
/// quotes or newlines, so no RFC 4180 unescaping is needed here.
std::vector<std::string_view> SplitCsvLine(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

constexpr std::string_view kCsvHeader =
    "time_ns,kind,actor,seq,type,period,a,b,c";

}  // namespace

std::string ToCsvString(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 48 + 64);
  out.append(kCsvHeader);
  out.push_back('\n');
  for (const TraceEvent& e : events) {
    AppendInt(out, e.time);
    out.push_back(',');
    out.append(ToString(e.actor_kind));
    out.push_back(',');
    AppendInt(out, e.actor);
    out.push_back(',');
    AppendInt(out, static_cast<std::int64_t>(e.seq));
    out.push_back(',');
    out.append(ToString(e.type));
    out.push_back(',');
    AppendInt(out, e.period);
    out.push_back(',');
    AppendInt(out, e.a);
    out.push_back(',');
    AppendInt(out, e.b);
    out.push_back(',');
    AppendInt(out, e.c);
    out.push_back('\n');
  }
  return out;
}

std::string ToPerfettoString(const std::vector<TraceEvent>& events) {
  // Chrome trace-event format: pid = subsystem, tid = actor, ts in
  // microseconds (double; sim-time is ns so ts = ns / 1000 keeps 1 ns
  // resolution in the fraction).
  std::string out;
  out.reserve(events.size() * 120 + 1024);
  out.append("{\"traceEvents\":[\n");
  // Process-name metadata rows make the Perfetto track names readable.
  for (std::size_t kind = 0; kind < kActorKinds; ++kind) {
    out.append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
    AppendInt(out, static_cast<std::int64_t>(kind));
    out.append(",\"args\":{\"name\":\"");
    out.append(ToString(static_cast<ActorKind>(kind)));
    out.append("\"}},\n");
  }
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out.append(",\n");
    first = false;
    char ts[48];
    std::snprintf(ts, sizeof(ts), "%lld.%03lld",
                  static_cast<long long>(e.time / 1000),
                  static_cast<long long>(e.time % 1000));
    const auto pid = static_cast<std::int64_t>(e.actor_kind);
    // The token pool and capacity estimate render as counter tracks; all
    // other events render as instants on their actor's thread track.
    if (e.type == EventType::kPoolSample ||
        e.type == EventType::kTokenConvert) {
      const std::int64_t pool =
          e.type == EventType::kPoolSample ? e.a : e.b;
      out.append("{\"ph\":\"C\",\"name\":\"global_pool\",\"pid\":");
      AppendInt(out, pid);
      out.append(",\"ts\":");
      out.append(ts);
      out.append(",\"args\":{\"tokens\":");
      AppendInt(out, pool);
      out.append("}}");
      if (e.type == EventType::kPoolSample) continue;
      out.append(",\n");
    } else if (e.type == EventType::kCapacityEstimate) {
      out.append("{\"ph\":\"C\",\"name\":\"capacity_estimate\",\"pid\":");
      AppendInt(out, pid);
      out.append(",\"ts\":");
      out.append(ts);
      out.append(",\"args\":{\"tokens\":");
      AppendInt(out, e.b);
      out.append("}},\n");
    }
    out.append("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
    out.append(ToString(e.type));
    out.append("\",\"pid\":");
    AppendInt(out, pid);
    out.append(",\"tid\":");
    AppendInt(out, e.actor);
    out.append(",\"ts\":");
    out.append(ts);
    out.append(",\"args\":{\"period\":");
    AppendInt(out, e.period);
    out.append(",\"a\":");
    AppendInt(out, e.a);
    out.append(",\"b\":");
    AppendInt(out, e.b);
    out.append(",\"c\":");
    AppendInt(out, e.c);
    out.append("}}");
  }
  // Detail traces additionally render per-I/O duration spans (ph:"X") on
  // the engine tracks: one complete event per assembled span covering
  // queued->completed with the stage breakdown in args, plus a nested
  // nic_service slice for the exactly-known issue->completion interval.
  // AssembleSpans is a stub under HAECHI_TRACE=OFF, so this appends
  // nothing there and on traces without kIo* events.
  const std::vector<IoSpan> spans = AssembleSpans(events);
  for (const IoSpan& span : spans) {
    if (!first) out.append(",\n");
    first = false;
    char ts[48];
    char dur[48];
    const auto us = [](char (&buf)[48], SimTime ns) {
      std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                    static_cast<long long>(ns / 1000),
                    static_cast<long long>(ns % 1000));
    };
    us(ts, span.queued_at);
    us(dur, span.Total());
    out.append("{\"ph\":\"X\",\"name\":\"io_span\",\"pid\":");
    AppendInt(out, static_cast<std::int64_t>(ActorKind::kEngine));
    out.append(",\"tid\":");
    AppendInt(out, span.engine);
    out.append(",\"ts\":");
    out.append(ts);
    out.append(",\"dur\":");
    out.append(dur);
    out.append(",\"args\":{\"io_id\":");
    AppendInt(out, static_cast<std::int64_t>(span.io_id));
    out.append(",\"period\":");
    AppendInt(out, span.period);
    out.append(",\"token_source\":");
    AppendInt(out, span.token_source);
    out.append(",\"token_fetch_ns\":");
    AppendInt(out, span.stage_ns[static_cast<std::size_t>(
                       SpanStage::kTokenFetch)]);
    out.append(",\"convert_wait_ns\":");
    AppendInt(out, span.stage_ns[static_cast<std::size_t>(
                       SpanStage::kConvertWait)]);
    out.append(",\"queue_ns\":");
    AppendInt(out, span.stage_ns[static_cast<std::size_t>(
                       SpanStage::kQueue)]);
    out.append("}},\n");
    us(ts, span.issued_at);
    us(dur, span.completed_at - span.issued_at);
    out.append("{\"ph\":\"X\",\"name\":\"nic_service\",\"pid\":");
    AppendInt(out, static_cast<std::int64_t>(ActorKind::kEngine));
    out.append(",\"tid\":");
    AppendInt(out, span.engine);
    out.append(",\"ts\":");
    out.append(ts);
    out.append(",\"dur\":");
    out.append(dur);
    out.append(",\"args\":{\"io_id\":");
    AppendInt(out, static_cast<std::int64_t>(span.io_id));
    out.append("}}");
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

Result<std::vector<TraceEvent>> ParseCsvTrace(const std::string& text) {
  std::vector<TraceEvent> events;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kCsvHeader) {
        return ErrInvalidArgument("trace CSV: bad header on line 1");
      }
      saw_header = true;
      continue;
    }
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 9) {
      return ErrInvalidArgument("trace CSV: line " + std::to_string(line_no) +
                                " has " + std::to_string(fields.size()) +
                                " fields, want 9");
    }
    TraceEvent e;
    std::int64_t time = 0, actor = 0, seq = 0, period = 0;
    if (!ParseInt(fields[0], time) || !ParseInt(fields[2], actor) ||
        !ParseInt(fields[3], seq) || !ParseInt(fields[5], period) ||
        !ParseInt(fields[6], e.a) || !ParseInt(fields[7], e.b) ||
        !ParseInt(fields[8], e.c) || actor < 0 || seq < 0 || period < 0) {
      return ErrInvalidArgument("trace CSV: malformed number on line " +
                                std::to_string(line_no));
    }
    // Actor and period are 32-bit in the record; a wider value would
    // silently alias another stream or period.
    constexpr std::int64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
    if (actor > kMax32 || period > kMax32) {
      return ErrInvalidArgument(
          std::string("trace CSV: ") + (actor > kMax32 ? "actor" : "period") +
          " out of range on line " + std::to_string(line_no));
    }
    if (!ActorKindFromName(fields[1], e.actor_kind)) {
      return ErrInvalidArgument("trace CSV: unknown actor kind on line " +
                                std::to_string(line_no));
    }
    if (!EventTypeFromName(fields[4], e.type)) {
      return ErrInvalidArgument("trace CSV: unknown event type on line " +
                                std::to_string(line_no));
    }
    e.time = time;
    e.actor = static_cast<std::uint32_t>(actor);
    e.seq = static_cast<std::uint64_t>(seq);
    e.period = static_cast<std::uint32_t>(period);
    events.push_back(e);
  }
  if (!saw_header) return ErrInvalidArgument("trace CSV: empty file");
  return events;
}

Status ExportTraceFile(const Recorder& recorder, const std::string& path) {
  const std::vector<TraceEvent> events = recorder.Merged();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return WriteStringToFile(
      path, json ? ToPerfettoString(events) : ToCsvString(events));
}

Status WriteStringToFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrInvalidArgument("cannot open " + path);
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int closed = std::fclose(f);
  if (written != body.size() || closed != 0) {
    return ErrInternal("short write to " + path);
  }
  return Status::Ok();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrNotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return ErrInternal("read error on " + path);
  return out;
}

}  // namespace haechi::obs
