// Trace exporters: the flight recorder's merged event stream as
//   * CSV (one row per event; the audit tool's input format), and
//   * Chrome/Perfetto trace-event JSON (open in ui.perfetto.dev or
//     chrome://tracing): instant events per subsystem plus counter tracks
//     for the global token pool and capacity estimate.
//
// Both renderings are deterministic functions of the event stream — two
// runs with identical seeds and fault plans export byte-identical files
// (the determinism test in tests/trace_test.cpp pins this).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/trace.hpp"

namespace haechi::obs {

/// CSV rendering: header `time_ns,kind,actor,seq,type,period,a,b,c`.
[[nodiscard]] std::string ToCsvString(const std::vector<TraceEvent>& events);

/// Chrome trace-event JSON (the "traceEvents" array form Perfetto ingests).
[[nodiscard]] std::string ToPerfettoString(
    const std::vector<TraceEvent>& events);

/// Parses a CSV trace back into events. Fails (kInvalidArgument) on a
/// malformed header, row, or unknown type/kind name — a corrupted trace is
/// rejected, never silently skipped.
Result<std::vector<TraceEvent>> ParseCsvTrace(const std::string& text);

/// Writes the recorder's merged stream to `path`; the format follows the
/// extension (".json" => Perfetto, anything else => CSV).
Status ExportTraceFile(const Recorder& recorder, const std::string& path);

/// Writes `body` to `path`, replacing the file.
Status WriteStringToFile(const std::string& path, const std::string& body);

/// Reads a whole file (the audit tool's loader).
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace haechi::obs
