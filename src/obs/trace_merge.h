// Merging per-process Chrome traces into one distributed timeline
// (DESIGN.md §6, "distributed tracing").
//
// Each INDaaS process exports its spans with SpansToChromeTrace against its
// own trace epoch (microseconds since that process started tracing), so the
// raw files disagree about what time it is. This module parses the
// per-process files back into span events, estimates each file's clock
// offset from span pairs that are known to be (near-)simultaneous across
// processes, and emits one Chrome trace where every process is a separate
// pid on a common timeline:
//
//   - an AuditClient "svc.client.rpc" span (opened on the calling thread
//     of a synchronous call) and the AuditServer "svc.rpc" span it caused
//     (matched by trace id + remote_parent == wire span id) bracket the
//     same request, so aligning their midpoints cancels the clock skew up
//     to half the network round trip;
//   - PIA ring peers run their "pia.ring.exchange" hops in lockstep, so
//     same-xseq hops on different peers end at (nearly) the same instant.
//
// Offsets are propagated breadth-first from the first file through every
// file that shares at least one such pair with an already-anchored file;
// files with no cross-process evidence keep their own clock (offset 0).

#ifndef SRC_OBS_TRACE_MERGE_H_
#define SRC_OBS_TRACE_MERGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace indaas {
namespace obs {

// One complete-span event parsed back out of a Chrome trace file.
struct MergeEvent {
  std::string name;
  uint64_t ts = 0;   // µs, in the source process's clock
  uint64_t dur = 0;  // µs
  uint32_t tid = 0;
  int64_t span_id = -1;
  int64_t parent = -1;
  uint64_t trace_id = 0;       // 0 = process-local span
  uint64_t remote_parent = 0;  // wire span id of the remote caller (roots)
  // Remaining args (depth, annotations), as key -> literal JSON-free text.
  std::vector<std::pair<std::string, std::string>> args;
};

// All events from one per-process trace file.
struct ProcessTrace {
  std::string source;  // label for the merged output (usually the filename)
  std::vector<MergeEvent> events;
};

// Parses one Chrome trace document (as written by SpansToChromeTrace;
// tolerant of extra top-level keys and metadata events, which are skipped).
Result<ProcessTrace> ParseChromeTrace(std::string_view json, std::string source);

// Per-file clock offsets in µs: adding offsets[i] to every timestamp of
// traces[i] expresses it in traces[0]'s clock. offsets[0] is always 0.
Result<std::vector<int64_t>> EstimateClockOffsets(const std::vector<ProcessTrace>& traces);

// Merges the parsed traces into one Chrome trace JSON document: clocks
// aligned via EstimateClockOffsets, the whole timeline shifted so the
// earliest event starts at 0, file i rendered as pid i+1 with a
// process_name metadata row naming its source.
Result<std::string> MergeChromeTraces(const std::vector<ProcessTrace>& traces);

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_TRACE_MERGE_H_
