/**
 * @file
 * Chrome trace-event export.
 *
 * Writes the tracer's intervals and point events in the Trace Event
 * JSON format, loadable in chrome://tracing or Perfetto — the closest
 * open equivalent to browsing a Snapdragon Profiler capture.
 *
 * Serialization streams the columnar store into one output buffer —
 * each interned name escaped once per call, no per-field temporaries —
 * and is byte-identical to the legacy string-concatenating writer (the
 * golden traces depend on that).
 */

#ifndef AITAX_TRACE_CHROME_TRACE_H
#define AITAX_TRACE_CHROME_TRACE_H

#include <cstddef>
#include <ostream>
#include <string>

#include "trace/tracer.h"

namespace aitax::trace {

/**
 * Serialize a complete-event ("ph":"X") JSON array for every
 * interval, one "thread" per track, plus instant events for context
 * switches and migrations. Timestamps are microseconds, as the format
 * requires.
 */
std::string chromeTraceString(const Tracer &tracer);

/** Stream the same JSON to an ostream. */
void writeChromeTrace(std::ostream &os, const Tracer &tracer);

/** Longest formatUs() output ("-9.22337e+15"), rounded up. */
inline constexpr std::size_t kMaxUsChars = 16;

/**
 * Write the nanosecond timestamp @p ns as microseconds in the trace's
 * number format, exactly printf("%.6g", ns / 1e3) — what the legacy
 * `os << double` writer produced. @p first must have room for
 * kMaxUsChars characters; returns one past the last one written.
 */
char *formatUs(char *first, sim::TimeNs ns);

} // namespace aitax::trace

#endif // AITAX_TRACE_CHROME_TRACE_H
