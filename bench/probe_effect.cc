/**
 * @file
 * Section III-D reproduction: the probe effect of driver
 * instrumentation — 4-7% on hardware-accelerated inference, none on
 * CPU paths — plus the probe effect of our *own* instrumentation: the
 * tracer record path. The second half measures events/sec with
 * tracing on vs. off and the interned record path against the old
 * string-keyed design, and emits a checksum-verified BENCH_trace.json
 * so the tracer perf trajectory has data points (like
 * BENCH_sweep.json does for the sweep pool).
 *
 * Usage: probe_effect [--jobs N] [--trace-out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "trace/chrome_trace.h"

namespace {

using namespace aitax;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Replica of the pre-interning tracer storage: a string-keyed ordered
 * map of AoS interval vectors, with a std::string label stored per
 * event. This is the baseline the interned path is measured against.
 */
struct LegacyMapTracer
{
    struct Interval
    {
        std::string label;
        sim::TimeNs begin;
        sim::TimeNs end;
    };
    std::map<std::string, std::vector<Interval>> tracks;

    void
    recordInterval(const std::string &track, const std::string &label,
                   sim::TimeNs begin, sim::TimeNs end)
    {
        if (end <= begin)
            return;
        tracks[track].push_back({label, begin, end});
    }
};

constexpr int kRecordEvents = 1'000'000;

/** Deterministic pseudo-scenario for the record benchmarks. */
struct RecordOp
{
    int track;
    int label;
    sim::TimeNs begin;
    sim::TimeNs end;
};

std::vector<RecordOp>
makeRecordOps()
{
    std::vector<RecordOp> ops;
    ops.reserve(kRecordEvents);
    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    sim::TimeNs now = 0;
    for (int i = 0; i < kRecordEvents; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const auto r = s >> 33;
        RecordOp op;
        op.track = static_cast<int>(r % 8);
        op.label = static_cast<int>((r >> 8) % 16);
        op.begin = now;
        op.end = now + 1 + static_cast<sim::TimeNs>(r % 1000);
        now += 500;
        ops.push_back(op);
    }
    return ops;
}

std::string
recTrackName(int i)
{
    return "core" + std::to_string(i);
}

std::string
recLabelName(int i)
{
    return "job_" + std::to_string(i);
}

/** Events/sec of the legacy string-keyed map baseline. */
double
benchLegacyRecord(const std::vector<RecordOp> &ops)
{
    std::vector<std::string> tracks, labels;
    for (int i = 0; i < 8; ++i)
        tracks.push_back(recTrackName(i));
    for (int i = 0; i < 16; ++i)
        labels.push_back(recLabelName(i));
    LegacyMapTracer t;
    const auto t0 = Clock::now();
    for (const RecordOp &op : ops)
        t.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                         labels[static_cast<std::size_t>(op.label)],
                         op.begin, op.end);
    const double s = secondsSince(t0);
    return static_cast<double>(ops.size()) / s;
}

/** Events/sec of the interned id-based record path (steady state). */
double
benchInternedRecord(const std::vector<RecordOp> &ops,
                    trace::Tracer &out)
{
    std::vector<trace::TrackId> tracks;
    for (int i = 0; i < 8; ++i)
        tracks.push_back(out.internTrack(recTrackName(i)));
    std::vector<trace::LabelId> labels;
    for (int i = 0; i < 16; ++i)
        labels.push_back(out.internLabel(recLabelName(i)));
    // Warm capacity so the measured pass is the zero-allocation
    // steady state (the contract test_trace_alloc.cc asserts).
    for (const RecordOp &op : ops)
        out.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                           labels[static_cast<std::size_t>(op.label)],
                           op.begin, op.end);
    out.clear();
    const auto t0 = Clock::now();
    for (const RecordOp &op : ops)
        out.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                           labels[static_cast<std::size_t>(op.label)],
                           op.begin, op.end);
    const double s = secondsSince(t0);
    return static_cast<double>(ops.size()) / s;
}

/** Events/sec through the legacy string overloads (wrapper cost). */
double
benchStringApiRecord(const std::vector<RecordOp> &ops)
{
    std::vector<std::string> tracks, labels;
    for (int i = 0; i < 8; ++i)
        tracks.push_back(recTrackName(i));
    for (int i = 0; i < 16; ++i)
        labels.push_back(recLabelName(i));
    trace::Tracer t;
    const auto t0 = Clock::now();
    for (const RecordOp &op : ops)
        t.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                         labels[static_cast<std::size_t>(op.label)],
                         op.begin, op.end);
    const double s = secondsSince(t0);
    return static_cast<double>(ops.size()) / s;
}

struct ScenarioProbe
{
    double on_events_per_sec = 0.0;
    double off_events_per_sec = 0.0;
    std::int64_t events = 0;
};

/**
 * Probe effect of the tracer on a full simulation: the same scenario
 * with collection enabled and disabled, in simulator events/sec of
 * host wall-clock. The system is built by hand, not by
 * verify::ScenarioRun, because the probe switches the tracer off
 * before the application exists and times the event loop alone.
 */
ScenarioProbe
benchScenarioProbe()
{
    constexpr int kProbeRuns = 300;
    const soc::SocConfig platform = soc::platformByName("Snapdragon 845");
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = tensor::DType::UInt8;
    cfg.framework = app::FrameworkKind::TfliteHexagon;
    cfg.mode = app::HarnessMode::AndroidApp;

    auto run_once = [&](bool tracing) {
        soc::SocSystem sys(platform, /*seed=*/7);
        sys.tracer().setEnabled(tracing);
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(kProbeRuns, report);
        const auto t0 = Clock::now();
        sys.run();
        const double s = secondsSince(t0);
        const auto events = sys.simulator().eventsExecuted();
        return std::pair<double, std::int64_t>(
            static_cast<double>(events) / s, events);
    };

    ScenarioProbe probe;
    // Warm up each variant, then take the best of several
    // interleaved repeats — a single run is only ~10ms of wall
    // clock, far too noisy on a shared host.
    (void)run_once(true);
    (void)run_once(false);
    for (int rep = 0; rep < 7; ++rep) {
        const auto on = run_once(true);
        const auto off = run_once(false);
        probe.on_events_per_sec =
            std::max(probe.on_events_per_sec, on.first);
        probe.off_events_per_sec =
            std::max(probe.off_events_per_sec, off.first);
        probe.events = on.second;
    }
    return probe;
}

/**
 * Serialization checksum: the tracer filled by the interned record
 * pass must serialize byte-identically to one filled through the
 * string API with the same data.
 */
bool
traceChecksumMatches(const trace::Tracer &interned,
                     const std::vector<RecordOp> &ops)
{
    trace::Tracer via_string;
    for (const RecordOp &op : ops)
        via_string.recordInterval(recTrackName(op.track),
                                  recLabelName(op.label), op.begin,
                                  op.end);
    return trace::chromeTraceString(via_string) ==
           trace::chromeTraceString(interned);
}

} // namespace

int
main(int argc, char **argv)
{
    using core::Stage;
    bench::initBench(argc, argv);

    std::string trace_out = "BENCH_trace.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
            trace_out = argv[i + 1];
            for (int j = i; j + 2 < argc; ++j)
                argv[j] = argv[j + 2];
            argc -= 2;
            break;
        }
    }

    bench::heading(
        "Probe effect of driver instrumentation",
        "Section III-D (Probe Effect)",
        "instrumentation adds 4-7% to DSP/GPU-accelerated inference "
        "and has no effect on CPU pre-processing or CPU inference");

    struct Case
    {
        const char *name;
        app::FrameworkKind fw;
        tensor::DType dtype;
    };
    const Case cases[] = {
        {"Hexagon delegate int8", app::FrameworkKind::TfliteHexagon,
         tensor::DType::UInt8},
        {"SNPE DSP int8", app::FrameworkKind::SnpeDsp,
         tensor::DType::UInt8},
        {"GPU delegate fp32", app::FrameworkKind::TfliteGpu,
         tensor::DType::Float32},
        {"CPU 4 threads fp32", app::FrameworkKind::TfliteCpu,
         tensor::DType::Float32},
        {"CPU 4 threads int8", app::FrameworkKind::TfliteCpu,
         tensor::DType::UInt8},
    };

    stats::Table table({"Backend", "inference off (ms)",
                        "inference on (ms)", "slowdown",
                        "pre-proc off (ms)", "pre-proc on (ms)"});
    std::vector<verify::Scenario> specs;
    for (const auto &c : cases) {
        verify::Scenario spec = bench::scenario();
        spec.modelId = "mobilenet_v1";
        spec.dtype = c.dtype;
        spec.framework = c.fw;
        spec.mode = app::HarnessMode::AndroidApp;
        spec.runs = 200;
        spec.instrumentation = false;
        specs.push_back(spec);
        spec.instrumentation = true;
        specs.push_back(spec);
    }
    const auto reports = bench::runSpecs(specs);

    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const auto &c = cases[i];
        const auto &off = reports[2 * i];
        const auto &on = reports[2 * i + 1];
        table.addRow(
            {c.name, bench::fmtMs(off.stageMeanMs(Stage::Inference)),
             bench::fmtMs(on.stageMeanMs(Stage::Inference)),
             [&] {
                 const double pct =
                     (on.stageMeanMs(Stage::Inference) /
                          off.stageMeanMs(Stage::Inference) -
                      1.0) *
                     100.0;
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
                 return std::string(buf);
             }(),
             bench::fmtMs(off.stageMeanMs(Stage::PreProcessing)),
             bench::fmtMs(on.stageMeanMs(Stage::PreProcessing))});
    }
    table.render(std::cout);

    // --- our own probe effect: the tracer record path ---------------
    bench::heading(
        "Probe effect of the tracer itself",
        "Section III-D, applied to our instrumentation",
        "the interned record path is multiples faster than the old "
        "string-keyed design, and disabling tracing barely moves "
        "simulator throughput");

    const auto ops = makeRecordOps();
    const double legacy_eps = benchLegacyRecord(ops);
    const double string_eps = benchStringApiRecord(ops);
    trace::Tracer interned;
    const double interned_eps = benchInternedRecord(ops, interned);
    const double record_speedup =
        legacy_eps > 0.0 ? interned_eps / legacy_eps : 0.0;

    std::printf("record path, %d intervals:\n", kRecordEvents);
    std::printf("  legacy string-keyed map  %10.2f M events/s\n",
                legacy_eps / 1e6);
    std::printf("  string API (re-intern)   %10.2f M events/s\n",
                string_eps / 1e6);
    std::printf("  interned id API          %10.2f M events/s  "
                "(%.1fx vs legacy)\n",
                interned_eps / 1e6, record_speedup);

    const auto probe = benchScenarioProbe();
    const double probe_pct =
        probe.off_events_per_sec > 0.0
            ? (probe.off_events_per_sec / probe.on_events_per_sec -
               1.0) *
                  100.0
            : 0.0;
    std::printf("full simulation (%lld simulator events):\n",
                static_cast<long long>(probe.events));
    std::printf("  tracing on               %10.2f M events/s\n",
                probe.on_events_per_sec / 1e6);
    std::printf("  tracing off              %10.2f M events/s  "
                "(tracing costs %.1f%%)\n",
                probe.off_events_per_sec / 1e6, probe_pct);

    const bool checksum_match = traceChecksumMatches(interned, ops);
    std::printf("  serialization checksum: id API vs string API %s\n",
                checksum_match ? "match" : "MISMATCH");

    std::ofstream out(trace_out);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
        return 1;
    }
    char buf[64];
    out << "{\n"
        << "  \"record_events\": " << kRecordEvents << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", legacy_eps);
    out << "  \"legacy_events_per_sec\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", string_eps);
    out << "  \"string_api_events_per_sec\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", interned_eps);
    out << "  \"interned_events_per_sec\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", record_speedup);
    out << "  \"record_speedup\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", probe.on_events_per_sec);
    out << "  \"sim_events_per_sec_tracing_on\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", probe.off_events_per_sec);
    out << "  \"sim_events_per_sec_tracing_off\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", probe_pct);
    out << "  \"tracing_overhead_pct\": " << buf << ",\n";
    out << "  \"checksum_match\": "
        << (checksum_match ? "true" : "false") << "\n"
        << "}\n";
    out.close();
    std::printf("  wrote %s\n", trace_out.c_str());

    return checksum_match ? 0 : 1;
}
