#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/simulator.h"
#include "soc/chipsets.h"
#include "soc/thermal.h"

namespace aitax::verify {

namespace {

CheckResult
pass(std::string name)
{
    return {std::move(name), true, ""};
}

CheckResult
fail(std::string name, const std::string &detail)
{
    return {std::move(name), false, detail};
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

bool
InvariantReport::allPassed() const
{
    return failures() == 0;
}

std::size_t
InvariantReport::failures() const
{
    std::size_t n = 0;
    for (const auto &r : results_)
        if (!r.passed)
            ++n;
    return n;
}

void
InvariantReport::render(std::ostream &os) const
{
    for (const auto &r : results_) {
        os << "  [" << (r.passed ? "PASS" : "FAIL") << "] " << r.name;
        if (!r.passed)
            os << " — " << r.detail;
        os << "\n";
    }
}

CheckResult
checkStageSanity(const core::TaxReport &r)
{
    const char *name = "stage-sanity";
    if (r.runs() == 0)
        return fail(name, "report holds no runs");
    const auto &e2e = r.endToEnd().raw();
    const auto &inf = r.stage(core::Stage::Inference).raw();
    for (core::Stage s : core::kAllStages) {
        if (r.stage(s).min() < 0.0)
            return fail(name, std::string(core::stageName(s)) +
                                  " has a negative latency sample");
    }
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        double sum = 0.0;
        for (core::Stage s : core::kAllStages)
            sum += r.stage(s).raw()[i];
        if (std::abs(sum - e2e[i]) > 1e-6)
            return fail(name, "run " + std::to_string(i) +
                                  ": stage sum " + fmt(sum) +
                                  " != e2e " + fmt(e2e[i]));
        if (e2e[i] + 1e-9 < inf[i])
            return fail(name, "run " + std::to_string(i) + ": e2e " +
                                  fmt(e2e[i]) + " ms < inference " +
                                  fmt(inf[i]) + " ms");
    }
    if (r.endToEndMeanMs() + 1e-9 < r.stageMeanMs(core::Stage::Inference))
        return fail(name, "mean e2e below mean inference");
    return pass(name);
}

CheckResult
checkTaxFraction(const core::TaxReport &r)
{
    const char *name = "tax-fraction-unit-interval";
    const double f = r.aiTaxFraction();
    if (!(f >= 0.0) || !(f < 1.0))
        return fail(name, "aiTaxFraction = " + fmt(f));
    // Every pipeline spends *some* non-inference time (capture or
    // framework prep), so a full run set with zero tax is an
    // accounting bug.
    if (r.runs() > 0 && r.aiTaxMeanMs() <= 0.0)
        return fail(name, "mean AI tax is zero over " +
                              std::to_string(r.runs()) + " runs");
    return pass(name);
}

CheckResult
checkTraceDeterminism(const std::string &trace_a,
                      const std::string &trace_b)
{
    const char *name = "seed-determinism";
    if (trace_a == trace_b)
        return pass(name);
    // Locate the first divergence for the diagnostic.
    std::size_t i = 0;
    const std::size_t n = std::min(trace_a.size(), trace_b.size());
    while (i < n && trace_a[i] == trace_b[i])
        ++i;
    return fail(name, "traces diverge at byte " + std::to_string(i) +
                          " (sizes " + std::to_string(trace_a.size()) +
                          " vs " + std::to_string(trace_b.size()) + ")");
}

CheckResult
checkBackgroundMonotonic(const core::TaxReport &unloaded,
                         const core::TaxReport &loaded, double slack_pct)
{
    const char *name = "background-load-monotonic";
    const double base = unloaded.endToEndMeanMs();
    const double with_load = loaded.endToEndMeanMs();
    if (with_load < base * (1.0 - slack_pct / 100.0))
        return fail(name, "loaded e2e " + fmt(with_load) +
                              " ms beats unloaded " + fmt(base) + " ms");
    return pass(name);
}

CheckResult
checkThermalMonotonic(const soc::SocConfig &platform)
{
    const char *name = "thermal-throttle-monotonic";
    soc::ThermalConfig cfg = platform.thermal;
    cfg.enabled = true; // probe the model even on presets that keep it off
    sim::Simulator sim;
    soc::ThermalModel model(cfg, sim);
    double last = model.speedFactor();
    if (!(last > 0.0) || last > 1.0)
        return fail(name, "cold speed factor " + fmt(last));
    // Pump heat in steps; the clock multiplier must never rise while
    // heat accumulates (time is frozen, so no cooling happens).
    for (int step = 0; step < 40; ++step) {
        model.addHeat(cfg.throttleThreshold / 8.0);
        const double f = model.speedFactor();
        if (!(f > 0.0) || f > 1.0)
            return fail(name, "speed factor " + fmt(f) + " outside (0,1]");
        if (f > last + 1e-12)
            return fail(name, "heating raised the clock: " + fmt(last) +
                                  " -> " + fmt(f));
        last = f;
    }
    if (last >= 1.0)
        return fail(name, "saturated heat did not throttle");
    return pass(name);
}

CheckResult
checkFastRpcLinearity(const std::vector<soc::FastRpcBreakdown> &calls,
                      double tolerance_pct)
{
    const char *name = "fastrpc-linear-in-calls";
    if (calls.size() < 6)
        return pass(name); // not enough calls to regress
    // Only the first call of a process may pay the session open.
    for (std::size_t i = 1; i < calls.size(); ++i) {
        if (calls[i].sessionOpenNs > 0)
            return fail(name, "warm call " + std::to_string(i) +
                                  " paid session open again");
    }
    // Warm overhead must be stationary: the first half of the warm
    // calls accounts for ~half the total warm overhead.
    double total = 0.0;
    for (std::size_t i = 1; i < calls.size(); ++i)
        total += static_cast<double>(calls[i].overheadNs());
    if (total <= 0.0)
        return fail(name, "offloaded calls report zero overhead");
    const std::size_t half = 1 + (calls.size() - 1) / 2;
    double first_half = 0.0;
    for (std::size_t i = 1; i < half; ++i)
        first_half += static_cast<double>(calls[i].overheadNs());
    const double expected =
        total * static_cast<double>(half - 1) /
        static_cast<double>(calls.size() - 1);
    const double rel = std::abs(first_half - expected) / expected;
    if (rel > tolerance_pct / 100.0)
        return fail(name, "warm overhead drifts " + fmt(rel * 100.0) +
                              "% from linear growth");
    return pass(name);
}

CheckResult
checkInterferenceSuppression(const core::TaxReport &with_interference,
                             const core::TaxReport &suppressed,
                             double slack_pct)
{
    const char *name = "interference-suppression";
    const double noisy = with_interference.endToEndMeanMs();
    const double quiet = suppressed.endToEndMeanMs();
    if (quiet > noisy * (1.0 + slack_pct / 100.0))
        return fail(name, "suppressed e2e " + fmt(quiet) +
                              " ms slower than interfered " + fmt(noisy) +
                              " ms");
    return pass(name);
}

CheckResult
checkRpcBreakdownSanity(const std::vector<soc::FastRpcBreakdown> &calls)
{
    const char *name = "rpc-breakdown-sanity";
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const auto &c = calls[i];
        const struct
        {
            const char *field;
            sim::DurationNs v;
        } stages[] = {
            {"sessionOpenNs", c.sessionOpenNs},
            {"userToKernelNs", c.userToKernelNs},
            {"cacheFlushNs", c.cacheFlushNs},
            {"kernelSignalNs", c.kernelSignalNs},
            {"queueWaitNs", c.queueWaitNs},
            {"dspExecNs", c.dspExecNs},
            {"returnPathNs", c.returnPathNs},
            {"retryNs", c.retryNs},
        };
        sim::DurationNs sum = 0;
        for (const auto &st : stages) {
            if (st.v < 0)
                return fail(name, "call " + std::to_string(i) + ": " +
                                      st.field + " = " +
                                      std::to_string(st.v) + " < 0");
            sum += st.v;
        }
        if (sum != c.totalNs())
            return fail(name, "call " + std::to_string(i) +
                                  ": stage sum " + std::to_string(sum) +
                                  " ns != total " +
                                  std::to_string(c.totalNs()) + " ns");
        if (c.retries < 0)
            return fail(name, "call " + std::to_string(i) +
                                  ": negative retry count");
        if (c.retries == 0 && c.retryNs > 0)
            return fail(name, "call " + std::to_string(i) +
                                  ": retry time without retries");
    }
    return pass(name);
}

CheckResult
checkFrameCausality(const std::vector<app::FrameConsume> &frames)
{
    const char *name = "frame-causality";
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto &f = frames[i];
        if (f.consumedAt < f.readyAt)
            return fail(name,
                        "frame " + std::to_string(f.frame) +
                            " consumed at " + std::to_string(f.consumedAt) +
                            " ns before its arrival at " +
                            std::to_string(f.readyAt) + " ns");
        if (i > 0 && f.frame <= frames[i - 1].frame)
            return fail(name, "frame index not strictly increasing at "
                              "witness " +
                                  std::to_string(i));
    }
    return pass(name);
}

CheckResult
checkFallbackMonotonic(const faults::FaultStats &stats)
{
    const char *name = "fallback-chain-monotonic";
    for (const auto &fb : stats.fallbacks) {
        if (static_cast<int>(fb.to) <= static_cast<int>(fb.from))
            return fail(name,
                        std::string("fallback climbs the chain: ") +
                            faults::chainLinkName(fb.from) + " -> " +
                            faults::chainLinkName(fb.to));
    }
    return pass(name);
}

CheckResult
checkDegradedAccounting(const core::TaxReport &r, bool faulted)
{
    const char *name = "degraded-mode-accounting";
    const auto &d = r.degradedMode();
    if (!faulted) {
        if (d.count() != 0)
            return fail(name, "unfaulted report carries " +
                                  std::to_string(d.count()) +
                                  " degraded samples");
        return pass(name);
    }
    if (d.count() != r.runs())
        return fail(name, "expected one degraded sample per run, got " +
                              std::to_string(d.count()) + " for " +
                              std::to_string(r.runs()) + " runs");
    const auto &e2e = r.endToEnd().raw();
    for (std::size_t i = 0; i < d.raw().size(); ++i) {
        if (d.raw()[i] < 0.0)
            return fail(name, "run " + std::to_string(i) +
                                  ": negative degraded time");
        if (d.raw()[i] > e2e[i] + 1e-9)
            return fail(name, "run " + std::to_string(i) +
                                  ": degraded time " + fmt(d.raw()[i]) +
                                  " ms exceeds e2e " + fmt(e2e[i]) +
                                  " ms");
    }
    return pass(name);
}

InvariantReport
verifyScenario(const Scenario &s)
{
    return verifyScenario(s, sim::EngineMode::Fast);
}

InvariantReport
verifyScenario(const Scenario &s, sim::EngineMode engine)
{
    InvariantReport report;

    const ScenarioResult base = runScenario(s, engine);
    report.add(checkStageSanity(base.report));
    report.add(checkTaxFraction(base.report));

    // I3: identical seed, identical trace. Holds with faults armed
    // too — the fault schedule is part of the seeded state.
    const ScenarioResult rerun = runScenario(s, engine);
    report.add(
        checkTraceDeterminism(base.chromeTraceJson, rerun.chromeTraceJson));

    // I4: contrast against the other side of the load axis. Skipped
    // under faults: the injected schedule differs across variants, so
    // the monotonicity premise does not hold. The contrast run is read
    // only for its report, so it skips the trace.
    if (!s.faults) {
        Scenario contrast = s;
        const bool has_load =
            s.dspLoadProcesses > 0 || s.cpuLoadProcesses > 0;
        if (has_load) {
            contrast.dspLoadProcesses = 0;
            contrast.cpuLoadProcesses = 0;
            const ScenarioResult unloaded = runScenario(
                contrast, engine, ResultRequest::ReportOnly);
            report.add(
                checkBackgroundMonotonic(unloaded.report, base.report));
        } else {
            contrast.dspLoadProcesses = 2;
            contrast.cpuLoadProcesses = 1;
            const ScenarioResult loaded = runScenario(
                contrast, engine, ResultRequest::ReportOnly);
            report.add(
                checkBackgroundMonotonic(base.report, loaded.report));
        }
    }

    // I5: thermal model of this scenario's platform.
    report.add(
        checkThermalMonotonic(soc::platformByName(s.socName)));

    // I6: FastRPC linearity whenever the scenario offloaded. Retries
    // and session losses make warm overhead non-stationary, so the
    // check only applies without faults.
    if (!s.faults && !base.rpcLog.empty())
        report.add(checkFastRpcLinearity(base.rpcLog));

    // I8/I9: per-call and per-frame sanity (trivially pass when the
    // scenario produced no offloads / no streaming witnesses).
    report.add(checkRpcBreakdownSanity(base.rpcLog));
    report.add(checkFrameCausality(base.frameLog));

    // Fault-specific invariants.
    if (s.faults)
        report.add(checkFallbackMonotonic(base.faultStats));
    report.add(checkDegradedAccounting(base.report, s.faults));

    // Scenario-level sanity on the witnesses themselves.
    CheckResult wit{"witness-sanity", true, ""};
    if (base.endTimeNs <= 0)
        wit = {"witness-sanity", false, "simulation ended at t=0"};
    else if (base.energyMj <= 0.0)
        wit = {"witness-sanity", false, "no energy accounted"};
    else if (!(base.thermalSpeedFactor > 0.0) ||
             base.thermalSpeedFactor > 1.0)
        wit = {"witness-sanity", false, "thermal factor outside (0,1]"};
    report.add(wit);

    return report;
}

} // namespace aitax::verify
