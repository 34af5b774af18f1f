#include "verify/corpus.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "stats/numfmt.h"

namespace aitax::verify {

namespace {

/** Valid (model, dtype, framework) points; modes/socs/seeds cycle. */
struct Combo
{
    const char *model;
    tensor::DType dtype;
    app::FrameworkKind fw;
};

/**
 * The one ScenarioResult -> ScenarioOutcome mapping: scenario @p make
 * (index), measured end to end. The outcome reads only the report and
 * the event count, so the run skips the Chrome trace.
 */
template <typename Make>
sweep::ScenarioFn
outcomeFn(Make make, sim::EngineMode engine)
{
    return [make, engine](int index) {
        const ScenarioResult r =
            runScenario(make(index), engine, ResultRequest::ReportOnly);
        return sweep::ScenarioOutcome{r.report.endToEndMeanMs(),
                                      r.eventsExecuted};
    };
}

} // namespace

Scenario
benchScenario(int index, int runs)
{
    static const Combo kCombos[] = {
        {"mobilenet_v1", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"mobilenet_v1", tensor::DType::UInt8,
         app::FrameworkKind::TfliteHexagon},
        {"efficientnet_lite0", tensor::DType::UInt8,
         app::FrameworkKind::TfliteNnapi},
        {"squeezenet", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"inception_v3", tensor::DType::Float32,
         app::FrameworkKind::TfliteGpu},
        {"mobilenet_v1", tensor::DType::UInt8,
         app::FrameworkKind::SnpeDsp},
        {"posenet", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"ssd_mobilenet_v2", tensor::DType::UInt8,
         app::FrameworkKind::TfliteNnapi},
    };
    static const app::HarnessMode kModes[] = {
        app::HarnessMode::CliBenchmark,
        app::HarnessMode::BenchmarkApp,
        app::HarnessMode::AndroidApp,
    };
    static const char *kSocs[] = {
        "Snapdragon 835",
        "Snapdragon 845",
        "Snapdragon 855",
        "Snapdragon 865",
    };

    const auto i = static_cast<std::size_t>(index);
    const Combo &c = kCombos[i % std::size(kCombos)];
    Scenario spec;
    spec.modelId = c.model;
    spec.dtype = c.dtype;
    spec.framework = c.fw;
    spec.mode = kModes[(i / 2) % std::size(kModes)];
    spec.socName = kSocs[(i / 3) % std::size(kSocs)];
    // Every fourth row uses streaming capture; where that lands on a
    // CliBenchmark row it exercises the fork-stream snapshot path
    // (warm-up memoized despite the post-warm-up divergence).
    spec.streaming = (index % 4 == 0);
    spec.runs = runs;
    spec.seed = 1000 + static_cast<std::uint64_t>(index);
    return spec;
}

sweep::ScenarioFn
resolveCorpusSpec(const std::string &spec, std::string *error)
{
    auto refuse = [error](const std::string &why) {
        *error = why;
        return sweep::ScenarioFn();
    };
    // Every key the grammar knows: seed and faults are fuzz-only, runs
    // bench-only.
    enum Key { Corpus, Engine, Scenarios, Chunk, Seed, Faults, Runs, Keys };
    static constexpr std::string_view kNames[Keys] = {
        "corpus", "engine", "scenarios", "chunk", "seed", "faults", "runs"};
    std::string_view value[Keys];
    bool given[Keys] = {};
    const std::string_view text(spec);
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        const std::string_view tok = text.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty())
            continue;
        const std::size_t eq = tok.find('=');
        const std::string key(tok.substr(0, eq));
        const auto k = std::find(kNames, kNames + Keys, key) - kNames;
        if (eq == std::string_view::npos)
            return refuse("token \"" + key + "\" is not key=value");
        if (k == Keys || given[k])
            return refuse((k == Keys ? "unknown key \"" : "repeated key \"") +
                          key + "\"");
        given[k] = true;
        value[k] = tok.substr(eq + 1);
    }
    const std::string corpus(value[Corpus]);
    const bool fuzz = corpus == "fuzz";
    if (!fuzz && corpus != "bench")
        return refuse("unknown corpus \"" + corpus + "\"");
    const int foreign = fuzz ? Runs : given[Seed] ? Seed : Faults;
    if (given[foreign])
        return refuse("key \"" + std::string(kNames[foreign]) +
                      "\" does not apply to corpus=" + corpus);

    std::uint64_t seed = 2021;
    int count[Keys] = {}; // scenarios, chunk and runs; the first two
                          // shape the coordinator's dispatch only
    for (int k = Engine; k < Keys; ++k) {
        const std::string_view v = value[k];
        const bool ok =
            !given[k] ||
            (k == Engine   ? v == "fast" || v == "reference"
             : k == Faults ? v == "0" || v == "1"
             : k == Seed   ? stats::parseWhole(v, seed)
                           : stats::parseWhole(v, count[k]) && count[k] > 0);
        if (!ok)
            return refuse("malformed \"" + std::string(kNames[k]) + "=" +
                          std::string(v) + "\"");
    }
    const sim::EngineMode engine = value[Engine] == "reference"
                                       ? sim::EngineMode::Reference
                                       : sim::EngineMode::Fast;
    if (fuzz) {
        const bool faults = value[Faults] == "1";
        return outcomeFn(
            [seed, faults](int index) {
                Scenario s = fuzzScenario(seed, index);
                s.faults = faults;
                return s;
            },
            engine);
    }
    if (!given[Runs])
        return refuse("corpus=bench needs runs=N");
    const int runs = count[Runs];
    return outcomeFn([runs](int index) { return benchScenario(index, runs); },
                     engine);
}

} // namespace aitax::verify
