/**
 * @file
 * Campaign spec resolution (ctest -L verify).
 *
 * verify::resolveCorpusSpec is the first code a campaign worker runs
 * on bytes from its coordinator, so every malformed spec must be a
 * refusal with a message, never a silently different corpus. A table
 * pins the named hostile cases; a seeded in-tree mutator (bit flips,
 * truncations, splices of valid fuzz and bench specs) derives 10^5
 * more and checks each against the grammar restated independently
 * below. The valid specs resolve to the exact per-index runs a
 * campaign aggregates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"
#include "verify/corpus.h"

namespace aitax {
namespace {

bool
rejects(const std::string &spec, std::string *why)
{
    why->clear();
    return !verify::resolveCorpusSpec(spec, why);
}

TEST(CorpusSpec, MalformedSpecsAreRefusedWithAMessage)
{
    for (const char *spec : {
             "corpus=bench scenarios=8 runs=3x",
             "corpus=bench scenarios=8x runs=3",
             "corpus=fuzz seed=1 seed=2",
             "corpus=fuzz runs=5",
             "corpus=bench runs=5 seed=1",
             "corpus=bench runs=5 faults=0",
             "corpus=fuzz engine=FAST",
             "corpus=fuzz seed=",
             "corpus=fuzz seed=7 bare",
             "corpus=bench",
             "corpus=bench scenarios=8 chunk=32 engine=fast",
             "corpus=bench runs=0",
             "corpus=bench runs=-3",
             "corpus=fuzz chunk=0",
             "corpus=fuzz seed=-1",
             "corpus=fuzz seed=18446744073709551616",
             "corpus=fuzz faults=yes",
             "corpus=fuzz faults=01",
             "corpus=fuzz colour=blue",
             "corpus=martian seed=1",
             "corpus=",
             "seed=1",
             "",
         }) {
        std::string why;
        EXPECT_TRUE(rejects(spec, &why)) << '"' << spec << '"';
        EXPECT_FALSE(why.empty()) << '"' << spec << '"';
    }
}

TEST(CorpusSpec, CampaignIdentitiesResolve)
{
    for (const char *spec : {
             "corpus=fuzz seed=2021 scenarios=256 chunk=32 faults=0 "
             "engine=fast",
             "corpus=fuzz seed=18446744073709551615 faults=1 "
             "engine=reference",
             "corpus=fuzz",
             "corpus=bench scenarios=256 runs=30 chunk=32 engine=fast",
             "runs=1 corpus=bench",
         }) {
        std::string why;
        EXPECT_FALSE(rejects(spec, &why)) << spec << ": " << why;
    }
}

/** Report-only outcome of @p s: what a campaign worker aggregates. */
sweep::ScenarioOutcome
direct(const verify::Scenario &s, sim::EngineMode engine)
{
    const verify::ScenarioResult r =
        verify::runScenario(s, engine, verify::ResultRequest::ReportOnly);
    return {r.report.endToEndMeanMs(), r.eventsExecuted};
}

TEST(CorpusSpec, ResolvedFunctionsRunTheNamedScenarios)
{
    std::string why;
    const sweep::ScenarioFn fuzz = verify::resolveCorpusSpec(
        "corpus=fuzz seed=77 faults=1 engine=reference", &why);
    const sweep::ScenarioFn bench =
        verify::resolveCorpusSpec("corpus=bench runs=4", &why);
    ASSERT_TRUE(fuzz && bench) << why;
    for (const int i : {0, 5}) {
        verify::Scenario f = verify::fuzzScenario(77, i);
        f.faults = true;
        const sweep::ScenarioOutcome want =
            direct(f, sim::EngineMode::Reference);
        const sweep::ScenarioOutcome got = fuzz(i);
        EXPECT_EQ(got.e2eMeanMs, want.e2eMeanMs) << "fuzz " << i;
        EXPECT_EQ(got.events, want.events) << "fuzz " << i;

        const sweep::ScenarioOutcome bwant = direct(
            verify::benchScenario(i, 4), sim::EngineMode::Fast);
        const sweep::ScenarioOutcome bgot = bench(i);
        EXPECT_EQ(bgot.e2eMeanMs, bwant.e2eMeanMs) << "bench " << i;
        EXPECT_EQ(bgot.events, bwant.events) << "bench " << i;
    }
}

// --- Seeded mutation ------------------------------------------------

/** A non-empty run of decimal digits no larger than @p max. */
bool
digitsAtMost(std::string_view v, std::uint64_t max)
{
    if (v.empty() || v.size() > 20)
        return false;
    std::uint64_t n = 0;
    for (const char c : v) {
        if (c < '0' || c > '9')
            return false;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (n > (max - d) / 10)
            return false;
        n = n * 10 + d;
    }
    return true;
}

/** The spec grammar of verify/corpus.h, restated without sharing code. */
bool
grammarAccepts(const std::string &spec)
{
    constexpr auto kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    // Keys in the order of the bits of `seen`.
    static constexpr std::string_view kKeys[] = {
        "corpus", "engine", "scenarios", "chunk", "runs", "seed", "faults"};
    unsigned seen = 0;
    std::string_view corpus;
    const std::string_view text(spec);
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t end = text.find(' ', pos);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view tok = text.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty())
            continue;
        const std::size_t eq = tok.find('=');
        if (eq == std::string_view::npos)
            return false;
        const std::string_view key = tok.substr(0, eq);
        const std::string_view v = tok.substr(eq + 1);
        unsigned k = 0;
        while (k < std::size(kKeys) && key != kKeys[k])
            ++k;
        if (k == std::size(kKeys) || (seen & (1u << k)) != 0)
            return false;
        seen |= 1u << k;
        const bool ok =
            k == 0 ? (corpus = v, true)
            : k == 1 ? v == "fast" || v == "reference"
            : k <= 4 ? digitsAtMost(v, kIntMax) &&
                           v.find_first_not_of('0') != std::string_view::npos
            : k == 5 ? digitsAtMost(v, std::numeric_limits<std::uint64_t>::max())
                     : v == "0" || v == "1";
        if (!ok)
            return false;
    }
    const bool runs = (seen & (1u << 4)) != 0;
    const bool fuzzKeys = (seen & (3u << 5)) != 0;
    if (corpus == "fuzz")
        return !runs;
    return corpus == "bench" && runs && !fuzzKeys;
}

std::size_t
pick(sim::RandomStream &rng, std::size_t lo, std::size_t hi)
{
    return static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

TEST(CorpusSpec, MutatedSpecsResolveExactlyWhenTheGrammarAccepts)
{
    const std::vector<std::string> valid = {
        "corpus=fuzz seed=2021 scenarios=256 chunk=32 faults=0 "
        "engine=fast",
        "corpus=fuzz seed=77 scenarios=48 chunk=8 faults=1 "
        "engine=reference",
        "corpus=fuzz seed=18446744073709551615",
        "corpus=bench scenarios=256 runs=30 chunk=32 engine=fast",
        "corpus=bench runs=100 engine=reference",
        "engine=fast runs=2147483647 corpus=bench",
    };
    constexpr int kSpecs = 100000;
    sim::RandomStream rng(20210326, "corpus-spec-mutator");
    int accepted = 0;
    for (int iter = 0; iter < kSpecs; ++iter) {
        std::string spec = valid[pick(rng, 0, valid.size() - 1)];
        switch (pick(rng, 0, 2)) {
        case 0: // bit flips
            for (std::size_t n = pick(rng, 1, 3); n > 0; --n)
                spec[pick(rng, 0, spec.size() - 1)] ^=
                    static_cast<char>(1u << pick(rng, 0, 7));
            break;
        case 1: // truncation
            spec.resize(pick(rng, 0, spec.size()));
            break;
        default: { // splice: a prefix of one spec + a suffix of another
            const std::string &other = valid[pick(rng, 0, valid.size() - 1)];
            spec = spec.substr(0, pick(rng, 0, spec.size())) +
                   other.substr(pick(rng, 0, other.size()));
            break;
        }
        }
        std::string why;
        const bool resolved = !rejects(spec, &why);
        ASSERT_EQ(resolved, grammarAccepts(spec))
            << "spec " << iter << " \"" << spec << "\": " << why;
        if (resolved)
            ++accepted;
        else
            ASSERT_FALSE(why.empty()) << "spec " << iter << " \"" << spec
                                      << '"';
    }
    // Both outcomes must be well represented for the check to bite.
    EXPECT_GT(accepted, kSpecs / 20);
    EXPECT_LT(accepted, kSpecs - kSpecs / 20);
}

} // namespace
} // namespace aitax
