/**
 * @file
 * Campaign transport and crash-consistency verification
 * (ctest -L verify).
 *
 * Proves the three contracts PR 10 adds on top of the campaign
 * determinism contract:
 *
 *  1. Byte-identity across transports: the same campaign run over
 *     fork/exec pipes and over loopback TCP against the
 *     multi-campaign `aitax_cli serve` daemon produces a
 *     byte-identical deterministic report, including the 256-scenario
 *     differential. Workers resolve their corpus from the campaign
 *     spec, and a peer without the worker banner is refused.
 *
 *  2. Manifest crash-consistency: records are fsync'd one line at a
 *     time, so a kill can tear at most the final line. Resuming from
 *     a manifest truncated at EVERY byte offset must recover to the
 *     uninterrupted bytes; a malformed *terminated* line must still
 *     hard-fail.
 *
 *  3. Worker-loss hygiene: a partial result line left in the
 *     coordinator's buffer at worker EOF is discarded with the
 *     reclaimed chunk; a hung worker is killed by the liveness
 *     deadline; SIGPIPE disposition is restored on every exit path;
 *     and all protocol numbers survive a comma-decimal locale.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "stats/numfmt.h"
#include "sweep/campaign.h"

#ifndef AITAX_CLI_PATH
#error "build must define AITAX_CLI_PATH"
#endif

namespace aitax {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
    ASSERT_TRUE(out.good()) << path;
}

/** Small campaign over the real aitax_cli sweep-serve worker. */
sweep::CampaignConfig
pipeConfig(int scenarios, int chunk, int shards, int jobs,
           std::uint64_t seed)
{
    sweep::CampaignConfig cfg;
    cfg.scenarios = scenarios;
    cfg.chunk = chunk;
    cfg.shards = shards;
    cfg.identity = "corpus=fuzz seed=" + std::to_string(seed) +
                   " scenarios=" + std::to_string(scenarios) +
                   " chunk=" + std::to_string(chunk) +
                   " faults=0 engine=fast";
    cfg.corpusSpec = cfg.identity;
    cfg.workerCmd = {AITAX_CLI_PATH,
                     "sweep-serve",
                     "--seed",
                     std::to_string(seed),
                     "--jobs",
                     std::to_string(jobs)};
    return cfg;
}

std::string
reportOf(const sweep::CampaignSummary &sum,
         const sweep::CampaignConfig &cfg)
{
    return sweep::campaignReportJson(cfg.identity, sum.aggregate);
}

std::string
mustRun(const sweep::CampaignConfig &cfg,
        sweep::CampaignSummary *out = nullptr)
{
    const auto sum = sweep::runCampaign(cfg);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Ok) << sum.error;
    if (out != nullptr)
        *out = sum;
    return sum.status == sweep::CampaignStatus::Ok ? reportOf(sum, cfg)
                                                   : std::string();
}

// ---------------------------------------------------------------
// Child-process helpers for TCP workers and the serve daemon.
// ---------------------------------------------------------------

/** fork/exec aitax_cli with the given argv tail; returns the pid. */
pid_t
spawnCli(const std::vector<std::string> &args)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    std::vector<std::string> argvS;
    argvS.push_back(AITAX_CLI_PATH);
    argvS.insert(argvS.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argvS)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
}

/** Poll a --port-file until the child announces its bound port. */
int
awaitPort(const std::string &portFile)
{
    for (int i = 0; i < 200; ++i) {
        std::ifstream in(portFile);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        usleep(25 * 1000);
    }
    return -1;
}

void
reapChild(pid_t pid, bool expectClean)
{
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (expectClean) {
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child exit status " << status;
    }
}

struct ChildGuard
{
    pid_t pid = -1;
    ~ChildGuard()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
        }
    }
    void disarm() { pid = -1; }
};

// ---------------------------------------------------------------
// 1. Transports: pipe vs TCP byte-identity, spec addressing.
// ---------------------------------------------------------------

TEST(Transport, WorkersResolveCorpusFromSpec)
{
    const std::string base = mustRun(pipeConfig(24, 4, 2, 1, 77));
    ASSERT_FALSE(base.empty());

    // Workers whose argv seed DISAGREES with the campaign: only the
    // spec handshake can make the bytes match, so a match proves
    // worker-side corpus addressing is load-bearing.
    auto cfg = pipeConfig(24, 4, 2, 1, 77);
    cfg.workerCmd = pipeConfig(24, 4, 2, 1, 123456).workerCmd;
    EXPECT_EQ(mustRun(cfg), base);
}

TEST(Transport, OldProtocolBannerIsRefused)
{
    // A worker from before the spec handshake opens with the v1
    // banner. It must be refused outright; the short deadline turns
    // a coordinator that accepts it and then waits into a failure
    // instead of a hang.
    auto cfg = pipeConfig(8, 4, 1, 1, 77);
    cfg.workerCmd = {"/bin/sh", "-c",
                     "printf 'aitax-sweep-worker-v1 ready\\n'; "
                     "exec sleep 30"};
    cfg.workerDeadlineSeconds = 0.5;
    const auto sum = sweep::runCampaign(cfg);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("aitax-sweep-worker-v1 ready"),
              std::string::npos)
        << sum.error;
}

TEST(Transport, TcpRequiresCorpusSpec)
{
    auto cfg = pipeConfig(8, 4, 1, 1, 77);
    cfg.workers = {"127.0.0.1:1"};
    cfg.corpusSpec.clear();
    const auto sum = sweep::runCampaign(cfg);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("corpus spec"), std::string::npos)
        << sum.error;
}

TEST(Transport, WorkerRejectsForeignSpec)
{
    auto cfg = pipeConfig(8, 4, 1, 1, 77);
    cfg.corpusSpec = "corpus=martian seed=1";
    const auto sum = sweep::runCampaign(cfg);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("rejected campaign spec"),
              std::string::npos)
        << sum.error;
}

TEST(Transport, ServeRejectsInvalidListenPort)
{
    // Out-of-range and non-numeric ports are usage errors (exit 2)
    // before any socket is bound, never a truncated or ephemeral port.
    for (const char *port : {"70000", "abc"}) {
        const pid_t pid =
            spawnCli({"serve", "--listen", port, "--accept", "0"});
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
            << "--listen " << port << ": status " << status;
    }
}

TEST(Transport, DaemonServesConcurrentCampaignsInIsolation)
{
    const std::string portFile =
        testing::TempDir() + "aitax_daemon.port";
    std::remove(portFile.c_str());
    ChildGuard daemon;
    // Two campaigns x two sessions each = exactly 4 accepts.
    daemon.pid = spawnCli({"serve", "--listen", "0", "--jobs", "1",
                           "--accept", "4", "--port-file", portFile});
    const int port = awaitPort(portFile);
    ASSERT_GT(port, 0) << "daemon never bound";
    std::remove(portFile.c_str());
    const std::string ep = "127.0.0.1:" + std::to_string(port);

    const std::string base77 = mustRun(pipeConfig(24, 4, 2, 1, 77));
    const std::string base78 = mustRun(pipeConfig(24, 4, 2, 1, 78));
    ASSERT_FALSE(base77.empty());
    ASSERT_FALSE(base78.empty());

    // Both campaigns run against the one daemon concurrently; the
    // fork-per-connection sessions must not bleed state into each
    // other (different seeds -> different corpora on the same port).
    std::string got77;
    std::string got78;
    auto run = [&ep](std::uint64_t seed, std::string *out) {
        auto cfg = pipeConfig(24, 4, 2, 1, seed);
        cfg.workerCmd.clear();
        cfg.workers = {ep, ep};
        cfg.workerDeadlineSeconds = 30.0;
        const auto sum = sweep::runCampaign(cfg);
        if (sum.status == sweep::CampaignStatus::Ok)
            *out = sweep::campaignReportJson(cfg.identity,
                                             sum.aggregate);
    };
    std::thread t77(run, 77, &got77);
    std::thread t78(run, 78, &got78);
    t77.join();
    t78.join();
    EXPECT_EQ(got77, base77);
    EXPECT_EQ(got78, base78);
    reapChild(daemon.pid, /*expectClean=*/true);
    daemon.disarm();
}

TEST(Transport, PipeVsTcp256ScenarioDifferential)
{
    // The issue's acceptance differential: the same 256-scenario
    // campaign over pipes and over loopback TCP, byte-compared.
    auto pipe_cfg = pipeConfig(256, 32, 2, 2, 2021);
    const std::string pipe_report = mustRun(pipe_cfg);
    ASSERT_FALSE(pipe_report.empty());

    const std::string portFile =
        testing::TempDir() + "aitax_diff_daemon.port";
    std::remove(portFile.c_str());
    ChildGuard daemon;
    daemon.pid = spawnCli({"serve", "--listen", "0", "--jobs", "2",
                           "--accept", "2", "--port-file", portFile});
    const int port = awaitPort(portFile);
    ASSERT_GT(port, 0);
    std::remove(portFile.c_str());
    const std::string ep = "127.0.0.1:" + std::to_string(port);

    auto tcp_cfg = pipe_cfg;
    tcp_cfg.workerCmd.clear();
    tcp_cfg.workers = {ep, ep};
    tcp_cfg.workerDeadlineSeconds = 60.0;
    sweep::CampaignSummary sum;
    EXPECT_EQ(mustRun(tcp_cfg, &sum), pipe_report);
    EXPECT_EQ(sum.transport, "tcp");

    // The transport-stamped report differs ONLY by the transport line.
    const std::string stamped = sweep::campaignReportJson(
        tcp_cfg.identity, sum.aggregate, sum.transport);
    EXPECT_NE(stamped.find("\"transport\": \"tcp\""),
              std::string::npos);
    reapChild(daemon.pid, /*expectClean=*/true);
    daemon.disarm();
}

// ---------------------------------------------------------------
// 2. Manifest crash-consistency.
// ---------------------------------------------------------------

TEST(ManifestCrash, KillAtEveryByteOffsetResumesByteExactly)
{
    // Small corpus so sweeping every single truncation offset stays
    // fast; the parse paths exercised do not depend on corpus size.
    auto cfg = pipeConfig(8, 2, 1, 1, 77);
    const std::string manifest =
        testing::TempDir() + "aitax_torn_manifest.txt";
    std::remove(manifest.c_str());
    cfg.checkpointPath = manifest;
    const std::string base = mustRun(cfg);
    ASSERT_FALSE(base.empty());
    const std::string bytes = readFile(manifest);
    ASSERT_GT(bytes.size(), 0u);

    // A kill while appending leaves an arbitrary prefix of the
    // manifest (fsync-per-record rules out holes). EVERY prefix must
    // resume to the uninterrupted bytes: torn tails are truncated,
    // torn headers start fresh, clean prefixes resume the rest.
    for (std::size_t off = 0; off <= bytes.size(); ++off) {
        writeFile(manifest, bytes.substr(0, off));
        auto rcfg = cfg;
        rcfg.resume = true;
        const auto sum = sweep::runCampaign(rcfg);
        ASSERT_EQ(sum.status, sweep::CampaignStatus::Ok)
            << "offset " << off << ": " << sum.error;
        ASSERT_EQ(reportOf(sum, rcfg), base) << "offset " << off;
        ASSERT_EQ(sum.chunksResumed + sum.chunksRun, 4)
            << "offset " << off;
    }

    // Double-resume: a resume that accepted a newline-less final
    // record must restore the separator before appending, so a second
    // resume still parses. Truncate to kill just the final newline.
    writeFile(manifest, bytes.substr(0, bytes.size() - 1));
    auto r1 = cfg;
    r1.resume = true;
    r1.stopAfterChunks = -1;
    ASSERT_EQ(sweep::runCampaign(r1).status, sweep::CampaignStatus::Ok);
    const auto again = sweep::runCampaign(r1);
    ASSERT_EQ(again.status, sweep::CampaignStatus::Ok) << again.error;
    EXPECT_EQ(reportOf(again, r1), base);
    EXPECT_EQ(again.chunksResumed, 4);
    std::remove(manifest.c_str());
}

TEST(ManifestCrash, TerminatedMalformedLineHardFails)
{
    auto cfg = pipeConfig(8, 2, 1, 1, 77);
    const std::string manifest =
        testing::TempDir() + "aitax_malformed_manifest.txt";
    std::remove(manifest.c_str());
    cfg.checkpointPath = manifest;
    ASSERT_FALSE(mustRun(cfg).empty());
    const std::string bytes = readFile(manifest);

    // Corrupt a MIDDLE line but keep it newline-terminated: the
    // fsync-per-record contract rules this damage out, so it must be
    // reported as corruption, never silently truncated or skipped.
    const std::size_t firstNl = bytes.find('\n');
    const std::size_t secondNl = bytes.find('\n', firstNl + 1);
    ASSERT_NE(secondNl, std::string::npos);
    std::string corrupt = bytes.substr(0, firstNl + 1) +
                          "chunk 0 ca1 n=GARBAGE\n" +
                          bytes.substr(secondNl + 1);
    writeFile(manifest, corrupt);
    auto rcfg = cfg;
    rcfg.resume = true;
    const auto sum = sweep::runCampaign(rcfg);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("malformed manifest"), std::string::npos)
        << sum.error;
    std::remove(manifest.c_str());
}

// ---------------------------------------------------------------
// 3. Worker-loss hygiene: partial lines, hangs, SIGPIPE, locale.
// ---------------------------------------------------------------

/**
 * A worker stub that completes the banner + spec handshake and then
 * misbehaves once; on respawn it execs the real worker. The flag file
 * records that the first life happened.
 */
sweep::CampaignConfig
stubConfig(const std::string &misbehaveScript, const std::string &tag)
{
    auto cfg = pipeConfig(8, 2, 1, 1, 77);
    const std::string flag =
        testing::TempDir() + "aitax_stub_" + tag + ".flag";
    std::remove(flag.c_str());
    const std::string script =
        "if [ -e " + flag + " ]; then exec " + AITAX_CLI_PATH +
        " sweep-serve --seed 77 --jobs 1; fi; touch " + flag + "; " +
        "printf 'aitax-sweep-worker-v2 ready\\n'; read line; "
        "printf 'spec-ok\\n'; " +
        misbehaveScript;
    cfg.workerCmd = {"/bin/sh", "-c", script};
    return cfg;
}

TEST(WorkerLoss, PartialResultLineIsDiscardedWithItsChunk)
{
    const std::string base = mustRun(pipeConfig(8, 2, 1, 1, 77));
    ASSERT_FALSE(base.empty());

    // First life: accept one range, stream one whole bogus result
    // line plus HALF of a second one, then die. The torn
    // bytes sit in the coordinator's buffer at EOF and must be
    // discarded with the reclaimed chunk — any survival corrupts the
    // resumed bytes and fails the comparison below.
    auto cfg = stubConfig("read line; "
                          "printf 'r 0 999.5 42\\nr 1 123.'; "
                          "exit 1",
                          "partial");
    sweep::CampaignSummary sum;
    EXPECT_EQ(mustRun(cfg, &sum), base);
    EXPECT_GE(sum.workersLost, 1);
    EXPECT_GE(sum.chunksRedispatched, 1);
}

TEST(WorkerLoss, HungWorkerIsKilledByDeadline)
{
    const std::string base = mustRun(pipeConfig(8, 2, 1, 1, 77));
    ASSERT_FALSE(base.empty());

    // First life: take a range, then hang without closing the pipe.
    // Only the liveness deadline can recover this.
    auto cfg = stubConfig("read line; exec sleep 300", "hung");
    cfg.workerDeadlineSeconds = 0.5;
    sweep::CampaignSummary sum;
    EXPECT_EQ(mustRun(cfg, &sum), base);
    EXPECT_GE(sum.workersHung, 1);
    EXPECT_GE(sum.chunksRedispatched, 1);
}

volatile std::sig_atomic_t g_pipeSignals = 0;
void
countPipeSignal(int)
{
    ++g_pipeSignals;
}

TEST(WorkerLoss, SigpipeDispositionRestoredOnEveryExitPath)
{
    struct sigaction mine = {};
    mine.sa_handler = countPipeSignal;
    struct sigaction saved = {};
    ASSERT_EQ(sigaction(SIGPIPE, &mine, &saved), 0);

    const auto currentHandler = [] {
        struct sigaction cur = {};
        sigaction(SIGPIPE, nullptr, &cur);
        return cur.sa_handler;
    };

    // Success path.
    EXPECT_FALSE(mustRun(pipeConfig(8, 4, 1, 1, 77)).empty());
    EXPECT_EQ(currentHandler(), countPipeSignal) << "after ok run";

    // Early-fail path: invalid config rejected before any fork.
    sweep::CampaignConfig bad;
    bad.scenarios = -1;
    EXPECT_EQ(sweep::runCampaign(bad).status,
              sweep::CampaignStatus::Error);
    EXPECT_EQ(currentHandler(), countPipeSignal) << "after bad config";

    // Mid-campaign fail path: worker binary that cannot exec, so the
    // campaign dies after respawn exhaustion.
    auto noexec = pipeConfig(8, 2, 1, 1, 77);
    noexec.workerCmd = {"/nonexistent/aitax-worker"};
    noexec.corpusSpec.clear();
    EXPECT_EQ(sweep::runCampaign(noexec).status,
              sweep::CampaignStatus::Error);
    EXPECT_EQ(currentHandler(), countPipeSignal) << "after exec fail";

    ASSERT_EQ(sigaction(SIGPIPE, &saved, nullptr), 0);
}

// ---------------------------------------------------------------
// Locale independence.
// ---------------------------------------------------------------

/**
 * Activate a comma-decimal locale, compiling one with localedef into
 * a temp dir if the system has none installed. Returns false when no
 * comma-decimal locale can be produced (test then skips).
 */
bool
activateCommaLocale()
{
    static const std::string compiled = [] {
        for (const char *name :
             {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8"})
            if (std::setlocale(LC_ALL, name) != nullptr)
                return std::string(name);
        const std::string dir = testing::TempDir() + "aitax_locales";
        ::mkdir(dir.c_str(), 0755);
        const std::string cmd = "localedef -i de_DE -f UTF-8 " + dir +
                                "/de_DE.UTF-8 >/dev/null 2>&1";
        if (std::system(cmd.c_str()) != 0)
            return std::string();
        setenv("LOCPATH", dir.c_str(), 1);
        return std::string("de_DE.UTF-8");
    }();
    if (compiled.empty() ||
        std::setlocale(LC_ALL, compiled.c_str()) == nullptr)
        return false;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
    return std::strcmp(buf, "1,5") == 0; // decimal comma is active
}

/** RAII: restore the C locale however the test exits. */
struct CLocaleRestorer
{
    ~CLocaleRestorer() { std::setlocale(LC_ALL, "C"); }
};

TEST(Locale, ProtocolSurvivesCommaDecimalLocale)
{
    const std::string base = mustRun(pipeConfig(8, 2, 2, 1, 77));
    ASSERT_FALSE(base.empty());

    CLocaleRestorer restore;
    if (!activateCommaLocale())
        GTEST_SKIP() << "no comma-decimal locale available";

    // The coordinator now parses r-lines and formats the report under
    // a locale whose printf/strtod would write and read "1,5". Every
    // wire number goes through stats/numfmt.h, so the bytes must not
    // move.
    EXPECT_EQ(mustRun(pipeConfig(8, 2, 2, 1, 77)), base);
}

TEST(Locale, AggregateSerializationIsLocaleIndependent)
{
    sweep::CampaignAggregate agg;
    for (int i = 0; i < 64; ++i) {
        sweep::ScenarioOutcome o;
        o.e2eMeanMs = 10.5 + static_cast<double>(i) * 0.375;
        o.events = 500 + static_cast<std::uint64_t>(i);
        agg.addScenario(o);
    }
    const std::string c_form = agg.serialize();

    CLocaleRestorer restore;
    if (!activateCommaLocale())
        GTEST_SKIP() << "no comma-decimal locale available";

    EXPECT_EQ(agg.serialize(), c_form);
    sweep::CampaignAggregate back;
    std::string err;
    ASSERT_TRUE(
        sweep::CampaignAggregate::deserialize(c_form, back, &err))
        << err;
    EXPECT_EQ(back.serialize(), c_form);

    // numfmt primitives under the comma locale.
    EXPECT_EQ(stats::formatG17(0.5), "0.5");
    double v = 0.0;
    const char *p = "  2.5 rest";
    EXPECT_TRUE(stats::parseDouble(p, v));
    EXPECT_EQ(v, 2.5);
    // A comma is NOT a decimal separator on the wire: parsing stops
    // at it instead of consuming "1,5" as one-and-a-half.
    p = "1,5";
    EXPECT_TRUE(stats::parseDouble(p, v));
    EXPECT_EQ(v, 1.0);
    EXPECT_EQ(*p, ',');
}

} // namespace
} // namespace aitax
