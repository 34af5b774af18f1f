#include "sweep/campaign.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include <poll.h>
#include <unistd.h>

#include "stats/numfmt.h"
#include "sweep/protocol.h"
#include "sweep/transport.h"

namespace aitax::sweep {

namespace {

/** Replacement workers spawned after crashes before giving up. */
constexpr int kMaxRespawns = 8;

using Clock = std::chrono::steady_clock;

} // namespace

// ---------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------

void
CampaignAggregate::addScenario(const ScenarioOutcome &o)
{
    latencyMs.add(o.e2eMeanMs);
    ++scenarios;
    events += o.events;
    checksumMs += o.e2eMeanMs;
}

void
CampaignAggregate::merge(const CampaignAggregate &chunk)
{
    latencyMs.merge(chunk.latencyMs);
    scenarios += chunk.scenarios;
    events += chunk.events;
    checksumMs += chunk.checksumMs;
}

std::string
CampaignAggregate::serialize() const
{
    std::string out = "ca1 n=";
    out += std::to_string(scenarios);
    out += " e=";
    out += std::to_string(events);
    out += " k=";
    stats::appendG17(out, checksumMs);
    out += " | ";
    out += latencyMs.serialize();
    return out;
}

bool
CampaignAggregate::deserialize(std::string_view text, CampaignAggregate &out,
                               std::string *error)
{
    auto fail = [&](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    CampaignAggregate a;
    const std::string s(text);
    const char *p = s.c_str();
    auto expect = [&p](const char *tag) {
        while (*p == ' ')
            ++p;
        const std::size_t n = std::strlen(tag);
        if (std::strncmp(p, tag, n) != 0)
            return false;
        p += n;
        return true;
    };
    // Locale-independent parse (numfmt.h): the manifest must
    // round-trip bit-exactly under any LC_NUMERIC.
    if (!expect("ca1") || !expect("n=") || !stats::parseU64(p, a.scenarios) ||
        !expect("e=") || !stats::parseU64(p, a.events) || !expect("k=") ||
        !stats::parseDouble(p, a.checksumMs) || !expect("|"))
        return fail("bad ca1 prefix");
    while (*p == ' ')
        ++p;
    if (!stats::StreamingDistribution::deserialize(p, a.latencyMs, error))
        return false;
    if (a.latencyMs.count() != a.scenarios)
        return fail("sketch count disagrees with n=");
    out = std::move(a);
    return true;
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

namespace {

struct WorkerProc
{
    std::unique_ptr<WorkerChannel> ch; ///< null once reaped
    std::string buf;                   ///< undecoded protocol text
    bool sawBanner = false;
    bool awaitingSpec = false;
    bool quitSent = false;
    int chunkId = -1; ///< assigned chunk; -1 when idle
    int nextExpected = -1;
    int rangeEnd = -1;
    CampaignAggregate partial;
    /** Last protocol bytes (or command sent); deadline reference. */
    Clock::time_point lastActivity;
};

struct Coordinator
{
    const CampaignConfig &cfg;
    CampaignSummary &sum;
    std::unique_ptr<Transport> transport;
    int chunkCount = 0;
    /** Chunks awaiting dispatch, ascending; re-dispatches append. */
    std::vector<int> pendingChunks;
    std::size_t pendingHead = 0;
    /** Completed partials not yet folded into the frontier. */
    std::map<int, CampaignAggregate> completed;
    int mergeFrontier = 0;
    int completedCount = 0;
    bool stopping = false;
    int respawnsLeft = kMaxRespawns;
    std::vector<WorkerProc> workers;
    std::FILE *manifest = nullptr;
    std::string failure;

    explicit Coordinator(const CampaignConfig &c, CampaignSummary &s)
        : cfg(c), sum(s)
    {
    }

    int chunkBegin(int id) const { return id * cfg.chunk; }
    int chunkEnd(int id) const
    {
        return std::min(cfg.scenarios, (id + 1) * cfg.chunk);
    }

    bool fail(const std::string &why)
    {
        if (failure.empty())
            failure = why;
        return false;
    }

    /** A worker the deadline watches: handshake or chunk in flight. */
    static bool isBusy(const WorkerProc &w)
    {
        return !w.quitSent &&
               (!w.sawBanner || w.awaitingSpec || w.chunkId >= 0);
    }

    bool loadManifest();
    bool openManifest(bool truncate);
    bool truncateManifestTo(long offset);
    void appendManifest(int id, const CampaignAggregate &partial);
    void noteCompleted(int id, CampaignAggregate partial, bool fromResume);
    void advanceFrontier();

    bool spawnWorker(bool injectKill);
    void assignNext(WorkerProc &w);
    bool handleLine(WorkerProc &w, const std::string &line);
    void reapWorker(WorkerProc &w);
    bool eventLoop();
};

bool
Coordinator::openManifest(bool truncate)
{
    if (cfg.checkpointPath.empty())
        return true;
    manifest =
        std::fopen(cfg.checkpointPath.c_str(), truncate ? "w" : "a");
    if (manifest == nullptr)
        return fail("cannot open checkpoint manifest: " +
                    cfg.checkpointPath);
    if (truncate) {
        std::fprintf(manifest, "%s %s\n", kManifestMagic,
                     cfg.identity.c_str());
        std::fflush(manifest);
        fsync(fileno(manifest));
    }
    return true;
}

bool
Coordinator::truncateManifestTo(long offset)
{
    if (::truncate(cfg.checkpointPath.c_str(),
                   static_cast<off_t>(offset)) != 0)
        return fail("cannot truncate torn checkpoint manifest: " +
                    cfg.checkpointPath);
    return true;
}

/**
 * Crash-consistency contract (docs/ROBUSTNESS.md): every record is
 * fsync'd after its newline, so a crash can tear at most the *final*
 * line (a write() prefix, never a hole in the middle). A torn final
 * line — one with no terminating newline that fails to parse — is
 * therefore expected damage: warn, truncate it away, and resume from
 * the preceding record. Any malformed *terminated* line still
 * hard-fails, because that is corruption the contract rules out.
 */
bool
Coordinator::loadManifest()
{
    std::FILE *f = std::fopen(cfg.checkpointPath.c_str(), "rb");
    if (f == nullptr) {
        // Nothing to resume from: degrade to a fresh campaign.
        std::fprintf(stderr,
                     "campaign: --resume with no manifest at %s; "
                     "starting fresh\n",
                     cfg.checkpointPath.c_str());
        return openManifest(/*truncate=*/true);
    }
    std::string data;
    char buf[8192];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, got);
    std::fclose(f);
    if (data.empty())
        return openManifest(/*truncate=*/true);

    const std::string expected =
        std::string(kManifestMagic) + " " + cfg.identity;
    const std::size_t hdrEnd = data.find('\n');
    if (hdrEnd == std::string::npos) {
        // Unterminated first line: if it is a prefix of our own
        // header, the crash happened during the very first write —
        // start fresh. A complete different header is still foreign.
        if (expected.compare(0, data.size(), data) == 0) {
            std::fprintf(stderr,
                         "campaign: torn manifest header at %s; "
                         "starting fresh\n",
                         cfg.checkpointPath.c_str());
            return openManifest(/*truncate=*/true);
        }
        return fail("checkpoint manifest belongs to a different "
                    "campaign: \"" +
                    data + "\" vs \"" + expected + "\"");
    }
    std::string header = data.substr(0, hdrEnd);
    if (!header.empty() && header.back() == '\r')
        header.pop_back();
    if (header != expected)
        return fail("checkpoint manifest belongs to a different "
                    "campaign: \"" +
                    header + "\" vs \"" + expected + "\"");

    std::size_t pos = hdrEnd + 1;
    bool tailMissingNewline = false;
    while (pos < data.size()) {
        const std::size_t lineStart = pos;
        const std::size_t nl = data.find('\n', pos);
        const bool unterminated = nl == std::string::npos;
        std::string text = data.substr(
            pos, unterminated ? std::string::npos : nl - pos);
        pos = unterminated ? data.size() : nl + 1;
        if (!text.empty() && text.back() == '\r')
            text.pop_back();
        if (text.empty())
            continue;

        std::string why;
        int id = -1;
        CampaignAggregate partial;
        const char *p = text.c_str();
        std::uint64_t expectN = 0;
        if (std::strncmp(p, "chunk ", 6) != 0 ||
            (p += 6, !stats::parseInt(p, id)) || id < 0 ||
            id >= chunkCount) {
            why = "malformed manifest line: " + text;
        } else if (!CampaignAggregate::deserialize(p, partial, &why)) {
            why = "malformed manifest chunk " + std::to_string(id) +
                  ": " + why;
        } else if (expectN = static_cast<std::uint64_t>(chunkEnd(id) -
                                                        chunkBegin(id)),
                   partial.scenarios != expectN) {
            why = "manifest chunk " + std::to_string(id) +
                  " has wrong scenario count";
        }
        if (!why.empty()) {
            if (unterminated) {
                std::fprintf(stderr,
                             "campaign: truncating torn manifest tail "
                             "at byte %zu of %s\n",
                             lineStart, cfg.checkpointPath.c_str());
                if (!truncateManifestTo(
                        static_cast<long>(lineStart)))
                    return false;
                break;
            }
            return fail(why);
        }
        if (completed.find(id) == completed.end())
            noteCompleted(id, std::move(partial), /*fromResume=*/true);
        // The record parsed consistently (serialization carries its
        // own count/bucket-total invariants), so losing only the
        // trailing newline loses no data — but the separator must be
        // restored before any new record is appended after it.
        tailMissingNewline = unterminated;
    }
    if (!openManifest(/*truncate=*/false))
        return false;
    if (tailMissingNewline && manifest != nullptr) {
        std::fputc('\n', manifest);
        std::fflush(manifest);
        fsync(fileno(manifest));
    }
    return true;
}

void
Coordinator::appendManifest(int id, const CampaignAggregate &partial)
{
    if (manifest == nullptr)
        return;
    std::fprintf(manifest, "chunk %d %s\n", id,
                 partial.serialize().c_str());
    std::fflush(manifest);
    // fsync per record pins the crash-consistency contract: after a
    // power cut, at most the final line is torn (a write prefix).
    fsync(fileno(manifest));
}

void
Coordinator::noteCompleted(int id, CampaignAggregate partial,
                           bool fromResume)
{
    completed.emplace(id, std::move(partial));
    ++completedCount;
    if (fromResume)
        ++sum.chunksResumed;
    else {
        ++sum.chunksRun;
        if (cfg.stopAfterChunks >= 0 && sum.chunksRun >= cfg.stopAfterChunks)
            stopping = true;
    }
    advanceFrontier();
}

void
Coordinator::advanceFrontier()
{
    // Fold completed partials into the campaign aggregate strictly in
    // ascending chunk order — the canonical merge order that makes the
    // report independent of which worker finished first.
    for (auto it = completed.find(mergeFrontier); it != completed.end();
         it = completed.find(mergeFrontier)) {
        sum.aggregate.merge(it->second);
        completed.erase(it);
        ++mergeFrontier;
    }
}

bool
Coordinator::spawnWorker(bool injectKill)
{
    std::vector<std::string> extra;
    if (injectKill) {
        extra.push_back("--exit-after");
        extra.push_back(std::to_string(cfg.killWorkerAfterRanges));
    }
    std::string err;
    std::unique_ptr<WorkerChannel> ch = transport->openWorker(extra, &err);
    if (ch == nullptr)
        return fail("cannot open worker: " + err);
    WorkerProc w;
    w.ch = std::move(ch);
    w.lastActivity = Clock::now();
    workers.push_back(std::move(w));
    return true;
}

void
Coordinator::assignNext(WorkerProc &w)
{
    if (w.quitSent)
        return;
    if (stopping || pendingHead >= pendingChunks.size()) {
        w.ch->sendLine("quit");
        w.quitSent = true;
        w.ch->closeSend();
        return;
    }
    const int id = pendingChunks[pendingHead++];
    w.chunkId = id;
    w.partial = CampaignAggregate{};
    w.nextExpected = chunkBegin(id);
    w.rangeEnd = chunkEnd(id);
    w.ch->sendLine("range " + std::to_string(chunkBegin(id)) + " " +
                   std::to_string(chunkEnd(id)));
    w.lastActivity = Clock::now();
}

bool
Coordinator::handleLine(WorkerProc &w, const std::string &line)
{
    if (!w.sawBanner) {
        if (line != kWorkerBanner)
            return fail("worker did not identify itself: \"" + line +
                        "\"");
        w.sawBanner = true;
        if (!cfg.corpusSpec.empty()) {
            w.ch->sendLine("spec " + cfg.corpusSpec);
            w.awaitingSpec = true;
            w.lastActivity = Clock::now();
            return true;
        }
        assignNext(w);
        return true;
    }
    if (line == "spec-ok") {
        if (w.awaitingSpec) {
            w.awaitingSpec = false;
            assignNext(w);
        }
        return true;
    }
    if (line.compare(0, 8, "spec-err") == 0)
        return fail("worker rejected campaign spec: " + line);
    if (line == "hb")
        return true; // liveness only; lastActivity already advanced
    if (line.compare(0, 2, "r ") == 0) {
        int idx = 0;
        double mean = 0.0;
        std::uint64_t events = 0;
        const char *p = line.c_str() + 2;
        // numfmt parse: locale-proof against a comma-decimal host.
        if (!stats::parseInt(p, idx) || !stats::parseDouble(p, mean) ||
            !stats::parseU64(p, events))
            return fail("malformed result line: " + line);
        if (w.chunkId < 0 || idx != w.nextExpected || idx >= w.rangeEnd)
            return fail("result index " + std::to_string(idx) +
                        " outside assigned range");
        ScenarioOutcome o;
        o.e2eMeanMs = mean;
        o.events = events;
        w.partial.addScenario(o);
        ++w.nextExpected;
        return true;
    }
    if (line.compare(0, 5, "done ") == 0) {
        int begin = 0;
        int end = 0;
        std::uint64_t h = 0;
        std::uint64_t m = 0;
        std::uint64_t s = 0;
        std::uint64_t d = 0;
        const char *p = line.c_str() + 5;
        if (!stats::parseInt(p, begin) || !stats::parseInt(p, end) ||
            !stats::parseU64(p, h) || !stats::parseU64(p, m) ||
            !stats::parseU64(p, s) || !stats::parseU64(p, d))
            return fail("malformed done line: " + line);
        if (w.chunkId < 0 || begin != chunkBegin(w.chunkId) ||
            end != chunkEnd(w.chunkId) || w.nextExpected != end)
            return fail("done line disagrees with assigned chunk");
        sum.workerCache.hits += h;
        sum.workerCache.misses += m;
        sum.workerCache.stores += s;
        sum.workerCache.raceDiscards += d;
        const int id = w.chunkId;
        w.chunkId = -1;
        appendManifest(id, w.partial);
        noteCompleted(id, std::move(w.partial), /*fromResume=*/false);
        assignNext(w);
        return true;
    }
    return fail("unrecognized worker line: " + line);
}

void
Coordinator::reapWorker(WorkerProc &w)
{
    if (w.ch == nullptr)
        return;
    if (!w.buf.empty()) {
        // A worker that died mid-write leaves a partial protocol line;
        // those bytes belong to the chunk being re-dispatched, so they
        // must not survive into any later parse. Discard explicitly.
        std::fprintf(stderr,
                     "campaign: discarding %zu unparsed bytes from a "
                     "lost worker (partial line \"%.64s\")\n",
                     w.buf.size(), w.buf.c_str());
        w.buf.clear();
    }
    // Endpoint cleanliness (exit status 0 / closed socket) is
    // necessary but not sufficient: the coordinator also requires its
    // own protocol state to agree (quit acknowledged, nothing in
    // flight). An unknowable exit status (waitpid error) is unclean.
    const bool endpointClean = w.ch->finishClean();
    w.ch.reset();
    const bool clean = endpointClean && w.quitSent && w.chunkId < 0;
    if (!clean) {
        ++sum.workersLost;
        if (w.chunkId >= 0) {
            // The in-flight chunk died with the worker; any partial
            // result lines are discarded and the whole chunk is
            // re-dispatched, so re-execution stays chunk-atomic.
            pendingChunks.push_back(w.chunkId);
            ++sum.chunksRedispatched;
            w.chunkId = -1;
        }
    }
}

bool
Coordinator::eventLoop()
{
    const bool deadlineOn = cfg.workerDeadlineSeconds > 0.0;
    while (true) {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (workers[i].ch != nullptr &&
                workers[i].ch->pollFd() >= 0) {
                fds.push_back(
                    pollfd{workers[i].ch->pollFd(), POLLIN, 0});
                owner.push_back(i);
            }
        }
        if (fds.empty()) {
            // No live workers. Done, interrupted, or crashed short.
            if (completedCount == chunkCount || stopping)
                return failure.empty();
            if (pendingHead < pendingChunks.size() && respawnsLeft > 0 &&
                failure.empty()) {
                --respawnsLeft;
                if (!spawnWorker(/*injectKill=*/false))
                    return false;
                continue;
            }
            return fail("campaign incomplete: all workers exited with " +
                        std::to_string(chunkCount - completedCount) +
                        " chunks unfinished");
        }

        int timeoutMs = -1;
        if (deadlineOn) {
            const Clock::time_point now = Clock::now();
            for (const std::size_t k : owner) {
                const WorkerProc &w = workers[k];
                if (!isBusy(w))
                    continue;
                const double left =
                    cfg.workerDeadlineSeconds -
                    std::chrono::duration<double>(now - w.lastActivity)
                        .count();
                const int ms =
                    left <= 0.0
                        ? 0
                        : static_cast<int>(left * 1000.0) + 1;
                timeoutMs = timeoutMs < 0 ? ms : std::min(timeoutMs, ms);
            }
        }

        const int rc = poll(fds.data(), fds.size(), timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return fail("poll() failed");
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            WorkerProc &w = workers[owner[i]];
            if (w.ch == nullptr)
                continue;
            const int n = w.ch->readLines(w.buf);
            if (n > 0) {
                w.lastActivity = Clock::now();
                std::size_t pos = 0;
                std::size_t nl = 0;
                while ((nl = w.buf.find('\n', pos)) !=
                       std::string::npos) {
                    if (!handleLine(w, w.buf.substr(pos, nl - pos)))
                        return false;
                    pos = nl + 1;
                }
                w.buf.erase(0, pos);
            } else if (n == 0) {
                reapWorker(w);
                if (!failure.empty())
                    return false;
            }
            // n < 0: EINTR / incomplete frame — try again next round.
        }

        if (deadlineOn) {
            const Clock::time_point now = Clock::now();
            for (WorkerProc &w : workers) {
                if (w.ch == nullptr || !isBusy(w))
                    continue;
                const double idle =
                    std::chrono::duration<double>(now - w.lastActivity)
                        .count();
                if (idle < cfg.workerDeadlineSeconds)
                    continue;
                std::fprintf(stderr,
                             "campaign: worker hung (no protocol "
                             "activity for %.1fs); killing and "
                             "re-dispatching its chunk\n",
                             idle);
                ++sum.workersHung;
                w.ch->kill();
                reapWorker(w);
                if (!failure.empty())
                    return false;
            }
        }
    }
}

} // namespace

CampaignSummary
runCampaign(const CampaignConfig &cfg)
{
    CampaignSummary sum;
    const auto t0 = Clock::now();

    const bool tcp = !cfg.workers.empty();
    if (cfg.scenarios < 0 || cfg.chunk <= 0 ||
        (!tcp && (cfg.shards <= 0 || cfg.workerCmd.empty()))) {
        sum.error = "invalid campaign config";
        return sum;
    }
    if (tcp && cfg.corpusSpec.empty()) {
        sum.error = "tcp transport requires a corpus spec "
                    "(workers resolve the corpus locally)";
        return sum;
    }
    if (tcp && cfg.killWorkerAfterRanges >= 0) {
        sum.error = "crash injection is argv-based and pipe-only";
        return sum;
    }

    // A dead worker's EPIPE must surface as a failed write(), not a
    // process-killing signal; restore the caller's disposition on
    // every exit path below (there is exactly one return).
    struct sigaction ign = {};
    struct sigaction oldPipe = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, &oldPipe);

    Coordinator co(cfg, sum);
    co.transport = tcp ? makeTcpTransport(cfg.workers)
                       : makeProcessTransport(cfg.workerCmd);
    sum.transport = co.transport->name();
    co.chunkCount =
        cfg.chunk > 0 ? (cfg.scenarios + cfg.chunk - 1) / cfg.chunk : 0;
    sum.chunksTotal = co.chunkCount;

    bool ok = true;
    if (cfg.resume && !cfg.checkpointPath.empty())
        ok = co.loadManifest();
    else
        ok = co.openManifest(/*truncate=*/true);

    if (ok) {
        for (int id = 0; id < co.chunkCount; ++id)
            if (co.completed.find(id) == co.completed.end() &&
                id >= co.mergeFrontier)
                co.pendingChunks.push_back(id);
        const int shards =
            tcp ? static_cast<int>(cfg.workers.size()) : cfg.shards;
        const int want =
            std::min(shards,
                     std::max(1, static_cast<int>(
                                     co.pendingChunks.size())));
        for (int i = 0; ok && i < want; ++i)
            ok = co.spawnWorker(
                /*injectKill=*/!tcp && i == 0 &&
                cfg.killWorkerAfterRanges >= 0);
    }
    if (ok)
        ok = co.eventLoop();

    // Drain any workers still alive after a failure path. A refused
    // or misbehaving worker need not exit on end-of-input, so force
    // it down rather than wait on it.
    for (WorkerProc &w : co.workers) {
        if (w.ch != nullptr) {
            w.ch->kill();
            co.reapWorker(w);
        }
    }
    if (co.manifest != nullptr)
        std::fclose(co.manifest);
    sigaction(SIGPIPE, &oldPipe, nullptr);

    // An interrupted campaign still reports the merged prefix: fold
    // whatever completed beyond the frontier in ascending order.
    for (auto &kv : co.completed)
        sum.aggregate.merge(kv.second);
    co.completed.clear();

    const auto t1 = Clock::now();
    sum.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    if (sum.wallSeconds > 0.0)
        sum.eventsPerSec =
            static_cast<double>(sum.aggregate.events) / sum.wallSeconds;

    if (!ok || !co.failure.empty()) {
        sum.status = CampaignStatus::Error;
        sum.error = co.failure.empty() ? "campaign failed" : co.failure;
    } else if (co.completedCount == co.chunkCount) {
        sum.status = CampaignStatus::Ok;
    } else {
        sum.status = CampaignStatus::Interrupted;
    }
    return sum;
}

std::string
campaignReportJson(const std::string &identity,
                   const CampaignAggregate &agg)
{
    return campaignReportJson(identity, agg, std::string());
}

std::string
campaignReportJson(const std::string &identity,
                   const CampaignAggregate &agg,
                   const std::string &transport)
{
    using stats::formatG17;
    const stats::StreamingDistribution &d = agg.latencyMs;
    std::string out;
    out += "{\n";
    out += "  \"campaign\": {\n";
    out += "    \"identity\": \"" + identity + "\",\n";
    if (!transport.empty())
        out += "    \"transport\": \"" + transport + "\",\n";
    out += "    \"scenarios\": " + std::to_string(agg.scenarios) + ",\n";
    out += "    \"events\": " + std::to_string(agg.events) + ",\n";
    out += "    \"checksum_ms\": " + formatG17(agg.checksumMs) + ",\n";
    out += "    \"latency_ms\": {\n";
    out += "      \"mean\": " + formatG17(d.mean()) + ",\n";
    out += "      \"stddev\": " + formatG17(d.stddev()) + ",\n";
    out += "      \"cv\": " + formatG17(d.cv()) + ",\n";
    out += "      \"p50\": " + formatG17(d.median()) + ",\n";
    out += "      \"p90\": " + formatG17(d.percentile(90.0)) + ",\n";
    out += "      \"p95\": " + formatG17(d.p95()) + ",\n";
    out += "      \"p99\": " + formatG17(d.p99()) + ",\n";
    out += "      \"min\": " + formatG17(d.min()) + ",\n";
    out += "      \"max\": " + formatG17(d.max()) + ",\n";
    out += "      \"max_dev_from_median_pct\": " +
           formatG17(d.maxDeviationFromMedianPct()) + "\n";
    out += "    }\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

std::string
selfExecutablePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 != nullptr ? argv0 : "";
}

} // namespace aitax::sweep
