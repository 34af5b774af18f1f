/**
 * @file
 * Fleet-scale sweep campaigns: multiprocess sharded scenario sweeps
 * with streaming online aggregation and checkpoint/resume.
 *
 * A campaign runs a seeded scenario corpus of arbitrary size across
 * --shards worker *processes* (each running its scenarios on the
 * in-process SweepRunner pool with --jobs threads), one level above
 * the thread pool: "parallelism across simulations, never inside one"
 * extended across process boundaries.
 *
 * Topology and protocol (line-oriented text; newline-delimited over
 * pipes, length-delimited frames over TCP — see sweep/protocol.h):
 *
 *   coordinator -> worker:  "spec <identity>" | "range <b> <e>"
 *                           | "quit"
 *   worker -> coordinator:  "aitax-sweep-worker-v2 ready"
 *                           "spec-ok" | "spec-err <why>"
 *                           "hb"                           (liveness)
 *                           "r <index> <e2e_mean_ms> <events>"
 *                           "done <begin> <end> <cache h m s d>"
 *
 * Workers address their corpus *by spec*: the coordinator sends the
 * campaign identity line and the worker resolves it to a ScenarioFn
 * locally (SpecResolver below), so remote workers never receive
 * scenario payloads and one daemon serves many campaigns. A pipe
 * worker may also be argv-bound, in which case the spec is optional.
 * Every number on the wire is formatted and parsed locale-independently
 * (stats/numfmt.h) — a comma-decimal LC_NUMERIC cannot corrupt it.
 *
 * The corpus is split into fixed-size chunks (the checkpoint and
 * streaming granularity). Workers pull contiguous chunks dynamically;
 * per-scenario result lines stream back in index order within each
 * chunk and fold into a per-chunk partial aggregate (a mergeable
 * stats::StreamingDistribution plus exact scalar tallies). Completed
 * chunks append one line to the checkpoint manifest, and partials are
 * merged into the campaign aggregate at a frontier that always
 * advances in ascending chunk order.
 *
 * Determinism contract, one level up from SweepRunner: chunk
 * boundaries depend only on (scenarios, chunk), never on the shard or
 * job count, and the aggregate merge order is canonicalized by chunk
 * index — so the final aggregate report is byte-identical at any
 * --shards N x --jobs M split, across worker crashes (the coordinator
 * re-dispatches lost chunks) and across kill-and-resume (partials are
 * serialized losslessly in the manifest). Wall-clock timings, shard
 * counts and snapshot-cache tallies are deliberately excluded from
 * the deterministic report and surfaced in CampaignSummary instead.
 */

#ifndef AITAX_SWEEP_CAMPAIGN_H
#define AITAX_SWEEP_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/streaming_distribution.h"
#include "sweep/snapshot_cache.h"

namespace aitax::sweep {

/** One scenario's contribution to the campaign aggregate. */
struct ScenarioOutcome
{
    /** End-to-end mean latency of the scenario's runs, in ms. */
    double e2eMeanMs = 0.0;
    /** Simulation events executed (the events/sec numerator). */
    std::uint64_t events = 0;
};

/**
 * Runs scenario @p index of the caller's corpus. Must be a pure
 * function of the index (the corpus seed is bound by the caller), and
 * safe to call from SweepRunner worker threads.
 */
using ScenarioFn = std::function<ScenarioOutcome(int index)>;

/**
 * Worker-side corpus addressing: resolve a campaign spec line (the
 * identity string) into a ScenarioFn, or return an empty function
 * with @p error set to refuse it ("spec-err" on the wire). Must be
 * deterministic: the same spec resolves to the same corpus on every
 * worker, or byte-identity across transports breaks.
 */
using SpecResolver =
    std::function<ScenarioFn(const std::string &spec,
                             std::string *error)>;

/** Mergeable aggregate state of a campaign (or one chunk of it). */
struct CampaignAggregate
{
    stats::StreamingDistribution latencyMs;
    /** Scenarios folded in. */
    std::uint64_t scenarios = 0;
    /** Total simulation events across those scenarios. */
    std::uint64_t events = 0;
    /**
     * Order-sensitive fingerprint: sum of per-scenario mean latencies
     * accumulated in ascending scenario index order. Any split that
     * reproduces the campaign byte-exactly reproduces this double
     * bit-exactly.
     */
    double checksumMs = 0.0;

    void addScenario(const ScenarioOutcome &o);
    /** Fold @p chunk in; call in ascending chunk order. */
    void merge(const CampaignAggregate &chunk);

    /** Lossless one-line text form for the checkpoint manifest. */
    std::string serialize() const;
    static bool deserialize(std::string_view text, CampaignAggregate &out,
                            std::string *error = nullptr);
};

struct CampaignConfig
{
    /** Corpus size: scenario indices [0, scenarios). */
    int scenarios = 0;
    /** Chunk size — checkpoint/streaming granularity. Chunk
     *  boundaries are a pure function of (scenarios, chunk), never of
     *  the shard count; changing it changes the aggregate's FP merge
     *  order, so resumes validate it via the manifest header. */
    int chunk = 32;
    /** Worker processes. */
    int shards = 1;
    /**
     * argv of one worker process (argv[0] = executable). The
     * coordinator appends nothing; bake seed/jobs/engine flags in.
     * Ignored when `workers` selects the TCP transport.
     */
    std::vector<std::string> workerCmd;
    /**
     * Remote worker endpoints ("host:port"), one session per entry
     * (repeat an endpoint for several sessions against one daemon).
     * Non-empty selects the TCP transport and overrides shards /
     * workerCmd. Remote workers resolve `corpusSpec` themselves.
     */
    std::vector<std::string> workers;
    /**
     * Campaign spec sent to every worker ("spec <corpusSpec>") before
     * the first range; conventionally the identity string. Empty
     * skips the handshake (argv-bound corpora, pipe transport only).
     */
    std::string corpusSpec;
    /**
     * Hung-worker deadline, seconds. A worker with an assigned chunk
     * (or an unanswered handshake) that produces no protocol bytes
     * for this long is killed and its chunk re-dispatched, exactly
     * like a crashed worker. <= 0 disables (local default: a dead
     * process already reports EOF; the deadline is for remote workers
     * whose TCP peer can hang without closing).
     */
    double workerDeadlineSeconds = 0.0;
    /**
     * Campaign identity line, e.g. "corpus=fuzz seed=42 scenarios=256
     * chunk=32 faults=0 engine=fast". Written to the manifest header
     * and validated on resume: a checkpoint from a different campaign
     * is an error, not silent corruption.
     */
    std::string identity;
    /** Checkpoint manifest path; empty disables checkpointing. */
    std::string checkpointPath;
    /** Load completed chunks from the manifest before dispatching. */
    bool resume = false;
    /**
     * Interruption-injection hook for the resume tests: after this
     * many chunk completions in this session the coordinator stops
     * dispatching, drains its workers and reports Interrupted. < 0
     * disables.
     */
    int stopAfterChunks = -1;
    /** Crash-injection: worker 0 is launched with this --exit-after
     *  value appended to workerCmd. < 0 disables. */
    int killWorkerAfterRanges = -1;
};

enum class CampaignStatus
{
    Ok,
    Interrupted, ///< stopAfterChunks hit; manifest holds the progress
    Error,
};

struct CampaignSummary
{
    CampaignStatus status = CampaignStatus::Error;
    std::string error;

    /** The deterministic aggregate (merged in chunk order). */
    CampaignAggregate aggregate;

    // Observability — never part of the deterministic report.
    /** Snapshot-cache counters summed across all worker processes. */
    SnapshotCacheStats workerCache;
    double wallSeconds = 0.0;
    /** Aggregate throughput: events / wallSeconds. */
    double eventsPerSec = 0.0;
    int chunksTotal = 0;
    /** Chunks executed by workers this session. */
    int chunksRun = 0;
    /** Chunks restored from the manifest (--resume). */
    int chunksResumed = 0;
    /** Worker processes/sessions that died mid-campaign. */
    int workersLost = 0;
    /** Subset of workersLost killed by the liveness deadline. */
    int workersHung = 0;
    /** Chunks that had to be re-dispatched after a worker loss. */
    int chunksRedispatched = 0;
    /** Transport the campaign ran over: "pipe" or "tcp". */
    std::string transport;
};

/**
 * Drive a sharded campaign to completion (or checkpointed
 * interruption). Blocks until every worker has exited.
 */
CampaignSummary runCampaign(const CampaignConfig &cfg);

/**
 * The deterministic campaign report: identity + aggregate only, every
 * double as "%.17g" (locale-independent). Byte-identical at any
 * shard/job/transport split and across kill/resume — the artifact the
 * verify tier compares. The @p transport overload adds a single
 * `"transport"` line for the BENCH artifacts; strip it (or pass the
 * two-argument form) when byte-comparing across transports.
 */
std::string campaignReportJson(const std::string &identity,
                               const CampaignAggregate &agg);
std::string campaignReportJson(const std::string &identity,
                               const CampaignAggregate &agg,
                               const std::string &transport);

/** /proc/self/exe (fallback: @p argv0) — workers re-exec this binary. */
std::string selfExecutablePath(const char *argv0);

} // namespace aitax::sweep

#endif // AITAX_SWEEP_CAMPAIGN_H
