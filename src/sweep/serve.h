/**
 * @file
 * Worker-side campaign protocol service: one session over stdio or a
 * socket, and the long-running `aitax_cli serve` daemon.
 *
 * A session (see campaign.h for the full grammar):
 *
 *  - announces the banner "aitax-sweep-worker-v2 ready";
 *  - binds its corpus *by description*: "spec <text>" (the campaign
 *    identity line) is resolved locally and answered with "spec-ok"
 *    or "spec-err <why>". Remote workers never receive scenario
 *    payloads — they resolve (identity, chunk) themselves, so a
 *    daemon can serve many different campaigns concurrently;
 *  - acknowledges each range command with "hb" before the chunk runs
 *    and streams result lines back in sub-slices, giving the
 *    coordinator's hung-worker deadline something to observe.
 *
 * The daemon forks one session process per accepted connection:
 * snapshot-cache counters, SweepRunner pools and any resolved corpus
 * state are per-campaign isolated by the process boundary, and a
 * session crash cannot take down the daemon or a concurrent campaign.
 * It is the only TCP server; local workers speak over stdio pipes.
 */

#ifndef AITAX_SWEEP_SERVE_H
#define AITAX_SWEEP_SERVE_H

#include <string>
#include <string_view>

#include "sweep/campaign.h"

namespace aitax::sweep {

/** Line-oriented protocol endpoint (framing-agnostic). */
class LineIO
{
  public:
    virtual ~LineIO() = default;
    /** Read one line, stripped of its terminator. False on EOF. */
    virtual bool readLine(std::string &line) = 0;
    /** Write one line (no trailing '\n'; the endpoint frames it). */
    virtual void writeLine(std::string_view line) = 0;
    virtual void flush() = 0;
};

/** Protocol lines over this process's stdin/stdout. */
class StdioLineIO final : public LineIO
{
  public:
    bool readLine(std::string &line) override;
    void writeLine(std::string_view line) override;
    void flush() override;
};

struct ServeOptions
{
    /** Threads for the session's in-process SweepRunner pool. */
    int jobs = 1;
    /**
     * Crash-injection hook for the resilience tests: the worker calls
     * std::exit(7) upon *receiving* its Nth range command (1-based),
     * losing the in-flight chunk. < 0 disables.
     */
    int exitAfterRanges = -1;
};

/**
 * Serve one coordinator session over @p io until "quit" or EOF.
 *
 * @param fn corpus bound at startup (sweep-serve's argv); may be empty
 *        when the coordinator sends "spec" before its first range.
 * @param resolver worker-side corpus addressing (required): maps a
 *        spec line to a ScenarioFn that replaces @p fn, or returns an
 *        empty function with *error set ("spec-err" goes back on the
 *        wire).
 * @return process exit code (0 on clean quit / EOF).
 */
int serveSession(LineIO &io, const ServeOptions &opts, ScenarioFn fn,
                 const SpecResolver &resolver);

struct DaemonOptions
{
    std::string bindAddr = "127.0.0.1";
    int port = 0; ///< 0 picks an ephemeral port
    /** SweepRunner threads per campaign session. */
    int jobs = 1;
    /** Exit after this many accepted connections; < 0 = forever. */
    int acceptLimit = -1;
    /** When non-empty, the bound port number is written here. */
    std::string portFile;
};

/**
 * `aitax_cli serve`: long-running fleet worker daemon. Accepts any
 * number of concurrent campaign connections, forking one session
 * process per connection. Corpora are always spec-addressed through
 * @p resolver. Announces "aitax-serve: listening on <addr>:<port>".
 */
int runServeDaemon(const DaemonOptions &opts,
                   const SpecResolver &resolver);

} // namespace aitax::sweep

#endif // AITAX_SWEEP_SERVE_H
