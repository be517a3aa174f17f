/**
 * @file
 * The completed-point journal behind resumable sweeps: one JSONL file
 * per bench in the sweep's checkpointDir. Line 1 is a header binding
 * the journal to a specific request (sweepRequestKey over the expanded
 * grid); every later line records one completed grid point's result
 * as `{"point": i, "result": {...}}`.
 * A sweep killed mid-run reopens the journal, skips every journaled
 * point and re-serves the rest from the persisted warmup snapshots —
 * zero recomputed points, zero re-simulated warmups.
 *
 * Entry lines are lossless: `statsJson` travels as an escaped JSON
 * string member (a nested object would funnel 64-bit counters through
 * doubles on re-parse), and ipfc/ipc render through the same "%.17g"
 * path as the BENCH records, so a journaled result still produces
 * byte-identical BENCH_*.json output.
 */

#ifndef SMTFETCH_SIM_JOURNAL_HH
#define SMTFETCH_SIM_JOURNAL_HH

#include <cstddef>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace smt
{

class JsonValue;

/** User-facing journal problem: unreadable file, header mismatch. */
class JournalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One journaled completion: a grid index plus its result. */
struct JournalEntry
{
    std::size_t index = 0;
    ExperimentResult result;
};

/**
 * Open-or-create journal for one (bench, request) pair. Loading
 * tolerates a torn final line (the sweep was killed mid-append) by
 * truncating to the last complete entry; any other corruption or a
 * header naming a different request/grid throws JournalError naming
 * the file to delete. append() is thread-safe and flushes per line so
 * a SIGKILL never loses more than the entry being written.
 */
class SweepJournal
{
  public:
    /** Open pathFor(dir, bench) for `request`, resuming from any
     *  entries an earlier run of the same request left there. */
    SweepJournal(const std::string &dir, std::string bench,
                 const SweepRequest &request);

    /** Entries recovered from disk, one per already-done point
     *  (deduplicated, ascending index order). */
    const std::vector<JournalEntry> &completed() const
    {
        return entries;
    }

    void append(std::size_t index, const ExperimentResult &result);

    /** "journal_<bench>.jsonl" inside the checkpoint directory. */
    static std::string pathFor(const std::string &dir,
                               const std::string &bench);

  private:
    void load();
    void rewrite();

    std::mutex m;
    std::string path;
    std::string bench;
    std::string requestKey;
    std::size_t points;
    std::vector<JournalEntry> entries;
    std::ofstream os;
};

/** @name Result codec (compact single-line JSON documents). */
/// @{
std::string encodeResult(const ExperimentResult &result);
ExperimentResult decodeResult(const JsonValue &doc);
/// @}

/**
 * Identity hash of a whole request — windows, seed, cycle-skip and
 * every expanded grid point in order. The journal header records it
 * so a resume against a different spec fails fast instead of merging
 * unrelated results.
 */
std::string sweepRequestKey(const SweepRequest &request);

} // namespace smt

#endif // SMTFETCH_SIM_JOURNAL_HH
