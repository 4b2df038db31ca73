/**
 * @file
 * Bounded asynchronous read-ahead for blob-backed datasets.
 *
 * The paper's loaders interleave store I/O and decode in one thread
 * per worker: a worker blocked on a 5 ms remote GET decodes nothing,
 * so store latency lands directly on epoch wall time. ReadAhead
 * splits the I/O off onto dedicated threads that walk the epoch's
 * batch plan ahead of the fetch paths, issuing batched
 * BlobStore::tryReadMany() reads (adjacent indices coalesce into one
 * round trip on stores that support it, e.g. RemoteStore) and parking
 * the bytes until the fetch thread claims them.
 *
 * Contract (DESIGN.md §13):
 *
 *  - Bounded depth: at most `depth` blobs are issued-but-unclaimed at
 *    any time. The issuers stall — they never run ahead of a stalled
 *    consumer by more than the window, so memory stays O(depth). A
 *    released in-flight read leaves the window at once and its bytes
 *    are dropped on arrival, so at most one chunk per I/O thread is
 *    in the air beyond the window.
 *  - Cache-aware: every read in the window is one a cache miss will
 *    claim. Issuers skip indices the epoch's resident check (the
 *    sample cache) holds: such an index takes a window slot but no
 *    read, so the issuers never run further ahead than the window.
 *    It is re-checked after each claim (a cache miss, whose insert
 *    may evict it) and read if the cache lost it. A cache hit
 *    release()s its index, dropping its entry (resident, parked or
 *    in flight), so a cache-warm epoch issues no reads and a
 *    half-warm one never fills the window with blobs nobody takes.
 *  - One round trip per call: a chunk ends at the first request that
 *    is not index-adjacent to the previous one (and at `io_batch`),
 *    so each tryReadMany() is one coalesced GET on a range-reading
 *    store, and a claim on an in-flight entry waits for at most one
 *    round trip. Sequential plans still coalesce `io_batch` blobs.
 *  - Bit-identity: read-ahead moves *when and where* bytes are read,
 *    never *what* is decoded. claim() returns exactly the bytes a
 *    synchronous tryRead() would have returned (staged errors
 *    included), decode stays on the fetch thread, and the RNG
 *    reseeding contract is untouched — batches are bit-identical with
 *    the engine on or off, under every Schedule and num_workers=0.
 *  - Opportunistic: a claim() miss (not yet issued, already consumed
 *    by a retry, skipped as resident but evicted before its lookup,
 *    epoch cancelled mid-wait) simply means the caller reads
 *    synchronously. There is no path where forward progress waits on
 *    the engine being right.
 *  - Error propagation: a failed prefetch (kIoError, kTimeout, ...)
 *    is parked and claimed like a success; the dataset surfaces it
 *    with the same stage ("store") the synchronous path would, so
 *    ErrorPolicy retry/skip compose unchanged (a retry's re-claim
 *    misses and re-reads synchronously — identical to a sync retry).
 */

#ifndef LOTUS_DATAFLOW_READ_AHEAD_H
#define LOTUS_DATAFLOW_READ_AHEAD_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "metrics/metrics.h"
#include "pipeline/store.h"
#include "trace/logger.h"

namespace lotus::dataflow {

/** Blobs served from the read-ahead window (claim hits). */
inline constexpr const char *kReadAheadHitsMetric =
    "lotus_readahead_hits_total";
/** Claims that fell back to a synchronous read. */
inline constexpr const char *kReadAheadMissesMetric =
    "lotus_readahead_misses_total";
/** Blob reads issued by the I/O threads. */
inline constexpr const char *kReadAheadIssuedMetric =
    "lotus_readahead_issued_total";
/** Indices the issuers skipped as cache-resident plus issued reads a
 *  cache hit released: reads the cache made unnecessary. */
inline constexpr const char *kReadAheadSkippedMetric =
    "lotus_readahead_skipped_total";
/** Issued-but-unclaimed blobs (window occupancy). */
inline constexpr const char *kReadAheadInFlightMetric =
    "lotus_readahead_in_flight";
/** Configured window depth. */
inline constexpr const char *kReadAheadDepthMetric =
    "lotus_readahead_depth";

struct ReadAheadOptions
{
    /** Max issued-but-unclaimed blobs. Must be >= 1. */
    int depth = 32;
    /** Dedicated I/O threads. Must be >= 1. */
    int io_threads = 1;
    /** Max requests per tryReadMany() call (the coalescing window a
     *  batching store sees); a chunk also ends at the first request
     *  not index-adjacent to the previous one. 0 picks
     *  depth / (2 * io_threads), clamped to [1, 16]; the effective
     *  value is always capped at depth so one chunk can never
     *  overshoot the window. */
    int io_batch = 0;
};

class ReadAhead
{
  public:
    /** True when the sample at a blob index needs no store read this
     *  epoch (e.g. SampleCache::contains). Runs on the I/O threads
     *  without the engine mutex held; it may race with eviction. */
    using ResidentCheck = std::function<bool(std::int64_t)>;

    /** @p store must outlive the engine (the loader owns both via the
     *  dataset). Threads start immediately but idle until the first
     *  startEpoch(). */
    ReadAhead(const pipeline::BlobStore *store,
              const ReadAheadOptions &options);
    ~ReadAhead();

    ReadAhead(const ReadAhead &) = delete;
    ReadAhead &operator=(const ReadAhead &) = delete;

    /**
     * Arm the engine for a new epoch: @p plan is the epoch's blob
     * reads in fetch order (flattened batches, correlation included —
     * IoEvents from the I/O threads stamp each read's batch/sample).
     * Issuers skip every index @p resident reports (none when empty)
     * and re-check the skipped ones after each claim.
     * Outstanding work from the previous epoch is dropped; in-flight
     * completions are discarded on arrival.
     */
    void startEpoch(std::vector<pipeline::BlobReadRequest> plan,
                    trace::TraceLogger *logger,
                    ResidentCheck resident = {});

    /** Drop all outstanding work and wake blocked claims (they miss
     *  and fall back to synchronous reads). */
    void cancel();

    /**
     * Take the prefetched result for @p index: the blob (or prefetch
     * error) when the window holds or is fetching it — blocks for an
     * in-flight read to land — or nullopt when it was never issued,
     * was skipped as cache-resident, was already claimed, or the
     * epoch was cancelled mid-wait.
     */
    std::optional<Result<std::string>> claim(std::int64_t index);

    /**
     * @p index will not be claimed this epoch (its sample was served
     * from the cache). Never blocks: marks the index consumed, drops
     * its resident, parked or in-flight entry (an in-flight
     * completion is then discarded on arrival) and wakes the issuers.
     */
    void release(std::int64_t index);

    const ReadAheadOptions &options() const { return options_; }

    /** Effective per-tryReadMany chunk size after auto-derivation:
     *  in [1, min(16, depth)] when io_batch was 0, else the explicit
     *  value capped at depth. */
    int ioBatch() const { return io_batch_; }

  private:
    struct Entry
    {
        /** Skipped as cache-resident: holds a window slot, so the
         *  issuers' lead stays within the window, but no read. */
        bool resident = false;
        bool ready = false;
        /** The plan request, so a resident entry can still be read
         *  if the cache evicts its sample before the lookup. */
        pipeline::BlobReadRequest request;
        std::optional<Result<std::string>> blob;
    };

    void ioLoop(int thread_id);
    /** A claim since the last re-check may have evicted a resident
     *  entry's sample (every claim is a cache miss, whose insert
     *  evicts). */
    bool recheckDue() const
    {
        return resident_entries_ > 0 && rechecked_claims_ != claims_;
    }
    /** Turn the first resident entry whose sample the cache no longer
     *  holds into an in-flight read and return its request. Runs
     *  @p resident with @p lock released. */
    std::optional<pipeline::BlobReadRequest>
    takeEvicted(std::unique_lock<std::mutex> &lock,
                const ResidentCheck &resident);
    /** entries_ changed: refresh the occupancy gauge. */
    void updateInFlight();

    const pipeline::BlobStore *store_;
    ReadAheadOptions options_;
    int io_batch_;

    std::mutex mutex_;
    /** Issuers wait here for window space / a new epoch. */
    std::condition_variable issue_cv_;
    /** Claims wait here for an in-flight entry to land. */
    std::condition_variable ready_cv_;
    bool shutdown_ = false;
    /** Bumped by startEpoch/cancel; completions from an older
     *  generation are discarded on arrival. */
    std::uint64_t generation_ = 0;
    std::vector<pipeline::BlobReadRequest> plan_;
    std::size_t next_pos_ = 0;
    trace::TraceLogger *logger_ = nullptr;
    /** Shared so an issuer keeps its epoch's check alive while it
     *  runs unlocked; null when startEpoch got none. */
    std::shared_ptr<const ResidentCheck> resident_;
    /** Window contents, keyed by blob index. */
    std::unordered_map<std::int64_t, Entry> entries_;
    /** Entries of entries_ that are resident (no read). */
    std::size_t resident_entries_ = 0;
    /** claim() calls so far, and the count at the last re-check that
     *  found every resident entry still cached. */
    std::uint64_t claims_ = 0;
    std::uint64_t rechecked_claims_ = 0;
    /** Indices already claimed, missed or released this epoch;
     *  issuing them would be a read nobody will consume. */
    std::unordered_set<std::int64_t> consumed_;

    std::vector<std::thread> io_threads_;

    metrics::Counter *hits_ = nullptr;
    metrics::Counter *misses_ = nullptr;
    metrics::Counter *issued_ = nullptr;
    metrics::Counter *skipped_ = nullptr;
    metrics::Gauge *in_flight_ = nullptr;
    metrics::Gauge *depth_gauge_ = nullptr;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_READ_AHEAD_H
