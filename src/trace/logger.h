/**
 * @file
 * The LotusTrace record sink.
 *
 * Logging is two clock reads plus one buffered append per event — the
 * instrumentation does no other computation and keeps no other tracer
 * state, which is how the paper achieves ~0% wall-time overhead
 * (§III-B, §VI-B). Buffers are per-thread; merging happens only when
 * records are read back or flushed to a file.
 */

#ifndef LOTUS_TRACE_LOGGER_H
#define LOTUS_TRACE_LOGGER_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "trace/record.h"

namespace lotus::trace {

class TraceLogger
{
  public:
    explicit TraceLogger(const Clock *clock = &SteadyClock::instance());

    TraceLogger(const TraceLogger &) = delete;
    TraceLogger &operator=(const TraceLogger &) = delete;

    /** Timestamp from the logger's clock. */
    TimeNs now() const { return clock_->now(); }

    /** Append one record (cheap; per-thread buffered). */
    void log(TraceRecord record);

    /** Log @p record as an instant stamped with now(), so instants and
     *  spans (trace::Span) share the logger's timeline. */
    void
    instant(TraceRecord record)
    {
        record.start = now();
        log(std::move(record));
    }

    /**
     * Synchronous per-record callback, invoked on the logging thread
     * before buffering. This is the hook point baseline profilers
     * attach to (their per-event tracing cost is charged to the
     * thread that produced the event, like sys.settrace would be).
     * Must be set before any logging happens: changing the observer
     * mid-run would race with logging threads, so doing so is fatal
     * (reset() re-arms a logger for a fresh observer).
     */
    using Observer = std::function<void(const TraceRecord &)>;
    void setObserver(Observer observer);

    /**
     * When false, records are handed to the observer but not kept
     * (a baseline profiler's run does not keep LotusTrace data).
     */
    void setStoreRecords(bool store) { store_records_ = store; }

    /** Merged records, sorted by start time. */
    std::vector<TraceRecord> records() const;

    /** Total records logged so far. */
    std::uint64_t recordCount() const;

    /** Write the merged log to @p path; returns bytes written. */
    std::uint64_t writeTo(const std::string &path) const;

    /** Load records from a log file (see recordsFromText). */
    static Result<std::vector<TraceRecord>>
    readFrom(const std::string &path);

    /** Discard all records. */
    void reset();

  private:
    struct ThreadBuffer
    {
        std::mutex mutex;
        std::vector<TraceRecord> records;
    };

    ThreadBuffer &threadBuffer();

    const Clock *clock_;
    /** Unique instance id: the per-thread buffer cache keys on it so
     *  a new logger reusing a destroyed logger's address never sees
     *  stale buffers. */
    const std::uint64_t instance_id_;
    Observer observer_;
    /** Set by the first log(); read-mostly so the hot-path check does
     *  not ping-pong a cache line between logging threads. */
    std::atomic<bool> logging_started_{false};
    bool store_records_ = true;
    mutable std::mutex buffers_mutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

} // namespace lotus::trace

#endif // LOTUS_TRACE_LOGGER_H
