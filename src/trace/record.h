/**
 * @file
 * LotusTrace log records.
 *
 * LotusTrace captures exactly three timing families (paper §III):
 *  [T1] BatchPreprocessed — fetch() time per batch in a worker
 *  [T2] BatchWait         — main-process wait per batch (1 µs sentinel
 *                           for batches that arrived out of order)
 *  [T3] TransformOp       — per-operation elapsed time per sample
 * plus BatchConsumed (the main process handling a ready batch) and
 * GpuCompute (accelerator service spans) to complete the data-flow
 * picture used by the visualizer.
 */

#ifndef LOTUS_TRACE_RECORD_H
#define LOTUS_TRACE_RECORD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace lotus::trace {

enum class RecordKind : std::uint8_t
{
    BatchPreprocessed, ///< [T1] worker-side fetch of one batch
    BatchWait,         ///< [T2] main-process wait for one batch
    BatchConsumed,     ///< main-process consumption of one batch
    TransformOp,       ///< [T3] one preprocessing op on one sample
    GpuCompute,        ///< accelerator service of one batch
    EpochBoundary,     ///< epoch start/end marker
    ErrorEvent,        ///< recoverable sample error (op "error:<stage>")
    TaskSpan,          ///< one per-sample fetch task (work-stealing)
    StealEvent,        ///< task stolen from a peer (op "steal<-wN")
    CacheEvent,        ///< decoded-sample cache action (op "cache:<what>")
    IoEvent,           ///< one traced store read (op "io:<bytes>"); keep
                       ///< last, record.cc sizes its name table by it
};

const char *recordKindName(RecordKind kind);

/** The paper marks out-of-order consumed batches with a 1 µs wait. */
constexpr TimeNs kOutOfOrderSentinel = 1 * kMicrosecond;

struct TraceRecord
{
    RecordKind kind = RecordKind::BatchPreprocessed;
    /** Batch id, or -1 when not applicable. */
    std::int64_t batch_id = -1;
    /** Process-like id (main process, worker, or GPU id). */
    std::uint32_t pid = 0;
    TimeNs start = 0;
    TimeNs duration = 0;
    /** Transform name for TransformOp records, else empty. */
    std::string op_name;
    /** Sample index within the batch for TransformOp records. */
    std::int64_t sample_index = -1;

    TimeNs end() const { return start + duration; }

    /** Serialize to one log line (stable, parseable). */
    std::string toLine() const;

    /** Parse a line produced by toLine(). A truncated line, an
     *  unknown kind or a non-numeric numeric field is
     *  kInvalidArgument: trace files are untrusted input. */
    static Result<TraceRecord> fromLine(const std::string &line);
};

/** Render records to a log-file body. */
std::string recordsToText(const std::vector<TraceRecord> &records);

/** Parse a log-file body; the first bad line fails the whole body. */
Result<std::vector<TraceRecord>> recordsFromText(const std::string &text);

} // namespace lotus::trace

#endif // LOTUS_TRACE_RECORD_H
