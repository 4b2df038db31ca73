/**
 * @file
 * One span per instrumented edge.
 *
 * A Span reads the clock once when it opens and once when it
 * finishes, and hands that one duration to every sink that is on:
 *
 *  - the LotusTrace record (a TraceLogger plus the record's kind and
 *    fields),
 *  - a metrics::Histogram (only while metrics are enabled),
 *  - the measured PMU delta (PmuCounters; only on threads with a live
 *    counter group).
 *
 * It can also hold a ground-truth hwcount::OpTag for its extent, so
 * LotusMap can score its reconstruction against the op that really
 * ran. The clock is the logger's when a logger is attached, and
 * SteadyClock otherwise, so a trace record and its histogram sample
 * always cover the same interval on the same timeline. With every
 * sink off the span reads no clock, builds no TraceRecord and copies
 * no string (`timed` forces the clock reads for callers that consume
 * the duration themselves, e.g. weighted-fair service accounting).
 *
 * A span finishes when it goes out of scope; finish() ends it early,
 * and discard() ends it without handing anything to any sink (for
 * edges that must leave no record, such as an exhausted stream or an
 * aborted wait).
 *
 * Records that mark an instant (errors, cache actions, steals, epoch
 * boundaries) are not spans; they are stamped with the logger's
 * now(), so every record of a run lies on the logger's timeline.
 */

#ifndef LOTUS_TRACE_SPAN_H
#define LOTUS_TRACE_SPAN_H

#include <optional>
#include <string_view>

#include "hwcount/registry.h"
#include "metrics/metrics.h"
#include "trace/logger.h"

namespace lotus::trace {

/** The lotus_pmu_* counters a span publishes its measured PMU delta
 *  into; a null `cycles` disables publication. */
struct PmuCounters
{
    metrics::Counter *cycles = nullptr;
    metrics::Counter *instructions = nullptr;
    metrics::Counter *llc_misses = nullptr;
};

/** Sinks and record fields of one span. Every sink is optional. */
struct SpanSpec
{
    /** Trace sink; its clock times the span when set. */
    TraceLogger *logger = nullptr;
    RecordKind kind = RecordKind::TransformOp;
    /** Not copied: must outlive the span. */
    std::string_view op_name = {};
    std::int64_t batch_id = -1;
    std::uint32_t pid = 0;
    std::int64_t sample_index = -1;
    metrics::Histogram *histogram = nullptr;
    const PmuCounters *pmu = nullptr;
    hwcount::OpTag op = hwcount::kNoOp;
    /** Read the clock even with every sink off (the span sets it when
     *  a logger or an enabled histogram is attached). */
    bool timed = false;
};

/** Opens in the constructor; the open and finish work is out of line,
 *  so a span adds one call each way to the function it times. */
class Span
{
  public:
    explicit Span(const SpanSpec &spec) : spec_(spec) { open(); }

    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Record fields known only after the span opened. */
    void setBatchId(std::int64_t batch_id) { spec_.batch_id = batch_id; }
    void setPid(std::uint32_t pid) { spec_.pid = pid; }

    /** Opening timestamp (0 when the span reads no clock). */
    TimeNs start() const { return start_; }

    /**
     * End the span now and hand its duration to every sink that is
     * on. Returns the duration (0 when untimed or already ended).
     */
    TimeNs finish();

    /**
     * Log the record with @p duration instead of a measured one (the
     * [T2] out-of-order sentinel). The edge was not timed, so the
     * histogram and PMU sinks take nothing.
     */
    void finishWith(TimeNs duration);

    /** End the span without handing anything to any sink. */
    void discard() { end(); }

    /**
     * End the span and return its duration without handing it to any
     * sink, for an edge whose one interval the caller fans out itself
     * (a coalesced store call that delivered several samples' blobs).
     */
    TimeNs stop();

  private:
    void open();
    TimeNs now() const;
    /** Mark the span ended and give back its op tag; false when it
     *  had already ended. */
    bool end();
    TraceRecord record(TimeNs duration) const;

    SpanSpec spec_;
    hwcount::OpTag previous_op_ = hwcount::kNoOp;
    bool done_ = false;
    TimeNs start_ = 0;
    /** Counter reading at open; set only with a live PMU group. */
    std::optional<hwcount::CounterSet> pmu_start_;
};

} // namespace lotus::trace

#endif // LOTUS_TRACE_SPAN_H
