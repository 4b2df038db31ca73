/**
 * @file
 * tf-Darshan-style store I/O tracing (PAPERS.md, arXiv:2008.04395).
 *
 * TracedStore decorates any BlobStore: every read records its latency
 * and size into the log-bucketed histograms lotus_store_read_ns /
 * lotus_store_read_bytes and, when the enclosing fetch carries a
 * tracer, emits an IoEvent trace record (op "io:<bytes>") in the
 * worker's lane correlated with the enclosing [T2] sample span via
 * (batch_id, pid, sample_index). Correlation uses an ambient
 * thread-local PipelineContext installed by IoTraceScope (declared in
 * pipeline/store.h) in Fetcher::getSample() — the single funnel all
 * three fetch paths (round-robin workers, work-stealing tasks,
 * synchronous loader) go through — so the store interface itself
 * stays context-free. Batched reads issued off the fetch thread
 * (dataflow::ReadAhead I/O threads) carry their correlation per
 * BlobReadRequest instead: tryReadMany stamps each blob's IoEvent
 * from its request, so prefetched reads still land on the sample they
 * serve. A coalesced range read reports the whole round trip's
 * latency for each blob that rode it (the read did take that long to
 * arrive); bytes are always per blob.
 *
 * Each read is one trace::Span, so the IoEvent and the latency sample
 * cover the same interval on the logger's clock. Outside an
 * IoTraceScope with metrics disabled a read costs two relaxed atomic
 * adds and no clock read; budgeted in bench_micro's
 * io_trace_overhead_pct.
 */

#ifndef LOTUS_PIPELINE_TRACED_STORE_H
#define LOTUS_PIPELINE_TRACED_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "metrics/metrics.h"
#include "pipeline/sample.h"
#include "pipeline/store.h"
#include "trace/span.h"

namespace lotus::pipeline {

/** Read-latency histogram (nanoseconds per store read). */
inline constexpr const char *kStoreReadNsMetric = "lotus_store_read_ns";

/** Read-size histogram (bytes per store read). */
inline constexpr const char *kStoreReadBytesMetric = "lotus_store_read_bytes";

class TracedStore : public BlobStore
{
  public:
    explicit TracedStore(std::shared_ptr<const BlobStore> inner);

    std::int64_t size() const override;
    std::string read(std::int64_t index) const override;
    Result<std::string> tryRead(std::int64_t index) const override;
    /** Forwards the whole batch to the inner store (preserving its
     *  range coalescing), then records each delivered blob and emits
     *  its IoEvent with the request's (batch, sample) correlation. */
    std::vector<Result<std::string>>
    tryReadMany(const std::vector<BlobReadRequest> &requests) const override;
    std::uint64_t blobSize(std::int64_t index) const override;

    const BlobStore &inner() const { return *inner_; }

    /** Successful reads observed (always counted, metrics or not). */
    std::uint64_t reads() const
    {
        return reads_.load(std::memory_order_relaxed);
    }

    /** Bytes delivered by successful reads. */
    std::uint64_t bytesRead() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

  private:
    /** Record one successful read of @p bytes over [start, start +
     *  elapsed] and log its IoEvent when @p ctx carries a tracer. */
    void note(std::uint64_t bytes, TimeNs start, TimeNs elapsed,
              const PipelineContext *ctx) const;

    std::shared_ptr<const BlobStore> inner_;
    metrics::Histogram *read_ns_;
    metrics::Histogram *read_bytes_;
    mutable std::atomic<std::uint64_t> reads_{0};
    mutable std::atomic<std::uint64_t> bytes_{0};
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_TRACED_STORE_H
