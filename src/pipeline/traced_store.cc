#include "pipeline/traced_store.h"

#include "common/logging.h"

namespace lotus::pipeline {

TracedStore::TracedStore(std::shared_ptr<const BlobStore> inner)
    : inner_(std::move(inner)),
      read_ns_(metrics::MetricsRegistry::instance().histogram(
          kStoreReadNsMetric)),
      read_bytes_(metrics::MetricsRegistry::instance().histogram(
          kStoreReadBytesMetric))
{
    LOTUS_ASSERT(inner_ != nullptr);
}

std::int64_t
TracedStore::size() const
{
    return inner_->size();
}

std::uint64_t
TracedStore::blobSize(std::int64_t index) const
{
    return inner_->blobSize(index);
}

std::string
TracedStore::read(std::int64_t index) const
{
    const PipelineContext *ctx = currentIoContext();
    trace::Span call({.logger = ctx != nullptr ? ctx->logger : nullptr,
                      .histogram = read_ns_});
    std::string blob = inner_->read(index);
    note(blob.size(), call.start(), call.stop(), ctx);
    return blob;
}

Result<std::string>
TracedStore::tryRead(std::int64_t index) const
{
    const PipelineContext *ctx = currentIoContext();
    trace::Span call({.logger = ctx != nullptr ? ctx->logger : nullptr,
                      .histogram = read_ns_});
    Result<std::string> blob = inner_->tryRead(index);
    const TimeNs elapsed = call.stop();
    // Failed reads are not observations of store latency — the error
    // path is accounted by lotus_loader_sample_errors_total instead.
    if (blob.ok())
        note(blob.value().size(), call.start(), elapsed, ctx);
    return blob;
}

std::vector<Result<std::string>>
TracedStore::tryReadMany(const std::vector<BlobReadRequest> &requests) const
{
    // The span only times the round trip (stop()); note() hands its
    // one interval to every blob that rode it.
    PipelineContext *ambient = currentIoContext();
    trace::Span call(
        {.logger = ambient != nullptr ? ambient->logger : nullptr,
         .histogram = read_ns_});
    std::vector<Result<std::string>> blobs = inner_->tryReadMany(requests);
    const TimeNs elapsed = call.stop();
    LOTUS_ASSERT(blobs.size() == requests.size(),
                 "tryReadMany returned %zu results for %zu requests",
                 blobs.size(), requests.size());
    for (std::size_t i = 0; i < blobs.size(); ++i) {
        if (!blobs[i].ok())
            continue;
        // Stamp each blob's IoEvent from its own request, not from
        // whatever the issuing thread's ambient context says: on an
        // I/O thread the ambient scope only carries logger+pid.
        PipelineContext ctx = ambient != nullptr ? *ambient : PipelineContext{};
        ctx.batch_id = requests[i].batch_id;
        ctx.sample_index = requests[i].sample_index;
        note(blobs[i].value().size(), call.start(), elapsed,
             ambient != nullptr ? &ctx : nullptr);
    }
    return blobs;
}

void
TracedStore::note(std::uint64_t bytes, TimeNs start, TimeNs elapsed,
                  const PipelineContext *ctx) const
{
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    read_ns_->record(static_cast<std::uint64_t>(elapsed));
    read_bytes_->record(bytes);
    if (ctx == nullptr || ctx->logger == nullptr)
        return;
    // Op names must stay comma-free (record.cc line format); the byte
    // count rides in the name so analysis can recover sizes from the
    // trace alone.
    ctx->logger->log({.kind = trace::RecordKind::IoEvent,
                      .batch_id = ctx->batch_id,
                      .pid = ctx->pid,
                      .start = start,
                      .duration = elapsed,
                      .op_name = "io:" + std::to_string(bytes),
                      .sample_index = ctx->sample_index});
}

} // namespace lotus::pipeline
