/**
 * @file
 * Outside-in layer tracing for the benchmark.
 *
 * The benchmark records spans around every call it can see into a
 * layer's public interface, by decorating the objects it hands to the
 * loader: the BlobStore, the Dataset, each Transform and the Collate.
 * Nothing inside the library is instrumented; the decorators forward
 * every virtual the loader relies on (read-ahead, coalesced reads,
 * the decoded-sample cache split and the transform fingerprint), so a
 * traced run produces the same batches as an untraced one.
 *
 * Spans are kept in per-thread buffers and read once a phase has
 * quiesced. Nesting is tracked per thread: a span's `child` is the
 * time its direct child spans cover, so self time is
 * `end - start - child`.
 */

#ifndef LOTUS_PERFBENCH_SPANS_H
#define LOTUS_PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "pipeline/collate.h"
#include "pipeline/dataset.h"
#include "pipeline/store.h"
#include "pipeline/transform.h"
#include "workloads/pipelines.h"

namespace lotus::perfbench {

enum class Layer : std::uint8_t
{
    kStore,   ///< BlobStore read / tryRead / tryReadMany
    kSample,  ///< Dataset get / tryGet / tryGetPrefix (carries decode)
    kSuffix,  ///< Dataset applySuffix (random transforms after a cache hit
              ///< or a cache admission)
    kOp,      ///< one Transform::apply
    kCollate, ///< Collate collate / collateInto
    kNext,    ///< the consumer blocked in DataLoader/LoaderClient next()
};

/**
 * Identity stamped on a tenant's spans: its index and the epoch its
 * consumer has started. The consumer bumps `epoch` before each
 * startEpoch(), so spans of one batch share (tenant, epoch, batch_id).
 */
struct TenantTrace
{
    explicit TenantTrace(int tenant_id) : id(tenant_id) {}

    const int id;
    std::atomic<std::int64_t> epoch{0};
};

struct Span
{
    Layer layer = Layer::kStore;
    /** kOp: index into SpanLog::opNames(). */
    std::int32_t op = -1;
    std::int32_t tenant = -1;
    /** Nesting depth on the recording thread (0 = outermost). */
    std::int32_t depth = 0;
    std::int64_t epoch = -1;
    std::int64_t batch_id = -1;
    std::int64_t sample_index = -1;
    TimeNs start = 0;
    TimeNs end = 0;
    /** Wall time covered by direct child spans. */
    TimeNs child = 0;
    /** Thread CPU clock at the edges; read for depth-0 spans only. */
    TimeNs cpu_start = 0;
    TimeNs cpu_end = 0;
    /** kStore: blobs and payload bytes delivered. */
    std::int64_t blobs = 0;
    std::int64_t bytes = 0;
    /** kSample: store spans nested directly inside (synchronous
     *  reads; zero when the blob came from the read-ahead window). */
    std::int32_t store_children = 0;

    TimeNs duration() const { return end - start; }
    TimeNs self() const { return end - start - child; }
};

/** Every span one thread recorded, in start order. */
struct ThreadSpans
{
    std::vector<Span> spans;
};

class SpanLog
{
  public:
    static SpanLog &instance();

    /** Copy of every finished span that started in [@p since,
     *  @p until), grouped by thread. */
    std::vector<ThreadSpans> collect(TimeNs since, TimeNs until) const;

    /** Append an already finished depth-0 span on the calling thread. */
    void record(const Span &span);

    /** Stable index of transform name @p name. */
    std::int32_t internOp(const std::string &name);
    std::vector<std::string> opNames() const;

    struct Buffer;

  private:
    SpanLog() = default;
};

/**
 * RAII span on the calling thread. Batch/sample ids default to those
 * of the enclosing span, so ops and synchronous store reads land on
 * the sample they serve.
 */
class SpanScope
{
  public:
    SpanScope(Layer layer, const TenantTrace &tenant,
              std::int64_t batch_id = -1, std::int64_t sample_index = -1,
              std::int32_t op = -1);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void
    addStoreWork(std::int64_t blobs, std::int64_t bytes)
    {
        blobs_ += blobs;
        bytes_ += bytes;
    }

  private:
    SpanLog::Buffer *buffer_;
    std::size_t index_;
    std::int64_t blobs_ = 0;
    std::int64_t bytes_ = 0;
};

/** BlobStore decorator: one kStore span per read call. */
class SpanStore final : public pipeline::BlobStore
{
  public:
    SpanStore(std::shared_ptr<const pipeline::BlobStore> inner,
              std::shared_ptr<const TenantTrace> tenant);

    std::int64_t size() const override;
    std::string read(std::int64_t index) const override;
    Result<std::string> tryRead(std::int64_t index) const override;
    std::vector<Result<std::string>> tryReadMany(
        const std::vector<pipeline::BlobReadRequest> &requests)
        const override;
    std::uint64_t blobSize(std::int64_t index) const override;

  private:
    std::shared_ptr<const pipeline::BlobStore> inner_;
    std::shared_ptr<const TenantTrace> tenant_;
};

/** Dataset decorator: kSample spans around the decode-carrying calls,
 *  kSuffix around applySuffix; everything else forwards. */
class SpanDataset final : public pipeline::Dataset
{
  public:
    SpanDataset(std::shared_ptr<const pipeline::Dataset> inner,
                std::shared_ptr<const TenantTrace> tenant);

    std::int64_t size() const override;
    pipeline::Sample get(std::int64_t index,
                         pipeline::PipelineContext &ctx) const override;
    Result<pipeline::Sample>
    tryGet(std::int64_t index, pipeline::PipelineContext &ctx) const override;
    const pipeline::BlobStore *blobStore() const override;
    std::optional<pipeline::CacheableSplit> cacheableSplit() const override;
    Result<pipeline::Sample>
    tryGetPrefix(std::int64_t index,
                 pipeline::PipelineContext &ctx) const override;
    void applySuffix(pipeline::Sample &sample,
                     pipeline::PipelineContext &ctx) const override;

  private:
    std::shared_ptr<const pipeline::Dataset> inner_;
    std::shared_ptr<const TenantTrace> tenant_;
};

/**
 * Transform decorator: one kOp span per apply. Holds the wrapped
 * transform by reference; @p owner keeps the object that owns it
 * (the untraced workload's dataset) alive.
 */
class SpanTransform final : public pipeline::Transform
{
  public:
    SpanTransform(std::shared_ptr<const void> owner,
                  const pipeline::Transform &inner,
                  std::shared_ptr<const TenantTrace> tenant);

    const std::string &name() const override;
    void apply(pipeline::Sample &sample, Rng &rng) const override;
    bool deterministic() const override;
    std::uint64_t configHash() const override;

  private:
    std::shared_ptr<const void> owner_;
    const pipeline::Transform &inner_;
    std::shared_ptr<const TenantTrace> tenant_;
    std::int32_t op_;
};

/** Collate decorator: one kCollate span per call, keyed to the batch
 *  of the last sample span on the calling thread. */
class SpanCollate final : public pipeline::Collate
{
  public:
    SpanCollate(std::shared_ptr<const pipeline::Collate> inner,
                std::shared_ptr<const TenantTrace> tenant);

    pipeline::Batch collate(std::vector<pipeline::Sample> samples)
        const override;
    pipeline::Batch collateInto(std::vector<pipeline::Sample> samples,
                                tensor::Tensor reuse) const override;

  private:
    std::shared_ptr<const pipeline::Collate> inner_;
    std::shared_ptr<const TenantTrace> tenant_;
};

/**
 * The traced twin of an ImageFolderDataset workload: the same
 * transform objects and collate, reached through span decorators, over
 * @p store wrapped in a SpanStore. @p num_classes must match the
 * untraced dataset's labeling (it is part of the cache fingerprint).
 */
workloads::Workload
tracedImageFolder(const workloads::Workload &untraced,
                  std::shared_ptr<const pipeline::BlobStore> store,
                  std::int64_t num_classes,
                  std::shared_ptr<const TenantTrace> tenant);

} // namespace lotus::perfbench

#endif // LOTUS_PERFBENCH_SPANS_H
