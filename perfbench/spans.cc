#include "perfbench/spans.h"

#include <time.h>

#include <mutex>

#include "common/logging.h"
#include "pipeline/compose.h"
#include "pipeline/image_folder.h"

namespace lotus::perfbench {

struct SpanLog::Buffer
{
    /** Guards `spans` against collect() from another thread; the
     *  owning thread is the only writer. */
    mutable std::mutex mutex;
    std::vector<Span> spans;
    /** Indices of this thread's open spans, innermost last (owner
     *  thread only). */
    std::vector<std::size_t> open;
    /** Key of the last sample span this thread opened (owner only):
     *  the batch a following collate on this thread belongs to. */
    std::int32_t last_tenant = -1;
    std::int64_t last_batch = -1;
};

namespace {

std::mutex g_mutex;
std::vector<std::shared_ptr<SpanLog::Buffer>> g_buffers; // guarded by g_mutex
std::vector<std::string> g_ops;                          // guarded by g_mutex

thread_local SpanLog::Buffer *tl_buffer = nullptr;

SpanLog::Buffer &
threadBuffer()
{
    if (tl_buffer == nullptr) {
        auto buffer = std::make_shared<SpanLog::Buffer>();
        std::lock_guard lock(g_mutex);
        g_buffers.push_back(buffer);
        tl_buffer = buffer.get();
    }
    return *tl_buffer;
}

TimeNs
wallNow()
{
    return SteadyClock::instance().now();
}

TimeNs
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<TimeNs>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

} // namespace

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

std::vector<ThreadSpans>
SpanLog::collect(TimeNs since, TimeNs until) const
{
    std::vector<std::shared_ptr<Buffer>> buffers;
    {
        std::lock_guard lock(g_mutex);
        buffers = g_buffers;
    }
    std::vector<ThreadSpans> out;
    for (const auto &buffer : buffers) {
        ThreadSpans thread;
        std::lock_guard lock(buffer->mutex);
        for (const Span &span : buffer->spans) {
            if (span.end != 0 && span.start >= since && span.start < until)
                thread.spans.push_back(span);
        }
        if (!thread.spans.empty())
            out.push_back(std::move(thread));
    }
    return out;
}

void
SpanLog::record(const Span &span)
{
    Buffer &buffer = threadBuffer();
    std::lock_guard lock(buffer.mutex);
    buffer.spans.push_back(span);
}

std::int32_t
SpanLog::internOp(const std::string &name)
{
    std::lock_guard lock(g_mutex);
    for (std::size_t i = 0; i < g_ops.size(); ++i) {
        if (g_ops[i] == name)
            return static_cast<std::int32_t>(i);
    }
    g_ops.push_back(name);
    return static_cast<std::int32_t>(g_ops.size() - 1);
}

std::vector<std::string>
SpanLog::opNames() const
{
    std::lock_guard lock(g_mutex);
    return g_ops;
}

SpanScope::SpanScope(Layer layer, const TenantTrace &tenant,
                     std::int64_t batch_id, std::int64_t sample_index,
                     std::int32_t op)
    : buffer_(&threadBuffer())
{
    Span span;
    span.layer = layer;
    span.op = op;
    span.tenant = tenant.id;
    span.epoch = tenant.epoch.load(std::memory_order_relaxed);
    span.depth = static_cast<std::int32_t>(buffer_->open.size());
    if (!buffer_->open.empty()) {
        // Only this thread writes its buffer, so reading it unlocked
        // is safe here.
        const Span &parent = buffer_->spans[buffer_->open.back()];
        if (batch_id < 0)
            batch_id = parent.batch_id;
        if (sample_index < 0)
            sample_index = parent.sample_index;
    }
    span.batch_id = batch_id;
    span.sample_index = sample_index;
    if (layer == Layer::kSample || layer == Layer::kSuffix) {
        buffer_->last_tenant = tenant.id;
        buffer_->last_batch = batch_id;
    }
    if (span.depth == 0)
        span.cpu_start = threadCpuNow();
    span.start = wallNow();

    std::lock_guard lock(buffer_->mutex);
    index_ = buffer_->spans.size();
    buffer_->spans.push_back(span);
    buffer_->open.push_back(index_);
}

SpanScope::~SpanScope()
{
    const TimeNs end = wallNow();
    buffer_->open.pop_back();
    std::lock_guard lock(buffer_->mutex);
    Span &span = buffer_->spans[index_];
    span.end = end;
    span.blobs = blobs_;
    span.bytes = bytes_;
    if (span.depth == 0)
        span.cpu_end = threadCpuNow();
    if (!buffer_->open.empty()) {
        Span &parent = buffer_->spans[buffer_->open.back()];
        parent.child += span.duration();
        if (span.layer == Layer::kStore && parent.layer == Layer::kSample)
            ++parent.store_children;
    }
}

// ---- SpanStore ------------------------------------------------------

SpanStore::SpanStore(std::shared_ptr<const pipeline::BlobStore> inner,
                     std::shared_ptr<const TenantTrace> tenant)
    : inner_(std::move(inner)), tenant_(std::move(tenant))
{
}

std::int64_t
SpanStore::size() const
{
    return inner_->size();
}

std::string
SpanStore::read(std::int64_t index) const
{
    SpanScope span(Layer::kStore, *tenant_);
    std::string blob = inner_->read(index);
    span.addStoreWork(1, static_cast<std::int64_t>(blob.size()));
    return blob;
}

Result<std::string>
SpanStore::tryRead(std::int64_t index) const
{
    SpanScope span(Layer::kStore, *tenant_);
    Result<std::string> blob = inner_->tryRead(index);
    span.addStoreWork(
        1, blob.ok() ? static_cast<std::int64_t>(blob.value().size()) : 0);
    return blob;
}

std::vector<Result<std::string>>
SpanStore::tryReadMany(
    const std::vector<pipeline::BlobReadRequest> &requests) const
{
    const std::int64_t batch = requests.empty() ? -1 : requests[0].batch_id;
    const std::int64_t sample =
        requests.empty() ? -1 : requests[0].sample_index;
    SpanScope span(Layer::kStore, *tenant_, batch, sample);
    std::vector<Result<std::string>> blobs = inner_->tryReadMany(requests);
    std::int64_t bytes = 0;
    for (const auto &blob : blobs) {
        if (blob.ok())
            bytes += static_cast<std::int64_t>(blob.value().size());
    }
    span.addStoreWork(static_cast<std::int64_t>(blobs.size()), bytes);
    return blobs;
}

std::uint64_t
SpanStore::blobSize(std::int64_t index) const
{
    return inner_->blobSize(index);
}

// ---- SpanDataset ----------------------------------------------------

SpanDataset::SpanDataset(std::shared_ptr<const pipeline::Dataset> inner,
                         std::shared_ptr<const TenantTrace> tenant)
    : inner_(std::move(inner)), tenant_(std::move(tenant))
{
}

std::int64_t
SpanDataset::size() const
{
    return inner_->size();
}

pipeline::Sample
SpanDataset::get(std::int64_t index, pipeline::PipelineContext &ctx) const
{
    SpanScope span(Layer::kSample, *tenant_, ctx.batch_id, index);
    return inner_->get(index, ctx);
}

Result<pipeline::Sample>
SpanDataset::tryGet(std::int64_t index,
                    pipeline::PipelineContext &ctx) const
{
    SpanScope span(Layer::kSample, *tenant_, ctx.batch_id, index);
    return inner_->tryGet(index, ctx);
}

const pipeline::BlobStore *
SpanDataset::blobStore() const
{
    return inner_->blobStore();
}

std::optional<pipeline::CacheableSplit>
SpanDataset::cacheableSplit() const
{
    return inner_->cacheableSplit();
}

Result<pipeline::Sample>
SpanDataset::tryGetPrefix(std::int64_t index,
                          pipeline::PipelineContext &ctx) const
{
    SpanScope span(Layer::kSample, *tenant_, ctx.batch_id, index);
    return inner_->tryGetPrefix(index, ctx);
}

void
SpanDataset::applySuffix(pipeline::Sample &sample,
                         pipeline::PipelineContext &ctx) const
{
    SpanScope span(Layer::kSuffix, *tenant_, ctx.batch_id,
                   ctx.sample_index);
    inner_->applySuffix(sample, ctx);
}

// ---- SpanTransform --------------------------------------------------

SpanTransform::SpanTransform(std::shared_ptr<const void> owner,
                             const pipeline::Transform &inner,
                             std::shared_ptr<const TenantTrace> tenant)
    : owner_(std::move(owner)), inner_(inner), tenant_(std::move(tenant)),
      op_(SpanLog::instance().internOp(inner.name()))
{
}

const std::string &
SpanTransform::name() const
{
    return inner_.name();
}

void
SpanTransform::apply(pipeline::Sample &sample, Rng &rng) const
{
    SpanScope span(Layer::kOp, *tenant_, -1, -1, op_);
    inner_.apply(sample, rng);
}

bool
SpanTransform::deterministic() const
{
    return inner_.deterministic();
}

std::uint64_t
SpanTransform::configHash() const
{
    return inner_.configHash();
}

// ---- SpanCollate ----------------------------------------------------

SpanCollate::SpanCollate(std::shared_ptr<const pipeline::Collate> inner,
                         std::shared_ptr<const TenantTrace> tenant)
    : inner_(std::move(inner)), tenant_(std::move(tenant))
{
}

namespace {

std::int64_t
lastBatchOnThread(const TenantTrace &tenant)
{
    const SpanLog::Buffer &buffer = threadBuffer();
    return buffer.last_tenant == tenant.id ? buffer.last_batch : -1;
}

} // namespace

pipeline::Batch
SpanCollate::collate(std::vector<pipeline::Sample> samples) const
{
    SpanScope span(Layer::kCollate, *tenant_, lastBatchOnThread(*tenant_));
    return inner_->collate(std::move(samples));
}

pipeline::Batch
SpanCollate::collateInto(std::vector<pipeline::Sample> samples,
                         tensor::Tensor reuse) const
{
    SpanScope span(Layer::kCollate, *tenant_, lastBatchOnThread(*tenant_));
    return inner_->collateInto(std::move(samples), std::move(reuse));
}

workloads::Workload
tracedImageFolder(const workloads::Workload &untraced,
                  std::shared_ptr<const pipeline::BlobStore> store,
                  std::int64_t num_classes,
                  std::shared_ptr<const TenantTrace> tenant)
{
    const auto *folder = dynamic_cast<const pipeline::ImageFolderDataset *>(
        untraced.dataset.get());
    LOTUS_ASSERT(folder != nullptr,
                 "tracedImageFolder needs an ImageFolderDataset workload");
    auto compose = std::make_shared<pipeline::Compose>();
    for (std::size_t i = 0; i < folder->transforms().size(); ++i) {
        compose->add(std::make_unique<SpanTransform>(
            untraced.dataset, folder->transforms().transform(i), tenant));
    }
    auto traced_store =
        std::make_shared<SpanStore>(std::move(store), tenant);
    auto dataset = std::make_shared<pipeline::ImageFolderDataset>(
        std::move(traced_store), std::move(compose), num_classes);

    workloads::Workload traced;
    traced.dataset = std::make_shared<SpanDataset>(std::move(dataset), tenant);
    traced.collate = std::make_shared<SpanCollate>(untraced.collate,
                                                   std::move(tenant));
    return traced;
}

} // namespace lotus::perfbench
