#include "dataflow/fetcher.h"

#include "metrics/metrics.h"
#include "pipeline/traced_store.h"
#include "trace/span.h"

namespace lotus::dataflow {

Fetcher::Fetcher(std::shared_ptr<const pipeline::Dataset> dataset,
                 std::shared_ptr<const pipeline::Collate> collate)
    : dataset_(std::move(dataset)), collate_(std::move(collate)),
      collate_tag_(hwcount::KernelRegistry::instance().registerOp(
          pipeline::Collate::kOpName)),
      collate_ns_(metrics::MetricsRegistry::instance().histogram(
          metrics::labeled("lotus_pipeline_op_ns", "op",
                           pipeline::Collate::kOpName)))
{
    LOTUS_ASSERT(dataset_ != nullptr && collate_ != nullptr);
}

pipeline::Batch
Fetcher::fetch(std::int64_t batch_id,
               const std::vector<std::int64_t> &indices,
               pipeline::PipelineContext &ctx, tensor::Tensor reuse) const
{
    Result<pipeline::Batch> batch =
        tryFetch(batch_id, indices, ctx, ErrorHandling{ErrorPolicy::kFail},
                 std::move(reuse));
    if (!batch.ok())
        LOTUS_FATAL("batch %lld: %s", static_cast<long long>(batch_id),
                    batch.error().describe().c_str());
    return batch.take();
}

void
noteSampleError(const Error &error, std::int64_t sample_index,
                pipeline::PipelineContext &ctx, ErrorPolicy policy)
{
    const std::string stage = error.stage.empty() ? "other" : error.stage;
    metrics::MetricsRegistry::instance()
        .counter(metrics::labeled(kSampleErrorsMetric, "policy",
                                  errorPolicyName(policy), "stage", stage))
        ->add(1);
    if (ctx.logger != nullptr)
        ctx.logger->instant({.kind = trace::RecordKind::ErrorEvent,
                             .batch_id = ctx.batch_id, .pid = ctx.pid,
                             .op_name = "error:" + stage,
                             .sample_index = sample_index});
}

std::uint64_t
sampleRngSeed(std::uint64_t epoch_base, std::int64_t sample_index)
{
    // splitmix64 finalizer over (epoch base, index): adjacent indices
    // land in unrelated streams, and the Rng's own splitmix64 seeding
    // expands the result into full generator state.
    std::uint64_t z = epoch_base +
                      0x9E3779B97F4A7C15ull *
                          (static_cast<std::uint64_t>(sample_index) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
Fetcher::setCache(std::shared_ptr<cache::SampleCache> cache)
{
    cache_ = std::move(cache);
    split_ = cache_ != nullptr ? dataset_->cacheableSplit() : std::nullopt;
    if (cache_ != nullptr && !split_.has_value())
        LOTUS_WARN("sample cache attached to a dataset without "
                   "cacheableSplit(); every fetch will miss");
}

void
Fetcher::setReadAhead(std::shared_ptr<ReadAhead> read_ahead)
{
    read_ahead_ = std::move(read_ahead);
}

ReadAhead::ResidentCheck
Fetcher::residentCheck() const
{
    if (cache_ == nullptr || !split_.has_value())
        return {};
    return [cache = cache_, split = *split_](std::int64_t index) {
        return cache->contains(cache::CacheKey{
            split.dataset_id, split.prefix_fingerprint, index});
    };
}

Result<pipeline::Sample>
Fetcher::getSample(std::int64_t index, pipeline::PipelineContext &ctx) const
{
    // Every fetch path funnels through here, so this one scope
    // correlates all TracedStore reads with the sample being fetched.
    pipeline::IoTraceScope io_scope(&ctx);
    if (cache_ == nullptr || !split_.has_value()) {
        if (read_ahead_ != nullptr) {
            if (std::optional<Result<std::string>> blob =
                    read_ahead_->claim(index)) {
                pipeline::ScopedStagedBlob staged(index, std::move(*blob));
                return dataset_->tryGet(index, ctx);
            }
        }
        return dataset_->tryGet(index, ctx);
    }
    const cache::CacheKey key{split_->dataset_id,
                              split_->prefix_fingerprint, index};
    if (std::optional<pipeline::Sample> hit = cache_->lookup(key, ctx)) {
        // Warm path: the deterministic prefix is already done; only
        // the random suffix runs, replaying the same rng stream a
        // full fetch would (the prefix draws nothing). No read-ahead
        // claim — a warm hit must never wait on I/O — but its window
        // slot, if the issuers got to it, goes back to them.
        if (read_ahead_ != nullptr)
            read_ahead_->release(index);
        dataset_->applySuffix(*hit, ctx);
        return std::move(*hit);
    }
    Result<pipeline::Sample> prefix = [&] {
        if (read_ahead_ != nullptr) {
            if (std::optional<Result<std::string>> blob =
                    read_ahead_->claim(index)) {
                pipeline::ScopedStagedBlob staged(index, std::move(*blob));
                return dataset_->tryGetPrefix(index, ctx);
            }
        }
        return dataset_->tryGetPrefix(index, ctx);
    }();
    if (!prefix.ok())
        return prefix.takeError();
    pipeline::Sample sample = prefix.take();
    cache_->insert(key, sample, ctx);
    dataset_->applySuffix(sample, ctx);
    return sample;
}

Result<pipeline::Sample>
Fetcher::fetchSample(std::int64_t index, pipeline::PipelineContext &ctx,
                     const ErrorHandling &errors,
                     const FetchSeeding &seeding) const
{
    const std::int64_t size = dataset_->size();
    std::int64_t current = index;
    int retries_left = errors.max_retries;
    int refills_left = errors.max_refill_attempts;
    for (;;) {
        ctx.sample_index = current;
        // Reseed per attempt, keyed on the *current* candidate: a
        // kSkip refill draws what the replacement index would have
        // drawn in its own slot, and a kRetry re-read replays the
        // same stream (see FetchSeeding).
        if (seeding.per_sample && ctx.rng != nullptr)
            *ctx.rng = Rng(sampleRngSeed(seeding.epoch_base, current));
        Result<pipeline::Sample> sample = getSample(current, ctx);
        if (sample.ok())
            return sample;
        noteSampleError(sample.error(), current, ctx, errors.policy);
        switch (errors.policy) {
          case ErrorPolicy::kFail:
            return sample.takeError();
          case ErrorPolicy::kRetry:
            // Bounded same-index retries clear transient store
            // hiccups; anything else is real corruption and fails.
            if (errorIsTransient(sample.error().code) &&
                retries_left-- > 0)
                continue;
            return sample.takeError();
          case ErrorPolicy::kSkip:
            // Deterministic refill: walk forward from the bad index
            // (mod dataset size). May duplicate a sample within the
            // epoch; keeps batch shape and cadence intact.
            if (refills_left-- > 0) {
                current = (current + 1) % size;
                continue;
            }
            return sample.takeError();
        }
        LOTUS_PANIC("bad error policy %d",
                    static_cast<int>(errors.policy));
    }
}

Result<pipeline::Batch>
Fetcher::tryFetch(std::int64_t batch_id,
                  const std::vector<std::int64_t> &indices,
                  pipeline::PipelineContext &ctx,
                  const ErrorHandling &errors, tensor::Tensor reuse,
                  const FetchSeeding &seeding) const
{
    LOTUS_ASSERT(!indices.empty(), "empty batch requested");
    ctx.batch_id = batch_id;

    std::vector<pipeline::Sample> samples;
    samples.reserve(indices.size());
    for (const auto index : indices) {
        Result<pipeline::Sample> sample =
            fetchSample(index, ctx, errors, seeding);
        if (!sample.ok()) {
            ctx.sample_index = -1;
            return sample.takeError();
        }
        samples.push_back(sample.take());
    }
    ctx.sample_index = -1;
    return collateBatch(batch_id, std::move(samples), ctx,
                        std::move(reuse));
}

pipeline::Batch
Fetcher::collateBatch(std::int64_t batch_id,
                      std::vector<pipeline::Sample> samples,
                      pipeline::PipelineContext &ctx,
                      tensor::Tensor reuse) const
{
    trace::Span span({.logger = ctx.logger,
                      .op_name = pipeline::Collate::kOpName,
                      .batch_id = batch_id, .pid = ctx.pid,
                      .histogram = collate_ns_, .op = collate_tag_});
    pipeline::Batch batch =
        collate_->collateInto(std::move(samples), std::move(reuse));
    span.finish();
    batch.batch_id = batch_id;
    return batch;
}

} // namespace lotus::dataflow
