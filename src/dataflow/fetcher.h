/**
 * @file
 * Dataset fetcher: produce one collated batch from a list of indices
 * (the common fetch() method across PyTorch's _MapDatasetFetcher /
 * _IterableDatasetFetcher that LotusTrace instruments for [T1]).
 */

#ifndef LOTUS_DATAFLOW_FETCHER_H
#define LOTUS_DATAFLOW_FETCHER_H

#include <memory>
#include <optional>

#include "cache/sample_cache.h"
#include "dataflow/error_policy.h"
#include "dataflow/read_ahead.h"
#include "hwcount/registry.h"
#include "pipeline/collate.h"
#include "pipeline/dataset.h"

namespace lotus::dataflow {

/** Counter family for recoverable sample errors; exported with
 *  {policy="...",stage="..."} labels. */
inline constexpr const char *kSampleErrorsMetric =
    "lotus_loader_sample_errors_total";

/**
 * Record one observed recoverable sample error: bump
 * lotus_loader_sample_errors_total{policy,stage} and, when ctx has a
 * tracer, log an ErrorEvent instant ("error:<stage>") in the calling
 * lane. Shared by the map-style Fetcher and the iterable loader.
 */
void noteSampleError(const Error &error, std::int64_t sample_index,
                     pipeline::PipelineContext &ctx, ErrorPolicy policy);

/**
 * Augmentation RNG seeding contract (DESIGN.md §10). When
 * `per_sample` is set, the fetch path reseeds ctx.rng with
 * sampleRngSeed(epoch_base, index) immediately before *every* sample
 * attempt — including kSkip refill candidates and kRetry re-reads —
 * so a sample's random draws depend only on (base seed, epoch,
 * dataset index), never on which worker executes it or in what order.
 * This is what makes Schedule::kWorkStealing bit-identical to
 * round-robin and to num_workers=0 for the same seed. Off (the
 * default) preserves a free-running per-caller stream for standalone
 * Fetcher users.
 */
struct FetchSeeding
{
    bool per_sample = false;
    /** Per-epoch base, e.g. DataLoader's (seed, epoch) mix. */
    std::uint64_t epoch_base = 0;
};

/** The per-attempt seed: a splitmix64-style mix of the epoch base and
 *  the dataset index (not the batch slot), so refilled candidates
 *  draw exactly what they would have drawn in their own slot. */
std::uint64_t sampleRngSeed(std::uint64_t epoch_base,
                            std::int64_t sample_index);

class Fetcher
{
  public:
    Fetcher(std::shared_ptr<const pipeline::Dataset> dataset,
            std::shared_ptr<const pipeline::Collate> collate);

    /**
     * Produce the batch for @p indices. ctx supplies the tracer, the
     * worker identity and RNG; per-op [T3] records come from the
     * dataset's Compose, and the collation is logged as a [T3] op
     * named "Collate". @p reuse optionally donates a recycled batch
     * tensor's storage to the collation (see Collate::collateInto);
     * pass a default-constructed tensor to allocate fresh.
     *
     * Fatal on bad sample data — the wrapper for trusted fixtures;
     * loader paths go through tryFetch.
     */
    pipeline::Batch fetch(std::int64_t batch_id,
                          const std::vector<std::int64_t> &indices,
                          pipeline::PipelineContext &ctx,
                          tensor::Tensor reuse = {}) const;

    /**
     * Like fetch(), but recoverable sample errors are resolved by
     * @p errors: kSkip refills the bad slot from spare indices
     * ((index + attempt) % dataset size — deterministic, may
     * duplicate a sample within the epoch, keeps the batch full),
     * kRetry re-reads the same index while the error is transient,
     * and kFail (or an unrecoverable error under the other policies)
     * returns the error, stamped with the failing sample's stage.
     * Every observed sample error increments
     * lotus_loader_sample_errors_total{policy,stage} and logs an
     * ErrorEvent trace record in the worker's lane.
     */
    Result<pipeline::Batch> tryFetch(std::int64_t batch_id,
                                     const std::vector<std::int64_t> &indices,
                                     pipeline::PipelineContext &ctx,
                                     const ErrorHandling &errors,
                                     tensor::Tensor reuse = {},
                                     const FetchSeeding &seeding = {}) const;

    /**
     * Collate already-fetched samples into the batch for @p batch_id,
     * with the same [T3] "Collate" trace span and hwcount tag as the
     * fetch paths. The work-stealing scheduler resolves slots across
     * workers and hands the assembled sample vector here.
     */
    pipeline::Batch collateBatch(std::int64_t batch_id,
                                 std::vector<pipeline::Sample> samples,
                                 pipeline::PipelineContext &ctx,
                                 tensor::Tensor reuse = {}) const;

    const pipeline::Dataset &dataset() const { return *dataset_; }

    /**
     * Attach a decoded-sample cache. Only engages when the dataset
     * opts in via cacheableSplit(); a non-cacheable dataset keeps the
     * plain tryGet path (warned once at attach time). Every fetch path
     * — round-robin workers, work-stealing tasks, and the synchronous
     * loader — funnels single-sample reads through getSample(), so
     * attaching here covers all three.
     */
    void setCache(std::shared_ptr<cache::SampleCache> cache);

    /**
     * Attach a read-ahead engine. getSample() then claims the
     * prefetched blob before any store-reading path and stages it for
     * the dataset's readBlobOrStaged(); a claim miss reads
     * synchronously, so the engine is purely opportunistic. With a
     * decoded-sample cache attached, claims happen only on the
     * cache-miss path; a warm hit never waits for a prefetched blob
     * but release()s its index, freeing the window slot, and the
     * issuers skip samples residentCheck() reports, so the window
     * only ever holds reads a cache miss will claim.
     */
    void setReadAhead(std::shared_ptr<ReadAhead> read_ahead);

    /**
     * The check a read-ahead engine's issuers use to skip samples the
     * attached cache already holds (SampleCache::contains); empty
     * without a usable cache. Read when an epoch starts, so it holds
     * whatever order setCache and setReadAhead ran in.
     */
    ReadAhead::ResidentCheck residentCheck() const;

    /**
     * Cache-aware single-sample read. On a warm hit the deterministic
     * prefix (store read + decode + deterministic transforms) is
     * skipped entirely and only the random suffix runs — the caller
     * must have reseeded ctx.rng exactly as for a full tryGet, and the
     * result is bit-identical because the prefix draws nothing. On a
     * miss, the prefix-stage sample is admitted to the cache before
     * the suffix runs. Without a cache (or for a non-cacheable
     * dataset) this is exactly dataset().tryGet().
     */
    Result<pipeline::Sample> getSample(std::int64_t index,
                                       pipeline::PipelineContext &ctx) const;

  private:
    /** Resolve one batch slot under the error policy. */
    Result<pipeline::Sample> fetchSample(std::int64_t index,
                                         pipeline::PipelineContext &ctx,
                                         const ErrorHandling &errors,
                                         const FetchSeeding &seeding) const;

    std::shared_ptr<const pipeline::Dataset> dataset_;
    std::shared_ptr<const pipeline::Collate> collate_;
    hwcount::OpTag collate_tag_;
    /** lotus_pipeline_op_ns{op="Collate"}: collate joins the per-op
     *  [T3] histograms so the tuner can weigh it against transforms. */
    metrics::Histogram *collate_ns_;
    std::shared_ptr<cache::SampleCache> cache_;
    /** Cached dataset cacheableSplit(); nullopt disables the cache. */
    std::optional<pipeline::CacheableSplit> split_;
    /** Read-ahead engine shared with the DataLoader (null = off). */
    std::shared_ptr<ReadAhead> read_ahead_;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_FETCHER_H
