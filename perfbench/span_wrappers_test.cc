/**
 * The span decorators must be invisible to the loader: a traced run
 * yields bit-identical batches and the same cache fingerprint, and the
 * paths that depend on forwarded virtuals (coalesced reads, read-ahead
 * staging, the decoded-sample cache) stay engaged under them.
 */

#include <gtest/gtest.h>

#include "dataflow/data_loader.h"
#include "perfbench/inputs.h"
#include "perfbench/spans.h"
#include "pipeline/remote_store.h"
#include "workloads/pipelines.h"

namespace lotus::perfbench {
namespace {

std::shared_ptr<pipeline::InMemoryStore>
smallImages(std::int64_t count)
{
    ImageSetSpec spec;
    spec.count = count;
    spec.median_width = 96.0;
    return generateImages(spec, /*seed=*/5, /*threads=*/2);
}

dataflow::DataLoaderOptions
cachedReadAheadOptions()
{
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.seed = 9;
    // Sequential plan, so read-ahead chunks hold adjacent indices the
    // remote store can coalesce.
    options.shuffle = false;
    options.schedule = dataflow::Schedule::kWorkStealing;
    options.read_ahead_depth = 8;
    options.io_threads = 1;
    options.cache_policy = dataflow::CachePolicy::kMemory;
    options.cache_budget_bytes = std::int64_t{64} << 20;
    return options;
}

struct EpochRun
{
    std::unique_ptr<dataflow::DataLoader> loader;
    std::vector<std::uint64_t> digests;
};

EpochRun
runEpochs(const workloads::Workload &workload,
          const dataflow::DataLoaderOptions &options, int epochs)
{
    EpochRun run;
    run.loader = std::make_unique<dataflow::DataLoader>(
        workload.dataset, workload.collate, options);
    for (int e = 0; e < epochs; ++e) {
        run.loader->startEpoch();
        while (auto batch = run.loader->next())
            run.digests.push_back(batchDigest(*batch));
    }
    return run;
}

TEST(SpanWrappers, TracedRunIsBitIdenticalWithCacheAndReadAheadEngaged)
{
    auto plain = smallImages(48);
    pipeline::RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    auto remote = std::make_shared<pipeline::RemoteStore>(plain,
                                                          remote_options);
    const auto untraced = workloads::makeImageClassification(remote, 32);
    auto tenant = std::make_shared<TenantTrace>(0);
    const auto traced =
        tracedImageFolder(untraced, remote, /*num_classes=*/1000, tenant);

    const auto options = cachedReadAheadOptions();
    const auto expected = runEpochs(untraced, options, 3).digests;

    const TimeNs since = SteadyClock::instance().now();
    const std::uint64_t coalesced_before = remote->coalescedReads();
    const EpochRun got = runEpochs(traced, options, 3);
    EXPECT_EQ(got.digests, expected);

    ASSERT_NE(got.loader->cache(), nullptr);
    EXPECT_GT(got.loader->cache()->stats().hits, 0u);
    EXPECT_GT(remote->coalescedReads(), coalesced_before);

    // A decode whose blob the read-ahead window staged ran no store
    // span of its own; one that read synchronously did.
    std::int64_t decodes = 0, staged = 0, collates = 0, ops = 0;
    for (const auto &thread :
         SpanLog::instance().collect(since, SteadyClock::instance().now())) {
        for (const Span &span : thread.spans) {
            decodes += span.layer == Layer::kSample;
            staged += span.layer == Layer::kSample && span.store_children == 0;
            collates += span.layer == Layer::kCollate;
            ops += span.layer == Layer::kOp;
        }
    }
    EXPECT_GT(decodes, 0);
    EXPECT_GT(staged, 0);
    EXPECT_EQ(collates, 3 * 48 / 4);
    EXPECT_GT(ops, 0);
}

TEST(SpanWrappers, ReferenceLoaderMatchesTracedWorkers)
{
    auto plain = smallImages(24);
    const auto untraced = workloads::makeImageClassification(plain, 32);
    const auto traced = tracedImageFolder(untraced, plain, 1000,
                                          std::make_shared<TenantTrace>(1));
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.shuffle = true;
    options.seed = 3;
    dataflow::DataLoaderOptions reference = options;
    reference.num_workers = 0; // the synchronous path uses collateInto
    const auto expected = runEpochs(untraced, reference, 2).digests;
    EXPECT_EQ(runEpochs(traced, options, 2).digests, expected);
    EXPECT_EQ(runEpochs(traced, reference, 2).digests, expected);
}

TEST(SpanWrappers, PrefixFingerprintUnchanged)
{
    auto plain = smallImages(8);
    auto tenant = std::make_shared<TenantTrace>(2);
    // Detection has a deterministic prefix (Resize), so its fingerprint
    // hashes forwarded names and config hashes.
    for (const auto &[untraced, classes] :
         {std::pair{workloads::makeImageClassification(plain, 32), 1000},
          std::pair{workloads::makeObjectDetection(plain, 64, 96), 80}}) {
        const auto traced = tracedImageFolder(untraced, plain, classes, tenant);
        const auto want = untraced.dataset->cacheableSplit();
        const auto got = traced.dataset->cacheableSplit();
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->prefix_fingerprint, want->prefix_fingerprint);
        EXPECT_NE(traced.dataset->blobStore(), nullptr);
    }
}

TEST(SpanWrappers, CollateIntoBuildsInTheDonatedTensor)
{
    auto plain = smallImages(4);
    const auto untraced = workloads::makeImageClassification(plain, 32);
    const auto traced = tracedImageFolder(untraced, plain, 1000,
                                          std::make_shared<TenantTrace>(4));
    auto samples = [&] {
        std::vector<pipeline::Sample> out;
        Rng rng(1);
        pipeline::PipelineContext ctx;
        ctx.rng = &rng;
        for (std::int64_t i = 0; i < 4; ++i)
            out.push_back(untraced.dataset->get(i, ctx));
        return out;
    };
    const pipeline::Batch expected = untraced.collate->collate(samples());
    tensor::Tensor reuse = untraced.collate->collate(samples()).data;
    const std::uint8_t *storage = reuse.raw();
    const pipeline::Batch got =
        traced.collate->collateInto(samples(), std::move(reuse));
    EXPECT_EQ(got.data.raw(), storage);
    EXPECT_EQ(batchDigest(got), batchDigest(expected));
    EXPECT_EQ(batchDigest(traced.collate->collate(samples())),
              batchDigest(expected));
}

TEST(SpanWrappers, StoreForwardsBatchedReadsAndSizes)
{
    auto plain = smallImages(6);
    auto remote = std::make_shared<pipeline::RemoteStore>(
        plain, pipeline::RemoteStoreOptions{});
    SpanStore store(remote, std::make_shared<TenantTrace>(3));
    std::vector<pipeline::BlobReadRequest> requests;
    for (std::int64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(store.blobSize(i), plain->blobSize(i));
        requests.push_back({i, 0, i});
    }
    const std::uint64_t trips_before = remote->roundTrips();
    const auto blobs = store.tryReadMany(requests);
    EXPECT_EQ(remote->roundTrips() - trips_before, 1u); // one ranged GET
    ASSERT_EQ(blobs.size(), requests.size());
    for (std::int64_t i = 0; i < 6; ++i)
        EXPECT_EQ(blobs[static_cast<std::size_t>(i)].value(), plain->read(i));
}

} // namespace
} // namespace lotus::perfbench
