/**
 * @file
 * Read-ahead suite: the engine's window semantics (hits serve
 * prefetched bytes, misses fall back, depth bounds outstanding work,
 * cancel wakes blocked claims, one contiguous run per store call,
 * release and resident skips free slots), loader integration across
 * all three fetch paths with bit-identical batches (cold, cache-warm
 * and a churning half-budget cache), ErrorPolicy composition over
 * FaultyStore(RemoteStore), off-thread IoEvent correlation, and
 * option validation.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/read_ahead.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/remote_store.h"
#include "pipeline/store.h"
#include "pipeline/traced_store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"

namespace lotus {
namespace {

using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::LoaderError;
using dataflow::ReadAhead;
using dataflow::ReadAheadOptions;
using dataflow::Schedule;
using pipeline::BlobReadRequest;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;
using pipeline::InMemoryStore;
using pipeline::RemoteStore;
using pipeline::RemoteStoreOptions;

std::shared_ptr<InMemoryStore>
makePlainStore(int count)
{
    auto store = std::make_shared<InMemoryStore>();
    for (int i = 0; i < count; ++i)
        store->add(strFormat("payload-%04d", i));
    return store;
}

std::vector<BlobReadRequest>
sequentialPlan(int count)
{
    std::vector<BlobReadRequest> plan;
    for (int i = 0; i < count; ++i) {
        BlobReadRequest request;
        request.index = i;
        request.batch_id = i / 4;
        request.sample_index = i;
        plan.push_back(request);
    }
    return plan;
}

TEST(ReadAhead, ClaimsServePrefetchedBytesInAnyOrder)
{
    auto store = makePlainStore(24);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 2;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(24), nullptr);

    // Give the issuers time to fill the window between claim bursts:
    // a claim is only *guaranteed* to hit once its read was issued
    // (an outrun consumer legitimately misses and reads itself).
    const auto settle = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    settle();
    // In-order claims drain the full window; each matches the store.
    for (int i = 0; i < 8; ++i) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
    settle();
    for (int i = 8; i < 16; ++i) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
    settle();
    // Out-of-order (work-stealing shape): claims land regardless of
    // the order the window was filled in.
    for (const int i : {23, 17, 20, 16, 22, 18, 21, 19}) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
}

TEST(ReadAhead, UnplannedIndexMissesWithoutBlocking)
{
    auto store = makePlainStore(8);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 1;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(4), nullptr);
    // Let the issuer fill the window so claim(0) is a guaranteed hit.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    EXPECT_FALSE(engine.claim(7).has_value()); // never in the plan
    EXPECT_TRUE(engine.claim(0).has_value());
    EXPECT_FALSE(engine.claim(0).has_value()); // already consumed
}

TEST(ReadAhead, MissedIndexIsNeverIssuedLater)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = makePlainStore(16);
    ReadAheadOptions options;
    options.depth = 2; // small window: most of the plan is unissued
    options.io_threads = 1;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(16), nullptr);

    // Claim far ahead of the window: a miss, served synchronously by
    // the caller. The issuer must then skip index 15 — nobody will
    // consume it — so every issued read is one that got claimed and
    // nothing is stranded in (or wasted on) the window at epoch end.
    EXPECT_FALSE(engine.claim(15).has_value());
    std::uint64_t hits = 0;
    for (int i = 0; i < 15; ++i)
        hits += engine.claim(i).has_value() ? 1 : 0;
    EXPECT_EQ(registry.counter(dataflow::kReadAheadHitsMetric)->value(),
              hits);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    EXPECT_LE(hits, 15u);
    registry.reset();
}

TEST(ReadAhead, DepthBoundsOutstandingPrefetches)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = makePlainStore(64);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 2;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(64), nullptr);

    // The instant store fills the window immediately; with no claims
    // the issuers stall at exactly `depth` outstanding blobs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(registry.gauge(dataflow::kReadAheadInFlightMetric)->value(),
              4);
    EXPECT_EQ(registry.gauge(dataflow::kReadAheadDepthMetric)->value(), 4);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              4u);

    // Draining re-opens the window; every issued read is accounted
    // as a hit (a claim that outruns the issuer misses and is then
    // skipped, never issued).
    std::uint64_t hits = 0;
    for (int i = 0; i < 64; ++i)
        hits += engine.claim(i).has_value() ? 1 : 0;
    EXPECT_GE(hits, 4u); // at least the pre-filled window
    EXPECT_EQ(registry.counter(dataflow::kReadAheadHitsMetric)->value(),
              hits);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    registry.reset();
}

TEST(ReadAhead, ClaimBlocksForInFlightReadThenHits)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto inner = makePlainStore(8);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 20 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, remote_options);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 1;
    ReadAhead engine(&remote, options);

    engine.startEpoch(sequentialPlan(8), nullptr);
    // Wait until the issuer has *registered* the first chunk (entries
    // counted by the in-flight gauge) but its modelled round trip is
    // still pending: the claim must then block for the read instead
    // of missing.
    auto *in_flight = registry.gauge(dataflow::kReadAheadInFlightMetric);
    for (int i = 0; i < 500 && in_flight->value() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(in_flight->value(), 0);
    auto blob = engine.claim(0);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->value(), inner->read(0));
    registry.reset();
}

TEST(ReadAhead, CancelWakesBlockedClaimsAsMisses)
{
    auto inner = makePlainStore(4);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMillisecond; // long enough to race
    remote_options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, remote_options);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 1;
    ReadAhead engine(&remote, options);
    engine.startEpoch(sequentialPlan(4), nullptr);

    std::optional<Result<std::string>> claimed;
    std::thread claimer([&] { claimed = engine.claim(0); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const TimeNs cancel_at = SteadyClock::instance().now();
    engine.cancel();
    claimer.join();
    // The claim returned promptly as a miss instead of sitting out
    // the remaining ~180 ms of modelled round trip.
    EXPECT_LT(SteadyClock::instance().now() - cancel_at,
              100 * kMillisecond);
    EXPECT_FALSE(claimed.has_value());
}

TEST(ReadAhead, PrefetchedErrorsAreDeliveredOnClaim)
{
    auto faulty = std::make_shared<FaultyStore>(makePlainStore(8),
                                                FaultyStoreOptions{});
    faulty->inject(3, FaultyStore::Fault::kIoError);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 1;
    ReadAhead engine(faulty.get(), options);
    engine.startEpoch(sequentialPlan(8), nullptr);
    // Instant store: the whole window is ready after a short settle.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto good = engine.claim(2);
    ASSERT_TRUE(good.has_value());
    EXPECT_TRUE(good->ok());
    auto bad = engine.claim(3);
    ASSERT_TRUE(bad.has_value());
    ASSERT_FALSE(bad->ok());
    EXPECT_EQ(bad->error().code, ErrorCode::kIoError);
}

TEST(ReadAhead, ValidatesOptionsFatally)
{
    auto store = makePlainStore(2);
    ReadAheadOptions bad_depth;
    bad_depth.depth = 0;
    EXPECT_EXIT(ReadAhead(store.get(), bad_depth),
                ::testing::ExitedWithCode(1), "depth");
    ReadAheadOptions bad_threads;
    bad_threads.io_threads = 0;
    EXPECT_EXIT(ReadAhead(store.get(), bad_threads),
                ::testing::ExitedWithCode(1), "io_threads");
}

/** Forwards to an InMemoryStore and records every tryReadMany call's
 *  requested indices, in request order. */
class CountingStore : public pipeline::BlobStore
{
  public:
    explicit CountingStore(std::shared_ptr<const InMemoryStore> inner)
        : inner_(std::move(inner))
    {
    }

    std::int64_t size() const override { return inner_->size(); }
    std::string read(std::int64_t index) const override
    {
        return inner_->read(index);
    }
    std::uint64_t blobSize(std::int64_t index) const override
    {
        return inner_->blobSize(index);
    }
    std::vector<Result<std::string>>
    tryReadMany(const std::vector<BlobReadRequest> &requests) const override
    {
        std::vector<std::int64_t> indices;
        for (const BlobReadRequest &request : requests)
            indices.push_back(request.index);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            calls_.push_back(std::move(indices));
        }
        return inner_->tryReadMany(requests);
    }

    std::vector<std::vector<std::int64_t>> calls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

  private:
    std::shared_ptr<const InMemoryStore> inner_;
    mutable std::mutex mutex_;
    mutable std::vector<std::vector<std::int64_t>> calls_;
};

std::vector<BlobReadRequest>
planOf(const std::vector<std::int64_t> &indices)
{
    std::vector<BlobReadRequest> plan;
    for (const std::int64_t index : indices) {
        BlobReadRequest request;
        request.index = index;
        request.sample_index = index;
        plan.push_back(request);
    }
    return plan;
}

TEST(ReadAhead, EachStoreCallCarriesOneContiguousRun)
{
    // depth >= plan size and no claims: one issuer walks the whole
    // plan without waiting, so the chunking is deterministic.
    const auto issue = [](const std::vector<std::int64_t> &indices) {
        CountingStore store(makePlainStore(24));
        ReadAheadOptions options;
        options.depth = 24;
        options.io_threads = 1;
        options.io_batch = 4;
        ReadAhead engine(&store, options);
        engine.startEpoch(planOf(indices), nullptr);
        const auto requested = [&store] {
            std::size_t count = 0;
            for (const auto &call : store.calls())
                count += call.size();
            return count;
        };
        for (int i = 0; i < 500 && requested() < indices.size(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (const std::int64_t index : indices) {
            auto blob = engine.claim(index);
            EXPECT_TRUE(blob.has_value()) << "index " << index;
        }
        return store.calls();
    };
    using Calls = std::vector<std::vector<std::int64_t>>;

    // Shuffled: a chunk ends at the first non-adjacent index, and a
    // run longer than io_batch still splits at the cap.
    EXPECT_EQ(issue({5, 6, 7, 2, 9, 10, 0, 1, 3, 12, 13, 14, 15, 16, 4, 8,
                     11}),
              (Calls{{5, 6, 7},
                     {2},
                     {9, 10},
                     {0, 1},
                     {3},
                     {12, 13, 14, 15},
                     {16},
                     {4},
                     {8},
                     {11}}));
    // Sequential: io_batch-sized calls, exactly as before the rule.
    EXPECT_EQ(issue({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}),
              (Calls{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}));
}

TEST(ReadAhead, ReleasingAParkedEntryFreesItsSlot)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = makePlainStore(4);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 1;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(4), nullptr);
    auto *in_flight = registry.gauge(dataflow::kReadAheadInFlightMetric);
    for (int i = 0; i < 500 && in_flight->value() < 4; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(in_flight->value(), 4);

    engine.release(1);
    EXPECT_EQ(in_flight->value(), 3);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadSkippedMetric)->value(),
              1u);
    EXPECT_FALSE(engine.claim(1).has_value());
    EXPECT_TRUE(engine.claim(2).has_value());
    // A second release finds no entry and changes nothing.
    engine.release(3);
    engine.release(3);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadSkippedMetric)->value(),
              2u);
    EXPECT_EQ(in_flight->value(), 1);
    registry.reset();
}

TEST(ReadAhead, ReleasingAnInFlightEntryFreesItsSlotWithoutBlocking)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto inner = makePlainStore(8);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, remote_options);
    ReadAheadOptions options;
    options.depth = 1; // index 5 can only be issued once 0 leaves
    options.io_threads = 2;
    ReadAhead engine(&remote, options);
    engine.startEpoch(planOf({0, 5}), nullptr);

    auto *in_flight = registry.gauge(dataflow::kReadAheadInFlightMetric);
    for (int i = 0; i < 500 && in_flight->value() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(in_flight->value(), 1);

    // Index 0's round trip is still pending: release must not wait
    // for it, and the freed slot goes to index 5 on the other issuer.
    const TimeNs released_at = SteadyClock::instance().now();
    engine.release(0);
    EXPECT_LT(SteadyClock::instance().now() - released_at,
              50 * kMillisecond);
    EXPECT_FALSE(engine.claim(0).has_value());
    for (int i = 0; i < 500 && in_flight->value() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(in_flight->value(), 1);
    auto blob = engine.claim(5);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->value(), inner->read(5));
    // Index 0's late completion is discarded, not parked.
    for (int i = 0; i < 500 && registry.counter(
                                   dataflow::kReadAheadIssuedMetric)
                                       ->value() < 2;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              2u);
    EXPECT_EQ(in_flight->value(), 0);
    registry.reset();
}

TEST(ReadAhead, IssuersSkipResidentIndices)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    CountingStore store(makePlainStore(16));
    ReadAheadOptions options;
    options.depth = 16;
    options.io_threads = 1;
    ReadAhead engine(&store, options);
    engine.startEpoch(sequentialPlan(16), nullptr,
                      [](std::int64_t index) { return index % 4 == 1; });
    for (int i = 0; i < 500 && registry.counter(
                                   dataflow::kReadAheadIssuedMetric)
                                       ->value() < 12;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              12u);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadSkippedMetric)->value(),
              4u);
    // A skipped index breaks the run: 0 | 2 3 4 | 6 7 8 | ...
    for (const auto &call : store.calls())
        for (const std::int64_t index : call)
            EXPECT_NE(index % 4, 1) << "resident index issued";
    EXPECT_FALSE(engine.claim(5).has_value());
    EXPECT_TRUE(engine.claim(6).has_value());
    registry.reset();
}

// --- Loader integration ----------------------------------------------

std::shared_ptr<InMemoryStore>
makeEncodedStore(int count, int side = 16)
{
    auto store = std::make_shared<InMemoryStore>();
    Rng rng(55);
    for (int i = 0; i < count; ++i)
        store->add(
            image::codec::encode(image::synthesize(rng, side, side)));
    return store;
}

/** ImageFolder over @p store whose transform chain starts with a
 *  random flip, so the cacheable prefix is decode-only and cache-warm
 *  epochs still draw from the per-sample rng stream. */
std::shared_ptr<pipeline::ImageFolderDataset>
makeDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1 << 20);
}

/** Run one epoch of @p loader: its payload bytes + labels. */
std::vector<std::uint8_t>
epochBytes(DataLoader &loader)
{
    loader.startEpoch();
    std::vector<std::uint8_t> bytes;
    while (auto batch = loader.next()) {
        const std::uint8_t *raw = batch->data.raw();
        bytes.insert(bytes.end(), raw, raw + batch->data.byteSize());
        for (const std::int64_t label : batch->labels) {
            const auto *p = reinterpret_cast<const std::uint8_t *>(&label);
            bytes.insert(bytes.end(), p, p + sizeof(label));
        }
    }
    return bytes;
}

/** Epochs of payload bytes + labels (cold, then cache-warm when the
 *  options enable a cache). */
std::vector<std::vector<std::uint8_t>>
epochsBytes(const std::shared_ptr<pipeline::Dataset> &dataset,
            DataLoaderOptions options, int epochs = 2)
{
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(), options);
    std::vector<std::vector<std::uint8_t>> out;
    for (int epoch = 0; epoch < epochs; ++epoch)
        out.push_back(epochBytes(loader));
    return out;
}

std::vector<std::vector<std::uint8_t>>
twoEpochBytes(const std::shared_ptr<pipeline::Dataset> &dataset,
              DataLoaderOptions options)
{
    return epochsBytes(dataset, std::move(options));
}

TEST(ReadAheadLoader, BitIdenticalAcrossPathsColdAndCacheWarm)
{
    auto store = makeEncodedStore(48);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote =
        std::make_shared<RemoteStore>(std::move(store), remote_options);
    auto dataset = makeDataset(remote);

    DataLoaderOptions reference;
    reference.batch_size = 4;
    reference.num_workers = 2;
    reference.shuffle = true;
    reference.seed = 77;
    reference.cache_policy = dataflow::CachePolicy::kMemory;
    reference.cache_budget_bytes = 64 << 20;
    const auto expected = twoEpochBytes(dataset, reference);
    EXPECT_NE(expected[0], expected[1]); // epochs draw differently

    struct PathCase
    {
        const char *name;
        int workers;
        Schedule schedule;
    };
    const PathCase cases[] = {
        {"round-robin", 2, Schedule::kRoundRobin},
        {"work-stealing", 2, Schedule::kWorkStealing},
        {"sync", 0, Schedule::kRoundRobin},
    };
    for (const PathCase &path : cases) {
        DataLoaderOptions options = reference;
        options.num_workers = path.workers;
        options.schedule = path.schedule;
        options.read_ahead_depth = 8;
        options.io_threads = 2;
        EXPECT_EQ(twoEpochBytes(dataset, options), expected)
            << path.name;
    }
}

/** Read-ahead counters and store round trips one epoch moved. */
struct EpochIo
{
    std::int64_t issued = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t round_trips = 0;
};

EpochIo
readIo(const RemoteStore &remote)
{
    auto &registry = metrics::MetricsRegistry::instance();
    const auto value = [&](const char *name) {
        return static_cast<std::int64_t>(registry.counter(name)->value());
    };
    return EpochIo{value(dataflow::kReadAheadIssuedMetric),
                   value(dataflow::kReadAheadHitsMetric),
                   value(dataflow::kReadAheadMissesMetric),
                   static_cast<std::int64_t>(remote.roundTrips())};
}

EpochIo
operator-(const EpochIo &after, const EpochIo &before)
{
    return EpochIo{after.issued - before.issued, after.hits - before.hits,
                   after.misses - before.misses,
                   after.round_trips - before.round_trips};
}

TEST(ReadAheadLoader, HalfBudgetCacheKeepsWindowFlowing)
{
    // A cache holding about half the decoded set over reshuffled
    // epochs: every epoch mixes warm hits with misses. Cache hits must
    // neither strand window slots nor stall the issuers, so the
    // misses still find their blobs prefetched.
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    constexpr int kSamples = 96;
    constexpr int kSide = 48;
    constexpr int kEpochs = 4;
    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(
        makeEncodedStore(kSamples, kSide), remote_options);
    auto dataset = makeDataset(remote);

    DataLoaderOptions reference;
    reference.batch_size = 4;
    reference.num_workers = 0;
    reference.shuffle = true;
    reference.seed = 91;
    const auto expected = epochsBytes(dataset, reference, kEpochs);

    for (const Schedule schedule :
         {Schedule::kRoundRobin, Schedule::kWorkStealing}) {
        SCOPED_TRACE(schedule == Schedule::kRoundRobin ? "round-robin"
                                                       : "work-stealing");
        DataLoaderOptions options = reference;
        options.num_workers = 2;
        options.schedule = schedule;
        options.cache_policy = dataflow::CachePolicy::kMemory;
        options.cache_budget_bytes = kSamples * kSide * kSide * 3 / 2;
        options.cache_shards = 2;
        options.read_ahead_depth = 16;
        options.io_threads = 4;
        DataLoader loader(dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          options);
        for (int epoch = 0; epoch < kEpochs; ++epoch) {
            SCOPED_TRACE(strFormat("epoch %d", epoch));
            const EpochIo before = readIo(*remote);
            EXPECT_EQ(epochBytes(loader), expected[epoch]);
            const EpochIo io = readIo(*remote) - before;
            const std::int64_t claims = io.hits + io.misses;
            // (a) Issued reads nobody claimed stay within the window.
            EXPECT_LE(io.issued - io.hits, options.read_ahead_depth);
            // (b) The window kept issuing for every cache miss.
            EXPECT_GE(io.issued, claims - options.read_ahead_depth);
            if (epoch > 0) {
                EXPECT_GT(loader.cache()->stats().hits, 0u);
            }
        }
    }
    registry.reset();
}

TEST(ReadAheadLoader, WarmEpochIssuesNoReads)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote =
        std::make_shared<RemoteStore>(makeEncodedStore(48), remote_options);
    auto dataset = makeDataset(remote);

    for (const Schedule schedule :
         {Schedule::kRoundRobin, Schedule::kWorkStealing}) {
        SCOPED_TRACE(schedule == Schedule::kRoundRobin ? "round-robin"
                                                       : "work-stealing");
        DataLoaderOptions options;
        options.batch_size = 4;
        options.num_workers = 2;
        options.schedule = schedule;
        options.shuffle = true;
        options.cache_policy = dataflow::CachePolicy::kMemory;
        options.cache_budget_bytes = 64 << 20; // holds every sample
        options.read_ahead_depth = 8;
        options.io_threads = 2;
        DataLoader loader(dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          options);
        epochBytes(loader); // cold: fills the cache
        const EpochIo before = readIo(*remote);
        epochBytes(loader);
        const EpochIo io = readIo(*remote) - before;
        EXPECT_EQ(io.issued, 0);
        EXPECT_EQ(io.round_trips, 0);
        EXPECT_EQ(io.hits + io.misses, 0); // nothing even claimed
    }
    registry.reset();
}

TEST(ReadAheadLoader, HitsDominateASequentialEpoch)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto dataset = makeDataset(makeEncodedStore(32));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.read_ahead_depth = 8;
    options.io_threads = 1;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    ASSERT_NE(loader.readAhead(), nullptr);
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    EXPECT_EQ(samples, 32);

    // Decode dominates the instant store, so the window stays ahead
    // of the fetch path for all but (at racy worst) the first few
    // samples; a missed index is never issued later, so issued +
    // synchronous fallbacks still covers the epoch exactly once.
    const auto hits =
        registry.counter(dataflow::kReadAheadHitsMetric)->value();
    const auto misses =
        registry.counter(dataflow::kReadAheadMissesMetric)->value();
    EXPECT_EQ(hits + misses, 32u);
    EXPECT_GE(hits, 24u);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    registry.reset();
}

TEST(ReadAheadLoader, RetryAbsorbsTransientFaultsThroughReadAhead)
{
    // FaultyStore(RemoteStore): the prefetched read serves the
    // transient error; the retry's claim misses (already consumed)
    // and re-reads synchronously, clearing the fault — identical to
    // the synchronous path's behavior.
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(16),
                                                remote_options);
    auto faulty = std::make_shared<FaultyStore>(remote, fault_options);
    faulty->inject(5, FaultyStore::Fault::kIoError);
    auto dataset = makeDataset(faulty);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 2;
    options.read_ahead_depth = 8;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 16u);
    for (std::int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(labels.count(i), 1u) << "label " << i;
}

TEST(ReadAheadLoader, SkipRefillsComposeWithReadAhead)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(24),
                                                FaultyStoreOptions{});
    faulty->inject(7, FaultyStore::Fault::kIoError); // permanent
    auto dataset = makeDataset(faulty);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kSkip;
    options.read_ahead_depth = 6;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 24u);
    EXPECT_EQ(labels.count(7), 0u); // dropped
    EXPECT_EQ(labels.count(8), 2u); // its forward neighbor, twice
}

TEST(ReadAheadLoader, PersistentTimeoutsSurfaceAsLoaderError)
{
    // Every remote read misses its deadline: kRetry burns its bounded
    // attempts on the (transient) kTimeout and then fails the epoch.
    RemoteStoreOptions remote_options;
    remote_options.rtt = 5 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    remote_options.deadline = kMillisecond;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(8),
                                                remote_options);
    auto dataset = makeDataset(remote);

    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 1;
    options.read_ahead_depth = 4;
    options.io_threads = 1;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    bool threw = false;
    try {
        while (loader.next().has_value()) {
        }
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.error().code, ErrorCode::kTimeout);
        EXPECT_EQ(e.error().stage, "store");
    }
    EXPECT_TRUE(threw);
}

TEST(ReadAheadLoader, IoEventsFromIoThreadsCorrelateWithSamples)
{
    trace::TraceLogger logger;
    RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(16),
                                                remote_options);
    auto traced = std::make_shared<pipeline::TracedStore>(remote);
    auto dataset = makeDataset(traced);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.logger = &logger;
    options.read_ahead_depth = 8;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    ASSERT_EQ(samples, 16);

    const auto worker_pids = loader.workerPids();
    int io_events = 0;
    int off_thread = 0;
    for (const auto &record : logger.records()) {
        if (record.kind != trace::RecordKind::IoEvent)
            continue;
        ++io_events;
        // Correlation comes from the BlobReadRequest, not the issuing
        // thread: shuffle=false, so sample i lives in batch i / 4.
        ASSERT_GE(record.sample_index, 0);
        ASSERT_LT(record.sample_index, 16);
        EXPECT_EQ(record.batch_id, record.sample_index / 4);
        bool is_worker = record.pid == loader.mainPid();
        for (const auto pid : worker_pids)
            is_worker = is_worker || record.pid == pid;
        off_thread += is_worker ? 0 : 1;
    }
    EXPECT_EQ(io_events, 16);
    // The reads actually moved off the fetch threads.
    EXPECT_GT(off_thread, 0);
}

TEST(ReadAheadLoader, ValidationRequiresMatchedOptions)
{
    auto dataset = makeDataset(makeEncodedStore(4));
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions depth_only;
    depth_only.read_ahead_depth = 4;
    EXPECT_EXIT(DataLoader(dataset, collate, depth_only),
                ::testing::ExitedWithCode(1), "together");
    DataLoaderOptions threads_only;
    threads_only.io_threads = 2;
    EXPECT_EXIT(DataLoader(dataset, collate, threads_only),
                ::testing::ExitedWithCode(1), "together");
    DataLoaderOptions negative;
    negative.read_ahead_depth = -1;
    EXPECT_EXIT(DataLoader(dataset, collate, negative),
                ::testing::ExitedWithCode(1), "read_ahead_depth");
}

/** Map-style dataset without a blob store (synthetic samples). */
class SyntheticDataset : public pipeline::Dataset
{
  public:
    std::int64_t size() const override { return 8; }

    pipeline::Sample
    get(std::int64_t index, pipeline::PipelineContext &ctx) const override
    {
        (void)ctx;
        pipeline::Sample sample;
        sample.label = index;
        sample.data = tensor::Tensor(tensor::DType::F32, {4});
        return sample;
    }
};

TEST(ReadAheadLoader, DatasetWithoutBlobStoreRunsWithoutEngine)
{
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.read_ahead_depth = 4;
    options.io_threads = 1;
    DataLoader loader(std::make_shared<SyntheticDataset>(),
                      std::make_shared<pipeline::StackCollate>(), options);
    EXPECT_EQ(loader.readAhead(), nullptr); // warned and disabled
    std::int64_t batches = 0;
    while (loader.next().has_value())
        ++batches;
    EXPECT_EQ(batches, 4);
}

TEST(ReadAhead, IoBatchDerivationCoversDegenerateWindows)
{
    auto store = makePlainStore(8);
    const auto io_batch_for = [&](int depth, int io_threads,
                                  int io_batch = 0) {
        ReadAheadOptions options;
        options.depth = depth;
        options.io_threads = io_threads;
        options.io_batch = io_batch;
        ReadAhead engine(store.get(), options);
        return engine.ioBatch();
    };
    // depth < 2 * io_threads divides to 0; the lower clamp floors the
    // chunk at 1 so every issuer can still make one-blob progress.
    EXPECT_EQ(io_batch_for(1, 4), 1);
    EXPECT_EQ(io_batch_for(1, 1), 1);
    EXPECT_EQ(io_batch_for(7, 4), 1);
    EXPECT_EQ(io_batch_for(2, 4), 1);
    // Nominal shape: two chunks per issuer.
    EXPECT_EQ(io_batch_for(32, 2), 8);
    EXPECT_EQ(io_batch_for(16, 2), 4);
    // The per-call latency cap.
    EXPECT_EQ(io_batch_for(256, 2), 16);
    // Explicit io_batch is honored but can never exceed the window.
    EXPECT_EQ(io_batch_for(4, 1, 3), 3);
    EXPECT_EQ(io_batch_for(4, 1, 100), 4);
}

TEST(ReadAhead, DepthOneWindowWithManyIssuersDeliversEverything)
{
    // The most degenerate config: a single-slot window fought over by
    // four issuers. Every claim must resolve (hit, block-then-hit, or
    // miss) with correct bytes and without deadlock.
    auto store = makePlainStore(32);
    ReadAheadOptions options;
    options.depth = 1;
    options.io_threads = 4;
    ReadAhead engine(store.get(), options);
    EXPECT_EQ(engine.ioBatch(), 1);
    engine.startEpoch(sequentialPlan(32), nullptr);
    for (int i = 0; i < 32; ++i) {
        auto blob = engine.claim(i);
        if (blob.has_value()) {
            EXPECT_EQ(blob->value(), store->read(i)) << "index " << i;
        }
    }
}

} // namespace
} // namespace lotus
