/**
 * @file
 * Schedule::kWorkStealing suite: bit-identical batches across
 * schedules and worker counts (the per-sample RNG reseeding
 * contract), in-order delivery through the reorder cache while tasks
 * migrate between workers, all three ErrorPolicy behaviors under
 * stealing, FaultyStore end-to-end runs, and the steal telemetry
 * (counters, TaskSpan/StealEvent trace records).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/metrics.h"
#include "metrics/snapshot.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"
#include "workloads/synthetic.h"

namespace lotus::dataflow {
namespace {

using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;
using pipeline::PipelineContext;
using pipeline::Sample;

/** Index-stamped tensors plus per-sample RNG draws, with an optional
 *  cost function to shape which worker finishes when. */
class ProbeDataset : public pipeline::Dataset
{
  public:
    explicit ProbeDataset(std::int64_t size,
                          std::function<TimeNs(std::int64_t)> cost = {})
        : size_(size), cost_fn_(std::move(cost))
    {
    }

    std::int64_t size() const override { return size_; }

    Sample
    get(std::int64_t index, PipelineContext &ctx) const override
    {
        if (cost_fn_) {
            const TimeNs cost = cost_fn_(index);
            const auto &clock = SteadyClock::instance();
            const TimeNs deadline = clock.now() + cost;
            while (clock.now() < deadline) {
            }
        }
        Sample sample;
        sample.data = tensor::Tensor(tensor::DType::F32, {4});
        float *out = sample.data.data<float>();
        // The RNG mix makes batch bytes sensitive to WHICH seed state
        // produced them, not just which index: any deviation from the
        // per-sample reseeding contract shows up as a byte diff.
        for (int i = 0; i < 4; ++i)
            out[i] = static_cast<float>(index) +
                     static_cast<float>(ctx.rngRef().nextDouble());
        sample.label = index;
        return sample;
    }

  private:
    std::int64_t size_;
    std::function<TimeNs(std::int64_t)> cost_fn_;
};

DataLoaderOptions
wsOptions(int batch_size, int workers,
          trace::TraceLogger *logger = nullptr)
{
    DataLoaderOptions options;
    options.batch_size = batch_size;
    options.num_workers = workers;
    options.schedule = Schedule::kWorkStealing;
    options.logger = logger;
    options.seed = 31;
    return options;
}

/** Every batch's payload bytes + labels, in epoch order. */
std::vector<std::uint8_t>
epochBytes(const std::shared_ptr<pipeline::Dataset> &dataset,
           DataLoaderOptions options)
{
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(), options);
    std::vector<std::uint8_t> bytes;
    while (auto batch = loader.next()) {
        const std::uint8_t *raw = batch->data.raw();
        bytes.insert(bytes.end(), raw, raw + batch->data.byteSize());
        for (const std::int64_t label : batch->labels) {
            const auto *p =
                reinterpret_cast<const std::uint8_t *>(&label);
            bytes.insert(bytes.end(), p, p + sizeof(label));
        }
    }
    return bytes;
}

TEST(WorkStealing, BitIdenticalAcrossSchedulesWorkersAndSync)
{
    auto dataset = std::make_shared<ProbeDataset>(48);
    auto reference = wsOptions(4, 4);
    reference.schedule = Schedule::kRoundRobin;
    reference.shuffle = true;
    const auto expected = epochBytes(dataset, reference);

    for (const int workers : {0, 1, 2, 4}) {
        auto options = wsOptions(4, workers);
        options.shuffle = true;
        if (workers == 0)
            options.schedule = Schedule::kRoundRobin;
        EXPECT_EQ(epochBytes(dataset, options), expected)
            << "workers=" << workers;
    }
}

TEST(WorkStealing, MultiEpochReplayIsExactlyReproducible)
{
    auto dataset = std::make_shared<ProbeDataset>(24);
    auto options = wsOptions(4, 3);
    options.shuffle = true;

    auto collectTwoEpochs = [&] {
        DataLoader loader(dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          options);
        std::vector<std::vector<std::uint8_t>> epochs;
        for (int epoch = 0; epoch < 2; ++epoch) {
            loader.startEpoch();
            std::vector<std::uint8_t> bytes;
            while (auto batch = loader.next()) {
                const std::uint8_t *raw = batch->data.raw();
                bytes.insert(bytes.end(), raw,
                             raw + batch->data.byteSize());
            }
            epochs.push_back(std::move(bytes));
        }
        return epochs;
    };
    const auto first = collectTwoEpochs();
    const auto second = collectTwoEpochs();
    EXPECT_NE(first[0], first[1]); // epochs draw differently...
    EXPECT_EQ(first, second);      // ...but replay exactly
}

TEST(WorkStealing, InOrderDeliveryWithOutOfOrderCompletion)
{
    // Sample 0 is a 20 ms straggler while everything else is nearly
    // free: later batches finish while batch 0 is still open, flow
    // through the reorder cache, and next() must still hand batches
    // out strictly in id order.
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto dataset = std::make_shared<ProbeDataset>(
        32, [](std::int64_t index) -> TimeNs {
            return index == 0 ? 20 * kMillisecond : 20 * kMicrosecond;
        });
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      wsOptions(4, 4));
    for (std::int64_t i = 0; i < loader.numBatches(); ++i) {
        auto batch = loader.next();
        ASSERT_TRUE(batch.has_value());
        EXPECT_EQ(batch->batch_id, i);
    }
    EXPECT_FALSE(loader.next().has_value());
    EXPECT_GT(registry.counter("lotus_loader_ooo_batches_total")->value(),
              0u);
    registry.reset();
}

TEST(WorkStealing, StealTelemetryCountsTasksAndSteals)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    // One worker decomposes a whole 16-sample batch onto its own
    // deque; with per-sample costs the three idle peers must steal.
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return 200 * kMicrosecond; });
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      wsOptions(16, 4, &logger));
    while (loader.next().has_value()) {
    }

    EXPECT_EQ(registry.counter(kTasksMetric)->value(), 64u);
    std::uint64_t steals = 0;
    for (int w = 0; w < 4; ++w)
        steals += registry
                      .counter(metrics::labeled(kStealsMetric, "worker",
                                                strFormat("%d", w)))
                      ->value();
    EXPECT_GT(steals, 0u);

    // One TaskSpan per sample; one StealEvent per counted steal, and
    // both new kinds survive the text round-trip.
    std::uint64_t task_spans = 0, steal_events = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::TaskSpan) {
            ++task_spans;
            EXPECT_EQ(record.op_name, "task");
            EXPECT_GE(record.sample_index, 0);
        }
        if (record.kind == trace::RecordKind::StealEvent) {
            ++steal_events;
            EXPECT_EQ(record.op_name.rfind("steal<-w", 0), 0u);
            const trace::TraceRecord back =
                trace::TraceRecord::fromLine(record.toLine());
            EXPECT_EQ(back.kind, trace::RecordKind::StealEvent);
            EXPECT_EQ(back.op_name, record.op_name);
        }
    }
    EXPECT_EQ(task_spans, 64u);
    EXPECT_EQ(steal_events, steals);

    // Batch spans were recorded for every batch.
    EXPECT_EQ(registry.histogram("lotus_loader_batch_span_ns")->count(),
              4u);
    registry.reset();
}

TEST(WorkStealing, SoloLoaderKeepsLoaderTelemetryOnItsPrivateFleet)
{
    // The loader runs on a private PreprocServer fleet, but it is
    // still a solo loader to every dashboard: no lotus_service_*
    // series, and workerPids() names the fleet's threads — the new
    // fleet's after a reconfigure resizes it.
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    trace::TraceLogger logger;
    auto dataset = std::make_shared<ProbeDataset>(
        32, [](std::int64_t) -> TimeNs { return 50 * kMicrosecond; });
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      wsOptions(4, 2, &logger));
    while (loader.next().has_value()) {
    }
    EXPECT_EQ(loader.workerPids().size(), 2u);

    LoaderReconfig wider = loader.currentConfig();
    wider.num_workers = 4;
    loader.reconfigure(wider);
    const std::size_t first_epoch_records = logger.records().size();
    loader.startEpoch();
    while (loader.next().has_value()) {
    }

    const auto pids = loader.workerPids();
    const std::set<std::uint32_t> fleet(pids.begin(), pids.end());
    EXPECT_EQ(pids.size(), 4u);
    EXPECT_EQ(fleet.size(), 4u);
    EXPECT_EQ(fleet.count(0u), 0u);
    const auto records = logger.records();
    std::uint64_t second_epoch_tasks = 0;
    for (std::size_t i = first_epoch_records; i < records.size(); ++i) {
        if (records[i].kind != trace::RecordKind::TaskSpan)
            continue;
        ++second_epoch_tasks;
        EXPECT_EQ(fleet.count(records[i].pid), 1u)
            << "task ran outside workerPids()";
    }
    EXPECT_EQ(second_epoch_tasks, 32u);

    // Nothing else in this binary touches the service, so any
    // lotus_service_* series was registered by the loader's fleet.
    const metrics::Snapshot snapshot = registry.snapshot();
    auto serviceSeries = [](const auto &family) {
        for (const auto &[name, value] : family) {
            if (name.rfind("lotus_service_", 0) == 0)
                return name;
        }
        return std::string();
    };
    EXPECT_EQ(serviceSeries(snapshot.counters), "");
    EXPECT_EQ(serviceSeries(snapshot.gauges), "");
    EXPECT_EQ(serviceSeries(snapshot.histograms), "");
    EXPECT_EQ(registry.counter(kTasksMetric)->value(), 64u);
    std::uint64_t fetches = 0;
    for (int w = 0; w < 4; ++w)
        fetches += registry
                       .histogram(metrics::labeled("lotus_loader_fetch_ns",
                                                   "worker",
                                                   strFormat("%d", w)))
                       ->count();
    EXPECT_GE(fetches, 32u);
    registry.reset();
}

// --- Error policies under stealing -----------------------------------

std::shared_ptr<pipeline::ImageFolderDataset>
makeImageDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1 << 20);
}

std::shared_ptr<pipeline::InMemoryStore>
makeEncodedStore(int count)
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(99);
    for (int i = 0; i < count; ++i)
        store->add(
            image::codec::encode(image::synthesize(rng, 16, 16)));
    return store;
}

TEST(WorkStealingErrorPolicy, FailSurfacesBatchIdentityAndRestarts)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                FaultyStoreOptions{});
    faulty->inject(5, FaultyStore::Fault::kIoError);
    auto options = wsOptions(2, 2);
    options.error_policy = ErrorPolicy::kFail;
    DataLoader loader(makeImageDataset(faulty),
                      std::make_shared<pipeline::StackCollate>(), options);

    std::int64_t delivered = 0;
    bool threw = false;
    try {
        while (loader.next().has_value())
            ++delivered;
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.batchId(), 2); // index 5 lives in batch {4, 5}
        EXPECT_GE(e.workerId(), 0);
        EXPECT_LT(e.workerId(), 2);
        EXPECT_EQ(e.error().code, ErrorCode::kIoError);
        EXPECT_EQ(e.error().stage, "store");
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(delivered, 2); // error surfaced in batch order

    // Restartable after the failed epoch.
    loader.startEpoch();
    auto batch = loader.next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->batch_id, 0);
}

TEST(WorkStealingErrorPolicy, SkipRefillsMatchRoundRobinExactly)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(40),
                                                FaultyStoreOptions{});
    faulty->inject(0, FaultyStore::Fault::kIoError);
    faulty->inject(20, FaultyStore::Fault::kIoError);
    auto dataset = makeImageDataset(faulty);
    auto collate = std::make_shared<pipeline::StackCollate>();

    auto epochLabels = [&](Schedule schedule) {
        auto options = wsOptions(4, 2);
        options.schedule = schedule;
        options.error_policy = ErrorPolicy::kSkip;
        DataLoader loader(dataset, collate, options);
        std::vector<std::int64_t> labels;
        while (auto batch = loader.next()) {
            EXPECT_EQ(batch->size(), 4); // cadence and shape intact
            labels.insert(labels.end(), batch->labels.begin(),
                          batch->labels.end());
        }
        return labels;
    };

    // Both schedules walk the same deterministic (index + 1) refill
    // chain, so the delivered label sequences agree exactly.
    const auto stealing = epochLabels(Schedule::kWorkStealing);
    EXPECT_EQ(stealing, epochLabels(Schedule::kRoundRobin));
    ASSERT_EQ(stealing.size(), 40u);
    const std::multiset<std::int64_t> counts(stealing.begin(),
                                             stealing.end());
    EXPECT_EQ(counts.count(0), 0u); // dropped...
    EXPECT_EQ(counts.count(1), 2u); // ...forward neighbor duplicated
    EXPECT_EQ(counts.count(20), 0u);
    EXPECT_EQ(counts.count(21), 2u);
}

TEST(WorkStealingErrorPolicy, RetryClearsTransientStoreFaults)
{
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                fault_options);
    faulty->inject(3, FaultyStore::Fault::kIoError);
    auto options = wsOptions(2, 2);
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 2;
    DataLoader loader(makeImageDataset(faulty),
                      std::make_shared<pipeline::StackCollate>(), options);

    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 12u);
    for (std::int64_t i = 0; i < 12; ++i)
        EXPECT_EQ(labels.count(i), 1u) << "label " << i;
}

TEST(WorkStealingErrorPolicy, RetryExhaustionFailsTheBatch)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(8),
                                                FaultyStoreOptions{});
    faulty->inject(2, FaultyStore::Fault::kIoError); // permanent
    auto options = wsOptions(2, 2);
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 1;
    DataLoader loader(makeImageDataset(faulty),
                      std::make_shared<pipeline::StackCollate>(), options);
    EXPECT_THROW(
        {
            while (loader.next().has_value()) {
            }
        },
        LoaderError);
}

TEST(WorkStealingErrorPolicy, FullyCorruptStoreExhaustsSkipRefills)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(6),
                                                FaultyStoreOptions{});
    for (std::int64_t i = 0; i < 6; ++i)
        faulty->inject(i, FaultyStore::Fault::kIoError);
    auto options = wsOptions(2, 2);
    options.error_policy = ErrorPolicy::kSkip;
    options.max_refill_attempts = 4;
    DataLoader loader(makeImageDataset(faulty),
                      std::make_shared<pipeline::StackCollate>(), options);
    EXPECT_THROW(
        {
            while (loader.next().has_value()) {
            }
        },
        LoaderError);
}

TEST(WorkStealing, HeavyTailDatasetEndToEnd)
{
    // The bench scenario in miniature: a lognormal cost surface with
    // stragglers, run under stealing and checked against round-robin
    // for content equality.
    workloads::HeavyTailCostConfig config;
    config.median_cost = 30 * kMicrosecond;
    config.sigma = 0.6;
    config.straggler_fraction = 0.05;
    config.straggler_multiplier = 50.0;
    config.busy_fraction = 0.2;
    auto dataset =
        std::make_shared<workloads::HeavyTailCostDataset>(64, config);

    auto stealing = wsOptions(8, 4);
    stealing.shuffle = true;
    auto round_robin = stealing;
    round_robin.schedule = Schedule::kRoundRobin;
    EXPECT_EQ(epochBytes(dataset, stealing),
              epochBytes(dataset, round_robin));
}

TEST(WorkStealing, DestructorJoinsMidEpoch)
{
    auto dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return kMillisecond; });
    {
        DataLoader loader(dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          wsOptions(2, 2));
        loader.startEpoch();
        loader.next(); // consume one, then abandon
    }
    SUCCEED(); // no deadlock, no dangling task pointers
}

// --- Decoded-sample cache under every schedule ------------------------

TEST(WorkStealing, WarmCacheEpochsBitIdenticalAcrossSchedulesAndSync)
{
    // The cache replays a stored prefix + fresh random suffix instead
    // of the full sample path; every schedule's warm epochs must stay
    // bit-identical to the uncached round-robin reference. Resize
    // first gives a nonempty deterministic prefix, the flip a random
    // suffix whose rng draws must land identically on the warm path.
    auto store = makeEncodedStore(24);
    auto makeDataset = [&] {
        std::vector<pipeline::TransformPtr> transforms;
        transforms.push_back(
            std::make_unique<pipeline::Resize>(12, 0, /*exact=*/true));
        transforms.push_back(
            std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
        transforms.push_back(std::make_unique<pipeline::ToTensor>());
        return std::make_shared<pipeline::ImageFolderDataset>(
            store,
            std::make_shared<pipeline::Compose>(std::move(transforms)),
            /*num_classes=*/1 << 20);
    };

    // Epoch payloads from one loader across 3 epochs (the cache is
    // per-loader state, so multi-epoch runs must share the instance).
    auto threeEpochs = [](const std::shared_ptr<pipeline::Dataset> &d,
                          const DataLoaderOptions &options) {
        DataLoader loader(
            d, std::make_shared<pipeline::StackCollate>(), options);
        std::vector<std::vector<std::uint8_t>> epochs;
        for (int epoch = 0; epoch < 3; ++epoch) {
            loader.startEpoch();
            std::vector<std::uint8_t> bytes;
            while (auto batch = loader.next()) {
                const std::uint8_t *raw = batch->data.raw();
                bytes.insert(bytes.end(), raw,
                             raw + batch->data.byteSize());
                for (const std::int64_t label : batch->labels) {
                    const auto *p =
                        reinterpret_cast<const std::uint8_t *>(&label);
                    bytes.insert(bytes.end(), p, p + sizeof(label));
                }
            }
            epochs.push_back(std::move(bytes));
        }
        return epochs;
    };

    auto reference = wsOptions(4, 3);
    reference.schedule = Schedule::kRoundRobin;
    reference.shuffle = true;
    const auto expected = threeEpochs(makeDataset(), reference);

    struct Case
    {
        const char *name;
        Schedule schedule;
        int workers;
    };
    for (const Case &c :
         {Case{"round-robin", Schedule::kRoundRobin, 3},
          Case{"work-stealing", Schedule::kWorkStealing, 3},
          Case{"sync", Schedule::kRoundRobin, 0}}) {
        auto options = wsOptions(4, c.workers);
        options.schedule = c.schedule;
        options.shuffle = true;
        options.cache_policy = CachePolicy::kMemory;
        options.cache_budget_bytes = 64 << 20;
        EXPECT_EQ(threeEpochs(makeDataset(), options), expected)
            << "schedule=" << c.name;
    }
}

} // namespace
} // namespace lotus::dataflow
