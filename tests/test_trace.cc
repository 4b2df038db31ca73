/**
 * @file
 * Unit tests for trace records, the logger sink, and Chrome trace
 * output.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/files.h"
#include "dataflow/data_loader.h"
#include "pipeline/image_folder.h"
#include "pipeline/traced_store.h"
#include "trace/chrome_trace.h"
#include "trace/logger.h"
#include "trace/record.h"
#include "trace/span.h"
#include "workloads/pipelines.h"
#include "workloads/synthetic.h"

namespace lotus::trace {
namespace {

TEST(Record, LineRoundTrip)
{
    TraceRecord record;
    record.kind = RecordKind::TransformOp;
    record.batch_id = 42;
    record.pid = 7;
    record.start = 123456789;
    record.duration = 1000;
    record.op_name = "RandomResizedCrop";
    record.sample_index = 99;
    const TraceRecord back = TraceRecord::fromLine(record.toLine()).take();
    EXPECT_EQ(back.kind, record.kind);
    EXPECT_EQ(back.batch_id, record.batch_id);
    EXPECT_EQ(back.pid, record.pid);
    EXPECT_EQ(back.start, record.start);
    EXPECT_EQ(back.duration, record.duration);
    EXPECT_EQ(back.op_name, record.op_name);
    EXPECT_EQ(back.sample_index, record.sample_index);
}

TEST(Record, TextRoundTripMany)
{
    std::vector<TraceRecord> records;
    for (int i = 0; i < 10; ++i) {
        TraceRecord record;
        record.kind = i % 2 == 0 ? RecordKind::BatchWait
                                 : RecordKind::BatchPreprocessed;
        record.batch_id = i;
        record.start = i * 100;
        record.duration = i;
        records.push_back(record);
    }
    const auto back = recordsFromText(recordsToText(records)).take();
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(back[i].kind, records[i].kind);
        EXPECT_EQ(back[i].batch_id, records[i].batch_id);
    }
}

TEST(Record, KindNamesMatchPaperSpans)
{
    EXPECT_STREQ(recordKindName(RecordKind::BatchPreprocessed),
                 "SBatchPreprocessed");
    EXPECT_STREQ(recordKindName(RecordKind::BatchWait), "SBatchWait");
    EXPECT_STREQ(recordKindName(RecordKind::BatchConsumed),
                 "SBatchConsumed");
}

TEST(Record, IoEventLineRoundTrip)
{
    EXPECT_STREQ(recordKindName(RecordKind::IoEvent), "SIo");
    TraceRecord record;
    record.kind = RecordKind::IoEvent;
    record.batch_id = 3;
    record.pid = 12;
    record.start = 987654321;
    record.duration = 4200;
    record.op_name = "io:2048";
    record.sample_index = 17;
    const TraceRecord back = TraceRecord::fromLine(record.toLine()).take();
    EXPECT_EQ(back.kind, RecordKind::IoEvent);
    EXPECT_EQ(back.batch_id, record.batch_id);
    EXPECT_EQ(back.pid, record.pid);
    EXPECT_EQ(back.start, record.start);
    EXPECT_EQ(back.duration, record.duration);
    EXPECT_EQ(back.op_name, "io:2048");
    EXPECT_EQ(back.sample_index, record.sample_index);
}

TEST(Record, MalformedLineIsAnError)
{
    const Result<TraceRecord> parsed = TraceRecord::fromLine("bogus");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
}

TEST(Record, TruncatedLineIsAnError)
{
    const Result<TraceRecord> parsed =
        TraceRecord::fromLine("STransformOp,3,7,100");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
}

TEST(Record, UnknownKindIsAnError)
{
    const Result<TraceRecord> parsed =
        TraceRecord::fromLine("SBogus,3,7,100,20,Op,1");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
    EXPECT_NE(parsed.error().message.find("SBogus"), std::string::npos);
}

TEST(Record, NonNumericFieldIsAnError)
{
    for (const char *line :
         {"STransformOp,x3,7,100,20,Op,1", "STransformOp,3,-7,100,20,Op,1",
          "STransformOp,3,7,1e2,20,Op,1", "STransformOp,3,7,100,,Op,1",
          "STransformOp,3,7,100,20,Op,1z",
          "STransformOp,3,7,100,99999999999999999999,Op,1"}) {
        const Result<TraceRecord> parsed = TraceRecord::fromLine(line);
        ASSERT_FALSE(parsed.ok()) << line;
        EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument) << line;
    }
}

TEST(Record, BadLineFailsTheWholeText)
{
    const std::string text = TraceRecord{}.toLine() + "\nSBogus,1,1,1,1\n";
    const auto parsed = recordsFromText(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
    EXPECT_NE(parsed.error().message.find("SBogus"), std::string::npos);
}

TEST(Record, MissingFileIsAnError)
{
    EXPECT_FALSE(TraceLogger::readFrom("/nonexistent/x.lotustrace").ok());
}

TEST(Logger, CollectsAndSorts)
{
    VirtualClock clock(0);
    TraceLogger logger(&clock);
    TraceRecord late;
    late.start = 100;
    TraceRecord early;
    early.start = 10;
    logger.log(late);
    logger.log(early);
    const auto records = logger.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].start, 10);
    EXPECT_EQ(logger.recordCount(), 2u);
    logger.reset();
    EXPECT_EQ(logger.recordCount(), 0u);
}

TEST(Logger, ThreadedLoggingLosesNothing)
{
    TraceLogger logger;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&logger, t] {
            for (int i = 0; i < 500; ++i) {
                TraceRecord record;
                record.batch_id = t * 1000 + i;
                record.start = i;
                logger.log(record);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(logger.recordCount(), 2000u);
}

TEST(Logger, FileRoundTrip)
{
    TempDir dir("lotus-log");
    TraceLogger logger;
    TraceRecord record;
    record.kind = RecordKind::BatchPreprocessed;
    record.batch_id = 3;
    record.duration = 500;
    logger.log(record);
    const std::string path = dir.file("trace.log");
    const auto bytes = logger.writeTo(path);
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(fileSize(path), bytes);
    const auto back = TraceLogger::readFrom(path).take();
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].batch_id, 3);
}

TEST(Logger, ObserverSeesRecords)
{
    TraceLogger logger;
    int observed = 0;
    logger.setObserver([&](const TraceRecord &) { ++observed; });
    logger.log(TraceRecord{});
    logger.log(TraceRecord{});
    EXPECT_EQ(observed, 2);
    EXPECT_EQ(logger.recordCount(), 2u);
}

TEST(Logger, SetObserverAfterLoggingStartedIsFatal)
{
    TraceLogger logger;
    logger.log(TraceRecord{});
    EXPECT_EXIT(logger.setObserver([](const TraceRecord &) {}),
                ::testing::ExitedWithCode(1),
                "setObserver called after logging started");
}

TEST(Logger, ResetReArmsObserverInstallation)
{
    TraceLogger logger;
    logger.log(TraceRecord{});
    logger.reset();
    int observed = 0;
    logger.setObserver([&](const TraceRecord &) { ++observed; });
    logger.log(TraceRecord{});
    EXPECT_EQ(observed, 1);
}

TEST(Logger, DiscardModeKeepsNothingButObserves)
{
    TraceLogger logger;
    int observed = 0;
    logger.setObserver([&](const TraceRecord &) { ++observed; });
    logger.setStoreRecords(false);
    logger.log(TraceRecord{});
    EXPECT_EQ(observed, 1);
    EXPECT_EQ(logger.recordCount(), 0u);
}

TEST(Span, MeasuresDurationOnLoggerClock)
{
    VirtualClock clock(1000);
    TraceLogger logger(&clock);
    {
        Span span({.logger = &logger,
                   .kind = RecordKind::BatchWait,
                   .batch_id = 5});
        clock.advance(250);
    }
    const auto records = logger.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].start, 1000);
    EXPECT_EQ(records[0].duration, 250);
    EXPECT_EQ(records[0].batch_id, 5);
}

TEST(Span, WithoutSinksIsNoop)
{
    Span span({.kind = RecordKind::BatchWait});
    EXPECT_EQ(span.start(), 0);
    EXPECT_EQ(span.finish(), 0); // reads no clock, must not crash
}

TEST(Span, OneDurationFeedsTraceAndHistogram)
{
    metrics::ScopedEnable enable;
    metrics::MetricsRegistry registry;
    metrics::Histogram *hist = registry.histogram("span_test_ns");
    VirtualClock clock(40);
    TraceLogger logger(&clock);
    Span span({.logger = &logger,
               .op_name = "Op",
               .histogram = hist});
    clock.advance(7);
    EXPECT_EQ(span.finish(), 7);
    EXPECT_EQ(span.finish(), 0); // already ended: no second sample
    const auto records = logger.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].start, 40);
    EXPECT_EQ(records[0].duration, 7);
    EXPECT_EQ(records[0].op_name, "Op");
    EXPECT_EQ(hist->count(), 1u);
    EXPECT_EQ(hist->sum(), 7u);
}

TEST(Span, DisabledMetricsLeaveTheHistogramAlone)
{
    metrics::ScopedEnable disable(false);
    metrics::MetricsRegistry registry;
    metrics::Histogram *hist = registry.histogram("span_test_ns");
    Span span({.histogram = hist});
    EXPECT_EQ(span.start(), 0);
    span.finish();
    EXPECT_EQ(hist->count(), 0u);
}

TEST(Span, DiscardAndSentinelSkipTheHistogram)
{
    metrics::ScopedEnable enable;
    metrics::MetricsRegistry registry;
    metrics::Histogram *hist = registry.histogram("span_test_ns");
    VirtualClock clock(0);
    TraceLogger logger(&clock);
    {
        Span discarded({.logger = &logger, .histogram = hist});
        clock.advance(3);
        discarded.discard();
    }
    {
        Span sentinel({.logger = &logger,
                       .kind = RecordKind::BatchWait,
                       .histogram = hist});
        clock.advance(3);
        sentinel.finishWith(kOutOfOrderSentinel);
    }
    const auto records = logger.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].start, 3);
    EXPECT_EQ(records[0].duration, kOutOfOrderSentinel);
    EXPECT_EQ(hist->count(), 0u);
}

TEST(Span, HoldsItsOpTagUntilItEnds)
{
    const hwcount::OpTag tag =
        hwcount::KernelRegistry::instance().registerOp("SpanTagTest");
    const hwcount::OpTag outer = hwcount::currentOpTag();
    {
        Span span({.op = tag});
        EXPECT_EQ(hwcount::currentOpTag(), tag);
        span.finish();
        EXPECT_EQ(hwcount::currentOpTag(), outer);
    }
    EXPECT_EQ(hwcount::currentOpTag(), outer);
}

TEST(Span, TimedSpanMeasuresWithoutSinks)
{
    Span span({.timed = true});
    EXPECT_GT(span.start(), 0);
    EXPECT_GE(span.stop(), 0);
    EXPECT_EQ(span.finish(), 0); // stop() ended it
}

/**
 * One epoch under a logger with metrics on, in every engine: each
 * trace span and its histogram sample come from the same clock reads,
 * so the trace and the histograms sum to the same nanoseconds.
 */
void
expectTraceAndHistogramsAgree(int num_workers, dataflow::Schedule schedule)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();
    workloads::ImageNetConfig config;
    config.num_images = 24;
    config.median_width = 48.0;
    const auto work = workloads::makeImageClassification(
        workloads::buildImageNetStore(config), /*crop_size=*/32);
    TraceLogger logger;
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = num_workers;
    options.schedule = schedule;
    options.logger = &logger;
    dataflow::DataLoader loader(work.dataset, work.collate, options);
    int batches = 0;
    while (loader.next().has_value())
        ++batches;
    ASSERT_EQ(batches, 6);

    struct Total
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
    };
    std::map<std::string, Total> ops;
    Total preprocessed, tasks, waits;
    for (const auto &record : logger.records()) {
        Total *total = nullptr;
        if (record.kind == RecordKind::TransformOp &&
            record.op_name !=
                pipeline::ImageFolderDataset::kLoaderOpName)
            total = &ops[record.op_name];
        else if (record.kind == RecordKind::BatchPreprocessed)
            total = &preprocessed;
        else if (record.kind == RecordKind::TaskSpan)
            total = &tasks;
        else if (record.kind == RecordKind::BatchWait &&
                 record.duration != kOutOfOrderSentinel)
            total = &waits;
        if (total != nullptr) {
            ASSERT_GE(record.duration, 0);
            ++total->count;
            total->sum += static_cast<std::uint64_t>(record.duration);
        }
    }
    const auto expectSame = [](const Total &trace, const metrics::Histogram &hist,
                               const std::string &what) {
        EXPECT_EQ(trace.count, hist.count()) << what;
        EXPECT_EQ(trace.sum, hist.sum()) << what;
    };
    // Every op but the Loader has a lotus_pipeline_op_ns histogram.
    ASSERT_EQ(ops.size(), 5u);
    for (const auto &[name, total] : ops)
        expectSame(total,
                   *registry.histogram(
                       metrics::labeled("lotus_pipeline_op_ns", "op", name)),
                   name);
    expectSame(waits, *registry.histogram("lotus_loader_wait_ns"), "wait");
    EXPECT_EQ(waits.sum,
              registry.counter("lotus_loader_wait_ns_total")->value());
    const auto fetchTotal = [&](const std::vector<std::string> &workers) {
        Total total;
        for (const auto &worker : workers) {
            const metrics::Histogram *hist = registry.histogram(
                metrics::labeled("lotus_loader_fetch_ns", "worker", worker));
            total.count += hist->count();
            total.sum += hist->sum();
        }
        return total;
    };
    const std::vector<std::string> workers =
        num_workers == 0 ? std::vector<std::string>{"main"}
                         : std::vector<std::string>{"0", "1"};
    const Total fetch = fetchTotal(workers);
    if (schedule == dataflow::Schedule::kWorkStealing && num_workers > 0) {
        expectSame(preprocessed,
                   *registry.histogram("lotus_loader_batch_span_ns"),
                   "batch span");
        EXPECT_EQ(tasks.count, fetch.count);
        EXPECT_EQ(tasks.sum, fetch.sum);
        EXPECT_EQ(tasks.count, 24u);
    } else {
        EXPECT_EQ(preprocessed.count, fetch.count);
        EXPECT_EQ(preprocessed.sum, fetch.sum);
        EXPECT_EQ(tasks.count, 0u);
    }
    EXPECT_EQ(preprocessed.count, 6u);
}

TEST(Span, TraceSpansSumToTheirHistogramsSynchronous)
{
    expectTraceAndHistogramsAgree(0, dataflow::Schedule::kRoundRobin);
}

TEST(Span, TraceSpansSumToTheirHistogramsRoundRobin)
{
    expectTraceAndHistogramsAgree(2, dataflow::Schedule::kRoundRobin);
}

TEST(Span, TraceSpansSumToTheirHistogramsWorkStealing)
{
    expectTraceAndHistogramsAgree(2, dataflow::Schedule::kWorkStealing);
}

TEST(Timeline, EveryRecordLiesOnTheLoggerClock)
{
    // Small photos plus one corrupt blob behind a TracedStore, through
    // a memory cache for two epochs under kSkip: the run logs spans
    // (ops, [T1], [T2]) and instants (IoEvent, CacheEvent, ErrorEvent,
    // epoch markers). The virtual clock never advances, so any record
    // stamped from another clock stands out.
    workloads::ImageNetConfig config;
    config.num_images = 11;
    config.median_width = 48.0;
    auto blobs = workloads::buildImageNetStore(config);
    blobs->add("not an LJPG image");
    const auto work = workloads::makeImageClassification(
        std::make_shared<pipeline::TracedStore>(blobs), /*crop_size=*/32);
    constexpr TimeNs kStart = 5 * kSecond;
    VirtualClock clock(kStart);
    TraceLogger logger(&clock);
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = dataflow::ErrorPolicy::kSkip;
    options.cache_policy = dataflow::CachePolicy::kMemory;
    options.cache_budget_bytes = 64 << 20;
    options.logger = &logger;
    dataflow::DataLoader loader(work.dataset, work.collate, options);
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        while (loader.next().has_value()) {
        }
    }

    std::set<RecordKind> kinds;
    for (const auto &record : logger.records()) {
        kinds.insert(record.kind);
        EXPECT_EQ(record.start, kStart)
            << recordKindName(record.kind) << " " << record.op_name;
    }
    for (const RecordKind kind :
         {RecordKind::IoEvent, RecordKind::CacheEvent,
          RecordKind::ErrorEvent, RecordKind::TransformOp,
          RecordKind::BatchPreprocessed, RecordKind::BatchWait})
        EXPECT_TRUE(kinds.count(kind)) << recordKindName(kind);
}

TEST(ChromeTrace, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ChromeTrace, CompleteEventJson)
{
    ChromeEvent event;
    event.name = "SBatchPreprocessed_1";
    event.phase = 'X';
    event.ts_us = 1.5;
    event.dur_us = 2.0;
    event.pid = 10;
    event.tid = 10;
    const std::string json = event.toJson();
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":10"), std::string::npos);
}

TEST(ChromeTrace, BuilderProducesValidSkeleton)
{
    ChromeTraceBuilder builder;
    builder.setProcessName(1, "main process");
    builder.addComplete("span", "cat", 1000, 500, 1, 1);
    builder.addFlow("flow", 1500, 2, 2, 2000, 1, 1);
    builder.addInstant("marker", 2500, 1, 1);
    const std::string json = builder.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, SyntheticIdsAreNegativeAndUnique)
{
    ChromeTraceBuilder builder;
    builder.addComplete("a", "", 0, 1, 1, 1);
    builder.addComplete("b", "", 0, 1, 1, 1);
    builder.addFlow("f", 0, 1, 1, 1, 1, 1);
    std::set<std::int64_t> ids;
    for (const auto &event : builder.events()) {
        if (event.has_id) {
            EXPECT_LT(event.id, 0);
            ids.insert(event.id);
        }
    }
    // Two spans + one flow id (shared by its s/f pair).
    EXPECT_EQ(ids.size(), 3u);
}

TEST(ChromeTrace, WriteToFile)
{
    TempDir dir("lotus-chrome");
    ChromeTraceBuilder builder;
    builder.addComplete("x", "", 0, 1, 1, 1);
    const std::string path = dir.file("trace.json");
    const auto bytes = builder.writeTo(path);
    EXPECT_EQ(fileSize(path), bytes);
}

} // namespace
} // namespace lotus::trace
