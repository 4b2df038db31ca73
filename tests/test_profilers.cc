/**
 * @file
 * Tests for the profiler models: capabilities (Table IV), sampling
 * behaviour (missed short ops), storage accounting, and interference
 * hooks.
 */

#include <gtest/gtest.h>

#include <thread>

#include "hwcount/registry.h"
#include "profilers/presets.h"
#include "trace/span.h"

namespace lotus::profilers {
namespace {

class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        hwcount::KernelRegistry::instance().reset();
        hwcount::KernelRegistry::instance().setTimelineEnabled(false);
    }

    void TearDown() override { SetUp(); }
};

/** Spin inside a named op so samplers can observe it. */
void
runOp(const std::string &name, TimeNs duration,
      trace::TraceLogger *logger = nullptr)
{
    auto &registry = hwcount::KernelRegistry::instance();
    trace::Span span({.logger = logger,
                      .op_name = name,
                      .op = registry.registerOp(name)});
    const auto &clock = SteadyClock::instance();
    const TimeNs deadline = clock.now() + duration;
    while (clock.now() < deadline) {
    }
}

TEST_F(ProfilerTest, CapabilitiesMatchTableFour)
{
    const auto lotus = makeLotus();
    const auto scalene = makeScaleneLike();
    const auto pyspy = makePySpyLike();
    const auto austin = makeAustinLike();
    const auto torch = makeTorchProfilerLike();

    EXPECT_TRUE(lotus->capabilities().epoch_ops);
    EXPECT_TRUE(lotus->capabilities().per_batch);
    EXPECT_TRUE(lotus->capabilities().async_flow);
    EXPECT_TRUE(lotus->capabilities().wait_time);
    EXPECT_TRUE(lotus->capabilities().delay_time);

    EXPECT_TRUE(pyspy->capabilities().epoch_ops);
    EXPECT_FALSE(pyspy->capabilities().per_batch);
    EXPECT_FALSE(pyspy->capabilities().wait_time);
    EXPECT_FALSE(austin->capabilities().async_flow);
    EXPECT_FALSE(scalene->capabilities().delay_time);

    EXPECT_TRUE(torch->capabilities().wait_time);
    EXPECT_FALSE(torch->capabilities().epoch_ops);
    EXPECT_FALSE(torch->capabilities().per_batch);
}

TEST_F(ProfilerTest, LotusKeepsRecordsAndReportsPerOpSeconds)
{
    trace::TraceLogger logger;
    auto lotus = makeLotus();
    lotus->attach(logger);
    lotus->start();
    runOp("OpA", 2 * kMillisecond, &logger);
    runOp("OpA", 2 * kMillisecond, &logger);
    lotus->stop();
    EXPECT_GT(lotus->logStorageBytes(), 0u);
    const auto seconds = lotus->perOpEpochSeconds();
    ASSERT_EQ(seconds.count("OpA"), 1u);
    // The lower bound is tight (the op spins for its full duration);
    // the upper bound is loose because preemption under parallel test
    // load inflates wall-clock spans well past the nominal 4 ms.
    EXPECT_GE(seconds.at("OpA"), 0.0035);
    EXPECT_LT(seconds.at("OpA"), 0.1);
}

TEST_F(ProfilerTest, SamplingProfilerSeesLongOpsMissesShortOnes)
{
    trace::TraceLogger logger;
    SamplingProfilerConfig config;
    config.name = "test-sampler";
    config.interval = 2 * kMillisecond;
    auto profiler = std::make_unique<SamplingProfiler>(config);
    profiler->attach(logger);
    profiler->start();
    // Long op: 60 ms -> ~30 samples. Short ops: 50 µs each, far
    // below the interval, so per-op time is wildly unreliable.
    runOp("LongOp", 60 * kMillisecond);
    for (int i = 0; i < 10; ++i)
        runOp("ShortOp", 50 * kMicrosecond);
    profiler->stop();

    const auto seconds = profiler->perOpEpochSeconds();
    ASSERT_EQ(seconds.count("LongOp"), 1u);
    EXPECT_NEAR(seconds.at("LongOp"), 0.060, 0.025);
    const double short_reported =
        seconds.count("ShortOp") ? seconds.at("ShortOp") : 0.0;
    // True total is 0.5 ms; the sampler either misses it entirely or
    // quantizes to whole sampling intervals.
    EXPECT_TRUE(short_reported == 0.0 ||
                short_reported >= toSec(config.interval));
}

TEST_F(ProfilerTest, SamplerStorageGrowsWithRate)
{
    trace::TraceLogger logger;
    auto coarse = makePySpyLike();   // 10 ms
    auto fine = makeAustinLike();    // 100 µs
    coarse->attach(logger);
    fine->attach(logger);
    coarse->start();
    fine->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    coarse->stop();
    fine->stop();
    EXPECT_GT(fine->totalSamples(), coarse->totalSamples() * 10);
    EXPECT_GT(fine->logStorageBytes(), coarse->logStorageBytes() * 10);
}

TEST_F(ProfilerTest, ScaleneLikeChargesPerOpCost)
{
    trace::TraceLogger logger;
    auto scalene = makeScaleneLike();
    scalene->attach(logger);
    const auto &clock = SteadyClock::instance();
    const TimeNs before = clock.now();
    runOp("Cheap", 10 * kMicrosecond, &logger);
    const TimeNs elapsed = clock.now() - before;
    // The in-process tracer's per-op cost (350 µs) dominates.
    EXPECT_GE(elapsed, 300 * kMicrosecond);
    // And its aggregated profile stays small.
    EXPECT_LT(scalene->logStorageBytes(), 10000u);
}

TEST_F(ProfilerTest, ScaleneAggregateStorageSmall)
{
    trace::TraceLogger logger;
    auto scalene = makeScaleneLike();
    scalene->attach(logger);
    scalene->start();
    runOp("OpX", 30 * kMillisecond);
    scalene->stop();
    auto austin = makeAustinLike();
    trace::TraceLogger logger2;
    austin->attach(logger2);
    austin->start();
    runOp("OpX", 30 * kMillisecond);
    austin->stop();
    EXPECT_LT(scalene->logStorageBytes(), austin->logStorageBytes());
}

TEST_F(ProfilerTest, FrameworkTracerCapturesWaitsOnly)
{
    trace::TraceLogger logger;
    auto torch = makeTorchProfilerLike();
    torch->attach(logger);
    torch->start();

    trace::TraceRecord wait;
    wait.kind = trace::RecordKind::BatchWait;
    wait.batch_id = 0;
    wait.duration = 7 * kMillisecond;
    logger.log(wait);

    trace::TraceRecord worker;
    worker.kind = trace::RecordKind::BatchPreprocessed;
    worker.batch_id = 0;
    worker.duration = 100 * kMillisecond;
    logger.log(worker);

    // Native framework events recorded while tracing.
    { hwcount::KernelScope scope(hwcount::KernelId::PinMemoryCopy); }
    torch->stop();

    const auto waits = torch->waitTimesMs();
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_DOUBLE_EQ(waits[0], 7.0);
    EXPECT_TRUE(torch->perOpEpochSeconds().empty());
    EXPECT_GT(torch->logStorageBytes(), 0u);
    EXPECT_GT(torch->bufferedBytes(), 0u);
    // Baseline profilers do not keep LotusTrace records.
    EXPECT_EQ(logger.recordCount(), 0u);
}

TEST_F(ProfilerTest, FrameworkTracerRestoresTimelineState)
{
    auto &registry = hwcount::KernelRegistry::instance();
    trace::TraceLogger logger;
    auto torch = makeTorchProfilerLike();
    torch->attach(logger);
    EXPECT_FALSE(registry.timelineEnabled());
    torch->start();
    EXPECT_TRUE(registry.timelineEnabled());
    torch->stop();
    EXPECT_FALSE(registry.timelineEnabled());
}

} // namespace
} // namespace lotus::profilers
