/**
 * @file
 * Tests for LotusMap: isolation profiling of real operations,
 * mapping construction/filtering, time-weighted metric splitting,
 * and ground-truth evaluation.
 */

#include <gtest/gtest.h>

#include "core/lotusmap/evaluate.h"
#include "core/lotusmap/isolation.h"
#include "core/lotusmap/mapper.h"
#include "core/lotusmap/splitter.h"
#include "hwcount/collection.h"
#include "hwcount/cost_model.h"
#include "image/codec/codec.h"
#include "image/resample.h"
#include "image/synth.h"
#include "trace/span.h"

namespace lotus::core::lotusmap {
namespace {

using hwcount::KernelId;
using hwcount::KernelRegistry;

class LotusMapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        KernelRegistry::instance().reset();
        hwcount::collection::reset();
        KernelRegistry::instance().setGroundTruthEnabled(false);
    }

    void TearDown() override { SetUp(); }
};

IsolationConfig
fastConfig()
{
    IsolationConfig config;
    config.runs = 6;
    config.warmup_runs = 1;
    config.sleep_gap = 200 * kMicrosecond;
    config.sampling.interval = 30 * kMicrosecond; // dense: fast tests
    config.sampling.seed = 5;
    return config;
}

TEST_F(LotusMapTest, IsolationCapturesDecodeKernels)
{
    Rng rng(1);
    const image::Image img = image::synthesize(rng, 96, 96);
    const std::string blob = image::codec::encode(img);

    IsolationRunner runner(fastConfig());
    const auto profile = runner.profileOp(
        "Loader", [&] { image::codec::decode(blob); });
    EXPECT_EQ(profile.op, "Loader");
    EXPECT_EQ(profile.runs, 6);
    // The heavyweight decode kernels must be observed.
    EXPECT_GT(profile.samples.count(KernelId::DecodeMcu), 0u);
    EXPECT_GT(profile.samples.count(KernelId::IdctBlock), 0u);
    // And no resize kernels (this op never resamples).
    EXPECT_EQ(profile.samples.count(KernelId::ResampleHorizontal), 0u);
}

TEST_F(LotusMapTest, IsolationCapturesResampleKernels)
{
    Rng rng(2);
    const image::Image img = image::synthesize(rng, 384, 384);
    // The SIMD-dispatched resample passes finish in a few µs each, so
    // sample densely enough to observe both passes at the fastest
    // tier (the point here is attribution, not duration).
    IsolationConfig config = fastConfig();
    config.sampling.interval = 5 * kMicrosecond;
    IsolationRunner runner(config);
    const auto profile = runner.profileOp(
        "RandomResizedCrop", [&] { image::resize(img, 64, 64); });
    EXPECT_GT(profile.samples.count(KernelId::ResampleHorizontal), 0u);
    EXPECT_GT(profile.samples.count(KernelId::ResampleVertical), 0u);
    EXPECT_EQ(profile.samples.count(KernelId::DecodeMcu), 0u);
}

TEST_F(LotusMapTest, MapperFiltersByConfig)
{
    IsolationProfile profile;
    profile.op = "Op";
    profile.runs = 10;
    profile.samples[KernelId::DecodeMcu] = 100;
    profile.runs_seen[KernelId::DecodeMcu] = 10;
    profile.samples[KernelId::IdctBlock] = 1; // rare
    profile.runs_seen[KernelId::IdctBlock] = 1;
    profile.samples[KernelId::AdamStep] = 50; // excluded
    profile.runs_seen[KernelId::AdamStep] = 10;

    MappingConfig config;
    config.min_samples = 2;
    config.min_run_fraction = 0.5;
    config.exclude = {KernelId::AdamStep};
    LotusMapper mapper(config);
    mapper.addProfile(profile);

    const auto &mapping = mapper.mappings().at(0);
    EXPECT_TRUE(mapping.contains(KernelId::DecodeMcu));
    EXPECT_FALSE(mapping.contains(KernelId::IdctBlock)); // too rare
    EXPECT_FALSE(mapping.contains(KernelId::AdamStep));  // excluded
}

TEST_F(LotusMapTest, MapperUnionKeepsInconsistentKernelsByDefault)
{
    IsolationProfile profile;
    profile.op = "Op";
    profile.runs = 20;
    profile.samples[KernelId::MemcpyBulk] = 1; // seen once in 20 runs
    profile.runs_seen[KernelId::MemcpyBulk] = 1;
    LotusMapper mapper; // defaults: min_samples = 1, no run fraction
    mapper.addProfile(profile);
    EXPECT_TRUE(mapper.mappings().at(0).contains(KernelId::MemcpyBulk));
}

TEST_F(LotusMapTest, OpsForKernelAndSharedFunctions)
{
    LotusMapper mapper;
    OpMapping loader;
    loader.op = "Loader";
    loader.kernels[KernelId::MemcpyBulk] = 10;
    loader.kernels[KernelId::DecodeMcu] = 90;
    OpMapping crop;
    crop.op = "RandomResizedCrop";
    crop.kernels[KernelId::MemcpyBulk] = 5;
    crop.kernels[KernelId::ResampleHorizontal] = 40;
    mapper.addMapping(loader);
    mapper.addMapping(crop);

    const auto shared = mapper.opsForKernel(KernelId::MemcpyBulk);
    ASSERT_EQ(shared.size(), 2u);
    EXPECT_EQ(shared[0], "Loader");
    EXPECT_EQ(mapper.opsForKernel(KernelId::DecodeMcu).size(), 1u);
    EXPECT_TRUE(mapper.opsForKernel(KernelId::AdamStep).empty());
}

TEST_F(LotusMapTest, DuplicateOpMappingPanics)
{
    LotusMapper mapper;
    OpMapping mapping;
    mapping.op = "X";
    mapper.addMapping(mapping);
    EXPECT_DEATH(mapper.addMapping(mapping), "duplicate mapping");
}

TEST_F(LotusMapTest, RenderTableAndJson)
{
    LotusMapper mapper;
    OpMapping loader;
    loader.op = "Loader";
    loader.kernels[KernelId::DecodeMcu] = 90;
    loader.kernels[KernelId::YccToRgb] = 30;
    mapper.addMapping(loader);
    const std::string table = mapper.renderTable();
    EXPECT_NE(table.find("decode_mcu"), std::string::npos);
    EXPECT_NE(table.find("liblotusjpeg.so.9"), std::string::npos);
    const std::string json = mapper.toJson();
    EXPECT_NE(json.find("\"Loader\":["), std::string::npos);
    EXPECT_NE(json.find("ycc_rgb_convert"), std::string::npos);
}

TEST_F(LotusMapTest, JsonRoundTripRestoresMapping)
{
    LotusMapper original;
    OpMapping loader;
    loader.op = "Loader";
    loader.kernels[KernelId::DecodeMcu] = 90;
    loader.kernels[KernelId::YccToRgb] = 30;
    OpMapping crop;
    crop.op = "RandomResizedCrop";
    crop.kernels[KernelId::ResampleHorizontal] = 12;
    original.addMapping(loader);
    original.addMapping(crop);

    const LotusMapper restored = LotusMapper::fromJson(original.toJson());
    ASSERT_EQ(restored.mappings().size(), 2u);
    EXPECT_TRUE(restored.mappings()[0].contains(KernelId::DecodeMcu));
    EXPECT_TRUE(restored.mappings()[0].contains(KernelId::YccToRgb));
    EXPECT_TRUE(
        restored.mappings()[1].contains(KernelId::ResampleHorizontal));
    EXPECT_EQ(restored.opsForKernel(KernelId::DecodeMcu),
              (std::vector<std::string>{"Loader"}));
}

TEST_F(LotusMapTest, FromJsonSkipsUnknownFunctions)
{
    const std::string json =
        "{\"Loader\":[{\"function\":\"decode_mcu\",\"library\":\"x\"},"
        "{\"function\":\"some_other_machines_fn\",\"library\":\"y\"}]}";
    const LotusMapper mapper = LotusMapper::fromJson(json);
    ASSERT_EQ(mapper.mappings().size(), 1u);
    EXPECT_EQ(mapper.mappings()[0].kernels.size(), 1u);
    EXPECT_TRUE(mapper.mappings()[0].contains(KernelId::DecodeMcu));
}

TEST_F(LotusMapTest, SplitterWeightsByOpTime)
{
    // memcpy maps to both ops; Loader has 3x the elapsed time, so it
    // receives 75% of memcpy's counters (the paper's weighting rule).
    LotusMapper mapper;
    OpMapping loader;
    loader.op = "Loader";
    loader.kernels[KernelId::MemcpyBulk] = 1;
    loader.kernels[KernelId::DecodeMcu] = 1;
    OpMapping to_tensor;
    to_tensor.op = "ToTensor";
    to_tensor.kernels[KernelId::MemcpyBulk] = 1;
    mapper.addMapping(loader);
    mapper.addMapping(to_tensor);

    std::vector<hwcount::CounterSet> per_kernel(hwcount::kNumKernels);
    per_kernel[static_cast<std::size_t>(KernelId::MemcpyBulk)].cycles =
        1000;
    per_kernel[static_cast<std::size_t>(KernelId::DecodeMcu)].cycles = 500;
    per_kernel[static_cast<std::size_t>(KernelId::AdamStep)].cycles = 77;

    const auto result = splitCounters(mapper, per_kernel,
                                      {{"Loader", 3.0}, {"ToTensor", 1.0}});
    EXPECT_EQ(result.per_op.at("Loader").cycles, 750u + 500u);
    EXPECT_EQ(result.per_op.at("ToTensor").cycles, 250u);
    // Unmapped kernels are reported, not silently dropped.
    EXPECT_EQ(result.unattributed.cycles, 77u);
}

TEST_F(LotusMapTest, SplitterEvenSplitWithoutTimings)
{
    LotusMapper mapper;
    OpMapping a, b;
    a.op = "A";
    a.kernels[KernelId::MemcpyBulk] = 1;
    b.op = "B";
    b.kernels[KernelId::MemcpyBulk] = 1;
    mapper.addMapping(a);
    mapper.addMapping(b);
    std::vector<hwcount::CounterSet> per_kernel(hwcount::kNumKernels);
    per_kernel[static_cast<std::size_t>(KernelId::MemcpyBulk)].cycles =
        100;
    const auto result = splitCounters(mapper, per_kernel, {});
    EXPECT_EQ(result.per_op.at("A").cycles, 50u);
    EXPECT_EQ(result.per_op.at("B").cycles, 50u);
}

TEST_F(LotusMapTest, EvaluateAgainstGroundTruth)
{
    auto &registry = KernelRegistry::instance();
    registry.setGroundTruthEnabled(true);
    const auto tag = registry.registerOp("EvalOp");
    VirtualClock clock(0);
    registry.setClock(&clock);
    {
        trace::Span op({.op = tag});
        {
            hwcount::KernelScope scope(KernelId::DecodeMcu);
            clock.advance(1000);
        }
        {
            hwcount::KernelScope scope(KernelId::IdctBlock);
            clock.advance(100);
        }
    }
    registry.setClock(&SteadyClock::instance());
    const auto snapshot = registry.snapshot();

    LotusMapper mapper;
    OpMapping mapping;
    mapping.op = "EvalOp";
    mapping.kernels[KernelId::DecodeMcu] = 10;    // correct
    mapping.kernels[KernelId::MemsetBulk] = 3;    // spurious
    mapper.addMapping(mapping);                   // IdctBlock missed

    const auto quality = evaluateMapping(mapper, snapshot);
    ASSERT_EQ(quality.size(), 1u);
    EXPECT_DOUBLE_EQ(quality[0].precision, 0.5);
    EXPECT_DOUBLE_EQ(quality[0].recall, 0.5);
    // DecodeMcu is 1000 of 1100 ns of true self time.
    EXPECT_NEAR(quality[0].time_weighted_recall, 1000.0 / 1100.0, 1e-9);
    ASSERT_EQ(quality[0].missed.size(), 1u);
    EXPECT_EQ(quality[0].missed[0], KernelId::IdctBlock);
    ASSERT_EQ(quality[0].spurious.size(), 1u);
    EXPECT_EQ(quality[0].spurious[0], KernelId::MemsetBulk);
}

TEST_F(LotusMapTest, EndToEndMappingQualityOnRealKernels)
{
    // Isolation-profile real decode and resize ops, then check the
    // reconstruction covers the dominant kernels of each (evaluated
    // against ground truth).
    Rng rng(3);
    const image::Image img = image::synthesize(rng, 384, 384);
    const std::string blob = image::codec::encode(img);
    // Repeat the resize so its resample kernels stay well above the
    // evaluation's significance threshold even at the fastest SIMD
    // dispatch tier.
    const auto resize_work = [&] {
        for (int i = 0; i < 3; ++i)
            image::resize(img, 128, 128);
    };

    auto &registry = KernelRegistry::instance();
    const auto loader_tag = registry.registerOp("Loader");
    const auto resize_tag = registry.registerOp("Resize");

    IsolationRunner runner(fastConfig());
    LotusMapper mapper;
    mapper.addProfile(runner.profileOp("Loader", [&] {
        trace::Span op({.op = loader_tag});
        image::codec::decode(blob);
    }));
    mapper.addProfile(runner.profileOp("Resize", [&] {
        trace::Span op({.op = resize_tag});
        resize_work();
    }));

    // Ground-truth pass over the same work.
    registry.reset();
    registry.setGroundTruthEnabled(true);
    {
        trace::Span op({.op = loader_tag});
        image::codec::decode(blob);
    }
    {
        trace::Span op({.op = resize_tag});
        resize_work();
    }
    const auto snapshot = registry.snapshot();
    // Only score kernels that carry meaningful time: sampling cannot
    // and need not see sub-threshold functions (the splitting weights
    // absorb them).
    const auto quality =
        evaluateMapping(mapper, snapshot, 100 * kMicrosecond);
    for (const auto &q : quality) {
        EXPECT_GT(q.time_weighted_recall, 0.5) << q.op;
    }
}

} // namespace
} // namespace lotus::core::lotusmap
