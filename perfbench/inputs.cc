#include "perfbench/inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "image/codec/codec.h"
#include "image/synth.h"

namespace lotus::perfbench {

namespace {

struct Geometry
{
    int width = 0;
    int height = 0;
    double detail = 0.0;
    int blobs = 0;
};

int
evenClamp(double value, int lo, int hi)
{
    const int v = std::clamp(static_cast<int>(std::lround(value)), lo, hi);
    return v - (v % 2);
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

std::shared_ptr<pipeline::InMemoryStore>
generateImages(const ImageSetSpec &spec, std::uint64_t seed, int threads)
{
    LOTUS_ASSERT(spec.count > 0 && threads > 0);
    // Fixed geometry stream: the size distribution is a property of
    // the spec, not of the seed.
    Rng shape_rng(0x5EED0F1A6E5ull);
    std::vector<Geometry> geometry(static_cast<std::size_t>(spec.count));
    for (Geometry &g : geometry) {
        const double width = spec.median_width *
                             std::exp(spec.width_sigma * shape_rng.normal());
        g.width = evenClamp(width, 48, 2048);
        g.height = evenClamp(
            g.width * shape_rng.uniform(spec.aspect_min, spec.aspect_max),
            48, 2048);
        g.detail = shape_rng.uniform(spec.detail_min, spec.detail_max);
        g.blobs = static_cast<int>(
            shape_rng.uniformInt(spec.blobs_min, spec.blobs_max));
    }
    Rng order_rng(mix64(seed));
    for (std::size_t i = geometry.size(); i > 1; --i)
        std::swap(geometry[i - 1], geometry[order_rng.nextBelow(i)]);

    std::vector<std::string> blobs(geometry.size());
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next.fetch_add(1); i < geometry.size();
             i = next.fetch_add(1)) {
            Rng rng(mix64(seed ^ mix64(i + 1)));
            image::SynthOptions synth;
            synth.detail = geometry[i].detail;
            synth.blobs = geometry[i].blobs;
            const image::Image img = image::synthesize(
                rng, geometry[i].width, geometry[i].height, synth);
            image::codec::EncodeOptions encode;
            encode.quality = spec.quality;
            blobs[i] = image::codec::encode(img, encode);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (auto &thread : pool)
        thread.join();

    auto store = std::make_shared<pipeline::InMemoryStore>();
    for (auto &blob : blobs)
        store->add(std::move(blob));
    return store;
}

std::uint64_t
batchDigest(const pipeline::Batch &batch)
{
    // Four independent multiply-xorshift lanes over 64-bit words keep
    // the digest cheap next to a batch's production cost.
    std::uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                             0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
    constexpr std::uint64_t kMul = 0x9FB21C651E98DF25ull;
    auto absorb = [&](const std::uint8_t *data, std::size_t bytes) {
        std::size_t i = 0;
        for (; i + 32 <= bytes; i += 32) {
            for (int l = 0; l < 4; ++l) {
                std::uint64_t word = 0;
                std::memcpy(&word, data + i + 8 * l, 8);
                lane[l] = (lane[l] ^ word) * kMul;
                lane[l] ^= lane[l] >> 29;
            }
        }
        std::uint64_t tail = bytes;
        for (; i < bytes; ++i)
            tail = (tail << 8 | tail >> 56) ^ data[i];
        lane[0] = (lane[0] ^ tail) * kMul;
    };

    const std::uint64_t dtype = static_cast<std::uint64_t>(batch.data.dtype());
    absorb(reinterpret_cast<const std::uint8_t *>(&dtype), sizeof(dtype));
    const auto &shape = batch.data.shape();
    absorb(reinterpret_cast<const std::uint8_t *>(shape.data()),
           shape.size() * sizeof(shape[0]));
    absorb(batch.data.raw(),
           static_cast<std::size_t>(batch.data.numel()) *
               tensor::dtypeSize(batch.data.dtype()));
    absorb(reinterpret_cast<const std::uint8_t *>(batch.labels.data()),
           batch.labels.size() * sizeof(batch.labels[0]));

    std::uint64_t h = 0;
    for (const std::uint64_t l : lane)
        h = mix64(h ^ l);
    return h;
}

} // namespace lotus::perfbench
