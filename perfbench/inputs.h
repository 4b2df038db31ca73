/**
 * @file
 * Seeded inputs for the benchmark and the batch digest its output
 * check compares.
 */

#ifndef LOTUS_PERFBENCH_INPUTS_H
#define LOTUS_PERFBENCH_INPUTS_H

#include <cstdint>
#include <memory>

#include "pipeline/sample.h"
#include "pipeline/store.h"

namespace lotus::perfbench {

/** Shape of one synthetic LJPG image set. */
struct ImageSetSpec
{
    std::int64_t count = 64;
    /** Lognormal width draw: median and sigma (heavy right tail). */
    double median_width = 320.0;
    double width_sigma = 0.35;
    double aspect_min = 0.6;
    double aspect_max = 1.5;
    /** image::SynthOptions ranges. */
    double detail_min = 0.15;
    double detail_max = 0.9;
    int blobs_min = 1;
    int blobs_max = 6;
    int quality = 80;
};

/**
 * Synthesize and encode @p spec.count images on @p threads threads.
 *
 * Image geometry and detail come from a stream fixed per spec, so
 * every seed sees the same size distribution (run-to-run spread then
 * measures the program, not a lucky draw of small images). @p seed
 * permutes which slot gets which geometry and draws every pixel.
 */
std::shared_ptr<pipeline::InMemoryStore>
generateImages(const ImageSetSpec &spec, std::uint64_t seed, int threads);

/** 64-bit digest of a batch's dtype, shape, tensor bytes and labels. */
std::uint64_t batchDigest(const pipeline::Batch &batch);

} // namespace lotus::perfbench

#endif // LOTUS_PERFBENCH_INPUTS_H
