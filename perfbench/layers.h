/**
 * @file
 * Per-layer metrics of a traced run: span aggregates plus deltas of
 * the library's own public stats accessors.
 */

#ifndef LOTUS_PERFBENCH_LAYERS_H
#define LOTUS_PERFBENCH_LAYERS_H

#include <optional>
#include <string>
#include <vector>

#include "cache/sample_cache.h"
#include "hwcount/registry.h"
#include "memory/buffer_pool.h"
#include "perfbench/spans.h"
#include "service/preproc_server.h"

namespace lotus::perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything the per-layer report reads, taken over one traced
 *  timed phase. */
struct LayerInput
{
    std::vector<ThreadSpans> threads;
    std::vector<std::string> op_names;
    hwcount::RegistrySnapshot kernels_before;
    hwcount::RegistrySnapshot kernels_after;
    memory::BufferPool::Stats pool_delta;
    std::optional<cache::SampleCache::Stats> cache_before;
    std::optional<cache::SampleCache::Stats> cache_after;
    std::uint64_t round_trips = 0;
    std::uint64_t coalesced_reads = 0;
    std::optional<service::ServerStats> server_before;
    std::optional<service::ServerStats> server_after;
    /** samples/s of the untraced and the traced timed phase. */
    double untraced_rate = 0.0;
    double traced_rate = 0.0;
};

/** Nearest-rank percentile @p q in [0, 1] of @p values (0 if empty). */
double percentile(std::vector<double> values, double q);

/** The highest of p99/p90/p50 with at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    const char *label = "p50";
    std::size_t count = 0;
    std::size_t beyond = 0;
};
Tail tailPercentile(std::vector<double> values);

/**
 * The benchmark's per-layer metrics, in a fixed order with fixed
 * names; layers a workload does not exercise report 0.
 */
std::vector<Metric> layerMetrics(const LayerInput &input);

} // namespace lotus::perfbench

#endif // LOTUS_PERFBENCH_LAYERS_H
