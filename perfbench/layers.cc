#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace lotus::perfbench {

namespace {

/** (tenant, epoch, batch_id): the spans of one batch. */
using BatchKey = std::tuple<std::int32_t, std::int64_t, std::int64_t>;

BatchKey
keyOf(const Span &span)
{
    return {span.tenant, span.epoch, span.batch_id};
}

struct BatchTimes
{
    TimeNs first_start = 0;
    TimeNs t3 = 0;
    bool has_collate = false;
    TimeNs collate_end = 0;
    TimeNs collate = 0;
};

/** Kernels the per-layer report breaks decode and tensor work into,
 *  under their base (tier-independent) symbol names. */
const std::vector<std::pair<hwcount::KernelId, const char *>> &
reportedKernels()
{
    using hwcount::KernelId;
    static const std::vector<std::pair<KernelId, const char *>> kernels = {
        {KernelId::DecodeMcu, "decode_mcu"},
        {KernelId::IdctBlock, "jpeg_idct_islow"},
        {KernelId::YccToRgb, "ycc_rgb_convert"},
        {KernelId::ChromaUpsample, "sep_upsample"},
        {KernelId::ResampleHorizontal, "ImagingResampleHorizontal_8bpc"},
        {KernelId::ResampleVertical, "ImagingResampleVertical_8bpc"},
        {KernelId::NormalizeChannels, "normalize_channels"},
        {KernelId::CollateCopy, "collate_copy"},
        {KernelId::PinMemoryCopy, "pin_memory_copy"},
    };
    return kernels;
}

const std::vector<std::string> &
reportedOps()
{
    static const std::vector<std::string> ops = {
        "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize",
        "Resize"};
    return ops;
}

/** service_mixed's tenants, in connect order. */
const std::vector<std::string> &
reportedTenants()
{
    static const std::vector<std::string> tenants = {"ic0", "ic1", "od"};
    return tenants;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const service::ClientStats *
clientById(const service::ServerStats &stats, std::int64_t id)
{
    for (const auto &client : stats.clients) {
        if (client.id == id)
            return &client;
    }
    return nullptr;
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tail
tailPercentile(std::vector<double> values)
{
    Tail tail;
    tail.count = values.size();
    for (const auto &[q, label] :
         {std::pair{0.99, "p99"}, std::pair{0.90, "p90"},
          std::pair{0.50, "p50"}}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const std::size_t beyond = values.size() - std::min(rank, values.size());
        if (beyond >= 10 || q == 0.50) {
            tail.value = percentile(values, q);
            tail.label = label;
            tail.beyond = beyond;
            break;
        }
    }
    return tail;
}

std::vector<Metric>
layerMetrics(const LayerInput &input)
{
    std::vector<Metric> out;
    auto add = [&out](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                       unit});
    };

    // ---- One pass over the spans. ----
    std::int64_t store_blobs = 0, store_bytes = 0, ra_issued = 0;
    TimeNs store_busy = 0;
    std::vector<double> store_us;
    std::int64_t decode_calls = 0, decode_direct = 0;
    TimeNs decode_self = 0;
    std::vector<double> decode_us;
    std::map<std::string, std::pair<TimeNs, std::vector<double>>> ops;
    std::int64_t collate_calls = 0;
    TimeNs collate_self = 0;
    std::vector<double> collate_us;
    TimeNs worker_busy = 0, worker_gap = 0, layer_self = 0;
    std::map<BatchKey, BatchTimes> batches;
    std::vector<const Span *> nexts;

    for (const ThreadSpans &thread : input.threads) {
        bool worker = false;
        const Span *previous_top = nullptr;
        TimeNs thread_self = 0;
        for (const Span &span : thread.spans) {
            const bool top = span.depth == 0;
            switch (span.layer) {
            case Layer::kStore:
                store_blobs += span.blobs;
                store_bytes += span.bytes;
                store_busy += span.self();
                store_us.push_back(toUs(span.duration()));
                if (top)
                    ra_issued += span.blobs;
                break;
            case Layer::kSample:
                ++decode_calls;
                decode_self += span.self();
                decode_us.push_back(toUs(span.self()));
                if (span.store_children == 0)
                    ++decode_direct;
                break;
            case Layer::kSuffix:
                break;
            case Layer::kOp: {
                auto &op = ops[input.op_names.at(
                    static_cast<std::size_t>(span.op))];
                op.first += span.self();
                op.second.push_back(toUs(span.self()));
                break;
            }
            case Layer::kCollate:
                ++collate_calls;
                collate_self += span.self();
                collate_us.push_back(toUs(span.self()));
                break;
            case Layer::kNext:
                nexts.push_back(&span);
                continue;
            }
            thread_self += span.self();

            const bool work_span = span.layer == Layer::kSample ||
                                   span.layer == Layer::kSuffix ||
                                   span.layer == Layer::kCollate;
            if (!top || !work_span)
                continue;
            worker = true;
            worker_busy += span.duration();
            if (previous_top != nullptr)
                worker_gap +=
                    std::max<TimeNs>(0, span.cpu_start - previous_top->cpu_end);
            previous_top = &span;

            BatchTimes &batch = batches[keyOf(span)];
            if (span.layer == Layer::kCollate) {
                batch.has_collate = true;
                batch.collate_end = span.end;
                batch.collate = span.duration();
            } else {
                if (batch.first_start == 0 || span.start < batch.first_start)
                    batch.first_start = span.start;
                batch.t3 += span.duration();
            }
        }
        if (worker)
            layer_self += thread_self;
    }
    worker_busy += worker_gap;

    // ---- store ----
    add("store.reads", static_cast<double>(store_blobs), "count");
    add("store.bytes", static_cast<double>(store_bytes), "B");
    add("store.busy_ms", toMs(store_busy), "ms");
    add("store.read_p50_us", percentile(store_us, 0.5), "us");
    add("store.round_trips", static_cast<double>(input.round_trips), "count");
    add("store.coalesced_reads", static_cast<double>(input.coalesced_reads),
        "count");

    // ---- read-ahead: a decode that found its blob staged ran no
    // store span of its own. ----
    add("read_ahead.hit_ratio",
        ra_issued > 0 ? ratio(static_cast<double>(decode_direct),
                              static_cast<double>(decode_calls))
                      : 0.0,
        "ratio");
    add("read_ahead.issued", static_cast<double>(ra_issued), "count");

    // ---- cache ----
    cache::SampleCache::Stats cache_delta;
    if (input.cache_before && input.cache_after) {
        cache_delta.hits = input.cache_after->hits - input.cache_before->hits;
        cache_delta.misses =
            input.cache_after->misses - input.cache_before->misses;
        cache_delta.inserts =
            input.cache_after->inserts - input.cache_before->inserts;
        cache_delta.evictions =
            input.cache_after->evictions - input.cache_before->evictions;
        cache_delta.rejects =
            input.cache_after->rejects - input.cache_before->rejects;
    }
    add("cache.hit_ratio",
        ratio(static_cast<double>(cache_delta.hits),
              static_cast<double>(cache_delta.hits + cache_delta.misses)),
        "ratio");
    add("cache.inserts", static_cast<double>(cache_delta.inserts), "count");
    add("cache.evictions", static_cast<double>(cache_delta.evictions),
        "count");
    add("cache.rejects", static_cast<double>(cache_delta.rejects), "count");

    // ---- decode: the Loader span minus its store children ----
    add("decode.calls", static_cast<double>(decode_calls), "count");
    add("decode.self_ms", toMs(decode_self), "ms");
    add("decode.p50_us", percentile(decode_us, 0.5), "us");

    // ---- kernels (hwcount registry self-time deltas) ----
    for (const auto &[id, symbol] : reportedKernels()) {
        const auto i = static_cast<std::size_t>(id);
        add(std::string("kernel.") + symbol + ".self_ms",
            toMs(input.kernels_after.aggregate[i].self_time -
                 input.kernels_before.aggregate[i].self_time),
            "ms");
    }

    // ---- transforms ----
    for (const std::string &name : reportedOps()) {
        const auto it = ops.find(name);
        const bool seen = it != ops.end();
        add("op." + name + ".self_ms", seen ? toMs(it->second.first) : 0.0,
            "ms");
        add("op." + name + ".p50_us",
            seen ? percentile(it->second.second, 0.5) : 0.0, "us");
    }

    // ---- collate ----
    add("collate.calls", static_cast<double>(collate_calls), "count");
    add("collate.self_ms", toMs(collate_self), "ms");
    add("collate.p50_us", percentile(collate_us, 0.5), "us");

    // ---- pools ----
    add("pool.hit_ratio",
        ratio(static_cast<double>(input.pool_delta.hits),
              static_cast<double>(input.pool_delta.hits +
                                  input.pool_delta.misses)),
        "ratio");
    add("pool.misses", static_cast<double>(input.pool_delta.misses), "count");

    // ---- loader: busy/gap, [T1], queue residence, out-of-order ----
    std::vector<double> t1_ms;
    TimeNs t1_total = 0, t3_collate_total = 0;
    for (const auto &[key, batch] : batches) {
        if (!batch.has_collate || batch.first_start == 0)
            continue;
        t1_ms.push_back(toMs(batch.collate_end - batch.first_start));
        t1_total += batch.collate_end - batch.first_start;
        t3_collate_total += batch.t3 + batch.collate;
    }
    std::vector<double> residence_ms;
    for (const Span *next : nexts) {
        const auto it = batches.find(keyOf(*next));
        if (it != batches.end() && it->second.has_collate)
            residence_ms.push_back(toMs(next->end - it->second.collate_end));
    }
    std::int64_t ooo = 0;
    {
        std::map<std::pair<std::int32_t, std::int64_t>, TimeNs> latest;
        for (const auto &[key, batch] : batches) {
            if (!batch.has_collate)
                continue;
            TimeNs &seen = latest[{std::get<0>(key), std::get<1>(key)}];
            if (batch.collate_end < seen)
                ++ooo;
            seen = std::max(seen, batch.collate_end);
        }
    }
    add("worker.busy_ms", toMs(worker_busy), "ms");
    add("worker.gap_ms", toMs(worker_gap), "ms");
    add("batch.t1_p50_ms", percentile(t1_ms, 0.5), "ms");
    add("queue.residence_p50_ms", percentile(residence_ms, 0.5), "ms");
    add("queue.residence_tail_ms", tailPercentile(residence_ms).value, "ms");
    add("dataflow.ooo_batches", static_cast<double>(ooo), "count");

    // ---- service ----
    std::vector<double> shares(reportedTenants().size(), 0.0);
    std::vector<double> peaks(reportedTenants().size(), 0.0);
    double dropped = 0.0;
    if (input.server_before && input.server_after) {
        double total = 0.0;
        for (std::size_t t = 0; t < shares.size(); ++t) {
            const auto *after =
                clientById(*input.server_after, static_cast<std::int64_t>(t));
            const auto *before =
                clientById(*input.server_before, static_cast<std::int64_t>(t));
            if (after == nullptr || before == nullptr)
                continue;
            shares[t] =
                static_cast<double>(after->service_ns - before->service_ns);
            peaks[t] = static_cast<double>(after->peak_inflight_samples);
            total += shares[t];
        }
        for (double &share : shares)
            share = ratio(share, total);
        dropped = static_cast<double>(input.server_after->dropped_tasks -
                                      input.server_before->dropped_tasks);
    }
    for (std::size_t t = 0; t < shares.size(); ++t)
        add("service.share." + reportedTenants()[t], shares[t], "ratio");
    for (std::size_t t = 0; t < peaks.size(); ++t)
        add("service.peak_inflight." + reportedTenants()[t], peaks[t],
            "count");
    add("service.dropped_tasks", dropped, "count");

    // ---- closure / tracing ----
    add("closure.layers_over_busy",
        ratio(static_cast<double>(layer_self),
              static_cast<double>(worker_busy)),
        "ratio");
    add("closure.t1_over_t3_collate",
        ratio(static_cast<double>(t1_total),
              static_cast<double>(t3_collate_total)),
        "ratio");
    add("trace.overhead_pct",
        100.0 * ratio(input.untraced_rate - input.traced_rate,
                      input.untraced_rate),
        "%");
    return out;
}

} // namespace lotus::perfbench
