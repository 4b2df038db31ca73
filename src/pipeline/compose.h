/**
 * @file
 * Compose: a declaratively chained sequence of transforms, with the
 * paper's [T3] instrumentation (Listing 3) built in.
 *
 * Every transform application on every sample runs under one
 * trace::Span: with a TraceLogger it is logged with two timestamps —
 * name, start, duration — and the same duration feeds the op's
 * lotus_pipeline_op_ns histogram; the span also holds the op's
 * ground-truth tag so LotusMap's reconstruction can be scored against
 * reality in tests.
 */

#ifndef LOTUS_PIPELINE_COMPOSE_H
#define LOTUS_PIPELINE_COMPOSE_H

#include <vector>

#include "hwcount/registry.h"
#include "metrics/metrics.h"
#include "pipeline/transform.h"

namespace lotus::pipeline {

class Compose
{
  public:
    Compose() = default;
    explicit Compose(std::vector<TransformPtr> transforms);

    /** Append a transform. */
    void add(TransformPtr transform);

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    const Transform &
    transform(std::size_t i) const
    {
        return *entries_.at(i).transform;
    }

    /** Names of all transforms, in order. */
    std::vector<std::string> names() const;

    /**
     * Number of leading transforms that are deterministic(): the
     * cacheable pipeline prefix. The prefix ends at the first
     * stochastic op — a deterministic transform *after* a random one
     * is not cacheable, because its input already depends on random
     * draws.
     */
    std::size_t deterministicPrefixLength() const { return prefix_len_; }

    /**
     * Order-sensitive fingerprint of the deterministic prefix: a hash
     * chain over each prefix transform's (name, configHash). Part of
     * the lotus::cache key, so appending/removing/reconfiguring a
     * prefix op invalidates cached and materialized samples. Stable
     * across processes for the same transform configs.
     */
    std::uint64_t prefixFingerprint() const;

    /**
     * Apply every transform in order to @p sample.
     * [T3] per-op records go to ctx.logger when present.
     */
    void operator()(Sample &sample, PipelineContext &ctx) const;

    /** Apply only the deterministic prefix (ops [0, prefixLen)). */
    void applyPrefix(Sample &sample, PipelineContext &ctx) const;

    /** Apply only the random suffix (ops [prefixLen, size)). Never
     *  touches rng state for the prefix — deterministic ops draw
     *  nothing — so prefix-from-cache + suffix replays the exact
     *  stream a full application would. */
    void applySuffix(Sample &sample, PipelineContext &ctx) const;

  private:
    void applyRange(Sample &sample, PipelineContext &ctx,
                    std::size_t begin, std::size_t end) const;
    struct Entry
    {
        TransformPtr transform;
        hwcount::OpTag op_tag;
        /** `lotus_pipeline_op_ns{op="..."}` [T3] latency histogram. */
        metrics::Histogram *op_ns = nullptr;
    };

    std::vector<Entry> entries_;
    /** Leading deterministic run; maintained by add(). */
    std::size_t prefix_len_ = 0;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_COMPOSE_H
